//! Per-request serving metrics: TTFT, TPOT, end-to-end latency, and
//! their distribution summaries.
//!
//! The wave loop of the original reproduction only reported aggregate
//! decode throughput (the paper's Figs. 13–15/17 metric). Online serving
//! is judged on *latency percentiles* instead, so the engine records one
//! [`RequestTiming`] per finished request and summarizes them here.
//!
//! With prefill enabled ([`crate::policy::PrefillConfig`]) TTFT covers
//! arrival → first emitted token *end-to-end*: queueing delay, prompt
//! processing, and the first decode iteration. Each timing carries the
//! stage boundaries ([`RequestTiming::prefill_end`]) so reports can
//! decompose TTFT into queueing vs prefill delay
//! ([`LatencyReport::queueing`] / [`LatencyReport::prefill`]). When
//! prefill is disabled (the historical decode-only mode) `prefill_end`
//! coincides with `admitted` and TTFT measures arrival → first decode
//! step; comparisons between policies remain apples-to-apples because
//! every policy shares whichever convention is configured.
//!
//! Requests that never emit a token (a zero decode budget) produce **no**
//! timing sample: a fabricated first-token instant would silently clamp
//! TTFT to the admission time. [`LatencyReport::completed`] therefore
//! counts requests that emitted at least one token.

use crate::policy::PoolRole;
use serde::Serialize;

/// Timestamps of one request's path through a replica, in seconds of the
/// replica's virtual clock (trace epoch = 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestTiming {
    /// Request id within the trace.
    pub id: u64,
    /// Arrival time (0 for closed-world batch traces).
    pub arrival: f64,
    /// When the scheduling policy admitted the request into a batch.
    pub admitted: f64,
    /// When the request's prompt finished processing (equals `admitted`
    /// when prefill is not modeled).
    pub prefill_end: f64,
    /// When the first generated token completed.
    pub first_token: f64,
    /// When the last generated token completed.
    pub finished: f64,
    /// Tokens generated.
    pub decode_len: u64,
    /// The request's scheduling priority class (higher is more urgent).
    pub priority: u8,
    /// The tenant (traffic class) the request belongs to (0 for
    /// single-tenant traces).
    pub tenant: u8,
    /// How many times the request was evicted under memory pressure.
    pub evictions: u32,
    /// Seconds spent *re*-prefilling tokens that had already been
    /// computed before an eviction dropped their KV entries (0 when the
    /// request was never evicted). This is re-work: attributing it to
    /// the ordinary prefill bucket would silently inflate the
    /// prompt-processing story, so it gets its own
    /// [`LatencyReport::restart`] summary.
    pub restart_secs: f64,
}

impl RequestTiming {
    /// Time to first token: arrival → first generated token (includes
    /// queueing, prompt processing when modeled, and the first decode
    /// iteration).
    pub fn ttft(&self) -> f64 {
        self.first_token - self.arrival
    }

    /// Queueing delay: arrival → admission into a batch.
    pub fn queueing_delay(&self) -> f64 {
        self.admitted - self.arrival
    }

    /// Prompt-processing delay: admission → prompt resident in the KV
    /// cache (0 when prefill is not modeled).
    pub fn prefill_delay(&self) -> f64 {
        self.prefill_end - self.admitted
    }

    /// Time per output token over the steady decode phase (first → last
    /// token). Single-token requests have no inter-token gap; their TPOT
    /// is the first (only) token's post-prefill service time.
    pub fn tpot(&self) -> f64 {
        if self.decode_len > 1 {
            (self.finished - self.first_token) / (self.decode_len - 1) as f64
        } else {
            self.first_token - self.prefill_end
        }
    }

    /// End-to-end latency: arrival → last generated token.
    pub fn e2e(&self) -> f64 {
        self.finished - self.arrival
    }

    /// Seconds of post-eviction re-prefill service (see
    /// [`RequestTiming::restart_secs`]).
    pub fn restart_delay(&self) -> f64 {
        self.restart_secs
    }
}

/// Distribution summary of one latency metric, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Maximum observed.
    pub max: f64,
}

impl LatencySummary {
    /// Summarizes a sample set (empty input produces the zero summary).
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = samples.to_vec();
        count_sort();
        // total_cmp, not partial_cmp: floats are not totally ordered, and
        // a NaN must not be able to panic (or reorder) the percentile
        // pipeline — under total_cmp a stray NaN sorts last,
        // deterministically (the float-key simlint rule). Samples equal
        // under total_cmp are bit-identical, so an unstable sort yields
        // the same sequence as a stable one.
        sorted.sort_unstable_by(f64::total_cmp);
        Self::from_sorted(sorted.len(), sorted.iter().copied())
    }

    /// Summarizes the `n` samples `sorted` yields in ascending
    /// `total_cmp` order (`n == 0` produces the zero summary).
    fn from_sorted(n: usize, sorted: impl Iterator<Item = f64> + Clone) -> Self {
        if n == 0 {
            return LatencySummary::default();
        }
        // Nearest-rank percentile (smallest rank k with k/n >= q):
        // monotone in q by construction. The epsilon pins the exact
        // integer boundaries (`0.95 * 20` must stay rank 19, not jump to
        // 20): 0.95 is not representable in binary, so the product can
        // only be trusted to land within rounding noise of the boundary,
        // and a bare `ceil` would amplify any upward noise into a whole
        // rank. Safe because the exact products of the fixed quantiles
        // are multiples of 1/100, which is many orders above the epsilon.
        let rank = |q: f64| ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
        // p50, p95, p99 and max, in ascending rank order.
        let ranks = [rank(0.50), rank(0.95), rank(0.99), n];
        let mut picks = [0.0; 4];
        let mut next = 0;
        for (k, x) in (1..).zip(sorted.clone()) {
            while next < ranks.len() && ranks[next] == k {
                picks[next] = x;
                next += 1;
            }
            if next == ranks.len() {
                break;
            }
        }
        let [p50, p95, p99, max] = picks;
        LatencySummary {
            mean: sorted.sum::<f64>() / n as f64,
            p50,
            p95,
            p99,
            max,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Latency-metric sample sorts made on this thread (test builds
    /// only).
    static SORTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one latency-metric sort (test builds only).
#[inline(always)]
fn count_sort() {
    #[cfg(test)]
    SORTS.with(|n| n.set(n.get() + 1));
}

/// `x`'s bits, mapped so that unsigned order is [`f64::total_cmp`]
/// order: a negative float's bits are all flipped, a non-negative
/// float's sign bit is set.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`total_order_key`].
fn from_total_order_key(key: u64) -> f64 {
    let bits = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    f64::from_bits(bits)
}

/// Per-replica serving totals, populated by the cluster layer so
/// load-balancer skew is observable in the serving report
/// (`crate::ServingReport::per_replica`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ReplicaBreakdown {
    /// Requests the router dispatched to this replica.
    pub routed: u64,
    /// Requests that completed on this replica.
    pub served: u64,
    /// Decode tokens this replica produced.
    pub tokens: u64,
    /// Seconds this replica spent decoding.
    pub busy_seconds: f64,
    /// This replica's virtual end time.
    pub seconds: f64,
    /// Peak KV bytes reserved by the running batch under the active
    /// memory policy (whole-wave reservation under the wave policy).
    pub peak_reserved_kv: u64,
    /// Requests this replica evicted under memory pressure (0 unless a
    /// preemption policy is active).
    pub evictions: u64,
    /// Requests deadline-aware admission control dropped on this replica
    /// (0 unless a [`crate::policy::SheddingPolicy`] is armed).
    pub shed: u64,
}

/// Per-pool serving totals, populated by the cluster layer when the
/// scenario defines heterogeneous replica pools
/// (`crate::ServingReport::per_pool`; empty for pool-free runs so
/// historical reports stay byte-identical). A prefill pool's `served`
/// counts requests it *handed off* — the request finishes, and is
/// counted again, in the decode pool that ran its token generation.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct PoolBreakdown {
    /// The pool's name from the scenario spec.
    pub name: String,
    /// The serving phase the pool owns.
    pub role: PoolRole,
    /// Replicas in the pool.
    pub replicas: u32,
    /// Requests the phase-aware router dispatched into this pool.
    pub routed: u64,
    /// Requests retired by this pool (handed off for prefill pools,
    /// finished for decode/mixed pools).
    pub served: u64,
    /// Decode tokens the pool produced (0 for a pure prefill pool).
    pub tokens: u64,
    /// Seconds the pool's replicas spent serving batches.
    pub busy_seconds: f64,
    /// Requests evicted under memory pressure inside the pool.
    pub evictions: u64,
    /// Requests deadline-aware admission control dropped in the pool.
    pub shed: u64,
    /// Prefill-complete requests this pool handed off to a decode pool
    /// (0 unless the pool serves prefill in a disaggregated cluster).
    pub handoffs: u64,
    /// KV-cache bytes this pool shipped across the interconnect while
    /// handing off.
    pub kv_transferred_bytes: u64,
    /// Seconds of modeled KV-transfer latency the pool's handoffs spent
    /// on the wire (sum over handoffs, not wall-clock overlap).
    pub transfer_seconds: f64,
}

/// Jain's fairness index over a load vector: `(Σx)² / (n·Σx²)`, 1.0 for
/// a perfectly even split, approaching `1/n` when one entry carries
/// everything. Empty and all-zero inputs are defined as perfectly fair.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        1.0
    } else {
        sum * sum / (xs.len() as f64 * sum_sq)
    }
}

/// Latency statistics over every request that completed in a run.
///
/// Units and the full TTFT decomposition are documented in
/// `docs/metrics.md`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LatencyReport {
    /// Requests that finished with at least one emitted token.
    pub completed: u64,
    /// Time-to-first-token distribution (arrival → first token; includes
    /// prompt processing when prefill is modeled).
    pub ttft: LatencySummary,
    /// Time-per-output-token distribution.
    pub tpot: LatencySummary,
    /// End-to-end latency distribution.
    pub e2e: LatencySummary,
    /// Queueing-delay distribution (arrival → admission) — the TTFT
    /// share the *scheduler* is responsible for.
    pub queueing: LatencySummary,
    /// Prompt-processing delay distribution (admission → prompt
    /// resident; all-zero when prefill is not modeled) — the TTFT share
    /// the *prefill stage* is responsible for.
    pub prefill: LatencySummary,
    /// Post-eviction re-prefill service time distribution (all-zero
    /// when nothing was evicted) — re-work the *preemption policy* is
    /// responsible for, kept out of the `prefill` bucket so the
    /// prompt-processing decomposition stays honest.
    pub restart: LatencySummary,
}

/// The per-request metric each [`LatencyReport`] summary is drawn from,
/// in [`LatencyReport::from_parts`] order.
const METRICS: [fn(&RequestTiming) -> f64; 6] = [
    RequestTiming::ttft,
    RequestTiming::tpot,
    RequestTiming::e2e,
    RequestTiming::queueing_delay,
    RequestTiming::prefill_delay,
    RequestTiming::restart_delay,
];

/// A timing's class tag: its priority in the high byte, its tenant in
/// the low one.
fn class_tag(t: &RequestTiming) -> u16 {
    u16::from(t.priority) << 8 | u16::from(t.tenant)
}

impl LatencyReport {
    /// Builds the report from per-request timings.
    pub fn from_timings(timings: &[RequestTiming]) -> Self {
        Self::split(timings, &[]).0
    }

    /// Splits the timings into one report per priority class present,
    /// sorted by descending priority (the most urgent class first) —
    /// the per-SLO view preemption policies are judged on. A
    /// single-class trace yields one entry identical to the aggregate
    /// report.
    pub fn by_priority(timings: &[RequestTiming]) -> Vec<PriorityLatency> {
        Self::summaries(timings, &[]).1
    }

    /// Splits the timings into one [`TenantLatency`] per tenant id
    /// present, ascending. `slos` maps tenant ids to TTFT targets in
    /// seconds (tenants absent from the map have no target); attainment
    /// is the fraction of the tenant's completed requests whose TTFT
    /// met its target. A single-tenant trace yields one entry whose
    /// latency mirrors the aggregate report.
    pub fn by_tenant(timings: &[RequestTiming], slos: &[(u8, f64)]) -> Vec<TenantLatency> {
        Self::summaries(timings, slos).2
    }

    /// The aggregate report, [`Self::by_priority`] and
    /// [`Self::by_tenant`] together, from one sort per metric.
    pub(crate) fn summaries(
        timings: &[RequestTiming],
        slos: &[(u8, f64)],
    ) -> (LatencyReport, Vec<PriorityLatency>, Vec<TenantLatency>) {
        let mut priorities: Vec<u8> = timings.iter().map(|t| t.priority).collect();
        priorities.sort_unstable_by(|a, b| b.cmp(a));
        priorities.dedup();
        let mut tenants: Vec<u8> = timings.iter().map(|t| t.tenant).collect();
        tenants.sort_unstable();
        tenants.dedup();
        let classes: Vec<(u16, u16)> = priorities
            .iter()
            .map(|&p| (0xff00, u16::from(p) << 8))
            .chain(tenants.iter().map(|&t| (0x00ff, u16::from(t))))
            .collect();
        let (aggregate, mut reports) = Self::split(timings, &classes);
        let tenant_reports = reports.split_off(priorities.len());
        let by_priority = priorities
            .into_iter()
            .zip(reports)
            .map(|(priority, latency)| PriorityLatency { priority, latency })
            .collect();
        let by_tenant = tenants
            .into_iter()
            .zip(tenant_reports)
            .map(|(tenant, latency)| {
                let slo_ttft = slos
                    .iter()
                    .find(|(t, _)| *t == tenant)
                    .map(|(_, s)| *s)
                    .unwrap_or(f64::INFINITY);
                let class = timings.iter().filter(|t| t.tenant == tenant);
                let met = class.clone().filter(|t| t.ttft() <= slo_ttft);
                TenantLatency {
                    tenant,
                    tokens: class.map(|t| t.decode_len).sum(),
                    goodput_tokens: met.clone().map(|t| t.decode_len).sum(),
                    slo_ttft,
                    // A listed tenant has at least one completion.
                    slo_attainment: met.count() as f64 / latency.completed as f64,
                    latency,
                }
            })
            .collect();
        (aggregate, by_priority, by_tenant)
    }

    /// The report over all of `timings`, and one per class: a class is
    /// the timings whose [`class_tag`] masked by its first member equals
    /// its second.
    ///
    /// Each metric is sorted once, as `u128`s holding its
    /// [`total_order_key`] above the sample's class tag, and every
    /// summary is read off that one order: a class's samples, taken in
    /// aggregate order, are already sorted, and samples equal under
    /// `total_cmp` are bit-identical, so each summary is bit-exact with
    /// [`LatencySummary::from_samples`] over the class alone.
    fn split(timings: &[RequestTiming], classes: &[(u16, u16)]) -> (Self, Vec<Self>) {
        let in_class = |(mask, value): (u16, u16)| move |tag: u16| tag & mask == value;
        let counts: Vec<usize> = classes
            .iter()
            .map(|&c| timings.iter().filter(|t| in_class(c)(class_tag(t))).count())
            .collect();
        let mut aggregate = [LatencySummary::default(); 6];
        let mut summaries = vec![[LatencySummary::default(); 6]; classes.len()];
        let mut keys: Vec<u128> = Vec::with_capacity(timings.len());
        for (m, metric) in METRICS.iter().enumerate() {
            keys.clear();
            keys.extend(
                timings.iter().map(|t| {
                    u128::from(total_order_key(metric(t))) << 16 | u128::from(class_tag(t))
                }),
            );
            count_sort();
            keys.sort_unstable();
            let value = |&k: &u128| from_total_order_key((k >> 16) as u64);
            aggregate[m] = LatencySummary::from_sorted(keys.len(), keys.iter().map(value));
            for ((&c, &n), s) in classes.iter().zip(&counts).zip(&mut summaries) {
                s[m] = if n == keys.len() {
                    aggregate[m]
                } else {
                    let class = in_class(c);
                    let sorted = keys.iter().filter(|&&k| class(k as u16)).map(value);
                    LatencySummary::from_sorted(n, sorted)
                };
            }
        }
        (
            Self::from_parts(timings.len(), aggregate),
            counts
                .into_iter()
                .zip(summaries)
                .map(|(n, s)| Self::from_parts(n, s))
                .collect(),
        )
    }

    /// A report over `completed` timings from its summaries, in
    /// [`METRICS`] order.
    fn from_parts(completed: usize, summaries: [LatencySummary; 6]) -> Self {
        let [ttft, tpot, e2e, queueing, prefill, restart] = summaries;
        LatencyReport {
            completed: completed as u64,
            ttft,
            tpot,
            e2e,
            queueing,
            prefill,
            restart,
        }
    }
}

/// Latency statistics of one priority class (see
/// [`LatencyReport::by_priority`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct PriorityLatency {
    /// The class's priority value (higher is more urgent).
    pub priority: u8,
    /// Latency statistics over the class's completed requests.
    pub latency: LatencyReport,
}

/// Serving statistics of one tenant (traffic class): latency summary,
/// delivered tokens, and — when the tenant carries an SLO target —
/// attainment against it (see [`LatencyReport::by_tenant`]; field
/// glossary in `docs/metrics.md`).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TenantLatency {
    /// The tenant id ([`workload::Request::tenant`]).
    pub tenant: u8,
    /// Latency statistics over the tenant's completed requests.
    pub latency: LatencyReport,
    /// Decode tokens delivered to the tenant (the trace-demanded tokens
    /// of its completed requests, excluding any eviction re-decode
    /// waste).
    pub tokens: u64,
    /// The share of `tokens` delivered *inside* the tenant's TTFT SLO —
    /// its goodput numerator (`crate::ServingReport::goodput` divides
    /// the cluster-wide sum by wall-clock seconds). Equals `tokens`
    /// when the tenant has no target: an untargeted tenant's service
    /// always counts.
    pub goodput_tokens: u64,
    /// The tenant's p99-style TTFT SLO target in seconds
    /// (`f64::INFINITY` when the tenant has none).
    pub slo_ttft: f64,
    /// Fraction of the tenant's completed requests whose TTFT met the
    /// SLO target (1.0 when there is no target or no completion —
    /// vacuously attained).
    pub slo_attainment: f64,
}

/// Jain's fairness index over per-tenant delivered tokens (goodput):
/// 1.0 when every tenant received equal token service, approaching
/// `1/tenants` when one tenant monopolized the cluster. Empty and
/// all-zero inputs are defined as perfectly fair (see
/// [`jain_fairness`]).
pub fn tenant_goodput_fairness(tenants: &[TenantLatency]) -> f64 {
    let tokens: Vec<f64> = tenants.iter().map(|t| t.tokens as f64).collect();
    jain_fairness(&tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(arrival: f64, admitted: f64, first: f64, finished: f64, d: u64) -> RequestTiming {
        RequestTiming {
            id: 0,
            arrival,
            admitted,
            prefill_end: admitted,
            first_token: first,
            finished,
            decode_len: d,
            priority: 0,
            tenant: 0,
            evictions: 0,
            restart_secs: 0.0,
        }
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = LatencySummary::from_samples(&samples);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn empty_and_singleton_summaries() {
        assert_eq!(LatencySummary::from_samples(&[]), LatencySummary::default());
        // 1 sample: every rank clamps to the sole observation and the
        // percentiles stay (trivially) monotone.
        let s = LatencySummary::from_samples(&[2.5]);
        assert_eq!((s.p50, s.p95, s.p99, s.max), (2.5, 2.5, 2.5, 2.5));
        assert_eq!(s.mean, 2.5);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn two_sample_nearest_rank() {
        // n = 2: p50 is rank ceil(0.5·2) = 1 (the smaller sample), while
        // p95/p99 are rank 2 — clamp's upper boundary. Monotone, and p50
        // must NOT be pulled up to the max.
        let s = LatencySummary::from_samples(&[4.0, 1.0]);
        assert_eq!(s.p50, 1.0);
        assert_eq!(s.p95, 4.0);
        assert_eq!(s.p99, 4.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn integer_rank_boundaries_do_not_round_up() {
        // 0.95·20 = 19 exactly in ℝ but only within rounding noise of it
        // in f64; the nearest-rank pick must return the 19th sample, not
        // the 20th, regardless of which side the product lands on.
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.p95, 19.0);
        assert_eq!(s.p50, 10.0); // 0.50·20 = rank 10, not 11
        assert_eq!(s.p99, 20.0); // ceil(19.8) = 20
        assert_eq!(s.max, 20.0);
    }

    #[test]
    fn rank_clamps_at_lower_boundary() {
        // Tiny q·n products still clamp to rank 1 (first sample), never
        // rank 0 / underflow.
        let s = LatencySummary::from_samples(&[7.0, 9.0]);
        assert_eq!(s.p50, 7.0);
    }

    #[test]
    fn jain_fairness_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_fairness(&[3.0, 3.0, 3.0]), 1.0);
        let skewed = jain_fairness(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12, "{skewed}");
        let mild = jain_fairness(&[2.0, 1.0]);
        assert!(mild > 0.25 && mild < 1.0, "{mild}");
    }

    #[test]
    fn timing_derivations() {
        let t = timing(1.0, 2.0, 3.0, 12.0, 10);
        assert_eq!(t.ttft(), 2.0);
        assert_eq!(t.e2e(), 11.0);
        assert!((t.tpot() - 1.0).abs() < 1e-12);
        // Single-token request: TPOT is the sole token's service time.
        let one = timing(0.0, 0.5, 1.5, 1.5, 1);
        assert_eq!(one.tpot(), 1.0);
    }

    #[test]
    fn ttft_decomposes_into_queueing_prefill_and_first_step() {
        let t = RequestTiming {
            id: 1,
            arrival: 1.0,
            admitted: 2.5,
            prefill_end: 4.0,
            first_token: 4.2,
            finished: 9.2,
            decode_len: 6,
            priority: 0,
            tenant: 0,
            evictions: 0,
            restart_secs: 0.0,
        };
        assert!((t.queueing_delay() - 1.5).abs() < 1e-12);
        assert!((t.prefill_delay() - 1.5).abs() < 1e-12);
        // TTFT = queueing + prefill + first decode step, exactly.
        let first_step = t.first_token - t.prefill_end;
        assert!((t.ttft() - (t.queueing_delay() + t.prefill_delay() + first_step)).abs() < 1e-12);
        // Single-token TPOT measures from the end of prefill, not from
        // admission — prompt processing is not token service time.
        let one = RequestTiming {
            decode_len: 1,
            finished: 4.2,
            ..t
        };
        assert!((one.tpot() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn report_summarizes_queueing_and_prefill() {
        let mk = |arrival: f64, admitted: f64, prefill_end: f64| RequestTiming {
            id: 0,
            arrival,
            admitted,
            prefill_end,
            first_token: prefill_end + 0.1,
            finished: prefill_end + 1.1,
            decode_len: 4,
            priority: 0,
            tenant: 0,
            evictions: 0,
            restart_secs: 0.0,
        };
        let r = LatencyReport::from_timings(&[mk(0.0, 0.5, 1.5), mk(1.0, 1.2, 3.2)]);
        assert!((r.queueing.max - 0.5).abs() < 1e-12);
        assert!((r.prefill.max - 2.0).abs() < 1e-12);
        assert!((r.queueing.mean - 0.35).abs() < 1e-12);
        // Decode-only timings leave the prefill summary at zero.
        let d = LatencyReport::from_timings(&[timing(0.0, 0.5, 1.0, 2.0, 4)]);
        assert_eq!(d.prefill, LatencySummary::from_samples(&[0.0]));
    }

    #[test]
    fn restart_rework_lands_in_its_own_bucket_not_prefill() {
        // Two requests with identical prompt-residency timestamps; one
        // was evicted and spent 2.0 s re-prefilling afterwards. The
        // prefill decomposition (admission → first prompt residency)
        // must be identical for both — re-work is reported under
        // `restart`, never folded into `prefill`.
        let clean = timing(0.0, 1.0, 3.5, 9.0, 8);
        let evicted = RequestTiming {
            evictions: 1,
            restart_secs: 2.0,
            finished: 11.0,
            ..clean
        };
        assert_eq!(clean.prefill_delay(), evicted.prefill_delay());
        assert_eq!(evicted.restart_delay(), 2.0);
        let r = LatencyReport::from_timings(&[clean, evicted]);
        assert_eq!(r.prefill.max, clean.prefill_delay());
        assert_eq!(r.restart.max, 2.0);
        assert_eq!(r.restart.p50, 0.0, "the clean request has no re-work");
        // An eviction-free run reports an all-zero restart summary.
        let quiet = LatencyReport::from_timings(&[clean]);
        assert_eq!(quiet.restart, LatencySummary::from_samples(&[0.0]));
    }

    #[test]
    fn by_priority_splits_classes_most_urgent_first() {
        let mk = |priority: u8, first: f64| RequestTiming {
            priority,
            ..timing(0.0, 0.5, first, first + 1.0, 4)
        };
        let timings = [mk(0, 10.0), mk(2, 1.0), mk(0, 12.0), mk(1, 5.0)];
        let split = LatencyReport::by_priority(&timings);
        assert_eq!(split.len(), 3);
        assert_eq!(
            split.iter().map(|p| p.priority).collect::<Vec<_>>(),
            vec![2, 1, 0]
        );
        assert_eq!(split[0].latency.completed, 1);
        assert_eq!(split[2].latency.completed, 2);
        assert!(split[0].latency.ttft.max < split[2].latency.ttft.p50);
        // A single-class input collapses to the aggregate report.
        let single = LatencyReport::by_priority(&[mk(0, 10.0), mk(0, 12.0)]);
        assert_eq!(single.len(), 1);
        assert_eq!(
            single[0].latency,
            LatencyReport::from_timings(&[mk(0, 10.0), mk(0, 12.0)])
        );
    }

    #[test]
    fn by_tenant_splits_ascending_with_slo_attainment() {
        let mk = |tenant: u8, first: f64, d: u64| RequestTiming {
            tenant,
            decode_len: d,
            ..timing(0.0, 0.5, first, first + 1.0, d)
        };
        // Tenant 0: TTFTs 1.0 and 5.0; tenant 2: TTFT 10.0.
        let timings = [mk(0, 1.0, 8), mk(2, 10.0, 4), mk(0, 5.0, 8)];
        let split = LatencyReport::by_tenant(&timings, &[(0, 2.0), (2, 20.0)]);
        assert_eq!(split.len(), 2);
        assert_eq!(split[0].tenant, 0);
        assert_eq!(split[1].tenant, 2);
        assert_eq!(split[0].latency.completed, 2);
        assert_eq!(split[0].tokens, 16);
        assert_eq!(split[0].slo_ttft, 2.0);
        assert!((split[0].slo_attainment - 0.5).abs() < 1e-12);
        assert_eq!(split[1].slo_attainment, 1.0);
        // Goodput tokens count only the in-SLO completions: tenant 0
        // delivered 16 tokens but only the TTFT-1.0 request's 8 landed
        // inside its 2.0 s target; tenant 2 met its target fully.
        assert_eq!(split[0].goodput_tokens, 8);
        assert_eq!(split[1].goodput_tokens, split[1].tokens);
        // A tenant without a target is vacuously attained.
        let untargeted = LatencyReport::by_tenant(&timings, &[]);
        assert!(untargeted.iter().all(|t| t.slo_attainment == 1.0));
        assert!(untargeted.iter().all(|t| t.slo_ttft.is_infinite()));
        // Goodput fairness: even split is 1.0, monopolized is 1/n.
        assert_eq!(tenant_goodput_fairness(&[]), 1.0);
        let even = LatencyReport::by_tenant(&[mk(0, 1.0, 8), mk(1, 1.0, 8)], &[]);
        assert!((tenant_goodput_fairness(&even) - 1.0).abs() < 1e-12);
        let skewed = LatencyReport::by_tenant(&[mk(0, 1.0, 8), mk(1, 1.0, 0)], &[]);
        assert!((tenant_goodput_fairness(&skewed) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_class_splits_reuse_the_aggregate() {
        let mk = |priority: u8, tenant: u8, first: f64| RequestTiming {
            priority,
            tenant,
            ..timing(0.0, 0.5, first, first + 1.0, 4)
        };
        let slos = [(3, 11.0)];
        let single = [mk(1, 3, 10.0), mk(1, 3, 12.0), mk(1, 3, 10.0)];
        let aggregate = LatencyReport::from_timings(&single);
        let by_priority = LatencyReport::by_priority(&single);
        assert_eq!(by_priority.len(), 1);
        assert_eq!(by_priority[0].latency, aggregate);
        let by_tenant = LatencyReport::by_tenant(&single, &slos);
        assert_eq!(by_tenant.len(), 1);
        assert_eq!(by_tenant[0].latency, aggregate);
        assert_eq!(by_tenant[0].tokens, 12);
        assert_eq!(by_tenant[0].goodput_tokens, 8);
        // The combined entry the merge calls agrees with all three.
        assert_eq!(
            LatencyReport::summaries(&single, &slos),
            (aggregate, by_priority, by_tenant)
        );
        let mixed = [mk(0, 3, 10.0), mk(1, 4, 12.0), mk(1, 3, 11.0)];
        assert_eq!(
            LatencyReport::summaries(&mixed, &slos),
            (
                LatencyReport::from_timings(&mixed),
                LatencyReport::by_priority(&mixed),
                LatencyReport::by_tenant(&mixed, &slos)
            )
        );
    }

    /// The report as it was built before the single-sort split: every
    /// metric of every class summarized from a filtered copy of the
    /// timings with its own sort.
    fn oracle_report(timings: &[RequestTiming]) -> LatencyReport {
        let collect =
            |f: fn(&RequestTiming) -> f64| -> Vec<f64> { timings.iter().map(f).collect() };
        LatencyReport {
            completed: timings.len() as u64,
            ttft: LatencySummary::from_samples(&collect(RequestTiming::ttft)),
            tpot: LatencySummary::from_samples(&collect(RequestTiming::tpot)),
            e2e: LatencySummary::from_samples(&collect(RequestTiming::e2e)),
            queueing: LatencySummary::from_samples(&collect(RequestTiming::queueing_delay)),
            prefill: LatencySummary::from_samples(&collect(RequestTiming::prefill_delay)),
            restart: LatencySummary::from_samples(&collect(RequestTiming::restart_delay)),
        }
    }

    /// Bit-for-bit equality of two reports (`==` on floats would let
    /// `0.0` stand for `-0.0`).
    fn bits(r: &LatencyReport) -> Vec<u64> {
        let mut out = vec![r.completed];
        for s in [r.ttft, r.tpot, r.e2e, r.queueing, r.prefill, r.restart] {
            out.extend([s.mean, s.p50, s.p95, s.p99, s.max].map(f64::to_bits));
        }
        out
    }

    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n`.
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A time drawn from a small grid, so samples tie often, or
        /// `±0.0`, or a value off the grid.
        fn time(&mut self) -> f64 {
            match self.below(8) {
                0 => 0.0,
                1 => -0.0,
                2 => self.next() as f64 / u64::MAX as f64,
                _ => self.below(6) as f64 * 0.25,
            }
        }
    }

    #[test]
    fn single_sort_summaries_equal_per_class_sorts() {
        let mut rng = SplitMix(2026);
        for case in 0..400 {
            let tenants = 1 + rng.below(4) as u8;
            let priorities = 1 + rng.below(3) as u8;
            let n = rng.below(40) as usize;
            let timings: Vec<RequestTiming> = (0..n)
                .map(|i| {
                    let arrival = rng.time();
                    let admitted = arrival + rng.time();
                    let prefill_end = admitted + rng.time();
                    let first_token = prefill_end + rng.time();
                    RequestTiming {
                        id: i as u64,
                        arrival,
                        admitted,
                        prefill_end,
                        first_token,
                        finished: first_token + rng.time(),
                        decode_len: rng.below(4),
                        priority: rng.below(u64::from(priorities)) as u8,
                        tenant: rng.below(u64::from(tenants)) as u8,
                        evictions: 0,
                        // Every fourth case keeps the all-zero restart
                        // metric of an eviction-free run.
                        restart_secs: if case % 4 == 0 { 0.0 } else { rng.time() },
                    }
                })
                .collect();
            let slos = [(0, 0.5), (2, 1.0)];
            let filtered = |keep: &dyn Fn(&RequestTiming) -> bool| -> Vec<RequestTiming> {
                timings.iter().copied().filter(|t| keep(t)).collect()
            };
            assert_eq!(
                bits(&LatencyReport::from_timings(&timings)),
                bits(&oracle_report(&timings)),
                "case {case}: aggregate"
            );
            for p in LatencyReport::by_priority(&timings) {
                let class = filtered(&|t| t.priority == p.priority);
                assert_eq!(
                    bits(&p.latency),
                    bits(&oracle_report(&class)),
                    "case {case}: priority {}",
                    p.priority
                );
            }
            for t in LatencyReport::by_tenant(&timings, &slos) {
                let class = filtered(&|r| r.tenant == t.tenant);
                assert_eq!(
                    bits(&t.latency),
                    bits(&oracle_report(&class)),
                    "case {case}: tenant {}",
                    t.tenant
                );
            }
        }
    }

    #[test]
    fn a_report_sorts_each_metric_once() {
        let mk = |priority: u8, tenant: u8, first: f64| RequestTiming {
            priority,
            tenant,
            ..timing(0.0, 0.5, first, first + 1.0, 4)
        };
        let timings = [mk(0, 0, 3.0), mk(1, 1, 2.0), mk(1, 0, 5.0), mk(0, 1, 1.0)];
        SORTS.set(0);
        let (_, by_priority, by_tenant) = LatencyReport::summaries(&timings, &[]);
        assert_eq!((by_priority.len(), by_tenant.len()), (2, 2));
        assert_eq!(SORTS.get(), METRICS.len() as u64);
    }

    #[test]
    fn report_counts_completions() {
        let r = LatencyReport::from_timings(&[
            timing(0.0, 0.0, 1.0, 5.0, 8),
            timing(0.5, 1.0, 2.0, 6.0, 8),
        ]);
        assert_eq!(r.completed, 2);
        assert!(r.ttft.p50 > 0.0 && r.e2e.max >= r.e2e.p99);
    }
}
