//! Request and trace generation.
//!
//! Context lengths are drawn from a normal distribution truncated to the
//! dataset's `[min, max]` range (rejection sampling), matching Table II's
//! moments. Decode lengths default to a fixed budget, as the paper's
//! throughput metric is decode-phase tokens/second; online-serving
//! studies can widen them with [`TraceBuilder::decode_range`].
//!
//! For open-loop (continuous-batching) experiments, requests additionally
//! carry an **arrival time**. [`ArrivalProcess::Batch`] (the default)
//! reproduces the paper's closed-world evaluation where every request is
//! available at time zero; [`ArrivalProcess::Poisson`] models steady
//! traffic with exponential interarrivals; [`ArrivalProcess::Bursty`]
//! uses gamma interarrivals with a coefficient of variation above one, so
//! requests cluster into bursts at the same average rate.

use crate::dataset::{Dataset, DatasetStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Request {
    /// Stable identifier within its trace.
    pub id: u64,
    /// Prompt (context) length in tokens — the tokens the prefill stage
    /// must process before the first token can be generated (see
    /// [`Request::prompt_len`]).
    pub context_len: u64,
    /// Tokens to generate in the decode phase.
    pub decode_len: u64,
    /// Arrival time in integer microseconds since the trace epoch
    /// (microseconds keep `Request` hashable and exactly comparable).
    pub arrival_us: u64,
    /// Scheduling priority class: higher values are more urgent.
    /// Priority 0 (the default) reproduces plain FCFS; under the serving
    /// stack's preemption policies a higher-priority arrival may evict
    /// strictly-lower-priority running requests to claim their KV
    /// reservation.
    pub priority: u8,
    /// Tenant (traffic-class) id the request belongs to — 0 for
    /// single-tenant traces. Tenants are the unit of the serving
    /// report's per-tenant latency/SLO/fairness breakdown; the id is
    /// purely a label and never influences scheduling (priorities do
    /// that).
    pub tenant: u8,
    /// Leading prompt tokens shared verbatim with every other request
    /// of the same tenant (a common system prompt / few-shot template).
    /// Always `<= context_len`. Pure metadata for the serving stack's
    /// prefix cache: with paged KV + prefix caching enabled, these
    /// tokens can map already-computed pages and skip their prefill; 0
    /// (the default) means no sharing and is bit-identical to traces
    /// generated before this field existed.
    pub shared_prefix: u64,
}

impl Request {
    /// Context plus generated tokens at decode completion.
    pub fn final_len(&self) -> u64 {
        self.context_len + self.decode_len
    }

    /// The prompt length the prefill stage processes, in tokens.
    /// Synonym for `context_len`, named for the serving-side semantics:
    /// a prefill-enabled simulation must compute attention and FC over
    /// exactly these tokens before the request's first decode step.
    pub fn prompt_len(&self) -> u64 {
        self.context_len
    }

    /// Arrival time in seconds since the trace epoch.
    pub fn arrival_secs(&self) -> f64 {
        self.arrival_us as f64 * 1e-6
    }
}

/// An ordered set of requests presented to the serving system.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    requests: Vec<Request>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The requests in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterates over requests.
    pub fn iter(&self) -> std::slice::Iter<'_, Request> {
        self.requests.iter()
    }

    /// Mean context length (0 for an empty trace).
    pub fn mean_context(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(|r| r.context_len as f64)
            .sum::<f64>()
            / self.len() as f64
    }

    /// Standard deviation of context lengths.
    pub fn std_context(&self) -> f64 {
        if self.requests.len() < 2 {
            return 0.0;
        }
        let mean = self.mean_context();
        let var = self
            .requests
            .iter()
            .map(|r| (r.context_len as f64 - mean).powi(2))
            .sum::<f64>()
            / self.len() as f64;
        var.sqrt()
    }

    /// Minimum and maximum context lengths, or `None` if empty.
    pub fn context_range(&self) -> Option<(u64, u64)> {
        let min = self.requests.iter().map(|r| r.context_len).min()?;
        let max = self.requests.iter().map(|r| r.context_len).max()?;
        Some((min, max))
    }

    /// Total decode tokens across the trace.
    pub fn total_decode_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.decode_len).sum()
    }

    /// Total prompt tokens across the trace — the work a
    /// prefill-enabled simulation must process exactly once.
    pub fn total_prompt_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.prompt_len()).sum()
    }

    /// Worst-case final length across the trace (0 if empty) — the
    /// `T_max` the serving configuration is compiled for.
    pub fn max_final_len(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| r.final_len())
            .max()
            .unwrap_or(0)
    }

    /// The requests in global arrival order (`(arrival_us, id)`,
    /// stable), the stream a cluster front-end consumes. Builder traces
    /// already arrive in this order, so for them this borrows the trace;
    /// only an out-of-order trace is copied and sorted.
    pub fn arrival_ordered(&self) -> Cow<'_, [Request]> {
        let key = |r: &Request| (r.arrival_us, r.id);
        if self.requests.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
            return Cow::Borrowed(&self.requests);
        }
        let mut ordered = self.requests.clone();
        ordered.sort_by_key(key);
        Cow::Owned(ordered)
    }

    /// Last arrival time in seconds (0 for batch traces and empty traces).
    pub fn last_arrival_secs(&self) -> f64 {
        self.requests
            .iter()
            .map(|r| r.arrival_us)
            .max()
            .unwrap_or(0) as f64
            * 1e-6
    }

    /// Offered load in requests/second over the arrival span, or `None`
    /// for batch traces whose arrivals all coincide.
    pub fn offered_rate(&self) -> Option<f64> {
        let span = self.last_arrival_secs();
        (span > 0.0).then(|| self.len() as f64 / span)
    }

    /// The distinct tenant ids present, ascending.
    pub fn tenants(&self) -> Vec<u8> {
        let mut t: Vec<u8> = self.requests.iter().map(|r| r.tenant).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Merges per-tenant traces into one globally arrival-ordered
    /// trace: ids are offset by the cumulative request count so they
    /// stay unique across tenants, then the merged stream is sorted by
    /// `(arrival_us, id)` — the order a shared cluster front-end sees.
    /// Merging a single trace is the identity (ids untouched; builder
    /// traces are already arrival-ordered), which is what keeps
    /// one-tenant scenarios bit-exact with plain [`TraceBuilder`]
    /// traces.
    pub fn merge(traces: impl IntoIterator<Item = Trace>) -> Trace {
        let mut requests = Vec::new();
        let mut offset = 0u64;
        for t in traces {
            let n = t.requests.len() as u64;
            requests.extend(t.requests.into_iter().map(|mut r| {
                r.id += offset;
                r
            }));
            offset += n;
        }
        requests.sort_by_key(|r| (r.arrival_us, r.id));
        Trace { requests }
    }
}

impl FromIterator<Request> for Trace {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Self {
        Trace {
            requests: iter.into_iter().collect(),
        }
    }
}

/// The request arrival-time process of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Closed world: every request is available at time zero (the paper's
    /// wave-serving evaluation).
    Batch,
    /// Steady open-loop traffic: exponential interarrivals at `rate`
    /// requests/second.
    Poisson {
        /// Mean arrival rate in requests/second.
        rate: f64,
    },
    /// Bursty open-loop traffic: gamma interarrivals with coefficient of
    /// variation `cv > 1` at the same mean `rate` (cv = 1 degenerates to
    /// Poisson).
    Bursty {
        /// Mean arrival rate in requests/second.
        rate: f64,
        /// Coefficient of variation of the interarrival time (≥ 1).
        cv: f64,
    },
}

impl ArrivalProcess {
    /// Mean arrival rate in requests/second (`None` for batch arrivals).
    pub fn rate(&self) -> Option<f64> {
        match *self {
            ArrivalProcess::Batch => None,
            ArrivalProcess::Poisson { rate } | ArrivalProcess::Bursty { rate, .. } => Some(rate),
        }
    }

    /// Draws one interarrival gap in seconds.
    fn sample_gap(&self, rng: &mut StdRng) -> f64 {
        match *self {
            ArrivalProcess::Batch => 0.0,
            ArrivalProcess::Poisson { rate } => sample_exponential(rng) / rate,
            ArrivalProcess::Bursty { rate, cv } => {
                // Gamma with mean 1/rate and cv: shape k = 1/cv², scale
                // chosen so k·scale = 1/rate.
                let shape = (1.0 / (cv * cv)).max(1e-3);
                sample_gamma(rng, shape) / (shape * rate)
            }
        }
    }
}

/// The per-request decode budget specification.
///
/// `Fixed` draws nothing from the RNG; `Uniform` draws one value per
/// request (even when `lo == hi`), so the two are *not* interchangeable
/// on seeded traces — scenario specs must preserve which one they mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecodeSpec {
    /// Every request decodes exactly this many tokens.
    Fixed(u64),
    /// Each request's budget is drawn uniformly over the inclusive
    /// range (requires `1 <= lo <= hi`).
    Uniform(u64, u64),
}

impl DecodeSpec {
    /// Whether the spec is well-formed (uniform needs `1 <= lo <= hi`).
    pub fn is_valid(&self) -> bool {
        match *self {
            DecodeSpec::Fixed(_) => true,
            DecodeSpec::Uniform(lo, hi) => lo >= 1 && lo <= hi,
        }
    }
}

/// Builder for reproducible traces.
///
/// # Example
///
/// ```
/// use workload::{Dataset, TraceBuilder};
/// let trace = TraceBuilder::new(Dataset::QmSum).seed(7).requests(64).build();
/// assert_eq!(trace.len(), 64);
/// let (min, max) = trace.context_range().unwrap();
/// assert!(min >= Dataset::QmSum.stats().min && max <= Dataset::QmSum.stats().max);
/// // Closed-world by default; opt into open-loop arrivals:
/// let online = TraceBuilder::new(Dataset::QmSum).seed(7).requests(64).poisson(5.0).build();
/// assert!(online.last_arrival_secs() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    stats: DatasetStats,
    seed: u64,
    n: usize,
    decode: DecodeSpec,
    sigma_clip: Option<f64>,
    arrivals: ArrivalProcess,
    priority_levels: u8,
    fixed_priority: Option<u8>,
    tenant: u8,
    shared_prefix: u64,
}

impl TraceBuilder {
    /// Starts a builder for one of the Table II datasets.
    pub fn new(dataset: Dataset) -> Self {
        Self::from_stats(dataset.stats())
    }

    /// Starts a builder from custom statistics (used by the Fig. 17
    /// 3-sigma synthetic sweep).
    pub fn from_stats(stats: DatasetStats) -> Self {
        TraceBuilder {
            stats,
            seed: 0,
            n: 128,
            decode: DecodeSpec::Fixed(256),
            sigma_clip: None,
            arrivals: ArrivalProcess::Batch,
            priority_levels: 1,
            fixed_priority: None,
            tenant: 0,
            shared_prefix: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of requests.
    pub fn requests(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Sets a fixed per-request decode budget.
    pub fn decode_len(mut self, tokens: u64) -> Self {
        self.decode = DecodeSpec::Fixed(tokens);
        self
    }

    /// Draws each request's decode budget uniformly from `[lo, hi]`
    /// (inclusive) — response lengths vary in production traffic, which
    /// is what gives continuous batching its refill advantage.
    pub fn decode_range(mut self, lo: u64, hi: u64) -> Self {
        self.decode = DecodeSpec::Uniform(lo, hi);
        self
    }

    /// Sets the decode budget from an explicit [`DecodeSpec`] (the form
    /// scenario specs deserialize into).
    pub fn decode(mut self, spec: DecodeSpec) -> Self {
        self.decode = spec;
        self
    }

    /// Additionally truncates samples to `mean ± k·std` (the paper's
    /// "3-sigma context variation" uses `k = 3`).
    pub fn sigma_clip(mut self, k: f64) -> Self {
        self.sigma_clip = Some(k);
        self
    }

    /// Sets the arrival-time process (default: batch, all at time zero).
    pub fn arrivals(mut self, process: ArrivalProcess) -> Self {
        if let Some(rate) = process.rate() {
            assert!(
                rate > 0.0 && rate.is_finite(),
                "arrival rate must be positive"
            );
        }
        if let ArrivalProcess::Bursty { cv, .. } = process {
            assert!(cv >= 1.0, "bursty cv must be >= 1 (cv = 1 is Poisson)");
        }
        self.arrivals = process;
        self
    }

    /// Poisson arrivals at `rate` requests/second.
    pub fn poisson(self, rate: f64) -> Self {
        self.arrivals(ArrivalProcess::Poisson { rate })
    }

    /// Bursty (gamma) arrivals at `rate` requests/second with interarrival
    /// coefficient of variation `cv`.
    pub fn bursty(self, rate: f64, cv: f64) -> Self {
        self.arrivals(ArrivalProcess::Bursty { rate, cv })
    }

    /// Draws each request's priority uniformly from `0..levels`
    /// (`levels ≥ 1`; higher is more urgent). The default single level
    /// leaves every priority at 0 — and draws nothing from the RNG — so
    /// existing traces are bit-identical.
    pub fn priority_levels(mut self, levels: u8) -> Self {
        assert!(levels >= 1, "at least one priority level is required");
        self.priority_levels = levels;
        self
    }

    /// Gives every request the same fixed priority class (higher is
    /// more urgent), drawing nothing from the RNG — the per-tenant form
    /// of priority: a whole tenant's traffic shares one class. Takes
    /// precedence over [`Self::priority_levels`]. `priority(0)` is
    /// bit-identical to the default build.
    pub fn priority(mut self, priority: u8) -> Self {
        self.fixed_priority = Some(priority);
        self
    }

    /// Labels every request with a tenant id (default 0). Pure
    /// metadata: it draws nothing from the RNG and never influences
    /// scheduling, so `tenant(0)` is bit-identical to the default
    /// build.
    pub fn tenant(mut self, tenant: u8) -> Self {
        self.tenant = tenant;
        self
    }

    /// Marks the first `tokens` prompt tokens of every request as a
    /// prefix shared across the tenant's traffic (system prompt /
    /// few-shot template), clamped per request to its sampled context
    /// length. Pure metadata: it draws nothing from the RNG and never
    /// changes contexts, budgets or arrivals, so `shared_prefix(0)`
    /// (the default) is bit-identical to the default build.
    pub fn shared_prefix(mut self, tokens: u64) -> Self {
        self.shared_prefix = tokens;
        self
    }

    /// Generates the trace.
    ///
    /// RNG draw order is: context lengths (one rejection loop per
    /// request), then decode budgets (only if ranged), then interarrival
    /// gaps (only if open-loop), then priorities (only if more than one
    /// level) — so default builds reproduce the exact streams of earlier
    /// versions of this crate.
    ///
    /// # Panics
    ///
    /// Rejects degenerate configurations instead of silently producing
    /// an empty or invalid trace: zero requests, or a uniform decode
    /// range with `lo > hi` or `lo < 1`.
    pub fn build(&self) -> Trace {
        assert!(
            self.n > 0,
            "TraceBuilder: requests must be > 0 (a zero-request build would \
             silently produce an empty trace; use Trace::new() for an \
             intentionally empty one)"
        );
        assert!(
            self.decode.is_valid(),
            "TraceBuilder: decode range requires 1 <= lo <= hi, got {:?}",
            self.decode
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (mut lo, mut hi) = (self.stats.min as f64, self.stats.max as f64);
        if let Some(k) = self.sigma_clip {
            lo = lo.max(self.stats.mean - k * self.stats.std);
            hi = hi.min(self.stats.mean + k * self.stats.std);
        }
        let mut requests = Vec::with_capacity(self.n);
        for id in 0..self.n as u64 {
            let len = sample_truncated_normal(&mut rng, self.stats.mean, self.stats.std, lo, hi);
            let decode_len = match self.decode {
                DecodeSpec::Fixed(d) => d,
                DecodeSpec::Uniform(_, _) => 0, // filled below, after all context draws
            };
            let context_len = len.round().max(1.0) as u64;
            requests.push(Request {
                id,
                context_len,
                decode_len,
                arrival_us: 0,
                priority: 0,
                tenant: self.tenant,
                shared_prefix: self.shared_prefix.min(context_len),
            });
        }
        if let DecodeSpec::Uniform(dlo, dhi) = self.decode {
            for r in &mut requests {
                // Inclusive draw without overflowing at dhi == u64::MAX
                // (dlo >= 1 keeps the span below 2^64).
                r.decode_len = dlo + rng.gen_range(0..dhi - dlo + 1);
            }
        }
        if !matches!(self.arrivals, ArrivalProcess::Batch) {
            let mut clock = 0.0f64;
            for r in &mut requests {
                clock += self.arrivals.sample_gap(&mut rng);
                r.arrival_us = (clock * 1e6).round() as u64;
            }
        }
        if let Some(p) = self.fixed_priority {
            for r in &mut requests {
                r.priority = p;
            }
        } else if self.priority_levels > 1 {
            for r in &mut requests {
                r.priority = rng.gen_range(0..u64::from(self.priority_levels)) as u8;
            }
        }
        Trace { requests }
    }
}

/// Box–Muller standard normal sample.
fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Normal sample truncated to `[lo, hi]` by rejection (with a clamp
/// fallback after 64 rejections to guarantee termination).
fn sample_truncated_normal(rng: &mut StdRng, mean: f64, std: f64, lo: f64, hi: f64) -> f64 {
    for _ in 0..64 {
        let x = mean + std * sample_standard_normal(rng);
        if x >= lo && x <= hi {
            return x;
        }
    }
    mean.clamp(lo, hi)
}

/// Unit-mean exponential sample.
fn sample_exponential(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln()
}

/// Gamma(shape, 1) sample via Marsaglia–Tsang, with the `U^(1/k)` boost
/// for shapes below one.
fn sample_gamma(rng: &mut StdRng, shape: f64) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_reproducible() {
        let a = TraceBuilder::new(Dataset::Musique)
            .seed(42)
            .requests(32)
            .build();
        let b = TraceBuilder::new(Dataset::Musique)
            .seed(42)
            .requests(32)
            .build();
        assert_eq!(a, b);
        let c = TraceBuilder::new(Dataset::Musique)
            .seed(43)
            .requests(32)
            .build();
        assert_ne!(a, c);
    }

    #[test]
    fn samples_respect_table2_bounds() {
        for d in Dataset::ALL {
            let t = TraceBuilder::new(d).seed(1).requests(500).build();
            let s = d.stats();
            let (min, max) = t.context_range().unwrap();
            assert!(min >= s.min, "{d}: {min} < {}", s.min);
            assert!(max <= s.max, "{d}: {max} > {}", s.max);
        }
    }

    #[test]
    fn sample_moments_roughly_match() {
        let t = TraceBuilder::new(Dataset::QmSum)
            .seed(9)
            .requests(4000)
            .build();
        let s = Dataset::QmSum.stats();
        let mean_err = (t.mean_context() - s.mean).abs() / s.mean;
        assert!(mean_err < 0.08, "mean off by {:.1}%", mean_err * 100.0);
        // Truncation shrinks the std a bit; accept a broad band.
        let std_ratio = t.std_context() / s.std;
        assert!((0.6..=1.2).contains(&std_ratio), "std ratio {std_ratio}");
    }

    #[test]
    fn sigma_clip_narrows_spread() {
        let wide = TraceBuilder::new(Dataset::MultiFieldQa)
            .seed(5)
            .requests(1000)
            .build();
        let narrow = TraceBuilder::new(Dataset::MultiFieldQa)
            .seed(5)
            .requests(1000)
            .sigma_clip(1.0)
            .build();
        assert!(narrow.std_context() < wide.std_context());
    }

    #[test]
    fn decode_budget_applies() {
        let t = TraceBuilder::new(Dataset::QmSum)
            .decode_len(77)
            .requests(3)
            .build();
        assert!(t.iter().all(|r| r.decode_len == 77));
        assert_eq!(t.total_decode_tokens(), 231);
        assert!(t.iter().all(|r| r.final_len() == r.context_len + 77));
    }

    #[test]
    fn prompt_tokens_total_the_contexts() {
        let t = TraceBuilder::new(Dataset::QmSum)
            .seed(2)
            .requests(5)
            .build();
        assert!(t.iter().all(|r| r.prompt_len() == r.context_len));
        assert_eq!(
            t.total_prompt_tokens(),
            t.iter().map(|r| r.context_len).sum::<u64>()
        );
        assert_eq!(Trace::new().total_prompt_tokens(), 0);
    }

    #[test]
    fn empty_trace_stats_are_defined() {
        let t = Trace::new();
        assert_eq!(t.mean_context(), 0.0);
        assert_eq!(t.std_context(), 0.0);
        assert_eq!(t.context_range(), None);
        assert!(t.is_empty());
        assert_eq!(t.last_arrival_secs(), 0.0);
        assert_eq!(t.offered_rate(), None);
        assert_eq!(t.max_final_len(), 0);
        assert!(t.arrival_ordered().is_empty());
    }

    #[test]
    fn arrival_order_sorts_by_time_then_id() {
        let mk = |id, arrival_us| Request {
            id,
            context_len: 10,
            decode_len: 4,
            arrival_us,
            priority: 0,
            tenant: 0,
            shared_prefix: 0,
        };
        // Hand-built trace with out-of-order arrivals and a tie.
        let t: Trace = [mk(0, 500), mk(1, 100), mk(2, 100), mk(3, 0)]
            .into_iter()
            .collect();
        let ids: Vec<u64> = t.arrival_ordered().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![3, 1, 2, 0]);
        assert!(matches!(t.arrival_ordered(), Cow::Owned(_)));
        // Builder traces are already in arrival order, and borrowed.
        let built = TraceBuilder::new(Dataset::QmSum)
            .seed(6)
            .requests(32)
            .poisson(4.0)
            .build();
        assert!(matches!(built.arrival_ordered(), Cow::Borrowed(r) if r == built.requests()));
        assert_eq!(
            built.max_final_len(),
            built.iter().map(|r| r.final_len()).max().unwrap()
        );
    }

    #[test]
    fn batch_arrivals_are_all_zero() {
        let t = TraceBuilder::new(Dataset::QmSum)
            .seed(4)
            .requests(16)
            .build();
        assert!(t.iter().all(|r| r.arrival_us == 0));
        assert_eq!(t.offered_rate(), None);
    }

    #[test]
    fn arrivals_do_not_perturb_context_sampling() {
        // Opting into arrivals must not change the context-length stream,
        // so closed- and open-loop runs stay length-comparable.
        let batch = TraceBuilder::new(Dataset::QmSum)
            .seed(11)
            .requests(64)
            .build();
        let online = TraceBuilder::new(Dataset::QmSum)
            .seed(11)
            .requests(64)
            .poisson(2.0)
            .build();
        for (a, b) in batch.iter().zip(online.iter()) {
            assert_eq!(a.context_len, b.context_len);
            assert_eq!(a.decode_len, b.decode_len);
        }
    }

    #[test]
    fn poisson_arrivals_are_monotone_at_about_the_rate() {
        let rate = 8.0;
        let t = TraceBuilder::new(Dataset::QmSum)
            .seed(3)
            .requests(2000)
            .poisson(rate)
            .build();
        let mut last = 0;
        for r in t.iter() {
            assert!(r.arrival_us >= last, "arrivals must be nondecreasing");
            last = r.arrival_us;
        }
        let measured = t.offered_rate().expect("open-loop trace");
        assert!(
            (measured - rate).abs() / rate < 0.1,
            "measured {measured:.2} vs requested {rate}"
        );
    }

    #[test]
    fn bursty_interarrivals_spread_wider_than_poisson() {
        let rate = 4.0;
        let cv = |t: &Trace| {
            let gaps: Vec<f64> = t
                .requests()
                .windows(2)
                .map(|w| (w[1].arrival_us - w[0].arrival_us) as f64)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        let p = TraceBuilder::new(Dataset::QmSum)
            .seed(7)
            .requests(3000)
            .poisson(rate)
            .build();
        let b = TraceBuilder::new(Dataset::QmSum)
            .seed(7)
            .requests(3000)
            .bursty(rate, 3.0)
            .build();
        assert!((cv(&p) - 1.0).abs() < 0.15, "poisson cv {:.2}", cv(&p));
        assert!(cv(&b) > 2.0, "bursty cv {:.2} not bursty", cv(&b));
        // Same average rate within tolerance.
        let rp = p.offered_rate().unwrap();
        let rb = b.offered_rate().unwrap();
        assert!(
            (rp - rb).abs() / rp < 0.25,
            "poisson {rp:.2} vs bursty {rb:.2}"
        );
    }

    #[test]
    fn priorities_default_to_zero_and_draw_after_everything_else() {
        // One level (the default): every priority is 0 and the rest of
        // the trace is bit-identical to a builder without the call.
        let base = TraceBuilder::new(Dataset::QmSum)
            .seed(13)
            .requests(64)
            .decode_range(4, 32)
            .bursty(8.0, 2.0)
            .build();
        let one_level = TraceBuilder::new(Dataset::QmSum)
            .seed(13)
            .requests(64)
            .decode_range(4, 32)
            .bursty(8.0, 2.0)
            .priority_levels(1)
            .build();
        assert_eq!(base, one_level);
        assert!(base.iter().all(|r| r.priority == 0));
        // Multiple levels: priorities are drawn *after* contexts, decode
        // budgets and arrivals, so those streams stay untouched.
        let tiered = TraceBuilder::new(Dataset::QmSum)
            .seed(13)
            .requests(64)
            .decode_range(4, 32)
            .bursty(8.0, 2.0)
            .priority_levels(3)
            .build();
        for (a, b) in base.iter().zip(tiered.iter()) {
            assert_eq!(a.context_len, b.context_len);
            assert_eq!(a.decode_len, b.decode_len);
            assert_eq!(a.arrival_us, b.arrival_us);
        }
        assert!(tiered.iter().all(|r| r.priority < 3));
        let distinct: std::collections::HashSet<u8> = tiered.iter().map(|r| r.priority).collect();
        assert!(distinct.len() > 1, "uniform draw should spread");
    }

    #[test]
    #[should_panic(expected = "requests must be > 0")]
    fn zero_request_builds_are_rejected() {
        let _ = TraceBuilder::new(Dataset::QmSum).requests(0).build();
    }

    #[test]
    #[should_panic(expected = "decode range requires 1 <= lo <= hi")]
    fn inverted_decode_ranges_are_rejected_at_build() {
        let _ = TraceBuilder::new(Dataset::QmSum)
            .requests(4)
            .decode_range(9, 3)
            .build();
    }

    #[test]
    #[should_panic(expected = "decode range requires 1 <= lo <= hi")]
    fn zero_decode_lower_bound_is_rejected_at_build() {
        let _ = TraceBuilder::new(Dataset::QmSum)
            .requests(4)
            .decode(DecodeSpec::Uniform(0, 8))
            .build();
    }

    #[test]
    fn fixed_priority_and_tenant_tagging_draw_nothing_from_the_rng() {
        let base = TraceBuilder::new(Dataset::QmSum)
            .seed(21)
            .requests(32)
            .decode_range(4, 32)
            .poisson(5.0)
            .build();
        // priority(0) + tenant(0) is bit-identical to the default build.
        let tagged_zero = TraceBuilder::new(Dataset::QmSum)
            .seed(21)
            .requests(32)
            .decode_range(4, 32)
            .poisson(5.0)
            .priority(0)
            .tenant(0)
            .build();
        assert_eq!(base, tagged_zero);
        // Nonzero tags change only the labeled fields.
        let tagged = TraceBuilder::new(Dataset::QmSum)
            .seed(21)
            .requests(32)
            .decode_range(4, 32)
            .poisson(5.0)
            .priority(2)
            .tenant(3)
            .build();
        for (a, b) in base.iter().zip(tagged.iter()) {
            assert_eq!(a.context_len, b.context_len);
            assert_eq!(a.decode_len, b.decode_len);
            assert_eq!(a.arrival_us, b.arrival_us);
            assert_eq!(b.priority, 2);
            assert_eq!(b.tenant, 3);
        }
        assert_eq!(base.tenants(), vec![0]);
        assert_eq!(tagged.tenants(), vec![3]);
    }

    #[test]
    fn shared_prefix_is_clamped_and_draws_nothing_from_the_rng() {
        let base = TraceBuilder::new(Dataset::QmSum)
            .seed(23)
            .requests(64)
            .decode_range(4, 32)
            .poisson(5.0)
            .build();
        // shared_prefix(0) is bit-identical to the default build.
        let zero = TraceBuilder::new(Dataset::QmSum)
            .seed(23)
            .requests(64)
            .decode_range(4, 32)
            .poisson(5.0)
            .shared_prefix(0)
            .build();
        assert_eq!(base, zero);
        assert!(base.iter().all(|r| r.shared_prefix == 0));
        // A huge shared prefix clamps to each context; everything else
        // is untouched.
        let shared = TraceBuilder::new(Dataset::QmSum)
            .seed(23)
            .requests(64)
            .decode_range(4, 32)
            .poisson(5.0)
            .shared_prefix(u64::MAX)
            .build();
        for (a, b) in base.iter().zip(shared.iter()) {
            assert_eq!(a.context_len, b.context_len);
            assert_eq!(a.decode_len, b.decode_len);
            assert_eq!(a.arrival_us, b.arrival_us);
            assert_eq!(b.shared_prefix, b.context_len);
        }
        // A modest prefix sits below every sampled context.
        let modest = TraceBuilder::new(Dataset::QmSum)
            .seed(23)
            .requests(64)
            .shared_prefix(5)
            .build();
        assert!(modest
            .iter()
            .all(|r| r.shared_prefix == 5.min(r.context_len)));
    }

    #[test]
    fn merge_is_identity_for_one_trace_and_orders_many() {
        let one = TraceBuilder::new(Dataset::QmSum)
            .seed(5)
            .requests(16)
            .poisson(4.0)
            .build();
        assert_eq!(Trace::merge([one.clone()]), one);
        let other = TraceBuilder::new(Dataset::Musique)
            .seed(6)
            .requests(8)
            .tenant(1)
            .poisson(2.0)
            .build();
        let merged = Trace::merge([one.clone(), other.clone()]);
        assert_eq!(merged.len(), 24);
        assert_eq!(merged.tenants(), vec![0, 1]);
        // Globally arrival-ordered with unique ids.
        let reqs = merged.requests();
        assert!(reqs
            .windows(2)
            .all(|w| (w[0].arrival_us, w[0].id) < (w[1].arrival_us, w[1].id)));
        let mut ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 24);
        // Each tenant's own stream is preserved verbatim (ids offset).
        let t1: Vec<_> = reqs.iter().filter(|r| r.tenant == 1).collect();
        for (got, want) in t1.iter().zip(other.iter()) {
            assert_eq!(got.context_len, want.context_len);
            assert_eq!(got.arrival_us, want.arrival_us);
            assert_eq!(got.id, want.id + one.len() as u64);
        }
    }

    #[test]
    fn decode_range_samples_within_bounds() {
        let t = TraceBuilder::new(Dataset::QmSum)
            .seed(5)
            .requests(500)
            .decode_range(8, 64)
            .build();
        assert!(t.iter().all(|r| (8..=64).contains(&r.decode_len)));
        let distinct: std::collections::HashSet<u64> = t.iter().map(|r| r.decode_len).collect();
        assert!(
            distinct.len() > 10,
            "uniform draw should spread: {}",
            distinct.len()
        );
        let mean = t.total_decode_tokens() as f64 / t.len() as f64;
        assert!((mean - 36.0).abs() < 4.0, "mean decode {mean}");
    }
}
