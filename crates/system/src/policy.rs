//! Pluggable batch-scheduling policies for the serving engine.
//!
//! A policy decides *when requests join a batch*; the memory policy
//! (static `T_max` reservation vs DPA lazy chunks, [`crate::Evaluator`])
//! decides *how many fit*. Two policies are provided:
//!
//! * [`SchedulingPolicy::Wave`] — the paper's closed-world evaluation
//!   loop, extracted verbatim from the original `serve` module: admit a
//!   capacity-bounded wave (balanced over the implied number of waves),
//!   decode it to completion, repeat. Arrival times are ignored; this is
//!   the policy behind Figs. 13–15/17.
//! * [`SchedulingPolicy::Continuous`] — continuous batching for online
//!   traffic: pending requests join the running batch the moment the
//!   memory policy has room, and finished requests immediately free
//!   their reservation. FCFS without reordering, so head-of-line
//!   blocking under static reservations is visible by design (that gap
//!   is exactly what DPA's lazy allocation closes).

use crate::serve::Evaluator;
use serde::Serialize;
use workload::Request;

/// Which batch-scheduling policy the engine runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub enum SchedulingPolicy {
    /// Closed-world wave serving (paper-figure fidelity).
    #[default]
    Wave,
    /// Event-driven continuous batching over arrival times.
    Continuous,
}

impl SchedulingPolicy {
    /// Every policy, in label order.
    pub const ALL: [SchedulingPolicy; 2] = [SchedulingPolicy::Wave, SchedulingPolicy::Continuous];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulingPolicy::Wave => "wave",
            SchedulingPolicy::Continuous => "continuous",
        }
    }
}

impl std::fmt::Display for SchedulingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What the continuous scheduler may do when an arrived request cannot
/// be admitted because the memory policy has no room.
///
/// Admission is priority-ordered ([`workload::Request::priority`],
/// FCFS within a priority class); preemption decides whether a blocked
/// *higher-priority* candidate may reclaim KV memory from
/// strictly-lower-priority running requests. Victims are chosen lowest
/// priority first, most recently (re-)admitted first (the least
/// progress is lost), released back to the pending queue in arrival
/// order, and re-admitted under the same priority rules. Strictly-lower
/// priority is required, so a trace whose priorities are all equal
/// never evicts — every variant is then bit-exact with
/// [`PreemptionPolicy::None`].
///
/// The wave policy is closed-world (admitted waves always run to
/// completion) and ignores this knob entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub enum PreemptionPolicy {
    /// Never evict: an admitted request holds its KV reservation until
    /// completion (the historical behavior; head-of-line blocking under
    /// memory pressure is visible by design).
    #[default]
    None,
    /// Evict-and-restart: the victim's KV *and generated tokens* are
    /// dropped; on re-admission it re-prefills its prompt and decodes
    /// from scratch (wasted prompt and decode work).
    EvictRestart,
    /// Evict-and-pause: the victim's KV is dropped but its generated
    /// tokens are kept; on re-admission the prompt *plus* the kept
    /// tokens are re-prefilled as an extended prompt and decoding
    /// resumes where it stopped (wasted prompt work only).
    EvictPause,
}

impl PreemptionPolicy {
    /// Every policy, for comparison sweeps.
    pub const ALL: [PreemptionPolicy; 3] = [
        PreemptionPolicy::None,
        PreemptionPolicy::EvictRestart,
        PreemptionPolicy::EvictPause,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            PreemptionPolicy::None => "none",
            PreemptionPolicy::EvictRestart => "evict-restart",
            PreemptionPolicy::EvictPause => "evict-pause",
        }
    }

    /// Whether this policy ever evicts.
    pub fn evicts(&self) -> bool {
        !matches!(self, PreemptionPolicy::None)
    }
}

impl std::fmt::Display for PreemptionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Deadline-aware admission control for the continuous scheduler.
///
/// Off by default: every arrived request is eventually admitted, and a
/// hopeless interactive request inflates the tail of the TTFT
/// distribution instead of being counted honestly. When armed, the
/// admission sweep consults the [`crate::TtftPredictor`] the moment a
/// candidate reaches the head of its priority lane: if the optimistic
/// lower bound on its time-to-first-token — the wait it has already
/// accumulated plus its isolated remaining prefill time — already
/// exceeds its tenant's TTFT SLO, the request is *shed*: dropped from
/// the queue, counted in [`crate::ServingReport::shed`], and never
/// billed to the latency percentiles. Because the predictor is a lower
/// bound (queueing and batch interleaving only add time), shedding only
/// ever drops requests that were certain to miss; on a trace where
/// every request meets its SLO, `shed == 0` and the run is bit-exact
/// with [`SheddingPolicy::None`].
///
/// Requests whose tenant has no TTFT SLO are never shed, and the wave
/// policy (closed-world, no deadlines) ignores this knob entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub enum SheddingPolicy {
    /// Never shed: all arrivals are eventually admitted (historical
    /// behavior).
    #[default]
    None,
    /// Reject at admission time any request whose predicted TTFT lower
    /// bound already exceeds its tenant SLO.
    Reject,
}

impl SheddingPolicy {
    /// Every policy, for comparison sweeps.
    pub const ALL: [SheddingPolicy; 2] = [SheddingPolicy::None, SheddingPolicy::Reject];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            SheddingPolicy::None => "none",
            SheddingPolicy::Reject => "reject",
        }
    }

    /// Whether this policy ever sheds.
    pub fn sheds(&self) -> bool {
        !matches!(self, SheddingPolicy::None)
    }
}

impl std::fmt::Display for SheddingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How `plan_eviction` orders victims *within* a priority class.
///
/// Preemption always takes strictly-lower-priority victims, lowest
/// class first (the no-thrash strict-descent invariant); this knob only
/// chooses which member of the chosen class goes first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub enum VictimOrder {
    /// Most recently (re-)admitted first — the least decode progress is
    /// lost (historical behavior).
    #[default]
    RecentFirst,
    /// Deadline-monotonic: the request with the *most* remaining SLO
    /// slack first. A request's TTFT deadline `arrival + slo_ttft` is
    /// fixed at arrival, so "most slack at time t" is simply "latest
    /// deadline" — requests without an SLO (deadline `+inf`) are evicted
    /// before any deadline-carrying peer in the same class, and ties
    /// fall back to most-recently-admitted.
    SlackFirst,
}

impl VictimOrder {
    /// Every order, for comparison sweeps.
    pub const ALL: [VictimOrder; 2] = [VictimOrder::RecentFirst, VictimOrder::SlackFirst];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            VictimOrder::RecentFirst => "recent-first",
            VictimOrder::SlackFirst => "slack-first",
        }
    }
}

impl std::fmt::Display for VictimOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The serving phase a replica pool is responsible for.
///
/// Mixed (the default) is the historical colocated behavior: one
/// replica carries a request from admission through its last decode
/// token. Prefill/Decode split the lifecycle DistServe/Splitwise-style:
/// a prefill-role replica retires a request the moment its prompt is
/// resident and hands it — priced by [`KvTransferConfig`] — to a
/// decode-role replica, which admits it with the prefill already
/// credited and only generates tokens. A role is a property of the
/// *evaluator* (see `Evaluator::with_pool_role`), so pools with
/// different hardware carry different roles naturally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub enum PoolRole {
    /// Full-lifecycle replicas (the historical colocated default).
    #[default]
    Mixed,
    /// Prompt-processing only: requests hand off at prompt residency.
    Prefill,
    /// Token-generation only: requests arrive with prefill credited.
    Decode,
}

impl PoolRole {
    /// Every role, for sweeps and parsers.
    pub const ALL: [PoolRole; 3] = [PoolRole::Mixed, PoolRole::Prefill, PoolRole::Decode];

    /// Short display label (the `scenario` spelling).
    pub fn label(&self) -> &'static str {
        match self {
            PoolRole::Mixed => "mixed",
            PoolRole::Prefill => "prefill",
            PoolRole::Decode => "decode",
        }
    }

    /// Whether fresh (prefill-phase) arrivals may be routed to a pool
    /// of this role.
    pub fn serves_prefill(&self) -> bool {
        !matches!(self, PoolRole::Decode)
    }

    /// Whether prefill-complete handoffs may be routed to a pool of
    /// this role.
    pub fn accepts_handoff(&self) -> bool {
        matches!(self, PoolRole::Decode)
    }
}

impl std::fmt::Display for PoolRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// KV-transfer cost model for cross-pool handoffs.
///
/// When a prefill-role replica retires a prompt-resident request, the
/// request's KV cache — the pages its reservation held — must move over
/// the interconnect to the decode pool before the first token can be
/// generated there. The transfer is priced from the reserved page
/// count: a fixed per-page setup latency (descriptor/doorbell cost per
/// page-granular DMA) plus the bytes over the link bandwidth. Both
/// terms are monotone in the page count, which keeps the
/// `TtftPredictor`'s transfer-inclusive bound a sound lower bound.
///
/// The defaults model an NVLink-class link (64 GB/s, 20 µs per page)
/// and only matter when a scenario arms prefill/decode pools — a
/// mixed-only cluster never prices a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct KvTransferConfig {
    /// Fixed setup latency per transferred KV page, in microseconds.
    pub page_latency_us: f64,
    /// Link bandwidth in gigabytes (1e9 bytes) per second.
    pub gbps: f64,
}

impl KvTransferConfig {
    /// Default per-page setup latency in microseconds.
    pub const DEFAULT_PAGE_LATENCY_US: f64 = 20.0;
    /// Default link bandwidth in GB/s (NVLink-class).
    pub const DEFAULT_GBPS: f64 = 64.0;

    /// Seconds to transfer `pages` pages totalling `bytes` bytes.
    pub fn transfer_secs(&self, pages: u64, bytes: u64) -> f64 {
        self.page_latency_us * 1e-6 * pages as f64 + bytes as f64 / (self.gbps * 1e9)
    }
}

impl Default for KvTransferConfig {
    fn default() -> Self {
        KvTransferConfig {
            page_latency_us: Self::DEFAULT_PAGE_LATENCY_US,
            gbps: Self::DEFAULT_GBPS,
        }
    }
}

/// Prompt-processing (prefill) configuration for the serving engine.
///
/// Disabled by default: the simulator then reproduces the historical
/// decode-only behavior bit-exactly, and TTFT measures admission → first
/// decode step. When enabled, every request must process its
/// `context_len` prompt tokens before decoding, in chunks of
/// `chunk_tokens`, and TTFT covers arrival → first emitted token
/// end-to-end:
///
/// * [`SchedulingPolicy::Wave`] admits a wave, prefills the *whole
///   batch* (FCFS, chunked), then decodes it in lockstep — first tokens
///   only after whole-batch prefill.
/// * [`SchedulingPolicy::Continuous`] starts a request's chunked prefill
///   at admission and interleaves prompt chunks with decode steps of the
///   running batch, so running decodes are not starved behind long
///   prompts (at a bounded per-chunk TPOT cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct PrefillConfig {
    /// Whether prompt processing is simulated at all.
    pub enabled: bool,
    /// Prompt tokens per prefill chunk (≥ 1; the interleaving
    /// granularity under the continuous policy).
    pub chunk_tokens: u64,
}

impl PrefillConfig {
    /// The default interleaving granularity in prompt tokens per chunk.
    pub const DEFAULT_CHUNK: u64 = 512;

    /// Prefill disabled — decode-only simulation (the historical
    /// default).
    pub fn disabled() -> Self {
        PrefillConfig {
            enabled: false,
            chunk_tokens: Self::DEFAULT_CHUNK,
        }
    }

    /// Chunked prefill with `chunk_tokens` prompt tokens per chunk.
    /// Panics on 0: a scenario's `prefill_chunk: 0` means
    /// [`Self::disabled`] and never reaches here.
    pub fn chunked(chunk_tokens: u64) -> Self {
        assert!(
            chunk_tokens >= 1,
            "a prefill chunk holds at least one token"
        );
        PrefillConfig {
            enabled: true,
            chunk_tokens,
        }
    }
}

impl Default for PrefillConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Paged KV cache configuration for the serving engine.
///
/// Disabled by default: KV admission then uses the historical
/// whole-request reservation (`kv_reservation(final_len, t_max)`) and
/// eviction is all-or-nothing per request — bit-exact with every run
/// before this knob existed. When enabled (continuous policy only), each
/// replica manages a [`pim_mem::PagePool`]: admission reserves
/// page-rounded footprints, requests whose prompt shares a prefix with a
/// cached sequence map the shared pages and skip their prefill (TTFT
/// drops by the shared prefill cost), released shared pages stay warm as
/// reclaimable cache, and memory pressure reclaims cold pages LRU-first
/// before falling back to whole-request eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct PagedKvConfig {
    /// Whether the paged KV pool (and with it prefix caching) is on.
    pub prefix_caching: bool,
    /// Page size in bytes (≥ 1; the reservation and reclamation
    /// granularity).
    pub page_bytes: u64,
}

impl PagedKvConfig {
    /// The default page size in bytes (8 MB ≈ 16 tokens of 7B-class
    /// MHA KV at 512 KB/token — the vLLM-style block granularity). A
    /// page must hold at least one token of KV or the pool would
    /// under-account memory; Table I's densest model (72B MHA,
    /// ~5 MB/token) still fits one.
    pub const DEFAULT_PAGE_BYTES: u64 = 8 << 20;

    /// Paged KV disabled — whole-request reservations (the historical
    /// default).
    pub fn disabled() -> Self {
        PagedKvConfig {
            prefix_caching: false,
            page_bytes: Self::DEFAULT_PAGE_BYTES,
        }
    }

    /// Paged KV with prefix caching at `page_bytes` granularity.
    /// Panics on 0, which [`crate::Scenario::validate`] rejects.
    pub fn paged(page_bytes: u64) -> Self {
        assert!(page_bytes >= 1, "a KV page holds at least one byte");
        PagedKvConfig {
            prefix_caching: true,
            page_bytes,
        }
    }
}

impl Default for PagedKvConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Greedy admission of a wave from `pending` under the memory policy.
/// Returns how many of the leading requests are admitted (at least one —
/// a single request that cannot fit is admitted alone and truncated to
/// capacity by construction of the workloads). Extracted verbatim from
/// the original wave loop.
pub(crate) fn wave_greedy_admit(eval: &Evaluator, pending: &[Request], t_max: u64) -> usize {
    let capacity = eval.replica_kv_capacity();
    let limit = eval.hfp_batch_limit(t_max);
    let mut used = 0u64;
    let mut n = 0usize;
    for r in pending {
        if n as u64 >= limit {
            break;
        }
        let need = eval.kv_reservation(r.final_len(), t_max);
        if n > 0 && used + need > capacity {
            break;
        }
        used += need;
        n += 1;
        if used >= capacity {
            break;
        }
    }
    // semantic: a request that fits nowhere still runs, alone.
    n.max(1)
}

/// Wave sizing for the head of `queue_rest`: greedy capacity bound, then
/// balance the remaining requests evenly over the implied number of
/// waves (a trailing near-empty wave would waste a whole decode pass).
pub(crate) fn wave_plan(eval: &Evaluator, queue_rest: &[Request], t_max: u64) -> usize {
    let greedy = wave_greedy_admit(eval, queue_rest, t_max);
    let remaining = queue_rest.len();
    let waves_needed = remaining.div_ceil(greedy);
    remaining.div_ceil(waves_needed).min(greedy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SystemConfig, Techniques};
    use llm_model::LLM_7B_32K;
    use workload::{Dataset, TraceBuilder};

    fn eval() -> Evaluator {
        Evaluator::new(
            SystemConfig::cent_for(&LLM_7B_32K),
            LLM_7B_32K,
            Techniques::pimphony(),
        )
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(SchedulingPolicy::default(), SchedulingPolicy::Wave);
        assert_eq!(SchedulingPolicy::Wave.label(), "wave");
        assert_eq!(SchedulingPolicy::Continuous.to_string(), "continuous");
    }

    #[test]
    fn preemption_labels_and_default() {
        assert_eq!(PreemptionPolicy::default(), PreemptionPolicy::None);
        assert!(!PreemptionPolicy::None.evicts());
        for p in PreemptionPolicy::ALL {
            assert_eq!(p.to_string(), p.label());
        }
        assert!(PreemptionPolicy::EvictRestart.evicts());
        assert_eq!(PreemptionPolicy::EvictPause.label(), "evict-pause");
    }

    #[test]
    fn shedding_and_victim_order_labels_and_defaults() {
        assert_eq!(SheddingPolicy::default(), SheddingPolicy::None);
        assert!(!SheddingPolicy::None.sheds());
        assert!(SheddingPolicy::Reject.sheds());
        for p in SheddingPolicy::ALL {
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(VictimOrder::default(), VictimOrder::RecentFirst);
        for o in VictimOrder::ALL {
            assert_eq!(o.to_string(), o.label());
        }
        assert_eq!(VictimOrder::SlackFirst.label(), "slack-first");
    }

    #[test]
    fn pool_role_labels_and_phase_predicates() {
        assert_eq!(PoolRole::default(), PoolRole::Mixed);
        for r in PoolRole::ALL {
            assert_eq!(r.to_string(), r.label());
        }
        // Fresh arrivals go to prefill-serving pools; handoffs go only
        // to decode pools (a mixed pool completes requests in place and
        // never receives a handoff).
        assert!(PoolRole::Mixed.serves_prefill());
        assert!(PoolRole::Prefill.serves_prefill());
        assert!(!PoolRole::Decode.serves_prefill());
        assert!(PoolRole::Decode.accepts_handoff());
        assert!(!PoolRole::Mixed.accepts_handoff());
        assert!(!PoolRole::Prefill.accepts_handoff());
    }

    #[test]
    fn kv_transfer_is_monotone_in_pages_and_bytes() {
        let cfg = KvTransferConfig::default();
        assert_eq!(cfg.transfer_secs(0, 0), 0.0);
        let mut last = 0.0;
        for pages in 1..=16u64 {
            let secs = cfg.transfer_secs(pages, pages * (8 << 20));
            assert!(secs > last, "{pages} pages: {secs} <= {last}");
            last = secs;
        }
        // The two terms are separable: pure page-latency growth and
        // pure bandwidth growth are each monotone on their own.
        assert!(cfg.transfer_secs(2, 100) > cfg.transfer_secs(1, 100));
        assert!(cfg.transfer_secs(1, 200) > cfg.transfer_secs(1, 100));
        // Sanity of magnitudes: one 8 MB page at 64 GB/s + 20 µs.
        let one = cfg.transfer_secs(1, 8 << 20);
        assert!((one - (20e-6 + (8 << 20) as f64 / 64e9)).abs() < 1e-15);
    }

    #[test]
    fn prefill_config_defaults_and_zero_chunk_panics() {
        assert_eq!(PrefillConfig::default(), PrefillConfig::disabled());
        assert!(!PrefillConfig::default().enabled);
        let c = PrefillConfig::chunked(1);
        assert!(c.enabled);
        assert_eq!(c.chunk_tokens, 1);
        assert_eq!(
            PrefillConfig::chunked(PrefillConfig::DEFAULT_CHUNK).chunk_tokens,
            512
        );
        assert!(std::panic::catch_unwind(|| PrefillConfig::chunked(0)).is_err());
    }

    #[test]
    fn paged_kv_config_defaults_and_zero_page_panics() {
        assert_eq!(PagedKvConfig::default(), PagedKvConfig::disabled());
        assert!(!PagedKvConfig::default().prefix_caching);
        let c = PagedKvConfig::paged(1);
        assert!(c.prefix_caching);
        assert_eq!(c.page_bytes, 1);
        assert_eq!(
            PagedKvConfig::paged(PagedKvConfig::DEFAULT_PAGE_BYTES).page_bytes,
            8 << 20
        );
        assert!(std::panic::catch_unwind(|| PagedKvConfig::paged(0)).is_err());
    }

    #[test]
    fn wave_plan_balances_trailing_waves() {
        let e = eval();
        // If greedy admits G and 2G-1 requests remain, planning balances
        // to ceil((2G-1)/2) instead of a full G then a near-empty tail.
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(5)
            .requests(40)
            .decode_len(8)
            .build();
        let reqs = trace.requests();
        let t_max = reqs.iter().map(|r| r.final_len()).max().unwrap();
        let planned = wave_plan(&e, reqs, t_max);
        let greedy = wave_greedy_admit(&e, reqs, t_max);
        assert!(planned >= 1 && planned <= greedy);
    }
}
