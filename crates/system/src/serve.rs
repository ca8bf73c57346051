//! Serving evaluation: memory policy, admission primitives, reports.
//!
//! The [`Evaluator`] owns one (system, model, techniques) configuration
//! and its memory policy — static `T_max` reservations vs DPA's lazy
//! actual-size allocation. Serving itself runs on the event-driven
//! [`crate::cluster::Cluster`] under a [`SchedulingPolicy`]: the default
//! [`SchedulingPolicy::Wave`] reproduces the paper's closed-world decode
//! throughput (Figs. 13–15/17), while [`SchedulingPolicy::Continuous`]
//! serves open-loop arrival traces with per-request latency metrics.

use crate::cluster::{Cluster, RoundRobin};
use crate::config::{SystemConfig, Techniques};
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::kernel::KernelModel;
use crate::metrics::{self, LatencyReport, ReplicaBreakdown};
use crate::policy::{
    self, KvTransferConfig, PagedKvConfig, PoolRole, PreemptionPolicy, PrefillConfig,
    SchedulingPolicy, SheddingPolicy, VictimOrder,
};
use crate::stage::{IterationBreakdown, StageModel};
use llm_model::ModelConfig;
use pim_mem::DEFAULT_CHUNK_BYTES;
use serde::Serialize;
use workload::Trace;

/// Result of serving a trace.
///
/// The repository's metrics glossary — every field below with its
/// unit, the TTFT decomposition, and the goodput-vs-throughput
/// distinction — lives in `docs/metrics.md`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ServingReport {
    /// Decode throughput in tokens/second (all replicas).
    pub tokens_per_second: f64,
    /// Total wall-clock seconds (slowest replica's end time; includes
    /// idle gaps waiting for arrivals under the continuous policy).
    pub seconds: f64,
    /// Seconds replicas spent decoding, summed over replicas.
    pub busy_seconds: f64,
    /// Total decode tokens produced.
    pub tokens: u64,
    /// Prompt tokens processed by the prefill stage (0 when prefill is
    /// not modeled).
    pub prefill_tokens: u64,
    /// Seconds replicas spent in prompt processing, summed over
    /// replicas (a share of `busy_seconds`).
    pub prefill_seconds: f64,
    /// Requests evicted under memory pressure (0 unless a preemption
    /// policy is active and the trace carries priority diversity).
    pub evictions: u64,
    /// Already-computed tokens whose KV was dropped by evictions and
    /// had to be prefilled again — the prompt-side wasted work of the
    /// preemption policy.
    pub wasted_prefill_tokens: u64,
    /// Generated tokens discarded by `EvictRestart` evictions and
    /// decoded again from scratch (counted inside `tokens` each time
    /// they are produced; `tokens - wasted_decode_tokens` is goodput).
    pub wasted_decode_tokens: u64,
    /// Seconds spent *re*-prefilling after evictions (a share of
    /// `prefill_seconds`; the per-request distribution is
    /// `latency.restart`).
    pub restart_seconds: f64,
    /// Requests shed by deadline-aware admission control — dropped at
    /// admission time because their predicted TTFT lower bound already
    /// exceeded their tenant's SLO (0 unless a
    /// [`crate::SheddingPolicy`] is armed). Shed requests produce no
    /// latency samples and no tokens; they are counted here instead of
    /// silently inflating the tail percentiles.
    pub shed: u64,
    /// Admissions that mapped at least one already-resident
    /// shared-prefix page from the paged KV cache (0 unless
    /// `prefix_caching` is on and the trace carries shared prefixes).
    pub prefix_cache_hits: u64,
    /// Prompt tokens whose prefill was skipped because their pages were
    /// already resident in the prefix cache at admission.
    pub prefix_hit_tokens: u64,
    /// Cached (zero-refcount) KV pages reclaimed page-by-page under
    /// memory pressure — the page-granular replacement for whole-request
    /// eviction (0 unless `prefix_caching` is on).
    pub pages_evicted: u64,
    /// Mean batch size: per admitted wave under the wave policy,
    /// per executed decode step under the continuous policy.
    pub mean_batch: f64,
    /// Mean attention MAC utilization over busy replica time.
    pub attn_utilization: f64,
    /// KV-capacity utilization under the active memory policy.
    pub capacity_utilization: f64,
    /// Admission events: decode waves under the wave policy, batch-join
    /// events under the continuous policy.
    pub waves: u32,
    /// Energy breakdown over the run.
    pub energy: EnergyBreakdown,
    /// Seconds spent in attention vs FC (for Figs. 16/17(c)).
    pub attn_seconds: f64,
    /// Seconds spent in the FC stage.
    pub fc_seconds: f64,
    /// Per-request latency statistics (TTFT/TPOT/E2E percentiles).
    pub latency: LatencyReport,
    /// Latency statistics split by priority class, most urgent first —
    /// the per-SLO view preemption policies are judged on (a single
    /// entry mirroring `latency` when the trace has one class; empty
    /// for reports produced by the pre-cluster reference loop).
    pub latency_by_priority: Vec<metrics::PriorityLatency>,
    /// Serving statistics split by tenant, ascending by tenant id: each
    /// entry carries the tenant's latency report, delivered tokens
    /// (goodput), and SLO attainment when the run's evaluator carries
    /// per-tenant TTFT targets ([`Evaluator::with_tenant_slos`], set by
    /// `system::scenario` specs). A single-tenant run yields one entry
    /// mirroring `latency`; empty for reports produced by the
    /// pre-cluster reference loop.
    pub latency_by_tenant: Vec<metrics::TenantLatency>,
    /// Per-replica totals (busy time, served requests, peak reserved
    /// KV), indexed by replica — makes load-balancer skew observable.
    /// Empty for reports produced by the pre-cluster reference loop.
    pub per_replica: Vec<ReplicaBreakdown>,
    /// KV bytes moved across pools by prefill→decode handoffs (0 unless
    /// prefill/decode pools are armed — a mixed-only cluster never
    /// transfers).
    pub kv_transferred_bytes: u64,
    /// Modeled KV-transfer seconds summed over handoffs (the
    /// [`crate::KvTransferConfig`] per-page latency + bandwidth cost;
    /// transfers overlap across requests, so this is transferred
    /// *volume* in seconds, not wall-clock).
    pub transfer_seconds: f64,
    /// Per-pool totals (routed/served/handoffs/transfer volume),
    /// in pool declaration order. Empty unless replica pools are armed,
    /// so pool-free reports stay byte-identical to historical runs.
    pub per_pool: Vec<metrics::PoolBreakdown>,
}

impl ServingReport {
    /// Jain's fairness index over per-replica busy time: 1.0 when every
    /// replica worked equally, approaching `1/replicas` when one carried
    /// the whole load. 1.0 when per-replica data is absent.
    pub fn replica_fairness(&self) -> f64 {
        let busy: Vec<f64> = self.per_replica.iter().map(|b| b.busy_seconds).collect();
        metrics::jain_fairness(&busy)
    }

    /// Jain's fairness index over per-tenant delivered tokens (goodput):
    /// 1.0 when every tenant received equal token service, approaching
    /// `1/tenants` when one tenant monopolized the cluster. 1.0 when
    /// per-tenant data is absent or all-zero (a run that served nothing
    /// treated nobody unfairly).
    pub fn tenant_fairness(&self) -> f64 {
        metrics::tenant_goodput_fairness(&self.latency_by_tenant)
    }

    /// Goodput in tokens/second: decode tokens delivered by requests
    /// that *met their tenant's TTFT SLO*, per wall-clock second — the
    /// headline metric of SLO-native serving. Tenants without a TTFT
    /// target count all their tokens (their SLO is vacuously met), so a
    /// run without SLOs has `goodput() == tokens_per_second` up to the
    /// per-tenant decomposition. 0 when the run served nothing.
    pub fn goodput(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        let in_slo: u64 = self
            .latency_by_tenant
            .iter()
            .map(|t| t.goodput_tokens)
            .sum();
        in_slo as f64 / self.seconds
    }
}

/// Optimistic time-to-first-token predictor: a per-prefill-token rate
/// calibrated on the *first* prefill chunk (the cheapest tokens of any
/// prompt, since attention cost grows with resident context), so the
/// linear extrapolation `rate × tokens` is a lower bound on the real
/// chunked prefill time of any prompt. Routing ranks replicas on it;
/// deadline-aware admission ([`crate::SheddingPolicy`]) sheds only when
/// even this lower bound misses the SLO, which makes shedding safe: a
/// request that could still meet its deadline is never dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TtftPredictor {
    /// Seconds per prompt token at the cheapest (empty-context) point
    /// of the prefill curve; 0 when prefill is not modeled.
    secs_per_prefill_token: f64,
}

impl TtftPredictor {
    /// A predictor with an explicit per-token rate (tests and custom
    /// routers; [`Evaluator::ttft_predictor`] calibrates the real one).
    pub fn with_rate(secs_per_prefill_token: f64) -> Self {
        TtftPredictor {
            secs_per_prefill_token: secs_per_prefill_token.max(0.0),
        }
    }

    /// Predicted TTFT lower bound for a request that has already waited
    /// `waited` seconds and still has `tokens` prompt tokens to prefill
    /// (its own remaining prompt plus any queue of prompt tokens ahead
    /// of it). Monotone in both arguments.
    pub fn predict(&self, waited: f64, tokens: u64) -> f64 {
        waited + self.secs_per_prefill_token * tokens as f64
    }

    /// Remaining slack against an SLO target for a request in the state
    /// described by [`Self::predict`]'s arguments: negative once even
    /// the optimistic bound misses the deadline. `+inf` targets (no
    /// SLO) yield `+inf` slack.
    pub fn slack(&self, slo_ttft: f64, waited: f64, tokens: u64) -> f64 {
        slo_ttft - self.predict(waited, tokens)
    }

    /// [`Self::predict`] plus a mandatory cross-pool KV-transfer term:
    /// on a prefill-role replica the first token can only be generated
    /// *after* the handoff transfer completes, so `transfer_secs` (from
    /// [`Evaluator::handoff_transfer`]) is part of every sound TTFT
    /// lower bound. Still optimistic — decode-pool queueing after the
    /// transfer only adds time. Monotone in all three arguments.
    pub fn predict_with_transfer(&self, waited: f64, tokens: u64, transfer_secs: f64) -> f64 {
        self.predict(waited, tokens) + transfer_secs.max(0.0)
    }

    /// [`Self::slack`] against the transfer-inclusive bound of
    /// [`Self::predict_with_transfer`].
    pub fn slack_with_transfer(
        &self,
        slo_ttft: f64,
        waited: f64,
        tokens: u64,
        transfer_secs: f64,
    ) -> f64 {
        slo_ttft - self.predict_with_transfer(waited, tokens, transfer_secs)
    }
}

/// Prices cross-pool KV handoffs for one evaluator: the request's
/// resident KV bytes (exact — the per-token KV footprint is linear,
/// including TP-driven KV-head replication), rounded up to transfer
/// pages at the paged-KV granularity (the page geometry applies to the
/// *transfer* even when the paged pool itself is disabled), priced by
/// [`KvTransferConfig`]. Built by [`Evaluator::kv_transfer_model`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvTransferModel {
    /// KV bytes one resident token occupies (replication included).
    bytes_per_token: u64,
    /// Transfer granularity in bytes (≥ 1).
    page_bytes: u64,
    /// The latency/bandwidth cost terms.
    config: KvTransferConfig,
}

impl KvTransferModel {
    /// A model with explicit geometry (tests and custom pools;
    /// [`Evaluator::kv_transfer_model`] derives the real one).
    pub fn new(bytes_per_token: u64, page_bytes: u64, config: KvTransferConfig) -> Self {
        KvTransferModel {
            bytes_per_token: bytes_per_token.max(1),
            page_bytes: page_bytes.max(1),
            config,
        }
    }

    /// The `(bytes, pages, seconds)` of handing off a request with
    /// `tokens` resident KV tokens. Zero-token handoffs are free;
    /// otherwise bytes, pages, and seconds are all strictly monotone in
    /// `tokens` (pages stepwise), which keeps transfer-inclusive TTFT
    /// bounds sound.
    pub fn transfer(&self, tokens: u64) -> (u64, u64, f64) {
        if tokens == 0 {
            return (0, 0, 0.0);
        }
        let bytes = self.bytes_per_token * tokens;
        let pages = bytes.div_ceil(self.page_bytes);
        (bytes, pages, self.config.transfer_secs(pages, bytes))
    }
}

/// Evaluates one (system, model, techniques) configuration on traces.
#[derive(Debug)]
pub struct Evaluator {
    system: SystemConfig,
    model: ModelConfig,
    techniques: Techniques,
    policy: SchedulingPolicy,
    preemption: PreemptionPolicy,
    prefill: PrefillConfig,
    paged_kv: PagedKvConfig,
    /// Scales the replica's KV pool (1.0 = the hardware capacity);
    /// fractions below one model memory pressure without re-sizing the
    /// system, the knob preemption studies sweep.
    kv_capacity_factor: f64,
    /// Per-tenant TTFT SLO targets in seconds, as `(tenant id, target)`
    /// pairs — reporting metadata consumed by the cluster merge
    /// (attainment in `ServingReport::latency_by_tenant`), and the
    /// deadline source for the opt-in SLO-aware policies
    /// ([`Self::with_shedding`], [`Self::with_victim_order`],
    /// `RouterKind::SloAware`). With those knobs off — the default —
    /// it never touches scheduling. Normally set by `system::scenario`
    /// specs.
    tenant_slos: Vec<(u8, f64)>,
    shedding: SheddingPolicy,
    victim_order: VictimOrder,
    /// The serving phase this evaluator's replicas own. `Mixed` (the
    /// default) is the historical full-lifecycle behavior, bit-exact
    /// with every pool-free run; `Prefill` replicas retire requests at
    /// prompt residency and hand them off, `Decode` replicas admit
    /// handoffs with prefill credited. Set per pool by
    /// `system::scenario`/`system::cluster`.
    pool_role: PoolRole,
    /// Cross-pool KV-transfer cost terms — only priced when
    /// `pool_role` is `Prefill` (a mixed-only cluster never transfers).
    kv_transfer: KvTransferConfig,
    kernels: KernelModel,
    energy: EnergyModel,
    /// Recompute the iteration time every `stride` decode steps (the
    /// chunk is priced at its midpoint step, making the chunked sum
    /// per-step exact under the affine kernel model).
    stride: u64,
}

impl Evaluator {
    /// Creates an evaluator with AiMX timing, the default energy model,
    /// and the closed-world wave scheduling policy.
    pub fn new(system: SystemConfig, model: ModelConfig, techniques: Techniques) -> Self {
        Evaluator {
            system,
            model,
            techniques,
            policy: SchedulingPolicy::Wave,
            preemption: PreemptionPolicy::None,
            prefill: PrefillConfig::disabled(),
            paged_kv: PagedKvConfig::disabled(),
            kv_capacity_factor: 1.0,
            tenant_slos: Vec::new(),
            shedding: SheddingPolicy::None,
            victim_order: VictimOrder::RecentFirst,
            pool_role: PoolRole::Mixed,
            kv_transfer: KvTransferConfig::default(),
            kernels: KernelModel::new(pim_sim::Timing::aimx(), model.head_dim),
            energy: EnergyModel::aimx(),
            stride: 64,
        }
    }

    /// Returns this evaluator with a different scheduling policy.
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns this evaluator with a preemption policy: what the
    /// continuous scheduler may do when an arrived request cannot be
    /// admitted for lack of KV memory (see
    /// [`PreemptionPolicy`]). The default `None` reproduces the
    /// historical admitted-runs-to-completion behavior bit-exactly; the
    /// wave policy ignores this knob.
    pub fn with_preemption(mut self, preemption: PreemptionPolicy) -> Self {
        self.preemption = preemption;
        self
    }

    /// The active preemption policy.
    pub fn preemption_policy(&self) -> PreemptionPolicy {
        self.preemption
    }

    /// Returns this evaluator with the replica KV pool scaled by
    /// `factor` (must be positive; 1.0 — the default — is the hardware
    /// capacity, bit-exact with historical behavior). Fractions below
    /// one model KV memory pressure — the regime where admission
    /// blocks, head-of-line queueing explodes, and preemption policies
    /// start to matter — without re-sizing modules or models.
    pub fn with_kv_capacity_factor(mut self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "KV capacity factor must be positive"
        );
        self.kv_capacity_factor = factor;
        self
    }

    /// The configured KV-pool scale factor.
    pub fn kv_capacity_factor(&self) -> f64 {
        self.kv_capacity_factor
    }

    /// Returns this evaluator with per-tenant TTFT SLO targets, as
    /// `(tenant id, target seconds)` pairs. Reporting metadata only:
    /// the cluster merge computes each tenant's SLO attainment in
    /// [`ServingReport::latency_by_tenant`] against these; scheduling
    /// is untouched, so the default (empty) is bit-exact with every
    /// historical run.
    pub fn with_tenant_slos(mut self, slos: Vec<(u8, f64)>) -> Self {
        self.tenant_slos = slos;
        self
    }

    /// The configured per-tenant TTFT SLO targets.
    pub fn tenant_slos(&self) -> &[(u8, f64)] {
        &self.tenant_slos
    }

    /// The TTFT SLO target for one tenant — `+inf` (never missed) when
    /// the tenant has no target, the same convention the per-tenant
    /// attainment report uses.
    pub fn tenant_slo(&self, tenant: u8) -> f64 {
        self.tenant_slos
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(f64::INFINITY, |(_, slo)| *slo)
    }

    /// Returns this evaluator with a deadline-aware admission-control
    /// policy (see [`SheddingPolicy`]). The default `None` admits
    /// everything, bit-exact with every historical run; the wave policy
    /// ignores this knob.
    pub fn with_shedding(mut self, shedding: SheddingPolicy) -> Self {
        self.shedding = shedding;
        self
    }

    /// The active shedding policy.
    pub fn shedding_policy(&self) -> SheddingPolicy {
        self.shedding
    }

    /// Returns this evaluator with a victim-selection order for
    /// preemption (see [`VictimOrder`]). The default `RecentFirst` is
    /// bit-exact with every historical run; the knob only matters when
    /// a [`PreemptionPolicy`] is armed.
    pub fn with_victim_order(mut self, order: VictimOrder) -> Self {
        self.victim_order = order;
        self
    }

    /// The active victim-selection order.
    pub fn victim_order(&self) -> VictimOrder {
        self.victim_order
    }

    /// Returns this evaluator with a serving phase assignment for its
    /// replicas (see [`PoolRole`]). The default `Mixed` runs the full
    /// request lifecycle exactly as every historical run did; `Prefill`
    /// retires requests at prompt residency (the cluster layer hands
    /// them off), `Decode` admits handed-off requests with their
    /// prefill credited. Continuous policy only — the closed-world
    /// wave policy ignores this knob.
    pub fn with_pool_role(mut self, role: PoolRole) -> Self {
        self.pool_role = role;
        self
    }

    /// The serving phase this evaluator's replicas own.
    pub fn pool_role(&self) -> PoolRole {
        self.pool_role
    }

    /// Returns this evaluator with explicit KV-transfer cost terms for
    /// cross-pool handoffs (see [`KvTransferConfig`]). Only priced when
    /// the pool role is `Prefill`, so the default is bit-exact for
    /// every colocated run.
    pub fn with_kv_transfer(mut self, kv_transfer: KvTransferConfig) -> Self {
        self.kv_transfer = kv_transfer;
        self
    }

    /// The active KV-transfer cost terms.
    pub fn kv_transfer_config(&self) -> KvTransferConfig {
        self.kv_transfer
    }

    /// The KV-transfer pricing model for this configuration: per-token
    /// KV bytes include any TP-driven KV-head replication (the same
    /// footprint admission reserves), and page count is taken at the
    /// paged-KV granularity — the page geometry applies even when the
    /// paged pool itself is off, since the transfer engine ships
    /// page-sized chunks regardless of how the source tracked them.
    pub fn kv_transfer_model(&self) -> KvTransferModel {
        let replication = u64::from((self.system.parallel.tp / self.model.kv_heads()).max(1));
        KvTransferModel::new(
            replication * self.model.kv_bytes(1),
            self.paged_kv.page_bytes,
            self.kv_transfer,
        )
    }

    /// Prices shipping one request's prompt KV across pools: `(bytes,
    /// pages, seconds)` for a `context_len`-token resident prompt.
    pub fn handoff_transfer(&self, context_len: u64) -> (u64, u64, f64) {
        self.kv_transfer_model().transfer(context_len)
    }

    /// Calibrates the optimistic [`TtftPredictor`] for this
    /// configuration: the per-token rate of the *first* prefill chunk,
    /// the cheapest point of the prefill curve, so predictions lower-
    /// bound real chunked prefill times. A zero-rate predictor when
    /// prefill is not modeled (TTFT is then dominated by queueing,
    /// which the predictor's `waited` argument carries).
    pub fn ttft_predictor(&self) -> TtftPredictor {
        if !self.prefill.enabled {
            return TtftPredictor::with_rate(0.0);
        }
        let chunk = self.prefill.chunk_tokens.max(1);
        let secs = self.stage_model().prefill_chunk(0, 0, chunk).seconds;
        TtftPredictor::with_rate(secs / chunk as f64)
    }

    /// Returns this evaluator with an explicit prefill configuration.
    pub fn with_prefill(mut self, prefill: PrefillConfig) -> Self {
        self.prefill = prefill;
        self
    }

    /// Returns this evaluator with chunked prefill enabled: prompts are
    /// processed `chunk_tokens` at a time before decoding, and TTFT
    /// covers arrival → first token end-to-end.
    pub fn with_chunked_prefill(self, chunk_tokens: u64) -> Self {
        self.with_prefill(PrefillConfig::chunked(chunk_tokens))
    }

    /// The active prefill configuration.
    pub fn prefill_config(&self) -> PrefillConfig {
        self.prefill
    }

    /// Returns this evaluator with an explicit paged-KV configuration
    /// (see [`PagedKvConfig`]). The default `disabled()` keeps the
    /// historical whole-request reservations bit-exactly; enabling it
    /// gives each replica a refcounted page pool with prefix caching
    /// and page-granular reclamation (continuous policy only — the
    /// closed-world wave policy ignores this knob).
    pub fn with_paged_kv(mut self, paged_kv: PagedKvConfig) -> Self {
        self.paged_kv = paged_kv;
        self
    }

    /// Returns this evaluator with paged KV + prefix caching enabled at
    /// `page_bytes` granularity.
    pub fn with_prefix_caching(self, page_bytes: u64) -> Self {
        self.with_paged_kv(PagedKvConfig::paged(page_bytes))
    }

    /// The active paged-KV configuration.
    pub fn paged_kv_config(&self) -> PagedKvConfig {
        self.paged_kv
    }

    /// Prompt/decode tokens one KV page holds under the active paged-KV
    /// configuration (≥ 1): `page_bytes` over the per-token KV footprint
    /// including any TP-driven KV-head replication.
    pub fn page_tokens(&self) -> u64 {
        let replication = u64::from((self.system.parallel.tp / self.model.kv_heads()).max(1));
        let per_token = (replication * self.model.kv_bytes(1)).max(1);
        (self.paged_kv.page_bytes / per_token).max(1)
    }

    /// Returns this evaluator with a different chunk-pricing stride
    /// (decode steps between iteration-cost recomputes; ≥ 1). Since
    /// chunks are priced at their midpoint step, throughput is
    /// stride-invariant up to the kernel model's affine approximation —
    /// `stride = 1` is exact per-step pricing, larger strides are the
    /// fast path (enforced by `tests/engine_properties.rs`). Panics on
    /// 0; a scenario's `policies.stride: 0` is a validation error.
    pub fn with_stride(mut self, stride: u64) -> Self {
        assert!(stride >= 1, "stride must be >= 1");
        self.stride = stride;
        self
    }

    /// The system configuration.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The model configuration.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The enabled techniques.
    pub fn techniques(&self) -> &Techniques {
        &self.techniques
    }

    /// The active scheduling policy.
    pub fn scheduling_policy(&self) -> SchedulingPolicy {
        self.policy
    }

    pub(crate) fn stage_model(&self) -> StageModel<'_> {
        StageModel::new(self.system, self.model, self.techniques, &self.kernels)
    }

    pub(crate) fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    pub(crate) fn stride(&self) -> u64 {
        self.stride
    }

    /// One decode iteration for an explicit batch (ids and token counts).
    pub fn iteration(&self, batch: &[(u64, u64)]) -> IterationBreakdown {
        self.stage_model().iteration(batch)
    }

    /// One prefill step for a single request with `done` prompt tokens
    /// already resident, processing its next `chunk` tokens. The
    /// breakdown holds the chunk's *totals* (not per-step values).
    pub fn prefill_chunk(&self, done: u64, chunk: u64) -> IterationBreakdown {
        self.stage_model().prefill_chunk(0, done, chunk)
    }

    /// Seconds to process a whole `prompt` in isolation under the
    /// configured prefill chunking — the minimum prompt-processing
    /// latency any request with that prompt can experience. 0 when
    /// prefill is disabled.
    pub fn prefill_time(&self, prompt: u64) -> f64 {
        if !self.prefill.enabled {
            return 0.0;
        }
        let stage = self.stage_model();
        let mut secs = 0.0;
        let mut done = 0u64;
        while done < prompt {
            let c = self.prefill.chunk_tokens.min(prompt - done);
            secs += stage.prefill_chunk(0, done, c).seconds;
            done += c;
        }
        secs
    }

    /// KV bytes available to one replica (capacity minus weights,
    /// scaled by [`Self::with_kv_capacity_factor`]).
    pub fn replica_kv_capacity(&self) -> u64 {
        let total = u64::from(self.system.parallel.modules()) * self.system.module.capacity_bytes;
        let cap = total.saturating_sub(self.model.weight_bytes());
        if self.kv_capacity_factor == 1.0 {
            cap // bit-exact fast path for the unscaled default
        } else {
            (cap as f64 * self.kv_capacity_factor) as u64
        }
    }

    /// Per-request KV reservation under the active memory policy, for a
    /// request that will finish at `final_len` tokens when the serving
    /// configuration is compiled for a worst case of `t_max` tokens.
    ///
    /// Static PIM instruction streams embed physical addresses for the
    /// worst case, so every request reserves `kv_bytes(t_max)`; DPA
    /// reserves the actual footprint plus one partial chunk per module.
    pub fn kv_reservation(&self, final_len: u64, t_max: u64) -> u64 {
        // When TP exceeds the KV-head count, KV heads are replicated
        // across modules and the footprint grows accordingly.
        let replication = u64::from((self.system.parallel.tp / self.model.kv_heads()).max(1));
        if self.techniques.dpa {
            // Lazy allocation: actual KV plus one partial chunk per module.
            replication * self.model.kv_bytes(final_len)
                + u64::from(self.system.parallel.modules()) * DEFAULT_CHUNK_BYTES / 2
        } else {
            replication * self.model.kv_bytes(t_max.min(self.model.context_window))
        }
    }

    /// Maximum requests admissible under Head-First Partitioning's
    /// placement constraint: every (request, KV-head) pair's cache must be
    /// *channel-resident* (paper §IV: "a request typically consumes nearly
    /// the entire memory capacity of a single PIM channel"). TCP removes
    /// the constraint by spreading each pair's tokens over all channels.
    pub fn hfp_batch_limit(&self, t_max: u64) -> u64 {
        if self.techniques.tcp {
            return u64::MAX;
        }
        let p = self.system.parallel;
        let weights_per_module = self.model.weight_bytes() / u64::from(p.modules());
        let channel_cap = self
            .system
            .module
            .capacity_bytes
            .saturating_sub(weights_per_module)
            / u64::from(self.system.module.channels);
        // One module holds, per pair, its pipeline stage's layer share.
        let pair_kv = (self.model.kv_bytes(t_max.min(self.model.context_window))
            / u64::from(self.model.kv_heads())
            / u64::from(p.pp))
        .max(1);
        let slots_per_channel = channel_cap / pair_kv;
        // Pairs are (request, KV-head instance) on each module.
        let q_heads = self.model.heads.div_ceil(p.tp).max(1);
        let g_eff = self.model.gqa_group.min(q_heads).max(1);
        let kv_instances = q_heads.div_ceil(g_eff).max(1);
        (u64::from(self.system.module.channels) * slots_per_channel / u64::from(kv_instances))
            .max(1)
    }

    /// Whether one replica can hold the model weights plus at least one
    /// worst-case request.
    pub fn feasible(&self, t_max: u64) -> bool {
        self.replica_kv_capacity() >= self.kv_reservation(t_max, t_max)
    }

    /// Serves `trace` under the active scheduling policy on a
    /// single-threaded cluster whose round-robin router reproduces the
    /// historical trace-level partitioning bit-exactly.
    pub fn run_trace(&self, trace: &Trace) -> ServingReport {
        Cluster::new(self, self.policy).run(trace, &mut RoundRobin::default())
    }

    /// The original monolithic wave loop, kept as the fidelity oracle
    /// for the cluster's wave policy (hidden from docs; used by the
    /// `engine_properties` tests). The only arithmetic change since
    /// extraction is the exact per-step chunk pricing (midpoint-step
    /// token counts), applied identically here and in `ReplicaSim` so the
    /// two stay bit-exact. It reports the pre-fix utilization formula
    /// (divided by `max_seconds × replicas`) and leaves the newer
    /// `busy_seconds`/`latency`/prefill fields at their defaults.
    #[doc(hidden)]
    pub fn run_trace_wave_reference(&self, trace: &Trace) -> ServingReport {
        let replicas = self.system.replicas();
        let stage = self.stage_model();
        let mut report = ServingReport::default();
        let mut batch_sum = 0.0;
        let mut util_weighted = 0.0;
        let mut used_kv = 0.0;
        let mut reserved_kv = 0.0;

        // The serving configuration is compiled for the workload's worst
        // case (static streams must cover it).
        let t_max = trace.iter().map(|r| r.final_len()).max().unwrap_or(0);
        // Partition requests across replicas.
        let mut per_replica: Vec<Vec<workload::Request>> = vec![Vec::new(); replicas as usize];
        for (i, r) in trace.iter().enumerate() {
            per_replica[i % replicas as usize].push(*r);
        }

        let mut max_seconds = 0.0f64;
        for queue in &per_replica {
            let mut idx = 0usize;
            let mut replica_seconds = 0.0f64;
            while idx < queue.len() {
                // Greedy capacity bound, then balance the remaining
                // requests evenly over the implied number of waves (a
                // trailing near-empty wave would waste a whole decode
                // pass).
                let greedy = policy::wave_greedy_admit(self, &queue[idx..], t_max);
                let remaining = queue.len() - idx;
                let waves_needed = remaining.div_ceil(greedy);
                let admitted = remaining.div_ceil(waves_needed).min(greedy);
                let wave = &queue[idx..idx + admitted];
                idx += admitted;
                report.waves += 1;
                batch_sum += admitted as f64;

                // Decode the wave; all requests share the same decode
                // budget, growing token counts as they generate.
                let decode_len = wave.iter().map(|r| r.decode_len).max().unwrap_or(0);
                let mut step = 0u64;
                while step < decode_len {
                    let chunk = self.stride.min(decode_len - step);
                    // Exact per-step pricing: the affine kernel model
                    // makes Σₛ it(T+s) equal chunk·it(T + (chunk-1)/2),
                    // so the chunk is priced at its midpoint step (the
                    // same rule `ReplicaSim` uses — chunk
                    // granularity no longer skews costs).
                    let batch: Vec<(u64, u64)> = wave
                        .iter()
                        .filter(|r| r.decode_len > step)
                        .map(|r| (r.id, r.context_len + step + (chunk - 1) / 2))
                        .collect();
                    if batch.is_empty() {
                        break;
                    }
                    let it = stage.iteration(&batch);
                    let secs = it.seconds * chunk as f64;
                    replica_seconds += secs;
                    report.tokens += batch.len() as u64 * chunk;
                    report.attn_seconds += it.attn_seconds * chunk as f64;
                    report.fc_seconds += it.fc_seconds * chunk as f64;
                    util_weighted += it.attn_utilization * secs;
                    self.energy.accumulate(
                        &mut report.energy,
                        &it,
                        chunk as f64,
                        self.system.parallel.modules(),
                        self.system.module.channels,
                    );
                    step += chunk;
                }

                for r in wave {
                    used_kv += self.model.kv_bytes(r.final_len()) as f64;
                    reserved_kv += self.kv_reservation(r.final_len(), t_max) as f64;
                }
            }
            max_seconds = max_seconds.max(replica_seconds);
        }

        report.seconds = max_seconds;
        report.tokens_per_second = if max_seconds > 0.0 {
            report.tokens as f64 / max_seconds
        } else {
            0.0
        };
        report.mean_batch = if report.waves > 0 {
            batch_sum / f64::from(report.waves)
        } else {
            0.0
        };
        report.attn_utilization = if max_seconds > 0.0 {
            util_weighted / (max_seconds * replicas as f64)
        } else {
            0.0
        };
        report.capacity_utilization = if reserved_kv > 0.0 {
            used_kv / reserved_kv
        } else {
            0.0
        };
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_model::{LLM_7B_128K_GQA, LLM_7B_32K};
    use workload::{Dataset, TraceBuilder};

    fn small_trace() -> Trace {
        TraceBuilder::new(Dataset::QmSum)
            .seed(3)
            .requests(12)
            .decode_len(32)
            .build()
    }

    #[test]
    fn pimphony_beats_baseline_throughput() {
        let trace = small_trace();
        let base = Evaluator::new(
            SystemConfig::cent_for(&LLM_7B_32K),
            LLM_7B_32K,
            Techniques::baseline(),
        );
        let phony = Evaluator::new(
            SystemConfig::cent_for(&LLM_7B_32K),
            LLM_7B_32K,
            Techniques::pimphony(),
        );
        let rb = base.run_trace(&trace);
        let rp = phony.run_trace(&trace);
        assert!(
            rp.tokens_per_second > 1.4 * rb.tokens_per_second,
            "pimphony {} vs base {}",
            rp.tokens_per_second,
            rb.tokens_per_second
        );
        assert_eq!(rb.tokens, rp.tokens, "same work served");
    }

    #[test]
    fn ladder_is_monotone() {
        let trace = small_trace();
        let mut last = 0.0;
        for t in Techniques::ladder() {
            let e = Evaluator::new(SystemConfig::cent_for(&LLM_7B_32K), LLM_7B_32K, t);
            let r = e.run_trace(&trace);
            assert!(
                r.tokens_per_second >= last * 0.999,
                "{}: {} < {}",
                t.label(),
                r.tokens_per_second,
                last
            );
            last = r.tokens_per_second;
        }
    }

    #[test]
    fn dpa_improves_capacity_utilization_and_batch() {
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(5)
            .requests(40)
            .decode_len(16)
            .build();
        let sys = SystemConfig::cent_for(&LLM_7B_32K);
        let stat = Evaluator::new(sys, LLM_7B_32K, Techniques::tcp_dcs()).run_trace(&trace);
        let dpa = Evaluator::new(sys, LLM_7B_32K, Techniques::pimphony()).run_trace(&trace);
        assert!(dpa.capacity_utilization > stat.capacity_utilization + 0.2);
        assert!(dpa.mean_batch >= stat.mean_batch);
    }

    #[test]
    fn gqa_model_serves_long_contexts() {
        let trace = TraceBuilder::new(Dataset::MultiFieldQa)
            .seed(2)
            .requests(6)
            .decode_len(16)
            .build();
        let e = Evaluator::new(
            SystemConfig::cent_for(&LLM_7B_128K_GQA),
            LLM_7B_128K_GQA,
            Techniques::pimphony(),
        );
        let r = e.run_trace(&trace);
        assert!(r.tokens_per_second > 0.0);
        assert_eq!(r.tokens, trace.total_decode_tokens());
    }

    #[test]
    fn reservation_policy_differs() {
        let sys = SystemConfig::cent_for(&LLM_7B_32K);
        let stat = Evaluator::new(sys, LLM_7B_32K, Techniques::tcp_dcs());
        let dpa = Evaluator::new(sys, LLM_7B_32K, Techniques::pimphony());
        // A short request reserves far less under DPA than under a
        // static stream compiled for the dataset's 30K worst case.
        assert!(dpa.kv_reservation(8_000, 30_000) < stat.kv_reservation(8_000, 30_000) / 2);
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let e = Evaluator::new(
            SystemConfig::cent_for(&LLM_7B_32K),
            LLM_7B_32K,
            Techniques::pimphony(),
        );
        let r = e.run_trace(&Trace::new());
        assert_eq!(r.tokens, 0);
        assert_eq!(r.tokens_per_second, 0.0);
        assert_eq!(r.latency.completed, 0);
    }

    #[test]
    fn fairness_helpers_are_guarded_against_empty_and_all_zero() {
        // Empty per-replica / per-tenant data (the wave-reference loop
        // and default reports): defined as perfectly fair, never NaN.
        let empty = ServingReport::default();
        assert_eq!(empty.replica_fairness(), 1.0);
        assert_eq!(empty.tenant_fairness(), 1.0);
        // All-zero loads (a run that served nothing): still 1.0.
        let mut zeroed = ServingReport {
            per_replica: vec![metrics::ReplicaBreakdown::default(); 3],
            latency_by_tenant: vec![metrics::TenantLatency::default(); 2],
            ..ServingReport::default()
        };
        assert_eq!(zeroed.replica_fairness(), 1.0);
        assert_eq!(zeroed.tenant_fairness(), 1.0);
        assert!(!zeroed.replica_fairness().is_nan());
        // Skewed tenant goodput drops below 1 and stays positive.
        zeroed.latency_by_tenant[0].tokens = 100;
        let f = zeroed.tenant_fairness();
        assert!((f - 0.5).abs() < 1e-12, "{f}");
    }

    #[test]
    fn busy_seconds_accounts_every_replica() {
        // Utilization divides by busy time, not wall-clock × replicas:
        // with balanced load they coincide; busy is never larger.
        let trace = small_trace();
        let e = Evaluator::new(
            SystemConfig::cent_for(&LLM_7B_32K),
            LLM_7B_32K,
            Techniques::pimphony(),
        );
        let r = e.run_trace(&trace);
        let replicas = e.system().replicas() as f64;
        assert!(r.busy_seconds > 0.0);
        assert!(r.busy_seconds <= r.seconds * replicas + 1e-9);
        assert!((0.0..=1.0).contains(&r.attn_utilization));
    }

    #[test]
    fn utilization_fix_does_not_deflate_under_idle_replicas() {
        // 3 requests over 2 replicas: one replica serves 2, the other 1,
        // so the lighter replica idles. The fixed metric (busy-time
        // weighted) must be at least the reference metric, which divided
        // by max_seconds × replicas and double-counted the idle tail.
        let sys = SystemConfig::cent_for(&LLM_7B_32K)
            .with_parallel(pim_compiler::ParallelConfig::new(4, 1));
        assert!(sys.replicas() >= 2);
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(4)
            .requests(3)
            .decode_len(16)
            .build();
        let e = Evaluator::new(sys, LLM_7B_32K, Techniques::pimphony());
        let fixed = e.run_trace(&trace);
        let reference = e.run_trace_wave_reference(&trace);
        assert!(
            fixed.attn_utilization >= reference.attn_utilization - 1e-12,
            "fixed {} < reference {}",
            fixed.attn_utilization,
            reference.attn_utilization
        );
        assert!(fixed.busy_seconds < fixed.seconds * e.system().replicas() as f64);
    }

    fn cent_pimphony(policy: SchedulingPolicy) -> Evaluator {
        Evaluator::new(
            SystemConfig::cent_for(&LLM_7B_32K),
            LLM_7B_32K,
            Techniques::pimphony(),
        )
        .with_policy(policy)
    }

    #[test]
    fn continuous_serves_every_request_and_token() {
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(5)
            .requests(24)
            .decode_range(8, 48)
            .poisson(4.0)
            .build();
        let e = cent_pimphony(SchedulingPolicy::Continuous);
        let r = e.run_trace(&trace);
        assert_eq!(r.tokens, trace.total_decode_tokens());
        assert_eq!(r.latency.completed, trace.len() as u64);
        assert!(r.tokens_per_second > 0.0);
        assert!(r.busy_seconds <= r.seconds * e.system().replicas() as f64 + 1e-9);
    }

    #[test]
    fn continuous_latencies_are_causally_ordered() {
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(8)
            .requests(16)
            .decode_range(4, 32)
            .poisson(2.0)
            .build();
        let r = cent_pimphony(SchedulingPolicy::Continuous).run_trace(&trace);
        let l = &r.latency;
        assert!(l.ttft.p50 > 0.0);
        assert!(l.tpot.p50 > 0.0);
        // Percentiles are monotone and e2e dominates ttft at each rank.
        for s in [&l.ttft, &l.tpot, &l.e2e] {
            assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max, "{s:?}");
        }
        assert!(l.e2e.p50 >= l.ttft.p50);
        assert!(l.e2e.max >= l.ttft.max);
    }

    #[test]
    fn continuous_on_batch_trace_behaves_like_closed_world() {
        // All arrivals at t=0: continuous degenerates to greedy admission
        // with refill — same total work, no idle time.
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(6)
            .requests(16)
            .decode_len(16)
            .build();
        let e = cent_pimphony(SchedulingPolicy::Continuous);
        let r = e.run_trace(&trace);
        assert_eq!(r.tokens, trace.total_decode_tokens());
        assert!((r.busy_seconds - r.seconds * e.system().replicas() as f64).abs() < 1e-9);
    }

    #[test]
    fn wave_latencies_are_nonnegative_on_open_loop_traces() {
        // Wave ignores arrivals (closed world): latencies are measured
        // from the epoch, so a request arriving "late" must not yield a
        // negative TTFT/E2E.
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(7)
            .requests(12)
            .decode_len(8)
            .poisson(0.5) // arrivals spread over many seconds
            .build();
        let r = cent_pimphony(SchedulingPolicy::Wave).run_trace(&trace);
        assert!(
            r.latency.ttft.p50 >= 0.0 && r.latency.ttft.max >= 0.0,
            "{:?}",
            r.latency.ttft
        );
        assert!(r.latency.e2e.p50 >= 0.0, "{:?}", r.latency.e2e);
        assert!(r.latency.e2e.max <= r.seconds + 1e-9);
    }

    #[test]
    fn wave_timings_cover_all_requests() {
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(2)
            .requests(10)
            .decode_len(8)
            .build();
        let r = cent_pimphony(SchedulingPolicy::Wave).run_trace(&trace);
        assert_eq!(r.latency.completed, trace.len() as u64);
        assert!(r.latency.ttft.max <= r.seconds + 1e-9);
        assert!(r.latency.e2e.max <= r.seconds + 1e-9);
    }

    #[test]
    fn run_trace_fills_per_replica_breakdown() {
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(9)
            .requests(10)
            .decode_len(8)
            .build();
        let e = cent_pimphony(SchedulingPolicy::Wave);
        let r = e.run_trace(&trace);
        assert_eq!(r.per_replica.len(), e.system().replicas() as usize);
        let served: u64 = r.per_replica.iter().map(|b| b.served).sum();
        assert_eq!(served, trace.len() as u64);
        assert!(r.per_replica.iter().all(|b| b.peak_reserved_kv > 0));
    }
}
