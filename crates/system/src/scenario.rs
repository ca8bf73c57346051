//! Declarative, serializable experiment specs: one [`Scenario`] value
//! describes workload + cluster + policy and materializes into a
//! runnable simulation.
//!
//! A `Scenario` is the one configuration surface: experiments are
//! *data*, round-tripping through the dependency-free [`jsonio`] layer
//! (`scenarios/*.json`), shared verbatim by tests, benches, and CI. Its
//! [`PolicySpec`] is stored as-is by every [`Evaluator`]
//! ([`Evaluator::with_policies`]), so a serving knob is declared once,
//! as a `PolicySpec` field.
//!
//! ```text
//! scenarios/*.json ──parse──▶ Scenario ──materialize──▶ Materialized
//!                                                        │ run()
//!                                    run_pools ◀─routers─┘──▶ ServingReport
//! ```
//!
//! Multi-tenant traffic is first-class: the workload is a list of
//! [`TenantSpec`]s, each with its own arrival process, dataset, decode
//! spec, priority class, and optional TTFT SLO target. Tenant traces
//! are generated independently (per-tenant seeds, so one tenant's knobs
//! never perturb another's RNG stream), tagged with their tenant id,
//! and merged into one globally arrival-ordered trace; the serving
//! report then carries per-tenant latency percentiles, SLO attainment,
//! and goodput (fed into the Jain tenant-fairness index,
//! [`crate::ServingReport::tenant_fairness`]).
//!
//! A one-tenant scenario with priority 0 and default knobs is
//! **bit-exact** with the historical `TraceBuilder` + `Evaluator` path
//! (enforced by `tests/scenario_properties.rs` against the golden
//! pins): the spec layer adds no arithmetic, only structure.

use crate::cluster::{run_pools, PoolRun, RouterKind};
use crate::config::{SystemConfig, SystemKind, Techniques};
use crate::policy::{
    KvTransferConfig, PagedKvConfig, PoolRole, PreemptionPolicy, PrefillConfig, SchedulingPolicy,
    SheddingPolicy, VictimOrder,
};
use crate::serve::{replica_kv_bytes, token_kv_bytes, Evaluator, ServingReport};
use jsonio::Json;
use llm_model::ModelConfig;
use pim_compiler::ParallelConfig;
use workload::{ArrivalProcess, Dataset, DatasetStats, DecodeSpec, Trace, TraceBuilder};

/// One tenant's traffic in a scenario: its own dataset, volume, decode
/// spec, arrival process, priority class, and optional TTFT SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Human-readable tenant name (report tables key on it).
    pub name: String,
    /// Table II dataset the context lengths are drawn from.
    pub dataset: Dataset,
    /// Requests this tenant offers.
    pub requests: usize,
    /// RNG seed for this tenant's trace (independent per tenant).
    pub seed: u64,
    /// Per-request decode budget.
    pub decode: DecodeSpec,
    /// Arrival-time process.
    pub arrivals: ArrivalProcess,
    /// Scheduling priority class shared by every request of the tenant
    /// (higher is more urgent; priority diversity across tenants is
    /// what lets preemption policies evict).
    pub priority: u8,
    /// Optional TTFT SLO target in seconds — the report's per-tenant
    /// attainment is the fraction of completed requests meeting it.
    pub slo_ttft_p99: Option<f64>,
    /// Leading prompt tokens every request of this tenant shares (a
    /// common system prompt), clamped per request to its context
    /// length. 0 (the default) means no sharing; with
    /// `policies.prefix_caching` on, shared tokens hit the page-level
    /// prefix cache after the tenant's first admission.
    pub shared_prefix: u64,
    /// Priority classes drawn per request, uniformly from
    /// `0..priority_levels`. The default 1 leaves every request at the
    /// fixed `priority`; above 1 it replaces `priority`, which must
    /// then stay 0.
    pub priority_levels: u8,
    /// Scale of the dataset's context-length distribution: mean, std
    /// and bounds are multiplied by it (the minimum floored at 64
    /// tokens, the maximum capped so a prompt plus the tenant's longest
    /// decode fits the model's context window). The default 1.0 draws
    /// from the dataset's own statistics.
    pub context_scale: f64,
}

impl TenantSpec {
    /// A tenant with the trace builder's defaults: 128 requests,
    /// seed 0, fixed 256-token decode, batch arrivals, priority 0, no
    /// SLO.
    pub fn new(name: impl Into<String>, dataset: Dataset) -> Self {
        TenantSpec {
            name: name.into(),
            dataset,
            requests: 128,
            seed: 0,
            decode: DecodeSpec::Fixed(256),
            arrivals: ArrivalProcess::Batch,
            priority: 0,
            slo_ttft_p99: None,
            shared_prefix: 0,
            priority_levels: 1,
            context_scale: 1.0,
        }
    }

    /// Sets the request count.
    pub fn requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the decode budget spec.
    pub fn decode(mut self, spec: DecodeSpec) -> Self {
        self.decode = spec;
        self
    }

    /// Sets the arrival process.
    pub fn arrivals(mut self, process: ArrivalProcess) -> Self {
        self.arrivals = process;
        self
    }

    /// Sets the priority class.
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the TTFT SLO target in seconds.
    pub fn slo_ttft_p99(mut self, seconds: f64) -> Self {
        self.slo_ttft_p99 = Some(seconds);
        self
    }

    /// Sets the shared leading-prompt length in tokens.
    pub fn shared_prefix(mut self, tokens: u64) -> Self {
        self.shared_prefix = tokens;
        self
    }

    /// Builds this tenant's trace for a model with `context_window`
    /// tokens, tagged with `tenant`.
    fn build_trace(&self, tenant: u8, context_window: u64) -> Trace {
        let builder = TraceBuilder::from_stats(self.context_stats(context_window))
            .seed(self.seed)
            .requests(self.requests)
            .decode(self.decode)
            .arrivals(self.arrivals)
            .tenant(tenant)
            .shared_prefix(self.shared_prefix);
        if self.priority_levels > 1 {
            builder.priority_levels(self.priority_levels).build()
        } else {
            builder.priority(self.priority).build()
        }
    }

    /// The context-length statistics this tenant draws from (see
    /// [`Self::context_scale`]).
    pub fn context_stats(&self, context_window: u64) -> DatasetStats {
        let base = self.dataset.stats();
        let f = self.context_scale;
        if f == 1.0 {
            return base;
        }
        let longest_decode = match self.decode {
            DecodeSpec::Fixed(n) | DecodeSpec::Uniform(_, n) => n,
        };
        DatasetStats {
            mean: base.mean * f,
            std: base.std * f,
            min: ((base.min as f64 * f) as u64).max(64),
            max: ((base.max as f64 * f) as u64).min(context_window.saturating_sub(longest_decode)),
            ..base
        }
    }

    /// Validates the spec for a model with `context_window` tokens,
    /// naming the offending field.
    fn validate(&self, idx: usize, context_window: u64) -> Result<(), String> {
        if self.requests == 0 {
            return Err(format!(
                "workload[{idx}] ({}): requests must be > 0",
                self.name
            ));
        }
        if !self.decode.is_valid() {
            return Err(format!(
                "workload[{idx}] ({}): decode range requires 1 <= lo <= hi, got {:?}",
                self.name, self.decode
            ));
        }
        if self.decode == DecodeSpec::Fixed(0) {
            // Zero-emission requests produce no latency samples, so a
            // whole tenant of them would silently vanish from the
            // per-tenant report — reject the spec instead.
            return Err(format!(
                "workload[{idx}] ({}): decode must be >= 1 token",
                self.name
            ));
        }
        if let Some(rate) = self.arrivals.rate() {
            if !(rate > 0.0 && rate.is_finite()) {
                return Err(format!(
                    "workload[{idx}] ({}): arrival rate must be positive and finite",
                    self.name
                ));
            }
        }
        if let ArrivalProcess::Bursty { cv, .. } = self.arrivals {
            if cv < 1.0 {
                return Err(format!(
                    "workload[{idx}] ({}): bursty cv must be >= 1",
                    self.name
                ));
            }
        }
        if let Some(slo) = self.slo_ttft_p99 {
            if !(slo > 0.0 && slo.is_finite()) {
                return Err(format!(
                    "workload[{idx}] ({}): slo_ttft_p99 must be positive and finite",
                    self.name
                ));
            }
        }
        if self.priority_levels == 0 || (self.priority_levels > 1 && self.priority != 0) {
            return Err(format!(
                "workload[{idx}] ({}): priority_levels must be >= 1, and with more than one \
                 level priority must stay 0",
                self.name
            ));
        }
        let stats = self.context_stats(context_window);
        if !(self.context_scale > 0.0 && self.context_scale.is_finite()) || stats.min > stats.max {
            return Err(format!(
                "workload[{idx}] ({}): context_scale {} must be positive and leave a context \
                 length range (got {}..={} tokens)",
                self.name, self.context_scale, stats.min, stats.max
            ));
        }
        Ok(())
    }
}

/// One replica pool of a disaggregated cluster: a named group of
/// identical replicas with a serving role, its own sizing, and
/// optionally its own system preset and router — so an xPU+PIM prefill
/// pool can front a PIM-only decode pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSpec {
    /// Pool name (report breakdowns key on it; must be unique).
    pub name: String,
    /// Serving phase the pool owns. `mixed` runs the full lifecycle;
    /// `prefill` retires at prompt residency and hands the KV off;
    /// `decode` admits only handoffs.
    pub role: PoolRole,
    /// Replicas in the pool (>= 1).
    pub replicas: u32,
    /// Tensor-parallel degree of one replica; 0 (the default) means
    /// "whole node" — the pool's system preset unpartitioned.
    pub tp: u32,
    /// Pipeline-parallel degree of one replica.
    pub pp: u32,
    /// System preset override for this pool; `None` inherits the
    /// scenario-level `system`.
    pub system: Option<SystemKind>,
    /// Router override for this pool; `None` inherits
    /// `policies.router`.
    pub router: Option<RouterKind>,
}

impl PoolSpec {
    /// A pool of `replicas` whole-node replicas inheriting the
    /// scenario's system preset and router.
    pub fn new(name: impl Into<String>, role: PoolRole, replicas: u32) -> Self {
        PoolSpec {
            name: name.into(),
            role,
            replicas,
            tp: 0,
            pp: 1,
            system: None,
            router: None,
        }
    }

    /// Sets the per-replica TP/PP partitioning.
    pub fn parallel(mut self, tp: u32, pp: u32) -> Self {
        self.tp = tp;
        self.pp = pp;
        self
    }

    /// Overrides the pool's system preset.
    pub fn system(mut self, kind: SystemKind) -> Self {
        self.system = Some(kind);
        self
    }

    /// Overrides the pool's router.
    pub fn router(mut self, kind: RouterKind) -> Self {
        self.router = Some(kind);
        self
    }

    /// Validates the pool spec, naming the offending field.
    fn validate(&self, idx: usize) -> Result<(), String> {
        if self.name.is_empty() {
            return Err(format!("cluster.pools[{idx}]: name must be nonempty"));
        }
        if self.replicas == 0 {
            return Err(format!(
                "cluster.pools[{idx}] ({}): replicas must be >= 1",
                self.name
            ));
        }
        if self.pp == 0 {
            return Err(format!(
                "cluster.pools[{idx}] ({}): pp must be >= 1",
                self.name
            ));
        }
        Ok(())
    }
}

/// Cluster sizing of a scenario: the parallelization of one replica and
/// the simulation thread count — plus, for disaggregated serving, the
/// heterogeneous replica pools.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Tensor-parallel degree of one replica; 0 (the default) means
    /// "whole node" — the system preset's own parallelization (all
    /// modules in one replica, the paper's configuration).
    pub tp: u32,
    /// Pipeline-parallel degree of one replica.
    pub pp: u32,
    /// Total PIM modules in the node; 0 (the default) keeps the system
    /// preset's sizing. Overriding it scales the *cluster*: with the
    /// TP/PP override set, the replica count is
    /// `modules / (tp * pp)` — e.g. `modules: 200, tp: 2` simulates a
    /// 100-replica fleet of 2-module replicas.
    pub modules: u32,
    /// Replica-simulation threads (0 = one per available CPU; results
    /// are byte-identical whatever the count).
    pub threads: usize,
    /// Replica pools for disaggregated serving. Empty (the default)
    /// means the flat `tp`/`pp`/`modules` sizing above — exactly one
    /// anonymous mixed pool. A single all-default `mixed` pool entry
    /// is byte-identical with the equivalent flat form (the desugaring
    /// is pinned by `tests/disagg_properties.rs`); when pools are
    /// listed, the flat sizing fields are ignored.
    pub pools: Vec<PoolSpec>,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            tp: 0,
            pp: 1,
            modules: 0,
            threads: 1,
            pools: Vec::new(),
        }
    }
}

/// Scheduling/memory policy bundle of a scenario — every serving knob,
/// in one place. An [`Evaluator`] stores it whole
/// ([`Evaluator::with_policies`]); each default is bit-exact with the
/// historical behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicySpec {
    /// Batch scheduling policy.
    pub scheduling: SchedulingPolicy,
    /// Cross-replica load balancer.
    pub router: RouterKind,
    /// What a blocked candidate may do under KV memory pressure.
    pub preemption: PreemptionPolicy,
    /// Prompt-processing configuration.
    pub prefill: PrefillConfig,
    /// KV-pool scale factor (1.0 = hardware capacity; positive and
    /// finite). Fractions below one model KV memory pressure without
    /// re-sizing modules or models.
    pub kv_capacity_factor: f64,
    /// Decode chunk-pricing stride: decode steps between iteration-cost
    /// recomputes (≥ 1). Chunks are priced at their midpoint step, so
    /// throughput is stride-invariant up to the kernel model's affine
    /// approximation — `1` is exact per-step pricing, larger strides are
    /// the fast path (enforced by `tests/engine_properties.rs`).
    pub stride: u64,
    /// Paged KV cache with prefix caching and page-granular eviction
    /// (continuous scheduling only; off is bit-exact with whole-request
    /// reservations).
    pub paged_kv: PagedKvConfig,
    /// Deadline-aware admission control (continuous scheduling only;
    /// `None` — the default — is bit-exact with no admission control).
    pub shedding: SheddingPolicy,
    /// Within-class eviction victim order (the default `RecentFirst` is
    /// bit-exact with the historical most-recently-admitted order).
    pub victim_order: VictimOrder,
    /// Cross-pool KV-transfer cost model (per-page latency + link
    /// bandwidth), priced only when a `prefill`-role pool hands
    /// requests off — inert for colocated clusters.
    pub kv_transfer: KvTransferConfig,
}

impl Default for PolicySpec {
    fn default() -> Self {
        PolicySpec {
            scheduling: SchedulingPolicy::Wave,
            router: RouterKind::RoundRobin,
            preemption: PreemptionPolicy::None,
            prefill: PrefillConfig::disabled(),
            kv_capacity_factor: 1.0,
            stride: 64,
            paged_kv: PagedKvConfig::disabled(),
            shedding: SheddingPolicy::None,
            victim_order: VictimOrder::RecentFirst,
            kv_transfer: KvTransferConfig::default(),
        }
    }
}

/// A complete, serializable experiment description: model + system +
/// techniques + multi-tenant workload + cluster + policies. See the
/// module docs for the JSON format and the bit-exactness guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Table I model name (e.g. `"LLM-7B-32K"`).
    pub model: String,
    /// Node organization preset (PIM-only / xPU+PIM sizing).
    pub system: SystemKind,
    /// Enabled PIMphony techniques.
    pub techniques: Techniques,
    /// One entry per tenant; tenant ids are list positions.
    pub workload: Vec<TenantSpec>,
    /// Replica parallelization and simulation threads.
    pub cluster: ClusterSpec,
    /// Scheduling, routing, preemption, prefill, and memory knobs.
    pub policies: PolicySpec,
}

impl Scenario {
    /// A scenario with the orchestrator defaults — PIM-only sizing,
    /// full PIMphony techniques, wave scheduling, round-robin routing,
    /// no preemption/prefill, hardware KV capacity — and an empty
    /// workload.
    pub fn new(model: impl Into<String>) -> Self {
        Scenario {
            model: model.into(),
            system: SystemKind::PimOnly,
            techniques: Techniques::pimphony(),
            workload: Vec::new(),
            cluster: ClusterSpec::default(),
            policies: PolicySpec::default(),
        }
    }

    /// Appends a tenant to the workload.
    pub fn tenant(mut self, tenant: TenantSpec) -> Self {
        self.workload.push(tenant);
        self
    }

    /// Resolves the Table I model by name.
    pub fn resolve_model(&self) -> Result<ModelConfig, String> {
        ModelConfig::table1()
            .into_iter()
            .find(|m| m.name.eq_ignore_ascii_case(&self.model))
            .ok_or_else(|| {
                let known: Vec<&str> = ModelConfig::table1().iter().map(|m| m.name).collect();
                format!(
                    "unknown model {:?} (Table I models: {})",
                    self.model,
                    known.join(", ")
                )
            })
    }

    /// The system configuration this scenario describes for `model`
    /// (the preset sizing, with the cluster's TP/PP override applied).
    pub fn system_config_for(&self, model: &ModelConfig) -> SystemConfig {
        let mut sys = match self.system {
            SystemKind::PimOnly => SystemConfig::cent_for(model),
            SystemKind::XpuPim => SystemConfig::neupims_for(model),
        };
        if self.cluster.modules > 0 {
            sys.modules = self.cluster.modules;
        }
        if self.cluster.tp > 0 {
            sys.with_parallel(ParallelConfig::new(self.cluster.tp, self.cluster.pp))
        } else {
            sys
        }
    }

    /// The system configuration of one pool: the pool's preset (or the
    /// scenario's), partitioned per the pool's TP/PP, with the module
    /// count sized so the replica count is exactly `pool.replicas`.
    pub fn pool_system_config(&self, pool: &PoolSpec, model: &ModelConfig) -> SystemConfig {
        let mut sys = match pool.system.unwrap_or(self.system) {
            SystemKind::PimOnly => SystemConfig::cent_for(model),
            SystemKind::XpuPim => SystemConfig::neupims_for(model),
        };
        if pool.tp > 0 {
            sys = sys.with_parallel(ParallelConfig::new(pool.tp, pool.pp));
        }
        sys.modules = sys.parallel.modules() * pool.replicas;
        sys
    }

    /// Builds the fully configured evaluator for an explicit (possibly
    /// non-Table-I) model config, so custom `ModelConfig` values get the
    /// same policies, sizing and tenant SLOs as a named model.
    pub fn evaluator_for(&self, model: ModelConfig) -> Evaluator {
        let sys = self.system_config_for(&model);
        self.evaluator_with(sys, model)
    }

    /// Builds one pool's evaluator: the shared policy bundle on the
    /// pool's own system sizing, tagged with the pool's role.
    pub fn pool_evaluator_for(&self, pool: &PoolSpec, model: ModelConfig) -> Evaluator {
        let sys = self.pool_system_config(pool, &model);
        self.evaluator_with(sys, model).with_pool_role(pool.role)
    }

    /// The shared evaluator-configuration chain over an explicit system
    /// config — the single place every policy knob is applied, so flat
    /// and pooled evaluators cannot drift apart.
    fn evaluator_with(&self, sys: SystemConfig, model: ModelConfig) -> Evaluator {
        let slos: Vec<(u8, f64)> = self
            .workload
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.slo_ttft_p99.map(|s| (i as u8, s)))
            .collect();
        Evaluator::new(sys, model, self.techniques)
            .with_policies(self.policies)
            .with_tenant_slos(slos)
    }

    /// Validates the whole spec without building anything: model name,
    /// tenant list (nonempty, ≤ 256, each tenant's fields), cluster
    /// sizing, and policy knobs. Shared by [`Self::materialize`] and
    /// [`Self::from_json`], so a spec file that cannot materialize does
    /// not parse either.
    pub fn validate(&self) -> Result<(), String> {
        let model = self.resolve_model()?;
        if self.workload.is_empty() {
            return Err("workload must name at least one tenant".to_string());
        }
        if self.workload.len() > 256 {
            return Err("at most 256 tenants are supported (tenant ids are u8)".to_string());
        }
        for (i, t) in self.workload.iter().enumerate() {
            t.validate(i, model.context_window)?;
        }
        if !(self.policies.kv_capacity_factor > 0.0 && self.policies.kv_capacity_factor.is_finite())
        {
            return Err("policies.kv_capacity_factor must be positive and finite".to_string());
        }
        if self.policies.paged_kv.page_bytes == 0 {
            return Err("policies.page_bytes must be > 0".to_string());
        }
        if self.policies.stride == 0 {
            return Err("policies.stride must be >= 1".to_string());
        }
        let kt = self.policies.kv_transfer;
        if !(kt.page_latency_us >= 0.0 && kt.page_latency_us.is_finite()) {
            return Err(
                "policies.kv_transfer_page_latency_us must be nonnegative and finite".to_string(),
            );
        }
        if !(kt.gbps > 0.0 && kt.gbps.is_finite()) {
            return Err("policies.kv_transfer_gbps must be positive and finite".to_string());
        }
        self.validate_cluster(&model)?;
        self.validate_pools()?;
        self.validate_paging(&model)
    }

    /// Validates the KV pages under prefix caching, on every replica
    /// that pages (each pool's, or the flat cluster's), at that
    /// replica's own TP/PP: a page must hold at least one token of KV,
    /// including the KV-head replication of the replica's TP degree, and
    /// the replica's KV pool (capacity minus weights, scaled by
    /// `kv_capacity_factor`) must hold at least one page.
    fn validate_paging(&self, model: &ModelConfig) -> Result<(), String> {
        let p = &self.policies;
        if !p.paged_kv.prefix_caching {
            return Ok(());
        }
        let page_bytes = p.paged_kv.page_bytes;
        let replicas: Vec<(String, SystemConfig)> = if self.cluster.pools.is_empty() {
            vec![("cluster".to_string(), self.system_config_for(model))]
        } else {
            self.cluster
                .pools
                .iter()
                .enumerate()
                .map(|(i, pool)| {
                    let place = format!("cluster.pools[{i}] ({})", pool.name);
                    (place, self.pool_system_config(pool, model))
                })
                .collect()
        };
        for (place, sys) in replicas {
            let tp = sys.parallel.tp;
            let per_token = token_kv_bytes(model, tp);
            if page_bytes < per_token {
                return Err(format!(
                    "policies.page_bytes = {page_bytes} is below one token's KV on a {place} \
                     replica ({per_token} bytes at tp {tp}); a prefix-caching page must hold \
                     at least one token"
                ));
            }
            let pool = replica_kv_bytes(&sys, model, p.kv_capacity_factor);
            if pool < page_bytes {
                return Err(format!(
                    "policies.kv_capacity_factor = {} leaves a {place} replica a {pool}-byte KV \
                     pool, which holds no {page_bytes}-byte page",
                    p.kv_capacity_factor
                ));
            }
        }
        Ok(())
    }

    /// Validates the flat cluster sizing: `pp` is at least 1, and one
    /// replica's `tp * pp` modules fit in the node (`cluster.modules`,
    /// or the system preset's count when that is 0). Pooled specs size
    /// the node from each pool's replicas, so only `pp` applies to them.
    fn validate_cluster(&self, model: &ModelConfig) -> Result<(), String> {
        if self.cluster.pp == 0 {
            return Err("cluster.pp must be >= 1".to_string());
        }
        let sys = self.system_config_for(model);
        let per_replica = u64::from(sys.parallel.tp) * u64::from(sys.parallel.pp);
        if self.cluster.pools.is_empty() && per_replica > u64::from(sys.modules) {
            return Err(format!(
                "cluster.tp * cluster.pp = {per_replica} modules per replica exceeds the \
                 node's {} modules (cluster.modules, or the {} preset's count when 0)",
                sys.modules,
                sys.kind.name()
            ));
        }
        Ok(())
    }

    /// Validates the disaggregated pool topology: unique nonempty
    /// names, a runnable phase graph (prefill pools need a decode pool
    /// to hand off to and vice versa), and policy prerequisites (roles
    /// are a continuous-scheduling feature; a `prefill` pool without
    /// modeled prefill would retire instantly).
    fn validate_pools(&self) -> Result<(), String> {
        let pools = &self.cluster.pools;
        if pools.is_empty() {
            return Ok(());
        }
        for (i, p) in pools.iter().enumerate() {
            p.validate(i)?;
            if pools[..i].iter().any(|q| q.name == p.name) {
                return Err(format!(
                    "cluster.pools[{i}]: duplicate pool name {:?}",
                    p.name
                ));
            }
        }
        let roled = pools.iter().any(|p| p.role != PoolRole::Mixed);
        if roled && self.policies.scheduling != SchedulingPolicy::Continuous {
            return Err(
                "cluster.pools: prefill/decode roles require continuous scheduling".to_string(),
            );
        }
        if pools.iter().any(|p| p.role == PoolRole::Prefill) {
            if !self.policies.prefill.enabled {
                return Err(
                    "cluster.pools: a prefill pool requires policies.prefill_chunk > 0 \
                     (unmodeled prefill would retire instantly)"
                        .to_string(),
                );
            }
            if !pools.iter().any(|p| p.role == PoolRole::Decode) {
                return Err(
                    "cluster.pools: a prefill pool hands requests off, so at least one \
                     decode pool is required"
                        .to_string(),
                );
            }
        }
        if pools.iter().any(|p| p.role == PoolRole::Decode)
            && !pools.iter().any(|p| p.role == PoolRole::Prefill)
        {
            // Mixed pools keep their own decodes, so only a prefill
            // pool feeds a decode pool; without one it would idle.
            return Err(
                "cluster.pools: a decode pool admits only handoffs, so at least one \
                 prefill pool is required"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Validates the scenario and builds the runnable pieces: the fully
    /// configured [`Evaluator`] and the merged, tenant-tagged,
    /// arrival-ordered [`Trace`], bundled with the routing/threading
    /// choices as a [`Materialized`] simulation.
    pub fn materialize(&self) -> Result<Materialized, String> {
        self.validate()?;
        let model = self.resolve_model()?;
        let trace = Trace::merge(
            self.workload
                .iter()
                .enumerate()
                .map(|(i, t)| t.build_trace(i as u8, model.context_window)),
        );
        let pools = self
            .cluster
            .pools
            .iter()
            .map(|p| MaterializedPool {
                name: p.name.clone(),
                evaluator: self.pool_evaluator_for(p, model),
                router: p.router.unwrap_or(self.policies.router),
            })
            .collect();
        Ok(Materialized {
            evaluator: self.evaluator_for(model),
            trace,
            router: self.policies.router,
            threads: self.cluster.threads,
            tenant_names: self.workload.iter().map(|t| t.name.clone()).collect(),
            pools,
        })
    }

    /// Serializes the scenario as a [`Json`] tree (see the checked-in
    /// `scenarios/*.json` for the format).
    pub fn to_json(&self) -> Json {
        let p = &self.policies;
        Json::obj([
            ("model", Json::str(self.model.clone())),
            ("system", Json::str(self.system.label())),
            (
                "techniques",
                Json::obj([
                    ("tcp", Json::Bool(self.techniques.tcp)),
                    ("dcs", Json::Bool(self.techniques.dcs)),
                    ("dpa", Json::Bool(self.techniques.dpa)),
                ]),
            ),
            ("cluster", {
                let mut fields = vec![
                    ("tp", Json::num(self.cluster.tp as f64)),
                    ("pp", Json::num(self.cluster.pp as f64)),
                    ("modules", Json::num(self.cluster.modules as f64)),
                    ("threads", Json::num(self.cluster.threads as f64)),
                ];
                // Emitted only when present, so pool-free spec files
                // keep their historical canonical form byte-for-byte.
                if !self.cluster.pools.is_empty() {
                    fields.push((
                        "pools",
                        Json::Arr(self.cluster.pools.iter().map(pool_to_json).collect()),
                    ));
                }
                Json::obj(fields)
            }),
            ("policies", {
                let mut fields = vec![
                    ("scheduling", Json::str(p.scheduling.label())),
                    ("router", Json::str(p.router.label())),
                    ("preemption", Json::str(p.preemption.label())),
                    (
                        "prefill_chunk",
                        Json::num(if p.prefill.enabled {
                            p.prefill.chunk_tokens as f64
                        } else {
                            0.0
                        }),
                    ),
                    ("kv_capacity_factor", Json::num(p.kv_capacity_factor)),
                    ("stride", Json::num(p.stride as f64)),
                    ("prefix_caching", Json::Bool(p.paged_kv.prefix_caching)),
                    ("page_bytes", Json::num(p.paged_kv.page_bytes as f64)),
                    ("shedding", Json::str(p.shedding.label())),
                    ("victim_order", Json::str(p.victim_order.label())),
                ];
                // Transfer terms appear only off-default, keeping
                // pre-disaggregation spec files canonical.
                if p.kv_transfer != KvTransferConfig::default() {
                    fields.push((
                        "kv_transfer_page_latency_us",
                        Json::num(p.kv_transfer.page_latency_us),
                    ));
                    fields.push(("kv_transfer_gbps", Json::num(p.kv_transfer.gbps)));
                }
                Json::obj(fields)
            }),
            (
                "workload",
                Json::Arr(self.workload.iter().map(tenant_to_json).collect()),
            ),
        ])
    }

    /// Serializes to the pretty-printed JSON document format of the
    /// checked-in `scenarios/*.json` files.
    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Parses a scenario from a JSON document.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        Self::from_json(&doc)
    }

    /// Reads and parses a scenario file.
    pub fn from_file(path: &str) -> Result<Scenario, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Deserializes a scenario from a [`Json`] tree. Missing `cluster`
    /// / `policies` fields take their defaults, so spec files only
    /// state what they change; `model` and a nonempty `workload` are
    /// required.
    pub fn from_json(doc: &Json) -> Result<Scenario, String> {
        doc.check_keys(
            "",
            &[
                "model",
                "system",
                "techniques",
                "cluster",
                "policies",
                "workload",
            ],
        )?;
        for (place, known) in [
            ("techniques", &["tcp", "dcs", "dpa"][..]),
            ("cluster", &["tp", "pp", "modules", "threads", "pools"]),
            ("policies", POLICY_KEYS),
        ] {
            if let Some(section) = doc.get(place) {
                section.check_keys(place, known)?;
            }
        }
        let model = req_str(doc, "model")?.to_string();
        let system = parse_system(doc)?.unwrap_or(SystemKind::PimOnly);
        let techniques = match doc.get("techniques") {
            None => Techniques::pimphony(),
            Some(t) => Techniques {
                tcp: get_bool(t, "tcp", false)?,
                dcs: get_bool(t, "dcs", false)?,
                dpa: get_bool(t, "dpa", false)?,
            },
        };
        let defaults = ClusterSpec::default();
        let cluster = match doc.get("cluster") {
            None => defaults,
            Some(c) => ClusterSpec {
                tp: get_int(c, "tp", defaults.tp.into()).map_err(|e| format!("cluster.{e}"))?,
                pp: get_int(c, "pp", defaults.pp.into()).map_err(|e| format!("cluster.{e}"))?,
                modules: get_int(c, "modules", defaults.modules.into())
                    .map_err(|e| format!("cluster.{e}"))?,
                threads: get_u64(c, "threads", defaults.threads as u64)? as usize,
                pools: match c.get("pools") {
                    None => Vec::new(),
                    Some(p) => p
                        .as_arr()
                        .ok_or("cluster.pools: expected an array of pool specs")?
                        .iter()
                        .enumerate()
                        .map(|(i, p)| {
                            pool_from_json(p).map_err(|e| format!("cluster.pools[{i}]: {e}"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                },
            },
        };
        let pdefaults = PolicySpec::default();
        let policies = match doc.get("policies") {
            None => pdefaults,
            Some(p) => PolicySpec {
                scheduling: {
                    let label = get_str(p, "scheduling", SchedulingPolicy::Wave.label())?;
                    find_label(&SchedulingPolicy::ALL, SchedulingPolicy::label, label)
                        .ok_or_else(|| format!("policies.scheduling: unknown policy {label:?}"))?
                },
                router: parse_label(
                    &RouterKind::ALL,
                    RouterKind::label,
                    get_str(p, "router", RouterKind::RoundRobin.label())?,
                    "policies.router: unknown router",
                )?,
                preemption: parse_label(
                    &PreemptionPolicy::ALL,
                    PreemptionPolicy::label,
                    get_str(p, "preemption", PreemptionPolicy::None.label())?,
                    "policies.preemption: unknown policy",
                )?,
                prefill: match get_u64(p, "prefill_chunk", 0)? {
                    0 => PrefillConfig::disabled(),
                    chunk => PrefillConfig::chunked(chunk),
                },
                kv_capacity_factor: get_f64(p, "kv_capacity_factor", 1.0)?,
                stride: get_u64(p, "stride", pdefaults.stride)?,
                paged_kv: PagedKvConfig {
                    prefix_caching: get_bool(p, "prefix_caching", false)?,
                    page_bytes: get_u64(p, "page_bytes", PagedKvConfig::DEFAULT_PAGE_BYTES)?,
                },
                shedding: parse_label(
                    &SheddingPolicy::ALL,
                    SheddingPolicy::label,
                    get_str(p, "shedding", SheddingPolicy::None.label())?,
                    "policies.shedding: unknown policy",
                )?,
                victim_order: parse_label(
                    &VictimOrder::ALL,
                    VictimOrder::label,
                    get_str(p, "victim_order", VictimOrder::RecentFirst.label())?,
                    "policies.victim_order: unknown order",
                )?,
                kv_transfer: KvTransferConfig {
                    page_latency_us: get_f64(
                        p,
                        "kv_transfer_page_latency_us",
                        KvTransferConfig::default().page_latency_us,
                    )?,
                    gbps: get_f64(p, "kv_transfer_gbps", KvTransferConfig::default().gbps)?,
                },
            },
        };
        let workload = doc
            .get("workload")
            .and_then(Json::as_arr)
            .ok_or("workload: required array of tenant specs")?
            .iter()
            .enumerate()
            .map(|(i, t)| tenant_from_json(t).map_err(|e| format!("workload[{i}]: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let scenario = Scenario {
            model,
            system,
            techniques,
            workload,
            cluster,
            policies,
        };
        // Fail fast: a spec file that cannot materialize should not
        // parse either.
        scenario.validate()?;
        Ok(scenario)
    }
}

/// A validated, runnable scenario: the configured evaluator, the merged
/// tenant-tagged trace, and the routing/threading choices — everything
/// [`Materialized::run`] needs to produce a [`ServingReport`].
#[derive(Debug)]
pub struct Materialized {
    /// The fully configured evaluator (policies, preemption, prefill,
    /// KV factor, stride, tenant SLOs). For pooled specs this is the
    /// scenario-level (flat) evaluator — each pool carries its own in
    /// [`Self::pools`].
    pub evaluator: Evaluator,
    /// The merged multi-tenant trace in global arrival order.
    pub trace: Trace,
    /// The cross-replica load balancer to route with.
    pub router: RouterKind,
    /// Replica-simulation threads (0 = one per CPU).
    pub threads: usize,
    /// Tenant names, indexed by tenant id (workload order).
    pub tenant_names: Vec<String>,
    /// Per-pool evaluators and routers, in `cluster.pools` order;
    /// empty for flat (pool-free) specs.
    pub pools: Vec<MaterializedPool>,
}

/// One materialized replica pool: its evaluator (sized to the pool,
/// tagged with its role) and the router serving it.
#[derive(Debug)]
pub struct MaterializedPool {
    /// Pool name from the spec.
    pub name: String,
    /// The pool's fully configured evaluator.
    pub evaluator: Evaluator,
    /// The pool's router kind (the spec override or the shared
    /// `policies.router`).
    pub router: RouterKind,
}

impl Materialized {
    /// Serves the scenario's trace through the cluster layer and
    /// returns the report (with per-tenant latency, SLO attainment and
    /// goodput in `latency_by_tenant`).
    pub fn run(&self) -> ServingReport {
        self.serve(&self.trace)
    }

    /// Serves `trace` on the scenario's cluster: the phase-aware
    /// two-level path ([`run_pools`]) over the pools, where a flat spec
    /// is one anonymous mixed pool. Each router is built for its own pool's evaluator, so
    /// the SLO-aware router sees that pool's tenant SLOs and calibrated
    /// prefill rate. This is the one place a scenario turns into a
    /// [`ServingReport`].
    pub fn serve(&self, trace: &Trace) -> ServingReport {
        fn pool<'a>(name: &str, eval: &'a Evaluator, kind: RouterKind) -> PoolRun<'a> {
            PoolRun {
                name: name.to_string(),
                eval,
                router: kind.build_for(eval),
            }
        }
        let mut runs: Vec<PoolRun<'_>> = if self.pools.is_empty() {
            vec![pool("", &self.evaluator, self.router)]
        } else {
            self.pools
                .iter()
                .map(|p| pool(&p.name, &p.evaluator, p.router))
                .collect()
        };
        run_pools(
            &mut runs,
            self.evaluator.scheduling_policy(),
            self.threads,
            trace,
        )
    }

    /// The name of a tenant id (`"tenant-N"` fallback for ids outside
    /// the workload list, which cannot occur for materialized traces).
    pub fn tenant_name(&self, tenant: u8) -> String {
        self.tenant_names
            .get(tenant as usize)
            .cloned()
            .unwrap_or_else(|| format!("tenant-{tenant}"))
    }
}

fn pool_to_json(p: &PoolSpec) -> Json {
    let mut fields = vec![
        ("name", Json::str(p.name.clone())),
        ("role", Json::str(p.role.label())),
        ("replicas", Json::num(p.replicas as f64)),
        ("tp", Json::num(p.tp as f64)),
        ("pp", Json::num(p.pp as f64)),
    ];
    if let Some(kind) = p.system {
        fields.push(("system", Json::str(kind.label())));
    }
    if let Some(router) = p.router {
        fields.push(("router", Json::str(router.label())));
    }
    Json::obj(fields)
}

fn pool_from_json(p: &Json) -> Result<PoolSpec, String> {
    p.check_keys(
        "",
        &["name", "role", "replicas", "tp", "pp", "system", "router"],
    )?;
    let name = req_str(p, "name")?.to_string();
    let role = parse_label(
        &PoolRole::ALL,
        PoolRole::label,
        get_str(p, "role", PoolRole::Mixed.label())?,
        "role: unknown pool role",
    )?;
    let system = parse_system(p)?;
    let router = opt_str(p, "router")?
        .map(|label| {
            parse_label(
                &RouterKind::ALL,
                RouterKind::label,
                label,
                "router: unknown router",
            )
        })
        .transpose()?;
    Ok(PoolSpec {
        name,
        role,
        replicas: get_int(p, "replicas", 1)?,
        tp: get_int(p, "tp", 0)?,
        pp: get_int(p, "pp", 1)?,
        system,
        router,
    })
}

fn tenant_to_json(t: &TenantSpec) -> Json {
    let decode = match t.decode {
        DecodeSpec::Fixed(n) => Json::obj([("fixed", Json::num(n as f64))]),
        DecodeSpec::Uniform(lo, hi) => {
            Json::obj([("lo", Json::num(lo as f64)), ("hi", Json::num(hi as f64))])
        }
    };
    let arrivals = match t.arrivals {
        ArrivalProcess::Batch => Json::obj([("process", Json::str("batch"))]),
        ArrivalProcess::Poisson { rate } => {
            Json::obj([("process", Json::str("poisson")), ("rate", Json::num(rate))])
        }
        ArrivalProcess::Bursty { rate, cv } => Json::obj([
            ("process", Json::str("bursty")),
            ("rate", Json::num(rate)),
            ("cv", Json::num(cv)),
        ]),
    };
    let mut fields = vec![
        ("name", Json::str(t.name.clone())),
        ("dataset", Json::str(t.dataset.name())),
        ("requests", Json::num(t.requests as f64)),
        ("seed", Json::num(t.seed as f64)),
        ("decode", decode),
        ("arrivals", arrivals),
        ("priority", Json::num(t.priority as f64)),
        (
            "slo_ttft_p99",
            t.slo_ttft_p99.map(Json::num).unwrap_or(Json::Null),
        ),
        ("shared_prefix", Json::num(t.shared_prefix as f64)),
    ];
    // Emitted only off-default, so existing spec files stay canonical.
    if t.priority_levels != 1 {
        fields.push(("priority_levels", Json::num(t.priority_levels as f64)));
    }
    if t.context_scale != 1.0 {
        fields.push(("context_scale", Json::num(t.context_scale)));
    }
    Json::obj(fields)
}

fn tenant_from_json(t: &Json) -> Result<TenantSpec, String> {
    t.check_keys("", TENANT_KEYS)?;
    let name = req_str(t, "name")?.to_string();
    let dataset_name = req_str(t, "dataset")?;
    let dataset = Dataset::ALL
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(dataset_name))
        .ok_or_else(|| {
            let known: Vec<&str> = Dataset::ALL.iter().map(|d| d.name()).collect();
            format!(
                "unknown dataset {dataset_name:?} (Table II datasets: {})",
                known.join(", ")
            )
        })?;
    let decode = match t.get("decode") {
        None => DecodeSpec::Fixed(256),
        Some(d) => {
            if d.get("fixed").is_some() {
                d.check_keys("decode", &["fixed"])?;
                DecodeSpec::Fixed(get_u64(d, "fixed", 0)?)
            } else if d.get("lo").is_some() || d.get("hi").is_some() {
                d.check_keys("decode", &["lo", "hi"])?;
                DecodeSpec::Uniform(get_u64(d, "lo", 0)?, get_u64(d, "hi", 0)?)
            } else {
                return Err("decode: expected {\"fixed\": n} or {\"lo\": n, \"hi\": n}".to_string());
            }
        }
    };
    let arrivals = match t.get("arrivals") {
        None => ArrivalProcess::Batch,
        Some(a) => match get_str(a, "process", "batch")? {
            "batch" => ArrivalProcess::Batch,
            "poisson" => ArrivalProcess::Poisson {
                rate: a
                    .get("rate")
                    .and_then(Json::as_f64)
                    .ok_or("arrivals: poisson requires \"rate\"")?,
            },
            "bursty" => ArrivalProcess::Bursty {
                rate: a
                    .get("rate")
                    .and_then(Json::as_f64)
                    .ok_or("arrivals: bursty requires \"rate\"")?,
                cv: a
                    .get("cv")
                    .and_then(Json::as_f64)
                    .ok_or("arrivals: bursty requires \"cv\"")?,
            },
            other => return Err(format!("arrivals: unknown process {other:?}")),
        },
    };
    if let Some(a) = t.get("arrivals") {
        let known: &[&str] = match arrivals {
            ArrivalProcess::Batch => &["process"],
            ArrivalProcess::Poisson { .. } => &["process", "rate"],
            ArrivalProcess::Bursty { .. } => &["process", "rate", "cv"],
        };
        a.check_keys("arrivals", known)?;
    }
    let slo = match t.get("slo_ttft_p99") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or("slo_ttft_p99: expected a number or null")?,
        ),
    };
    Ok(TenantSpec {
        name,
        dataset,
        requests: get_u64(t, "requests", 128)? as usize,
        seed: get_u64(t, "seed", 0)?,
        decode,
        arrivals,
        priority: get_int(t, "priority", 0)?,
        slo_ttft_p99: slo,
        shared_prefix: get_u64(t, "shared_prefix", 0)?,
        priority_levels: u8::try_from(get_u64(t, "priority_levels", 1)?)
            .map_err(|_| "priority_levels: at most 255 classes".to_string())?,
        context_scale: get_f64(t, "context_scale", 1.0)?,
    })
}

/// The keys of the `policies` block.
const POLICY_KEYS: &[&str] = &[
    "scheduling",
    "router",
    "preemption",
    "prefill_chunk",
    "kv_capacity_factor",
    "stride",
    "prefix_caching",
    "page_bytes",
    "shedding",
    "victim_order",
    "kv_transfer_page_latency_us",
    "kv_transfer_gbps",
];

/// The keys of a workload entry.
const TENANT_KEYS: &[&str] = &[
    "name",
    "dataset",
    "requests",
    "seed",
    "decode",
    "arrivals",
    "priority",
    "slo_ttft_p99",
    "shared_prefix",
    "priority_levels",
    "context_scale",
];

/// The variant of `all` that `label_of` names `label`.
fn find_label<T: Copy>(all: &[T], label_of: fn(&T) -> &'static str, label: &str) -> Option<T> {
    all.iter().copied().find(|v| label_of(v) == label)
}

/// [`find_label`], or the error `"{unknown} {label:?} (expected one of:
/// …)"` listing every label of `all`.
fn parse_label<T: Copy>(
    all: &[T],
    label_of: fn(&T) -> &'static str,
    label: &str,
    unknown: &str,
) -> Result<T, String> {
    find_label(all, label_of, label).ok_or_else(|| {
        let known: Vec<&str> = all.iter().map(label_of).collect();
        format!(
            "{unknown} {label:?} (expected one of: {})",
            known.join(", ")
        )
    })
}

/// The optional `"system"` kind of a spec or pool object.
fn parse_system(obj: &Json) -> Result<Option<SystemKind>, String> {
    let Some(label) = opt_str(obj, "system")? else {
        return Ok(None);
    };
    find_label(&SystemKind::ALL, SystemKind::label, label)
        .map(Some)
        .ok_or_else(|| {
            let [pim, xpu] = SystemKind::ALL.map(|k| k.label());
            format!("system: unknown kind {label:?} (expected {pim:?} or {xpu:?})")
        })
}

fn req_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{key}: required string"))
}

/// The string at `key`, or `None` when the key is absent.
fn opt_str<'a>(obj: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    obj.get(key)
        .map(|v| {
            v.as_str()
                .ok_or_else(|| format!("{key}: expected a string"))
        })
        .transpose()
}

fn get_str<'a>(obj: &'a Json, key: &str, default: &'static str) -> Result<&'a str, String> {
    Ok(opt_str(obj, key)?.unwrap_or(default))
}

fn get_bool(obj: &Json, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("{key}: expected a boolean")),
    }
}

fn get_f64(obj: &Json, key: &str, default: f64) -> Result<f64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("{key}: expected a number")),
    }
}

fn get_u64(obj: &Json, key: &str, default: u64) -> Result<u64, String> {
    let v = get_f64(obj, key, default as f64)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("{key}: expected a nonnegative integer, got {v}"));
    }
    Ok(v as u64)
}

/// Reads a nonnegative integer into a narrower type, failing instead of
/// wrapping when it does not fit.
fn get_int<T: TryFrom<u64>>(obj: &Json, key: &str, default: u64) -> Result<T, String> {
    let v = get_u64(obj, key, default)?;
    T::try_from(v).map_err(|_| {
        format!(
            "{key}: {v} is out of range for {}",
            std::any::type_name::<T>()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_scenario() -> Scenario {
        let mut s = Scenario::new("LLM-7B-32K");
        s.cluster.tp = 2;
        s.cluster.threads = 2;
        s.policies.scheduling = SchedulingPolicy::Continuous;
        s.policies.router = RouterKind::JoinShortestQueue;
        s.policies.preemption = PreemptionPolicy::EvictPause;
        s.policies.prefill = PrefillConfig::chunked(512);
        s.policies.kv_capacity_factor = 0.5;
        s.tenant(
            TenantSpec::new("interactive", Dataset::QmSum)
                .requests(12)
                .seed(7)
                .decode(DecodeSpec::Uniform(8, 32))
                .arrivals(ArrivalProcess::Bursty { rate: 4.0, cv: 2.0 })
                .priority(1)
                .slo_ttft_p99(30.0),
        )
        .tenant(
            TenantSpec::new("batch", Dataset::Musique)
                .requests(8)
                .seed(9)
                .decode(DecodeSpec::Fixed(64))
                .arrivals(ArrivalProcess::Poisson { rate: 1.0 }),
        )
    }

    #[test]
    fn json_round_trip_is_identity() {
        let s = two_tenant_scenario();
        let text = s.to_pretty();
        let back = Scenario::parse(&text).expect("parse back");
        assert_eq!(back, s);
        // And the re-serialization is byte-identical (deterministic
        // writer, insertion-ordered keys).
        assert_eq!(back.to_pretty(), text);
    }

    #[test]
    fn defaults_fill_missing_sections() {
        let s = Scenario::parse(
            r#"{"model": "LLM-7B-32K",
                "workload": [{"name": "only", "dataset": "QMSum"}]}"#,
        )
        .expect("minimal spec");
        assert_eq!(s.system, SystemKind::PimOnly);
        assert_eq!(s.techniques, Techniques::pimphony());
        assert_eq!(s.cluster, ClusterSpec::default());
        assert_eq!(s.policies, PolicySpec::default());
        let t = &s.workload[0];
        assert_eq!(t.requests, 128);
        assert_eq!(t.decode, DecodeSpec::Fixed(256));
        assert_eq!(t.arrivals, ArrivalProcess::Batch);
        assert_eq!(t.priority, 0);
        assert_eq!(t.slo_ttft_p99, None);
    }

    #[test]
    fn parse_rejects_unknown_names_with_candidates() {
        let bad_model = Scenario::parse(
            r#"{"model": "GPT-5", "workload": [{"name": "t", "dataset": "QMSum"}]}"#,
        )
        .unwrap_err();
        assert!(bad_model.contains("unknown model"), "{bad_model}");
        assert!(bad_model.contains("LLM-7B-32K"), "{bad_model}");
        let bad_dataset = Scenario::parse(
            r#"{"model": "LLM-7B-32K", "workload": [{"name": "t", "dataset": "imagenet"}]}"#,
        )
        .unwrap_err();
        assert!(bad_dataset.contains("unknown dataset"), "{bad_dataset}");
        assert!(bad_dataset.contains("QMSum"), "{bad_dataset}");
        let bad_router = Scenario::parse(
            r#"{"model": "LLM-7B-32K", "policies": {"router": "dns"},
                "workload": [{"name": "t", "dataset": "QMSum"}]}"#,
        )
        .unwrap_err();
        assert!(bad_router.contains("unknown router"), "{bad_router}");
        let empty = Scenario::parse(r#"{"model": "LLM-7B-32K", "workload": []}"#).unwrap_err();
        assert!(empty.contains("at least one tenant"), "{empty}");
    }

    /// Every enum label a spec names is looked up the same way, and each
    /// unknown label keeps its error text exactly.
    #[test]
    fn parse_pins_every_unknown_label_error() {
        let parse = |top: &str, pool: &str, policies: &str| {
            Scenario::parse(&format!(
                r#"{{"model": "LLM-7B-32K", {top}
                    "cluster": {{"pools": [{{"name": "p", {pool} "replicas": 1}}]}},
                    "policies": {{{policies}}},
                    "workload": [{{"name": "t", "dataset": "QMSum"}}]}}"#
            ))
            .unwrap_err()
        };
        let expected_policies = "(expected one of: none, evict-restart, evict-pause)";
        for (top, pool, policies, err) in [
            (
                r#""system": "gpu","#,
                "",
                "",
                r#"system: unknown kind "gpu" (expected "pim-only" or "xpu-pim")"#.to_string(),
            ),
            (
                "",
                r#""system": "gpu","#,
                "",
                r#"cluster.pools[0]: system: unknown kind "gpu" (expected "pim-only" or "xpu-pim")"#
                    .to_string(),
            ),
            (
                "",
                r#""role": "cache","#,
                "",
                r#"cluster.pools[0]: role: unknown pool role "cache" (expected one of: mixed, prefill, decode)"#
                    .to_string(),
            ),
            (
                "",
                r#""router": "dns","#,
                "",
                format!(
                    r#"cluster.pools[0]: router: unknown router "dns" (expected one of: {})"#,
                    RouterKind::ALL.map(|k| k.label()).join(", ")
                ),
            ),
            (
                "",
                "",
                r#""router": "dns""#,
                format!(
                    r#"policies.router: unknown router "dns" (expected one of: {})"#,
                    RouterKind::ALL.map(|k| k.label()).join(", ")
                ),
            ),
            (
                "",
                "",
                r#""scheduling": "batch""#,
                r#"policies.scheduling: unknown policy "batch""#.to_string(),
            ),
            (
                "",
                "",
                r#""preemption": "swap""#,
                format!(r#"policies.preemption: unknown policy "swap" {expected_policies}"#),
            ),
            (
                "",
                "",
                r#""shedding": "drop""#,
                r#"policies.shedding: unknown policy "drop" (expected one of: none, reject)"#
                    .to_string(),
            ),
            (
                "",
                "",
                r#""victim_order": "oldest""#,
                r#"policies.victim_order: unknown order "oldest" (expected one of: recent-first, slack-first)"#
                    .to_string(),
            ),
        ] {
            assert_eq!(parse(top, pool, policies), err);
        }
    }

    /// A `system` that is not a string is an error, at the top level
    /// and in a pool, never a silent default.
    #[test]
    fn parse_rejects_a_non_string_system() {
        let parse = |top: &str, pool: &str| {
            Scenario::parse(&format!(
                r#"{{"model": "LLM-7B-32K", {top}
                    "cluster": {{"pools": [{{"name": "p", {pool} "replicas": 1}}]}},
                    "workload": [{{"name": "t", "dataset": "QMSum"}}]}}"#
            ))
            .unwrap_err()
        };
        for top in [r#""system": 3,"#, r#""system": true,"#] {
            assert_eq!(parse(top, ""), "system: expected a string", "{top}");
        }
        assert_eq!(
            parse("", r#""system": 7,"#),
            "cluster.pools[0]: system: expected a string"
        );
    }

    /// A valid spec with a marker at every object level; `bogus_at`
    /// puts an unknown key at one marker and removes the others.
    const EVERY_LEVEL: &str = r#"{"model": "LLM-7B-32K", @top
        "techniques": {@techniques "tcp": true},
        "cluster": {@cluster "tp": 2, "pools": [
            {@pool "name": "prefill", "role": "prefill", "replicas": 2, "tp": 2},
            {"name": "decode", "role": "decode", "replicas": 2, "tp": 2}]},
        "policies": {@policies "scheduling": "continuous", "prefill_chunk": 512},
        "workload": [{@tenant "name": "t", "dataset": "QMSum",
            "decode": {@decode "lo": 16, "hi": 96},
            "arrivals": {@arrivals "process": "poisson", "rate": 1}}]}"#;

    fn bogus_at(level: &str) -> Result<Scenario, String> {
        every_level_with(&format!("@{level}"), "\"bogus\": 1,")
    }

    /// Parses `EVERY_LEVEL` with its first `from` replaced by `to` and
    /// the markers removed.
    fn every_level_with(from: &str, to: &str) -> Result<Scenario, String> {
        let mut text = EVERY_LEVEL.replacen(from, to, 1);
        for marker in [
            "top",
            "techniques",
            "cluster",
            "pool",
            "policies",
            "tenant",
            "decode",
            "arrivals",
        ] {
            text = text.replace(&format!("@{marker}"), "");
        }
        Scenario::parse(&text)
    }

    #[test]
    fn every_level_parses_without_an_unknown_key() {
        assert!(bogus_at("none").is_ok(), "{:?}", bogus_at("none"));
    }

    #[test]
    fn parse_rejects_an_unknown_top_level_key() {
        let err = bogus_at("top").unwrap_err();
        assert!(err.starts_with("bogus: unknown key"), "{err}");
    }

    #[test]
    fn parse_rejects_an_unknown_techniques_key() {
        let err = bogus_at("techniques").unwrap_err();
        assert!(err.starts_with("techniques.bogus: unknown key"), "{err}");
    }

    #[test]
    fn parse_rejects_an_unknown_cluster_key() {
        let err = bogus_at("cluster").unwrap_err();
        assert!(err.starts_with("cluster.bogus: unknown key"), "{err}");
    }

    #[test]
    fn parse_rejects_an_unknown_pool_key() {
        let err = bogus_at("pool").unwrap_err();
        assert!(
            err.starts_with("cluster.pools[0]: bogus: unknown key"),
            "{err}"
        );
    }

    #[test]
    fn parse_rejects_an_unknown_policies_key() {
        let err = bogus_at("policies").unwrap_err();
        assert!(err.starts_with("policies.bogus: unknown key"), "{err}");
        // The misspelling that used to run silently at the default 1.0.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/two_tenant_slo.json"
        );
        let text = std::fs::read_to_string(path).expect("checked-in spec");
        let typo = text.replacen(
            "\"policies\": {",
            "\"policies\": {\"kv_capactiy_factor\": 0.1, ",
            1,
        );
        let err = Scenario::parse(&typo).unwrap_err();
        assert!(
            err.starts_with("policies.kv_capactiy_factor: unknown key"),
            "{err}"
        );
    }

    #[test]
    fn parse_rejects_an_unknown_workload_key() {
        let err = bogus_at("tenant").unwrap_err();
        assert!(err.starts_with("workload[0]: bogus: unknown key"), "{err}");
    }

    #[test]
    fn parse_rejects_an_unknown_decode_key() {
        let err = bogus_at("decode").unwrap_err();
        assert!(
            err.starts_with("workload[0]: decode.bogus: unknown key"),
            "{err}"
        );
    }

    #[test]
    fn parse_rejects_an_unknown_arrivals_key() {
        let err = bogus_at("arrivals").unwrap_err();
        assert!(
            err.starts_with("workload[0]: arrivals.bogus: unknown key"),
            "{err}"
        );
        // A key of another process is unknown too: poisson has no cv.
        let err = Scenario::parse(
            &bogus_at("none")
                .unwrap()
                .to_pretty()
                .replace("\"rate\": 1", "\"rate\": 1, \"cv\": 2"),
        )
        .unwrap_err();
        assert!(err.contains("arrivals.cv: unknown key"), "{err}");
    }

    /// Parses `EVERY_LEVEL` edited as `from` → `to` and checks that the
    /// parse fails with an error that starts with `want`.
    fn assert_rejected(from: &str, to: &str, want: &str) {
        let err = every_level_with(from, to).unwrap_err();
        assert!(err.starts_with(want), "{err}");
    }

    #[test]
    fn parse_rejects_an_out_of_range_cluster_tp() {
        assert_rejected(
            "\"tp\": 2, \"pools\"",
            "\"tp\": 4294967298, \"pools\"",
            "cluster.tp: 4294967298 is out of range for u32",
        );
    }

    #[test]
    fn parse_rejects_an_out_of_range_cluster_pp() {
        assert_rejected(
            "@cluster",
            "\"pp\": 4294967297,",
            "cluster.pp: 4294967297 is out of range for u32",
        );
    }

    #[test]
    fn parse_rejects_an_out_of_range_cluster_modules() {
        assert_rejected(
            "@cluster",
            "\"modules\": 4294967297,",
            "cluster.modules: 4294967297 is out of range for u32",
        );
    }

    #[test]
    fn parse_rejects_out_of_range_pool_replicas() {
        assert_rejected(
            "\"replicas\": 2,",
            "\"replicas\": 4294967298,",
            "cluster.pools[0]: replicas: 4294967298 is out of range for u32",
        );
    }

    #[test]
    fn parse_rejects_an_out_of_range_pool_tp() {
        assert_rejected(
            "\"replicas\": 2, \"tp\": 2",
            "\"replicas\": 2, \"tp\": 4294967298",
            "cluster.pools[0]: tp: 4294967298 is out of range for u32",
        );
    }

    #[test]
    fn parse_rejects_an_out_of_range_pool_pp() {
        assert_rejected(
            "@pool",
            "\"pp\": 4294967297,",
            "cluster.pools[0]: pp: 4294967297 is out of range for u32",
        );
    }

    #[test]
    fn parse_rejects_an_out_of_range_tenant_priority() {
        assert_rejected(
            "@tenant",
            "\"priority\": 300,",
            "workload[0]: priority: 300 is out of range for u8",
        );
    }

    #[test]
    fn priority_levels_and_context_scale_serialize_only_off_default() {
        let mut s = two_tenant_scenario();
        assert!(!s.to_pretty().contains("priority_levels"));
        assert!(!s.to_pretty().contains("context_scale"));
        s.workload[1].priority_levels = 3;
        s.workload[1].context_scale = 0.5;
        let back = Scenario::parse(&s.to_pretty()).expect("parse back");
        assert_eq!(back, s);
        let m = back.materialize().expect("materialize");
        let batch: Vec<_> = m.trace.iter().filter(|r| r.tenant == 1).collect();
        assert!(batch.iter().any(|r| r.priority > 0), "priorities are drawn");
        assert!(batch.iter().all(|r| r.priority < 3));
        let half = Dataset::Musique.stats();
        assert!(batch
            .iter()
            .all(|r| r.context_len <= half.max / 2 && r.context_len >= half.min / 2));
        // A fixed priority cannot ride along with drawn ones, and a scale
        // must leave a context range.
        s.workload[1].priority = 1;
        assert!(s.validate().unwrap_err().contains("priority_levels"));
        s.workload[1].priority = 0;
        s.workload[1].context_scale = 1e-4;
        assert!(s.validate().unwrap_err().contains("context_scale"));
    }

    #[test]
    fn parse_fails_fast_on_specs_that_cannot_materialize() {
        // Tenant-level problems are rejected at parse time, not
        // deferred to materialize.
        let zero_requests = Scenario::parse(
            r#"{"model": "LLM-7B-32K",
                "workload": [{"name": "t", "dataset": "QMSum", "requests": 0}]}"#,
        )
        .unwrap_err();
        assert!(
            zero_requests.contains("requests must be > 0"),
            "{zero_requests}"
        );
        let bad_kv = Scenario::parse(
            r#"{"model": "LLM-7B-32K", "policies": {"kv_capacity_factor": 0},
                "workload": [{"name": "t", "dataset": "QMSum"}]}"#,
        )
        .unwrap_err();
        assert!(bad_kv.contains("kv_capacity_factor"), "{bad_kv}");
        // Decode fields get full integer validation: negatives and
        // fractions are errors, not silent casts, and a fixed 0-token
        // decode (a tenant that would vanish from the report) is
        // rejected.
        for (decode, want) in [
            (r#"{"fixed": -5}"#, "nonnegative integer"),
            (r#"{"fixed": 2.5}"#, "nonnegative integer"),
            (r#"{"fixed": 0}"#, "decode must be >= 1"),
            (r#"{"lo": 9, "hi": 3}"#, "decode range"),
            (r#"{}"#, "expected"),
        ] {
            let err = Scenario::parse(&format!(
                r#"{{"model": "LLM-7B-32K",
                    "workload": [{{"name": "t", "dataset": "QMSum", "decode": {decode}}}]}}"#,
            ))
            .unwrap_err();
            assert!(err.contains(want), "decode {decode}: {err}");
        }
    }

    #[test]
    fn materialize_validates_degenerate_workloads() {
        let mut s = two_tenant_scenario();
        s.workload[0].requests = 0;
        let err = s.materialize().unwrap_err();
        assert!(err.contains("requests must be > 0"), "{err}");
        let mut s = two_tenant_scenario();
        s.workload[1].decode = DecodeSpec::Uniform(9, 3);
        let err = s.materialize().unwrap_err();
        assert!(err.contains("decode range"), "{err}");
        let mut s = two_tenant_scenario();
        s.workload.clear();
        assert!(s.materialize().is_err());
    }

    #[test]
    fn materialize_merges_tenant_tagged_traces_in_arrival_order() {
        let s = two_tenant_scenario();
        let m = s.materialize().expect("materialize");
        assert_eq!(m.trace.len(), 20);
        assert_eq!(m.trace.tenants(), vec![0, 1]);
        assert_eq!(m.tenant_name(0), "interactive");
        assert_eq!(m.tenant_name(1), "batch");
        // Globally arrival-ordered, unique ids.
        let reqs = m.trace.requests();
        assert!(reqs
            .windows(2)
            .all(|w| (w[0].arrival_us, w[0].id) < (w[1].arrival_us, w[1].id)));
        let mut ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
        // Priorities follow the tenant specs.
        assert!(reqs
            .iter()
            .all(|r| r.priority == if r.tenant == 0 { 1 } else { 0 }));
        // SLO targets reach the evaluator.
        assert_eq!(m.evaluator.tenant_slos(), &[(0u8, 30.0)]);
    }

    #[test]
    fn materialized_run_reports_per_tenant() {
        let m = two_tenant_scenario().materialize().expect("materialize");
        let r = m.run();
        assert_eq!(r.latency.completed, 20);
        assert_eq!(r.latency_by_tenant.len(), 2);
        let interactive = &r.latency_by_tenant[0];
        assert_eq!(interactive.tenant, 0);
        assert_eq!(interactive.latency.completed, 12);
        assert_eq!(interactive.slo_ttft, 30.0);
        assert!((0.0..=1.0).contains(&interactive.slo_attainment));
        let batch = &r.latency_by_tenant[1];
        assert_eq!(batch.latency.completed, 8);
        assert_eq!(batch.slo_ttft, f64::INFINITY);
        assert_eq!(batch.slo_attainment, 1.0, "no target is vacuously met");
        assert_eq!(batch.tokens, 8 * 64);
        let f = r.tenant_fairness();
        assert!(f > 0.0 && f <= 1.0, "{f}");
    }

    #[test]
    fn whole_node_cluster_spec_uses_preset_parallelization() {
        let s =
            Scenario::new("LLM-7B-32K").tenant(TenantSpec::new("t", Dataset::QmSum).requests(4));
        let model = s.resolve_model().unwrap();
        let sys = s.system_config_for(&model);
        assert_eq!(sys, SystemConfig::cent_for(&model));
        let mut tp2 = s.clone();
        tp2.cluster.tp = 2;
        assert_eq!(tp2.system_config_for(&model).parallel.tp, 2);
        assert_eq!(tp2.system_config_for(&model).replicas(), 4);
    }

    #[test]
    fn modules_override_scales_the_replica_count() {
        let s =
            Scenario::new("LLM-7B-32K").tenant(TenantSpec::new("t", Dataset::QmSum).requests(4));
        let model = s.resolve_model().unwrap();
        let mut big = s.clone();
        big.cluster.tp = 2;
        big.cluster.modules = 200;
        let sys = big.system_config_for(&model);
        assert_eq!(sys.modules, 200);
        assert_eq!(sys.replicas(), 100);
        // modules: 0 keeps the preset sizing.
        assert_eq!(
            s.system_config_for(&model).modules,
            SystemConfig::cent_for(&model).modules
        );
        // And the knob survives the JSON round trip.
        let back = Scenario::parse(&big.to_pretty()).expect("parse back");
        assert_eq!(back.cluster.modules, 200);
        assert_eq!(back, big);
    }

    #[test]
    fn validate_rejects_zero_stride_and_pp() {
        let mut s = two_tenant_scenario();
        s.policies.stride = 0;
        assert_eq!(
            s.validate(),
            Err("policies.stride must be >= 1".to_string())
        );
        let err = Scenario::parse(&s.to_pretty()).unwrap_err();
        assert!(err.contains("policies.stride"), "{err}");
        let mut s = two_tenant_scenario();
        s.cluster.pp = 0;
        assert_eq!(s.validate(), Err("cluster.pp must be >= 1".to_string()));
        let mut s = two_tenant_scenario();
        s.policies.prefill = PrefillConfig::chunked(512);
        s.cluster.pools = vec![
            PoolSpec::new("prefill", PoolRole::Prefill, 2).parallel(2, 1),
            PoolSpec::new("decode", PoolRole::Decode, 2).parallel(2, 1),
        ];
        assert_eq!(s.validate(), Ok(()));
        s.cluster.pools[1].pp = 0;
        assert_eq!(
            s.validate(),
            Err("cluster.pools[1] (decode): pp must be >= 1".to_string())
        );
    }

    #[test]
    fn validate_rejects_sub_token_pages_under_prefix_caching() {
        // The probe: the checked-in shared-prefix spec with a 1-byte
        // page used to run, every page silently clamped to one token
        // (TTFT p99 63.5 s and 68.4 s).
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/cache/shared_prefix.json"
        );
        let mut s = Scenario::from_file(path).expect("checked-in spec");
        assert!(s.policies.paged_kv.prefix_caching);
        assert_eq!(s.validate(), Ok(()));
        s.policies.paged_kv.page_bytes = 1;
        let err = s.validate().unwrap_err();
        assert!(err.contains("policies.page_bytes = 1"), "{err}");
        assert!(err.contains("cluster replica"), "{err}");
        assert!(s.materialize().is_err());
        assert!(Scenario::parse(&s.to_pretty()).is_err());
        // Exactly one token validates; one byte less does not. (TP 2 on
        // 32 KV heads replicates nothing.)
        let model = s.resolve_model().unwrap();
        let per_token = model.kv_bytes(1);
        assert_eq!(token_kv_bytes(&model, 2), per_token);
        s.policies.paged_kv.page_bytes = per_token;
        assert_eq!(s.validate(), Ok(()));
        s.policies.paged_kv.page_bytes = per_token - 1;
        assert!(s.validate().is_err());
        // Without prefix caching the page size is never used.
        s.policies.paged_kv.prefix_caching = false;
        assert_eq!(s.validate(), Ok(()));

        // Each pool is checked at its own TP: on the 8-KV-head GQA model,
        // TP 16 replicates every KV head twice, so a one-token page of
        // the TP-2 pool is half a token in the TP-16 pool.
        let mut s = two_tenant_scenario();
        s.model = "LLM-7B-128K-GQA".to_string();
        s.policies.paged_kv = PagedKvConfig::paged(llm_model::LLM_7B_128K_GQA.kv_bytes(1));
        s.cluster.pools = vec![
            PoolSpec::new("prefill", PoolRole::Prefill, 2).parallel(2, 1),
            PoolSpec::new("decode", PoolRole::Decode, 1).parallel(16, 1),
        ];
        let err = s.validate().unwrap_err();
        assert!(err.contains("cluster.pools[1] (decode)"), "{err}");
        assert!(err.contains("at tp 16"), "{err}");
        s.policies.paged_kv.page_bytes *= 2;
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_replicas_larger_than_the_node() {
        // LLM-7B-32K on the PIM-only preset has 8 modules; `tp: 1024`
        // used to floor to one replica and run with 5.94 s TTFT p50.
        let mut s = two_tenant_scenario();
        for t in &mut s.workload {
            t.requests = 4;
        }
        let model = s.resolve_model().unwrap();
        assert_eq!(s.system_config_for(&model).modules, 8);
        s.cluster.tp = 1024;
        let err = s.validate().unwrap_err();
        assert!(err.contains("cluster.tp * cluster.pp = 1024"), "{err}");
        assert!(err.contains("8 modules"), "{err}");
        assert!(s.materialize().is_err());
        // Exact fits validate, and so does the whole-node sentinel.
        for (tp, pp) in [(8, 1), (2, 4), (0, 1)] {
            s.cluster.tp = tp;
            s.cluster.pp = pp;
            assert_eq!(s.validate(), Ok(()), "tp {tp} pp {pp}");
        }
        s.cluster.pp = 16;
        s.cluster.tp = 1;
        assert!(s.validate().unwrap_err().contains("= 16"));
        // `cluster.modules` overrides the preset's count.
        s.cluster.modules = 16;
        assert_eq!(s.validate(), Ok(()));
        s.cluster.modules = 15;
        assert!(s.validate().unwrap_err().contains("15 modules"));
    }
}
