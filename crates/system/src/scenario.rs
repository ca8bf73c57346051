//! Declarative, serializable experiment specs: one [`Scenario`] value
//! describes workload + cluster + policy and materializes into a
//! runnable simulation.
//!
//! The configuration surface of this repository grew organically across
//! four layers — `Evaluator::with_*`, the `pimphony` builder, the
//! `workload` trace builder, and twenty bench binaries each hand-rolling
//! its own argument parsing — so every new knob had to be plumbed
//! through all of them. A `Scenario` collapses that: experiments are
//! *data*, round-tripping through the dependency-free [`jsonio`] layer
//! (`scenarios/*.json`), shared verbatim by tests, benches, and CI.
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
use crate::serve::{Evaluator, ServingReport};
use jsonio::Json;
use llm_model::ModelConfig;
use pim_compiler::ParallelConfig;
use workload::{ArrivalProcess, Dataset, DecodeSpec, Trace, TraceBuilder};

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

    /// Builds this tenant's trace, tagged with `tenant`.
    fn build_trace(&self, tenant: u8) -> Trace {
        TraceBuilder::new(self.dataset)
            .seed(self.seed)
            .requests(self.requests)
            .decode(self.decode)
            .arrivals(self.arrivals)
            .priority(self.priority)
            .tenant(tenant)
            .shared_prefix(self.shared_prefix)
            .build()
    }

    /// Validates the spec, naming the offending field.
    fn validate(&self, idx: usize) -> Result<(), String> {
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

/// Scheduling/memory policy bundle of a scenario — every serving knob
/// that used to be plumbed through three builders, in one place.
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
    /// KV-pool scale factor (1.0 = hardware capacity).
    pub kv_capacity_factor: f64,
    /// Decode chunk-pricing stride.
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
    /// non-Table-I) model config — the path the `pimphony` builder
    /// uses, since it accepts arbitrary `ModelConfig` values.
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
        let p = &self.policies;
        let slos: Vec<(u8, f64)> = self
            .workload
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.slo_ttft_p99.map(|s| (i as u8, s)))
            .collect();
        Evaluator::new(sys, model, self.techniques)
            .with_policy(p.scheduling)
            .with_preemption(p.preemption)
            .with_prefill(p.prefill)
            .with_kv_capacity_factor(p.kv_capacity_factor)
            .with_stride(p.stride)
            .with_paged_kv(p.paged_kv)
            .with_shedding(p.shedding)
            .with_victim_order(p.victim_order)
            .with_kv_transfer(p.kv_transfer)
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
            t.validate(i)?;
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
        self.validate_pools()
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
                .map(|(i, t)| t.build_trace(i as u8)),
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
            (
                "system",
                Json::str(match self.system {
                    SystemKind::PimOnly => "pim-only",
                    SystemKind::XpuPim => "xpu-pim",
                }),
            ),
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
        let model = req_str(doc, "model")?.to_string();
        let system = match doc.get("system").and_then(Json::as_str) {
            None | Some("pim-only") => SystemKind::PimOnly,
            Some("xpu-pim") => SystemKind::XpuPim,
            Some(other) => {
                return Err(format!(
                    "system: unknown kind {other:?} (expected \"pim-only\" or \"xpu-pim\")"
                ))
            }
        };
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
                tp: get_u64(c, "tp", defaults.tp as u64)? as u32,
                pp: get_u64(c, "pp", defaults.pp as u64)? as u32,
                modules: get_u64(c, "modules", defaults.modules as u64)? as u32,
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
                scheduling: match get_str(p, "scheduling", SchedulingPolicy::Wave.label())? {
                    "wave" => SchedulingPolicy::Wave,
                    "continuous" => SchedulingPolicy::Continuous,
                    other => return Err(format!("policies.scheduling: unknown policy {other:?}")),
                },
                router: parse_router(get_str(p, "router", RouterKind::RoundRobin.label())?)?,
                preemption: parse_preemption(get_str(
                    p,
                    "preemption",
                    PreemptionPolicy::None.label(),
                )?)?,
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
                shedding: parse_shedding(get_str(p, "shedding", SheddingPolicy::None.label())?)?,
                victim_order: parse_victim_order(get_str(
                    p,
                    "victim_order",
                    VictimOrder::RecentFirst.label(),
                )?)?,
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
    /// is one anonymous mixed pool (the form [`crate::Cluster::run`]
    /// takes). Each router is built for its own pool's evaluator, so
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
        fields.push((
            "system",
            Json::str(match kind {
                SystemKind::PimOnly => "pim-only",
                SystemKind::XpuPim => "xpu-pim",
            }),
        ));
    }
    if let Some(router) = p.router {
        fields.push(("router", Json::str(router.label())));
    }
    Json::obj(fields)
}

fn pool_from_json(p: &Json) -> Result<PoolSpec, String> {
    let name = req_str(p, "name")?.to_string();
    let role = parse_pool_role(get_str(p, "role", PoolRole::Mixed.label())?)?;
    let system = match p.get("system").and_then(Json::as_str) {
        None => None,
        Some("pim-only") => Some(SystemKind::PimOnly),
        Some("xpu-pim") => Some(SystemKind::XpuPim),
        Some(other) => {
            return Err(format!(
                "system: unknown kind {other:?} (expected \"pim-only\" or \"xpu-pim\")"
            ))
        }
    };
    let router = match p.get("router") {
        None => None,
        Some(_) => Some(parse_router(get_str(p, "router", "")?)?),
    };
    Ok(PoolSpec {
        name,
        role,
        replicas: get_u64(p, "replicas", 1)? as u32,
        tp: get_u64(p, "tp", 0)? as u32,
        pp: get_u64(p, "pp", 1)? as u32,
        system,
        router,
    })
}

fn parse_pool_role(label: &str) -> Result<PoolRole, String> {
    PoolRole::ALL
        .into_iter()
        .find(|r| r.label() == label)
        .ok_or_else(|| {
            let known: Vec<&str> = PoolRole::ALL.iter().map(|r| r.label()).collect();
            format!(
                "role: unknown pool role {label:?} (expected one of: {})",
                known.join(", ")
            )
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
    Json::obj([
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
    ])
}

fn tenant_from_json(t: &Json) -> Result<TenantSpec, String> {
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
                DecodeSpec::Fixed(get_u64(d, "fixed", 0)?)
            } else if d.get("lo").is_some() || d.get("hi").is_some() {
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
        priority: get_u64(t, "priority", 0)? as u8,
        slo_ttft_p99: slo,
        shared_prefix: get_u64(t, "shared_prefix", 0)?,
    })
}

fn parse_router(label: &str) -> Result<RouterKind, String> {
    RouterKind::ALL
        .into_iter()
        .find(|k| k.label() == label)
        .ok_or_else(|| {
            let known: Vec<&str> = RouterKind::ALL.iter().map(|k| k.label()).collect();
            format!(
                "policies.router: unknown router {label:?} (expected one of: {})",
                known.join(", ")
            )
        })
}

fn parse_preemption(label: &str) -> Result<PreemptionPolicy, String> {
    PreemptionPolicy::ALL
        .into_iter()
        .find(|p| p.label() == label)
        .ok_or_else(|| {
            let known: Vec<&str> = PreemptionPolicy::ALL.iter().map(|p| p.label()).collect();
            format!(
                "policies.preemption: unknown policy {label:?} (expected one of: {})",
                known.join(", ")
            )
        })
}

fn parse_shedding(label: &str) -> Result<SheddingPolicy, String> {
    SheddingPolicy::ALL
        .into_iter()
        .find(|s| s.label() == label)
        .ok_or_else(|| {
            let known: Vec<&str> = SheddingPolicy::ALL.iter().map(|s| s.label()).collect();
            format!(
                "policies.shedding: unknown policy {label:?} (expected one of: {})",
                known.join(", ")
            )
        })
}

fn parse_victim_order(label: &str) -> Result<VictimOrder, String> {
    VictimOrder::ALL
        .into_iter()
        .find(|v| v.label() == label)
        .ok_or_else(|| {
            let known: Vec<&str> = VictimOrder::ALL.iter().map(|v| v.label()).collect();
            format!(
                "policies.victim_order: unknown order {label:?} (expected one of: {})",
                known.join(", ")
            )
        })
}

fn req_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{key}: required string"))
}

fn get_str<'a>(obj: &'a Json, key: &str, default: &'static str) -> Result<&'a str, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_str()
            .ok_or_else(|| format!("{key}: expected a string")),
    }
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
