//! # PIMphony — a PIM orchestrator for long-context LLM inference
//!
//! Reproduction of *"PIMphony: Overcoming Bandwidth and Capacity
//! Inefficiency in PIM-Based Long-Context LLM Inference System"* (HPCA
//! 2026). PIMphony combines three co-designed techniques:
//!
//! * **TCP** — Token-Centric PIM Partitioning: token-axis parallelism
//!   across all channels of a module, decoupling utilization from batch
//!   size ([`pim_compiler::partition`]).
//! * **DCS** — Dynamic PIM Command Scheduling: a dependency-aware PIM
//!   controller that overlaps I/O with MAC execution
//!   ([`pim_sim::sched`]).
//! * **DPA** — Dynamic PIM Access: on-module virtual-to-physical address
//!   translation enabling lazy, chunked KV-cache allocation
//!   ([`pim_mem`]).
//!
//! The [`Orchestrator`] is the top-level entry point: configure a system
//! (CENT-like PIM-only or NeuPIMs-like xPU+PIM), a model from Table I, a
//! technique set, and a batch-scheduling policy, then evaluate serving
//! traces.
//!
//! Two scheduling policies are available through the builder:
//!
//! * **Wave** (default) — the paper's closed-world evaluation: admit a
//!   batch, decode it to completion, repeat. Reproduces Figs. 13–15/17.
//! * **Continuous** — event-driven continuous batching for online
//!   traffic: requests carry arrival times, join the running batch when
//!   the memory policy has room, and report TTFT/TPOT/E2E latency
//!   percentiles in [`ServingReport::latency`].
//!
//! Multi-replica systems serve through the cluster layer
//! ([`system::cluster`]): arrivals are dispatched in global time order
//! by a pluggable load balancer (`.router(RouterKind::…)` — round-robin,
//! join-shortest-queue, least-loaded by reserved KV bytes, or
//! least-prefill by pending prompt tokens), replica
//! simulations can run in parallel (`.threads(n)`; results are
//! byte-identical whatever the thread count), and reports carry a
//! per-replica breakdown ([`ServingReport::per_replica`]).
//!
//! Experiments are also available as *data*: the builder is a thin
//! fluent wrapper over a declarative [`Scenario`] spec
//! ([`system::scenario`]) — model + system + techniques + multi-tenant
//! workload + cluster + policies in one serializable value.
//! [`Orchestrator::from_scenario`] materializes a spec (e.g. a
//! checked-in `scenarios/*.json` file) into an orchestrator plus the
//! merged tenant-tagged trace; reports then carry per-tenant latency
//! percentiles, SLO attainment, and Jain tenant fairness
//! ([`ServingReport::latency_by_tenant`]).
//!
//! Under KV memory pressure, continuous batching admits in priority
//! order (`workload::Request::priority`) and can preempt:
//! `.evict_restart()` / `.evict_pause()` let a blocked higher-priority
//! arrival evict lower-priority running requests (restart drops their
//! tokens; pause keeps them and re-prefills prompt+tokens as an
//! extended prompt), with eviction counts, wasted re-prefill work and
//! per-priority latency breakdowns in the report;
//! `.kv_capacity_factor(f)` dials the pressure.
//!
//! # Quickstart (paper-figure throughput)
//!
//! ```no_run
//! use pimphony::OrchestratorBuilder;
//! use pimphony::workload::{Dataset, TraceBuilder};
//!
//! let orchestrator = OrchestratorBuilder::new(llm_model::LLM_7B_32K)
//!     .pim_only()
//!     .full_pimphony()
//!     .build();
//! let trace = TraceBuilder::new(Dataset::QmSum).requests(32).decode_len(64).build();
//! let report = orchestrator.serve(&trace);
//! println!("{:.1} tok/s at batch {:.1}", report.tokens_per_second, report.mean_batch);
//! ```
//!
//! # Online serving (continuous batching + latency percentiles)
//!
//! ```no_run
//! use pimphony::OrchestratorBuilder;
//! use pimphony::workload::{Dataset, TraceBuilder};
//!
//! let orchestrator = OrchestratorBuilder::new(llm_model::LLM_7B_32K)
//!     .pim_only()
//!     .full_pimphony()
//!     .continuous_batching()
//!     .build();
//! // 6 req/s Poisson arrivals with production-like response-length spread.
//! let trace = TraceBuilder::new(Dataset::QmSum)
//!     .requests(128)
//!     .decode_range(16, 128)
//!     .poisson(6.0)
//!     .build();
//! let report = orchestrator.serve(&trace);
//! let l = &report.latency;
//! println!(
//!     "{:.1} tok/s | TTFT p50/p95/p99 {:.3}/{:.3}/{:.3}s | TPOT p50 {:.4}s",
//!     report.tokens_per_second, l.ttft.p50, l.ttft.p95, l.ttft.p99, l.tpot.p50,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use llm_model;
pub use pim_compiler;
pub use pim_isa;
pub use pim_mem;
pub use pim_sim;
pub use system;
pub use workload;

/// The declarative scenario spec (re-exported from
/// [`system::scenario`]): one serializable value describing workload +
/// cluster + policy, the data form of everything this builder
/// configures.
pub use system::scenario::{ClusterSpec, Materialized, PolicySpec, Scenario, TenantSpec};

use llm_model::ModelConfig;
use system::{
    Evaluator, PreemptionPolicy, PrefillConfig, RouterKind, SchedulingPolicy, ServingReport,
    SystemConfig, Techniques,
};
use workload::Trace;

/// Top-level handle evaluating a PIM serving system on traces.
///
/// Every orchestrator carries the declarative [`Scenario`] it was built
/// from ([`Orchestrator::scenario`]): the builder is a thin fluent
/// wrapper that edits that spec, so the orchestrator's configuration is
/// always serializable and the getters simply read the spec back.
#[derive(Debug)]
pub struct Orchestrator {
    /// The materialized cluster (evaluators, pools, routers, threads)
    /// that [`Orchestrator::serve`] runs; its own trace stays empty
    /// because `serve` takes the trace as an argument.
    sim: Materialized,
    scenario: Scenario,
}

impl Orchestrator {
    /// Creates an orchestrator from explicit configuration, with the
    /// default (wave) scheduling policy.
    pub fn new(system: SystemConfig, model: ModelConfig, techniques: Techniques) -> Self {
        Self::with_policy(system, model, techniques, SchedulingPolicy::Wave)
    }

    /// Creates an orchestrator with an explicit scheduling policy.
    ///
    /// The evaluator uses `system` verbatim (including any custom
    /// module sizing); the recorded scenario captures its kind and
    /// parallelization, which is the part the spec format describes.
    pub fn with_policy(
        system: SystemConfig,
        model: ModelConfig,
        techniques: Techniques,
        policy: SchedulingPolicy,
    ) -> Self {
        let mut scenario = Scenario::new(model.name);
        scenario.system = system.kind;
        scenario.techniques = techniques;
        scenario.cluster.tp = system.parallel.tp;
        scenario.cluster.pp = system.parallel.pp;
        scenario.policies.scheduling = policy;
        Self::flat(
            Evaluator::new(system, model, techniques).with_policy(policy),
            scenario,
        )
    }

    /// An orchestrator serving `scenario`'s flat (pool-free) cluster on
    /// an explicitly built evaluator.
    fn flat(evaluator: Evaluator, scenario: Scenario) -> Self {
        Orchestrator {
            sim: Materialized {
                evaluator,
                trace: Trace::new(),
                router: scenario.policies.router,
                threads: scenario.cluster.threads,
                tenant_names: Vec::new(),
                pools: Vec::new(),
            },
            scenario,
        }
    }

    /// Materializes a declarative scenario into an orchestrator plus
    /// the merged multi-tenant trace it describes — `serve(&trace)`
    /// then runs the whole experiment the spec file named.
    /// `serve` on that trace returns exactly what
    /// [`Materialized::run`] returns for the spec, replica pools
    /// included.
    pub fn from_scenario(scenario: &Scenario) -> Result<(Orchestrator, Trace), String> {
        let mut sim = scenario.materialize()?;
        let trace = std::mem::take(&mut sim.trace);
        Ok((
            Orchestrator {
                sim,
                scenario: scenario.clone(),
            },
            trace,
        ))
    }

    /// Serves a trace through the cluster layer — arrivals are routed to
    /// replicas by the configured load balancer and the replica sims run
    /// on the configured number of threads — returning the
    /// throughput/latency/energy report. Results are independent of the
    /// thread count. This is [`Materialized::serve`], the scenario run
    /// path.
    pub fn serve(&self, trace: &Trace) -> ServingReport {
        self.sim.serve(trace)
    }

    /// One decode iteration for an explicit `(request id, tokens)` batch.
    pub fn iteration(&self, batch: &[(u64, u64)]) -> system::IterationBreakdown {
        self.sim.evaluator.iteration(batch)
    }

    /// The underlying (scenario-level) evaluator.
    pub fn evaluator(&self) -> &Evaluator {
        &self.sim.evaluator
    }

    /// The declarative spec this orchestrator was built from.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The active batch-scheduling policy.
    pub fn policy(&self) -> SchedulingPolicy {
        self.sim.evaluator.scheduling_policy()
    }

    /// The active preemption policy.
    pub fn preemption(&self) -> PreemptionPolicy {
        self.sim.evaluator.preemption_policy()
    }

    /// The active cross-replica load balancer.
    pub fn router(&self) -> RouterKind {
        self.scenario.policies.router
    }

    /// The replica-simulation thread count.
    pub fn threads(&self) -> usize {
        self.scenario.cluster.threads
    }
}

/// Builder for [`Orchestrator`] with the paper's preset configurations.
///
/// A thin fluent wrapper over a declarative [`Scenario`]: every method
/// edits one field of the spec, and [`OrchestratorBuilder::build`]
/// materializes the evaluator from it — so a new serving knob is added
/// to the `Scenario` struct once instead of being plumbed through
/// parallel builder fields. The resolved [`ModelConfig`] rides along so
/// custom (non-Table-I) model configs keep working; everything else
/// lives in the spec, inspectable via
/// [`OrchestratorBuilder::scenario`].
#[derive(Debug, Clone)]
pub struct OrchestratorBuilder {
    scenario: Scenario,
    model: ModelConfig,
}

impl OrchestratorBuilder {
    /// Starts from a model with the paper's PIM-only defaults.
    pub fn new(model: ModelConfig) -> Self {
        OrchestratorBuilder {
            scenario: Scenario::new(model.name),
            model,
        }
    }

    /// The declarative spec the fluent calls have assembled so far.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Uses the CENT-like PIM-only system sizing (Table IV).
    pub fn pim_only(mut self) -> Self {
        self.scenario.system = system::SystemKind::PimOnly;
        self
    }

    /// Uses the NeuPIMs-like xPU+PIM system sizing (Table IV).
    pub fn xpu_pim(mut self) -> Self {
        self.scenario.system = system::SystemKind::XpuPim;
        self
    }

    /// Overrides the (TP, PP) parallelization (both degrees ≥ 1; the
    /// spec-level `tp = 0` "whole node" sentinel is not accepted here —
    /// simply don't call `parallel` to keep the preset sizing).
    pub fn parallel(mut self, tp: u32, pp: u32) -> Self {
        assert!(tp > 0 && pp > 0, "parallel degrees must be positive");
        self.scenario.cluster.tp = tp;
        self.scenario.cluster.pp = pp;
        self
    }

    /// Disables every PIMphony technique (the prior-work baseline).
    pub fn baseline(mut self) -> Self {
        self.scenario.techniques = Techniques::baseline();
        self
    }

    /// Enables all three techniques.
    pub fn full_pimphony(mut self) -> Self {
        self.scenario.techniques = Techniques::pimphony();
        self
    }

    /// Sets an explicit technique combination.
    pub fn techniques(mut self, techniques: Techniques) -> Self {
        self.scenario.techniques = techniques;
        self
    }

    /// Sets an explicit batch-scheduling policy.
    pub fn policy(mut self, policy: SchedulingPolicy) -> Self {
        self.scenario.policies.scheduling = policy;
        self
    }

    /// Serves online traffic with event-driven continuous batching
    /// (requests join running batches as memory frees; the report gains
    /// TTFT/TPOT/E2E percentiles).
    pub fn continuous_batching(self) -> Self {
        self.policy(SchedulingPolicy::Continuous)
    }

    /// Serves closed-world decode waves (the default; reproduces the
    /// paper's figures).
    pub fn wave_serving(self) -> Self {
        self.policy(SchedulingPolicy::Wave)
    }

    /// Sets an explicit prefill configuration (default: disabled, the
    /// historical decode-only simulation).
    pub fn prefill(mut self, prefill: PrefillConfig) -> Self {
        self.scenario.policies.prefill = prefill;
        self
    }

    /// Models prompt processing end-to-end: prompts are prefilled
    /// `chunk_tokens` at a time before decoding (interleaved with
    /// running decode steps under continuous batching), and TTFT covers
    /// arrival → first token including queueing and prefill delay
    /// (decomposed in `ServingReport::latency`).
    pub fn chunked_prefill(self, chunk_tokens: u64) -> Self {
        self.prefill(PrefillConfig::chunked(chunk_tokens))
    }

    /// Sets the preemption policy: what continuous batching may do when
    /// an arrived request cannot be admitted for lack of KV memory
    /// (default: [`PreemptionPolicy::None`], admitted requests always
    /// run to completion). Eviction requires priority diversity in the
    /// trace — victims must have strictly lower priority than the
    /// blocked candidate.
    pub fn preemption(mut self, preemption: PreemptionPolicy) -> Self {
        self.scenario.policies.preemption = preemption;
        self
    }

    /// Under memory pressure, evict lower-priority running requests and
    /// restart them from scratch later (their KV *and* generated tokens
    /// are dropped).
    pub fn evict_restart(self) -> Self {
        self.preemption(PreemptionPolicy::EvictRestart)
    }

    /// Under memory pressure, evict lower-priority running requests but
    /// keep their generated tokens; on resume the prompt plus kept
    /// tokens are re-prefilled as an extended prompt and decoding
    /// continues where it stopped.
    pub fn evict_pause(self) -> Self {
        self.preemption(PreemptionPolicy::EvictPause)
    }

    /// Scales the replica KV pool (default 1.0 = hardware capacity).
    /// Fractions below one model memory pressure — the regime where
    /// preemption policies matter — without re-sizing the system.
    pub fn kv_capacity_factor(mut self, factor: f64) -> Self {
        self.scenario.policies.kv_capacity_factor = factor;
        self
    }

    /// Sets the cross-replica load balancer routing each arrival to a
    /// replica (default: [`RouterKind::RoundRobin`], which reproduces
    /// trace-level partitioning bit-exactly).
    pub fn router(mut self, router: RouterKind) -> Self {
        self.scenario.policies.router = router;
        self
    }

    /// Routes arrivals to the replica with the fewest in-flight requests
    /// (join-shortest-queue) — the bursty-traffic tail-latency policy.
    pub fn join_shortest_queue(self) -> Self {
        self.router(RouterKind::JoinShortestQueue)
    }

    /// Simulates replicas on up to `threads` scoped threads (`0` means
    /// one per available CPU). Reports are byte-identical whatever the
    /// thread count — parallelism only changes wall-clock time.
    pub fn threads(mut self, threads: usize) -> Self {
        self.scenario.cluster.threads = threads;
        self
    }

    /// Builds the orchestrator by materializing the assembled scenario
    /// (the spec's evaluator path, shared with `--scenario` files —
    /// there is exactly one place knobs turn into an [`Evaluator`]).
    pub fn build(self) -> Orchestrator {
        Orchestrator::flat(self.scenario.evaluator_for(self.model), self.scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{Dataset, TraceBuilder};

    #[test]
    fn builder_presets_produce_working_orchestrators() {
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(1)
            .requests(6)
            .decode_len(8)
            .build();
        let pim = OrchestratorBuilder::new(llm_model::LLM_7B_32K)
            .pim_only()
            .build();
        let xpu = OrchestratorBuilder::new(llm_model::LLM_7B_32K)
            .xpu_pim()
            .build();
        assert!(pim.serve(&trace).tokens_per_second > 0.0);
        assert!(xpu.serve(&trace).tokens_per_second > 0.0);
    }

    #[test]
    fn baseline_vs_pimphony_end_to_end() {
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(2)
            .requests(8)
            .decode_len(8)
            .build();
        let base = OrchestratorBuilder::new(llm_model::LLM_7B_32K)
            .pim_only()
            .baseline()
            .build();
        let full = OrchestratorBuilder::new(llm_model::LLM_7B_32K)
            .pim_only()
            .full_pimphony()
            .build();
        let rb = base.serve(&trace);
        let rf = full.serve(&trace);
        assert!(rf.tokens_per_second > rb.tokens_per_second);
        assert!(rf.attn_utilization > rb.attn_utilization);
    }

    #[test]
    fn builder_is_a_thin_scenario_wrapper() {
        let b = OrchestratorBuilder::new(llm_model::LLM_7B_32K)
            .parallel(2, 1)
            .continuous_batching()
            .join_shortest_queue()
            .evict_pause()
            .chunked_prefill(256)
            .kv_capacity_factor(0.5)
            .threads(4);
        let s = b.scenario();
        assert_eq!(s.model, "LLM-7B-32K");
        assert_eq!(s.policies.scheduling, SchedulingPolicy::Continuous);
        assert_eq!(s.policies.router, RouterKind::JoinShortestQueue);
        assert_eq!(s.policies.preemption, PreemptionPolicy::EvictPause);
        assert!(s.policies.prefill.enabled);
        assert_eq!(s.policies.prefill.chunk_tokens, 256);
        assert_eq!(s.policies.kv_capacity_factor, 0.5);
        assert_eq!(
            s.cluster,
            ClusterSpec {
                tp: 2,
                pp: 1,
                modules: 0,
                threads: 4,
                pools: Vec::new(),
            }
        );
        // The built orchestrator's evaluator and getters read the spec.
        let o = b.build();
        assert_eq!(o.router(), RouterKind::JoinShortestQueue);
        assert_eq!(o.threads(), 4);
        assert_eq!(o.preemption(), PreemptionPolicy::EvictPause);
        assert_eq!(o.evaluator().kv_capacity_factor(), 0.5);
        assert_eq!(o.evaluator().prefill_config().chunk_tokens, 256);
        assert_eq!(o.scenario().policies.stride, 64);
    }

    #[test]
    fn orchestrator_from_scenario_serves_multi_tenant_specs() {
        let mut s = Scenario::new("LLM-7B-32K");
        s.cluster.tp = 2;
        s.policies.scheduling = SchedulingPolicy::Continuous;
        s.policies.router = RouterKind::JoinShortestQueue;
        let s = s
            .tenant(
                TenantSpec::new("interactive", Dataset::QmSum)
                    .requests(8)
                    .seed(3)
                    .decode(workload::DecodeSpec::Uniform(8, 24))
                    .arrivals(workload::ArrivalProcess::Poisson { rate: 4.0 })
                    .priority(1)
                    .slo_ttft_p99(60.0),
            )
            .tenant(
                TenantSpec::new("batch", Dataset::QmSum)
                    .requests(6)
                    .seed(4)
                    .decode(workload::DecodeSpec::Fixed(32)),
            );
        let (o, trace) = Orchestrator::from_scenario(&s).expect("materialize");
        assert_eq!(trace.len(), 14);
        assert_eq!(o.scenario(), &s);
        let r = o.serve(&trace);
        assert_eq!(r.latency.completed, 14);
        assert_eq!(r.latency_by_tenant.len(), 2);
        assert!((0.0..=1.0).contains(&r.latency_by_tenant[0].slo_attainment));
        assert!(r.tenant_fairness() > 0.0);
        // A broken spec surfaces as an error, not a panic.
        assert!(Orchestrator::from_scenario(&Scenario::new("nope")).is_err());
    }

    #[test]
    fn parallel_override_applies() {
        let o = OrchestratorBuilder::new(llm_model::LLM_7B_32K)
            .parallel(2, 4)
            .build();
        assert_eq!(o.evaluator().system().parallel.tp, 2);
        assert_eq!(o.evaluator().system().parallel.pp, 4);
    }

    #[test]
    fn recorded_preset_scenarios_validate() {
        // The spec `with_policy` records for a preset system passes
        // `Scenario::validate`, whole-node partitioning included.
        for model in llm_model::ModelConfig::table1() {
            for system in [
                SystemConfig::cent_for(&model),
                SystemConfig::neupims_for(&model),
            ] {
                let o = Orchestrator::new(system, model, Techniques::pimphony());
                let spec = o
                    .scenario()
                    .clone()
                    .tenant(TenantSpec::new("t", Dataset::QmSum));
                assert_eq!(spec.validate(), Ok(()), "{}", model.name);
            }
        }
    }

    #[test]
    fn iteration_is_exposed() {
        let o = OrchestratorBuilder::new(llm_model::LLM_7B_32K).build();
        let it = o.iteration(&[(0, 8192), (1, 4096)]);
        assert!(it.seconds > 0.0);
        assert!(it.attn_seconds > 0.0);
    }

    #[test]
    fn policy_selection_flows_through_builder() {
        let wave = OrchestratorBuilder::new(llm_model::LLM_7B_32K).build();
        let cont = OrchestratorBuilder::new(llm_model::LLM_7B_32K)
            .continuous_batching()
            .build();
        assert_eq!(wave.policy(), SchedulingPolicy::Wave);
        assert_eq!(cont.policy(), SchedulingPolicy::Continuous);
        assert_eq!(
            wave.policy(),
            OrchestratorBuilder::new(llm_model::LLM_7B_32K)
                .continuous_batching()
                .wave_serving()
                .build()
                .policy()
        );
    }

    #[test]
    fn router_and_threads_flow_through_builder() {
        let o = OrchestratorBuilder::new(llm_model::LLM_7B_32K)
            .continuous_batching()
            .join_shortest_queue()
            .threads(4)
            .build();
        assert_eq!(o.router(), RouterKind::JoinShortestQueue);
        assert_eq!(o.threads(), 4);
        assert_eq!(
            OrchestratorBuilder::new(llm_model::LLM_7B_32K)
                .router(RouterKind::LeastLoaded)
                .build()
                .router(),
            RouterKind::LeastLoaded
        );
        assert_eq!(
            OrchestratorBuilder::new(llm_model::LLM_7B_32K)
                .build()
                .router(),
            RouterKind::RoundRobin
        );
    }

    #[test]
    fn parallel_serving_matches_sequential_exactly() {
        // 4 replicas, bursty arrivals, JSQ: the report must not depend on
        // the simulation thread count.
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(5)
            .requests(32)
            .decode_range(8, 48)
            .bursty(8.0, 2.5)
            .build();
        let build = |threads| {
            OrchestratorBuilder::new(llm_model::LLM_7B_32K)
                .parallel(2, 1)
                .continuous_batching()
                .join_shortest_queue()
                .threads(threads)
                .build()
        };
        let sequential = build(1).serve(&trace);
        let parallel = build(4).serve(&trace);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn chunked_prefill_flows_through_builder_and_dominates_ttft() {
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(4)
            .requests(8)
            .decode_range(8, 32)
            .poisson(3.0)
            .build();
        let build = |prefill: bool| {
            let b = OrchestratorBuilder::new(llm_model::LLM_7B_32K)
                .pim_only()
                .full_pimphony()
                .continuous_batching();
            if prefill { b.chunked_prefill(512) } else { b }.build()
        };
        let decode_only = build(false);
        let end_to_end = build(true);
        assert!(!decode_only.evaluator().prefill_config().enabled);
        assert!(end_to_end.evaluator().prefill_config().enabled);
        assert_eq!(end_to_end.evaluator().prefill_config().chunk_tokens, 512);
        let rd = decode_only.serve(&trace);
        let re = end_to_end.serve(&trace);
        assert_eq!(rd.tokens, re.tokens, "same decode work");
        assert_eq!(rd.prefill_tokens, 0);
        assert!(re.prefill_tokens > 0);
        assert!(re.latency.ttft.p50 > rd.latency.ttft.p50);
        assert!(re.latency.prefill.p50 > 0.0);
    }

    #[test]
    fn continuous_batching_reports_latency_percentiles() {
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(4)
            .requests(20)
            .decode_range(8, 32)
            .poisson(3.0)
            .build();
        let o = OrchestratorBuilder::new(llm_model::LLM_7B_32K)
            .pim_only()
            .full_pimphony()
            .continuous_batching()
            .build();
        let r = o.serve(&trace);
        assert_eq!(r.latency.completed, trace.len() as u64);
        assert!(r.latency.ttft.p50 > 0.0);
        assert!(r.latency.ttft.p50 <= r.latency.ttft.p99);
        assert_eq!(r.tokens, trace.total_decode_tokens());
    }
}
