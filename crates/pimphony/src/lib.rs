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
//! * **DPA** — Dynamic PIM Access: lazy, chunked KV-cache allocation
//!   ([`pim_mem`]) plus the compact `Dyn-Loop` program footprint
//!   ([`pim_isa::dpa`]). The paper's on-module VA→PA translation is not
//!   modelled: no simulated cycle depends on it.
//!
//! This crate re-exports the workspace crates under one name. An
//! experiment is a declarative [`Scenario`] ([`system::scenario`]): a
//! system (CENT-like PIM-only or NeuPIMs-like xPU+PIM), a Table I model,
//! a technique set, a multi-tenant workload, the cluster, and every
//! serving knob in one [`PolicySpec`]. [`Scenario::materialize`] turns
//! it into a [`Materialized`] simulation, and [`Materialized::run`]
//! serves its trace into a [`system::ServingReport`]:
//!
//! ```text
//! Scenario ──materialize──▶ Materialized ──run──▶ ServingReport
//! ```
//!
//! Two scheduling policies are available (`policies.scheduling`):
//!
//! * **Wave** (default) — the paper's closed-world evaluation: admit a
//!   batch, decode it to completion, repeat. Reproduces Figs. 13–15/17.
//! * **Continuous** — event-driven continuous batching for online
//!   traffic: requests carry arrival times, join the running batch when
//!   the memory policy has room, and report TTFT/TPOT/E2E latency
//!   percentiles in `ServingReport::latency`.
//!
//! Multi-replica systems serve through the cluster layer
//! ([`system::cluster`]): arrivals are dispatched in global time order
//! by a pluggable load balancer (`policies.router`), replica
//! simulations can run in parallel (`cluster.threads`; results are
//! byte-identical whatever the thread count), and reports carry
//! per-replica, per-tenant and per-pool breakdowns. Under KV memory
//! pressure (`policies.kv_capacity_factor`), continuous batching admits
//! in priority order and `policies.preemption` can evict lower-priority
//! running requests.
//!
//! A hand-built [`system::Evaluator`] (`Evaluator::new(..)
//! .with_policies(..)`) serves a trace directly with
//! `Evaluator::run_trace`, one round-robin pool on one thread.
//!
//! # Quickstart (paper-figure throughput)
//!
//! ```no_run
//! use pimphony::workload::{Dataset, DecodeSpec};
//! use pimphony::{Scenario, TenantSpec};
//!
//! let spec = Scenario::new("LLM-7B-32K").tenant(
//!     TenantSpec::new("qmsum", Dataset::QmSum)
//!         .requests(32)
//!         .decode(DecodeSpec::Fixed(64)),
//! );
//! let report = spec.materialize().expect("valid spec").run();
//! println!("{:.1} tok/s at batch {:.1}", report.tokens_per_second, report.mean_batch);
//! ```
//!
//! # Online serving (continuous batching + latency percentiles)
//!
//! ```no_run
//! use pimphony::system::SchedulingPolicy;
//! use pimphony::workload::{ArrivalProcess, Dataset, DecodeSpec};
//! use pimphony::{Scenario, TenantSpec};
//!
//! let mut spec = Scenario::new("LLM-7B-32K").tenant(
//!     TenantSpec::new("qmsum", Dataset::QmSum)
//!         .requests(128)
//!         .decode(DecodeSpec::Uniform(16, 128))
//!         .arrivals(ArrivalProcess::Poisson { rate: 6.0 }),
//! );
//! spec.policies.scheduling = SchedulingPolicy::Continuous;
//! let report = spec.materialize().expect("valid spec").run();
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
/// cluster + policy.
pub use system::scenario::{ClusterSpec, Materialized, PolicySpec, Scenario, TenantSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use system::{RouterKind, SchedulingPolicy, Techniques};
    use workload::{ArrivalProcess, Dataset, DecodeSpec};

    fn qmsum(requests: usize, seed: u64, decode: DecodeSpec) -> TenantSpec {
        TenantSpec::new("qmsum", Dataset::QmSum)
            .requests(requests)
            .seed(seed)
            .decode(decode)
    }

    #[test]
    fn baseline_vs_pimphony_end_to_end() {
        let run = |techniques| {
            let mut s = Scenario::new("LLM-7B-32K").tenant(qmsum(8, 2, DecodeSpec::Fixed(8)));
            s.techniques = techniques;
            s.materialize().expect("valid spec").run()
        };
        let rb = run(Techniques::baseline());
        let rf = run(Techniques::pimphony());
        assert!(rf.tokens_per_second > rb.tokens_per_second);
        assert!(rf.attn_utilization > rb.attn_utilization);
    }

    #[test]
    fn parallel_override_applies() {
        let mut s = Scenario::new("LLM-7B-32K");
        s.cluster.tp = 2;
        s.cluster.pp = 4;
        let e = s.evaluator_for(llm_model::LLM_7B_32K);
        assert_eq!(e.system().parallel.tp, 2);
        assert_eq!(e.system().parallel.pp, 4);
    }

    #[test]
    fn iteration_is_exposed() {
        let e = Scenario::new("LLM-7B-32K").evaluator_for(llm_model::LLM_7B_32K);
        let it = e.iteration(&[(0, 8192), (1, 4096)]);
        assert!(it.seconds > 0.0);
        assert!(it.attn_seconds > 0.0);
    }

    #[test]
    fn parallel_serving_matches_sequential_exactly() {
        // 4 replicas, bursty arrivals, JSQ: the report must not depend on
        // the simulation thread count.
        let run = |threads| {
            let mut s = Scenario::new("LLM-7B-32K").tenant(
                qmsum(32, 5, DecodeSpec::Uniform(8, 48))
                    .arrivals(ArrivalProcess::Bursty { rate: 8.0, cv: 2.5 }),
            );
            s.cluster.tp = 2;
            s.cluster.threads = threads;
            s.policies.scheduling = SchedulingPolicy::Continuous;
            s.policies.router = RouterKind::JoinShortestQueue;
            s.materialize().expect("valid spec").run()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn continuous_batching_reports_latency_percentiles() {
        let mut s = Scenario::new("LLM-7B-32K").tenant(
            qmsum(20, 4, DecodeSpec::Uniform(8, 32))
                .arrivals(ArrivalProcess::Poisson { rate: 3.0 }),
        );
        s.policies.scheduling = SchedulingPolicy::Continuous;
        let m = s.materialize().expect("valid spec");
        let r = m.run();
        assert_eq!(r.latency.completed, m.trace.len() as u64);
        assert!(r.latency.ttft.p50 > 0.0);
        assert!(r.latency.ttft.p50 <= r.latency.ttft.p99);
        assert_eq!(r.tokens, m.trace.total_decode_tokens());
    }
}
