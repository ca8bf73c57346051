//! Multi-module PIM system model for the PIMphony reproduction.
//!
//! Composes the per-channel cycle simulator (`pim-sim`), the partitioning
//! compiler (`pim-compiler`) and the memory manager (`pim-mem`) into full
//! CENT-like (PIM-only) and NeuPIMs-like (xPU+PIM) systems, with:
//!
//! * [`config`] — Table IV module/system configurations and the
//!   [`config::Techniques`] ladder (base / +TCP / +DCS / +DPA).
//! * [`kernel`] — memoized per-channel kernel latency model calibrated by
//!   exact cycle simulation.
//! * [`stage`] — attention/FC stage composition under TP and PP.
//! * [`serve`] — the [`Evaluator`]: memory policy, admission primitives,
//!   and the [`ServingReport`].
//! * [`replica`] — the standalone per-replica state machine
//!   (`ReplicaSim`) advancing one replica's virtual time over
//!   admission/step/completion events.
//! * [`cluster`] — multi-replica serving: globally ordered arrivals
//!   dispatched through a pluggable [`cluster::Router`] (round-robin /
//!   join-shortest-queue / least-loaded / least-prefill / SLO-aware)
//!   over one or more replica pools ([`run_pools`]), with replica sims
//!   running on scoped threads and a deterministic merge.
//!   [`Evaluator::run_trace`] serves a trace as one round-robin pool on
//!   one thread.
//! * [`policy`] — pluggable batch scheduling: closed-world
//!   [`SchedulingPolicy::Wave`] (paper-figure fidelity, Figs. 13–15 and
//!   17) and online [`SchedulingPolicy::Continuous`] batching over
//!   arrival times; [`PrefillConfig`] turns on end-to-end prompt
//!   processing (wave: whole-batch prefill before decode; continuous:
//!   chunked prefill interleaved with running decode steps);
//!   [`PreemptionPolicy`] lets blocked higher-priority arrivals evict
//!   running requests under KV memory pressure (evict-and-restart or
//!   evict-and-pause with extended-prompt re-prefill).
//! * [`scenario`] — the declarative, serializable experiment spec: one
//!   [`Scenario`] value (model + system + techniques + multi-tenant
//!   workload + cluster + policies) round-trips through JSON
//!   (`scenarios/*.json`) and materializes into a runnable
//!   [`Materialized`] simulation, whose `run` is the one code path
//!   from a scenario to a [`ServingReport`].
//! * [`metrics`] — per-request TTFT/TPOT/E2E latency percentiles with a
//!   queueing-vs-prefill TTFT decomposition, per-replica and per-tenant
//!   breakdowns (SLO attainment), Jain fairness.
//! * [`energy`] — the Fig. 16 energy decomposition.
//! * [`gpu`] — the A100 flash-decoding + paged-attention baseline of
//!   Fig. 20.
//!
//! # Example
//!
//! ```no_run
//! use llm_model::LLM_7B_32K;
//! use system::{Evaluator, SystemConfig, Techniques};
//! use workload::{Dataset, TraceBuilder};
//!
//! let trace = TraceBuilder::new(Dataset::QmSum).requests(8).decode_len(16).build();
//! let eval = Evaluator::new(
//!     SystemConfig::cent_for(&LLM_7B_32K),
//!     LLM_7B_32K,
//!     Techniques::pimphony(),
//! );
//! let report = eval.run_trace(&trace);
//! println!("{:.1} tokens/s", report.tokens_per_second);
//! ```
//!
//! Online serving with continuous batching and latency percentiles:
//!
//! ```no_run
//! use llm_model::LLM_7B_32K;
//! use system::{Evaluator, PolicySpec, SchedulingPolicy, SystemConfig, Techniques};
//! use workload::{Dataset, TraceBuilder};
//!
//! let trace = TraceBuilder::new(Dataset::QmSum)
//!     .requests(64)
//!     .decode_range(16, 128)
//!     .poisson(4.0)
//!     .build();
//! let eval = Evaluator::new(
//!     SystemConfig::cent_for(&LLM_7B_32K),
//!     LLM_7B_32K,
//!     Techniques::pimphony(),
//! )
//! .with_policies(PolicySpec {
//!     scheduling: SchedulingPolicy::Continuous,
//!     ..PolicySpec::default()
//! });
//! let report = eval.run_trace(&trace);
//! println!(
//!     "{:.1} tok/s, TTFT p99 {:.3}s, TPOT p50 {:.4}s",
//!     report.tokens_per_second, report.latency.ttft.p99, report.latency.tpot.p50,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod energy;
mod fold;
pub mod gpu;
pub mod kernel;
pub mod metrics;
pub mod policy;
pub mod replica;
pub mod scenario;
pub mod serve;
pub mod stage;

pub use cluster::{
    run_pools, JoinShortestQueue, LeastLoaded, LeastPrefill, PoolRun, RoundRobin, Router,
    RouterKind, SloAware,
};
pub use config::{ModuleConfig, SystemConfig, SystemKind, Techniques};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use gpu::GpuSystem;
pub use kernel::{AttentionKind, KernelCounts, KernelModel, KernelStats};
pub use metrics::{
    jain_fairness, tenant_goodput_fairness, LatencyReport, LatencySummary, PoolBreakdown,
    PriorityLatency, ReplicaBreakdown, RequestTiming, TenantLatency,
};
pub use policy::{
    KvTransferConfig, PagedKvConfig, PoolRole, PreemptionPolicy, PrefillConfig, SchedulingPolicy,
    SheddingPolicy, VictimOrder,
};
pub use replica::ReplicaLoad;
pub use scenario::{
    ClusterSpec, Materialized, MaterializedPool, PolicySpec, PoolSpec, Scenario, TenantSpec,
};
pub use serve::{Evaluator, KvTransferModel, ServingReport, TtftPredictor};
pub use stage::{AttentionStage, IterationBreakdown, StageModel};
