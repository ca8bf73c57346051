//! Cycle-level DRAM-PIM channel simulator for the PIMphony reproduction.
//!
//! This crate models one AiM-style PIM channel at command granularity:
//!
//! * [`Timing`] / [`Geometry`] — DRAM-PIM timing constants and channel
//!   shape (banks, Global Buffer, Output Registers/Buffers, row size).
//! * [`sched`] — the three controller policies the paper compares:
//!   conventional *static* in-order scheduling, *ping-pong* double
//!   buffering, and PIMphony's *Dynamic Command Scheduling* (DCS).
//!   Each has two entry points over one issue loop: [`summarize`]
//!   returns the [`ScheduleSummary`] totals (makespan, counts, stall
//!   breakdown, refresh events), reading the commands straight from a
//!   kernel builder without storing a stream, and [`schedule`] returns
//!   an [`ExecutionReport`]: the same summary beside every command's
//!   issue and completion cycle (for the Fig. 7 timelines and the
//!   hazard [`checker`]). Kernel calibration and the Fig. 8, 9 and 18
//!   breakdowns use [`summarize`].
//! * [`kernels`] — command-stream builders for GEMV, `QKᵀ` and `SV`,
//!   including the GQA row-reuse mapping. Each is a [`CommandSource`]
//!   whose `emit` produces `WR-INP`s, `RD-OUT`s and [`MacRun`]s, runs
//!   of back-to-back `MAC`s on one DRAM row, which the schedulers
//!   advance without a general issue step per `MAC`; `stream()`
//!   collects them one command per `MAC`.
//! * [`functional`] — value-level execution proving kernels compute
//!   correct results independent of the scheduler.
//! * [`checker`] — a hazard replay checker proving schedules are safe.
//!
//! # Example: DCS vs static on a small GEMV
//!
//! ```
//! use pim_sim::kernels::{GemvKernel, GemvSpec};
//! use pim_sim::{schedule, summarize, Geometry, SchedulerKind, Timing};
//!
//! let geom = Geometry::pimphony();
//! let stream = GemvKernel::new(GemvSpec { dout: 256, din: 128 }, geom).stream();
//! let timing = Timing::aimx_no_refresh();
//! let s = schedule(&stream, SchedulerKind::Static, &timing, &geom);
//! let d = schedule(&stream, SchedulerKind::Dcs, &timing, &geom);
//! assert!(d.summary.cycles <= s.summary.cycles);
//!
//! // The totals alone, without building the stream.
//! let kernel = GemvKernel::new(GemvSpec { dout: 256, din: 128 }, geom);
//! assert_eq!(summarize(&kernel, SchedulerKind::Dcs, &timing, &geom), d.summary);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod epu;
pub mod functional;
pub mod geometry;
pub mod kernels;
pub mod module;
pub mod report;
pub mod sched;
pub mod timing;

pub use geometry::Geometry;
pub use report::{Breakdown, CommandTiming, ExecutionReport, ScheduleSummary};
pub use sched::{schedule, summarize, CommandSource, MacRun, SchedulerKind, SourceItem};
pub use timing::Timing;
