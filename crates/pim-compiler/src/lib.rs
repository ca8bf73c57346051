//! Attention partitioning and lowering for PIM (paper §IV, §VI-B).
//!
//! The paper implements PIMphony as MLIR passes over transformer decoding
//! graphs. This crate keeps the two parts the evaluation uses:
//!
//! * [`partition`] — workload partitioning across a module's channels:
//!   conventional Head-First Partitioning (HFP) vs PIMphony's
//!   Token-Centric Partitioning (TCP), under tensor or pipeline
//!   parallelism (paper §IV, Fig. 6). `system::stage::StageModel`
//!   prices every attention slice through it.
//! * [`lower`] — lowering of attention work to PIM instruction streams,
//!   either statically expanded for `T_max` or DPA-encoded (`Dyn-Loop` /
//!   `Dyn-Modi`) for runtime expansion, with their instruction
//!   footprints (Fig. 10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lower;
pub mod partition;

pub use lower::{lower_attention_dpa, lower_attention_static, LoweredFootprint};
pub use partition::{ChannelWork, ModulePartition, ParallelConfig, Partitioning, RequestSlice};
