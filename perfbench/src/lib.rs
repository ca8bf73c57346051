//! Host-speed benchmark of the PIMphony serving simulator.
//!
//! The simulator's own wall-clock is the quantity measured; its
//! simulated results are outputs, checked exactly. See `README.md` in
//! this directory for the workloads, the metrics and how to run it.

pub mod digest;
pub mod harness;
pub mod timing;
pub mod workloads;
