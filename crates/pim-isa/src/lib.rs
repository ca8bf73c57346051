//! PIM instruction set architecture for the PIMphony reproduction.
//!
//! This crate models the command-driven execution interface of an AiM-style
//! DRAM PIM module (paper §II-B, Table III):
//!
//! * [`PimInstruction`] — the three host-visible primitives `WR-INP`, `MAC`
//!   and `RD-OUT`, each carrying the argument set of Table III
//!   (`Ch-mask`, `Op-size`, `GPR-addr`, `GBuf-Idx`, `Out-Idx`, `Row/Col`).
//! * [`PimCommand`] — the channel-level commands the per-channel
//!   controller (in `pim-sim`) schedules. `pim-sim`'s kernel builders
//!   emit them directly.
//! * [`dpa`] — the Dynamic PIM Access extension (paper §VI): `Dyn-Loop` and
//!   `Dyn-Modi` instructions that make loop bounds and operand addresses
//!   token-length-dependent, so the instruction stream stays compact.
//! * [`size_model`] — the encoded instruction sizes that price the
//!   static and DPA stream footprints of Fig. 10(c).
//!
//! # Example
//!
//! ```
//! use pim_isa::{ChannelMask, InstructionKind, PimInstruction};
//!
//! // Broadcast a 4-tile input write to channels 0..4, starting at GBuf 0.
//! let inst = PimInstruction::wr_inp(ChannelMask::first(4), 4, 0x100, 0);
//! assert_eq!(inst.kind, InstructionKind::WrInp);
//! assert_eq!(inst.ch_mask.count(), 4);
//! assert_eq!(inst.to_string(), "WR-INP ch[0x0000000f] x4 gpr=0x100 gbuf=0");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod dpa;
pub mod instruction;
pub mod size_model;

pub use command::{CommandId, CommandKind, PimCommand};
pub use dpa::{DpaInstruction, DpaProgram, DynLoop, DynModi, LoopBound, OperandField};
pub use instruction::{ChannelMask, InstructionKind, PimInstruction};
