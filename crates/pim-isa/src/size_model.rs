//! Encoded instruction sizes behind the footprints of paper Fig. 10(c).
//!
//! Conventional PIM systems compile one instruction per unit of work, so
//! the stream size grows linearly with token length; DPA's loop encoding
//! keeps the stored stream nearly constant. `pim_compiler::lower` lowers
//! both encodings and prices their footprints with these sizes.

/// Encoded size of one plain PIM instruction, in bytes.
///
/// Table III's argument set (ch-mask 4 B, op-size 2 B, opcode 1 B, address
/// fields) packs into a 16 B slot on AiMX-style hardware.
pub const PLAIN_INSTRUCTION_BYTES: u64 = 16;

/// Encoded size of a `Dyn-Loop` header (bound source + body length).
pub const DYN_LOOP_BYTES: u64 = 8;

/// Encoded size of a `Dyn-Modi` entry (target, field, stride, modulo).
pub const DYN_MODI_BYTES: u64 = 8;
