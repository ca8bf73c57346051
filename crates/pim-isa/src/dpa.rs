//! Dynamic PIM Access (DPA) instructions (paper §VI-B).
//!
//! Conventional PIM instruction streams embed fixed loop counts and physical
//! operand addresses, forcing worst-case (`T_max`) compilation. DPA adds two
//! instructions that make the stream token-length-dependent:
//!
//! * [`DynLoop`] — a loop whose repetition count is derived from the
//!   request's *actual* token length at decode time.
//! * [`DynModi`] — per-iteration operand adjustment (e.g. advancing a `MAC`
//!   row/column by a stride). In the paper these are *virtual* addresses
//!   that an on-module dispatcher translates through a VA2PA table.
//!
//! A [`DpaProgram`] is expanded against the current token length `T_cur`
//! into a concrete [`PimInstruction`] sequence. The model keeps the
//! expanded addresses as they are: DPA's capacity effect is modelled by
//! lazy chunk allocation (`pim-mem`'s `ChunkAllocator`), and its
//! instruction-buffer effect by the program's stored size.

use crate::instruction::PimInstruction;
use serde::{Deserialize, Serialize};

/// How a [`DynLoop`] derives its repetition count at decode time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoopBound {
    /// A compile-time fixed count (layers, heads, ...).
    Fixed(u32),
    /// `ceil(T_cur / divisor)` — e.g. one iteration per token tile. The
    /// paper's example: the `MAC` row index is `T_cur / (n_CH * n_Bank)`.
    TokensDiv {
        /// Number of tokens covered per iteration.
        divisor: u32,
    },
}

impl LoopBound {
    /// Resolves the bound for the current token length.
    ///
    /// # Panics
    /// Panics if a `TokensDiv` divisor is zero.
    pub fn resolve(self, t_cur: u64) -> u64 {
        match self {
            LoopBound::Fixed(n) => u64::from(n),
            LoopBound::TokensDiv { divisor } => {
                assert!(divisor > 0, "loop divisor must be nonzero");
                t_cur.div_ceil(u64::from(divisor))
            }
        }
    }
}

/// Which operand field of a body instruction a [`DynModi`] adjusts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperandField {
    /// The DRAM row address.
    Row,
    /// The column (tile) address within a row.
    Col,
    /// The Global Buffer entry index.
    GBufIdx,
    /// The output register/buffer entry index.
    OutIdx,
    /// The GPR base address.
    GprAddr,
}

/// A per-iteration operand modification inside a [`DynLoop`] body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DynModi {
    /// Index of the instruction within the loop body this modifier targets.
    pub target: u16,
    /// Field to adjust.
    pub field: OperandField,
    /// Signed stride added `iteration` times.
    pub stride: i64,
    /// Optional wrap modulus (e.g. column wraps at row width); `0` = none.
    pub modulo: u32,
}

impl DynModi {
    /// Creates a modifier without wrap-around.
    pub fn new(target: u16, field: OperandField, stride: i64) -> Self {
        DynModi {
            target,
            field,
            stride,
            modulo: 0,
        }
    }

    /// Creates a modifier that wraps at `modulo`.
    pub fn with_modulo(target: u16, field: OperandField, stride: i64, modulo: u32) -> Self {
        DynModi {
            target,
            field,
            stride,
            modulo,
        }
    }

    fn apply(&self, inst: &mut PimInstruction, iteration: u64) {
        let delta = self.stride * iteration as i64;
        let adjust_u16 = |base: u16| -> u16 {
            let v = i64::from(base) + delta;
            let v = if self.modulo > 0 {
                v.rem_euclid(i64::from(self.modulo))
            } else {
                v
            };
            u16::try_from(v.max(0)).unwrap_or(u16::MAX)
        };
        match self.field {
            OperandField::Row => {
                let v = i64::from(inst.row) + delta;
                let v = if self.modulo > 0 {
                    v.rem_euclid(i64::from(self.modulo))
                } else {
                    v
                };
                inst.row = u32::try_from(v.max(0)).unwrap_or(u32::MAX);
            }
            OperandField::Col => inst.col = adjust_u16(inst.col),
            OperandField::GBufIdx => inst.gbuf_idx = adjust_u16(inst.gbuf_idx),
            OperandField::OutIdx => inst.out_idx = adjust_u16(inst.out_idx),
            OperandField::GprAddr => {
                let v = i64::from(inst.gpr_addr) + delta;
                inst.gpr_addr = u32::try_from(v.max(0)).unwrap_or(u32::MAX);
            }
        }
    }
}

/// A loop whose bound is resolved at decode time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynLoop {
    /// Repetition count source.
    pub bound: LoopBound,
    /// Loop body (may nest further loops).
    pub body: Vec<DpaInstruction>,
    /// Per-iteration operand modifiers applied to body instructions.
    pub modifiers: Vec<DynModi>,
}

/// One element of a DPA-encoded instruction stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DpaInstruction {
    /// An ordinary instruction, emitted verbatim.
    Plain(PimInstruction),
    /// A dynamic loop.
    Loop(DynLoop),
}

/// A compact, runtime-expandable instruction program (paper Fig. 10(b)).
///
/// # Example
///
/// ```
/// use pim_isa::{ChannelMask, PimInstruction};
/// use pim_isa::dpa::{DpaProgram, DynLoop, DynModi, DpaInstruction, LoopBound, OperandField};
///
/// // One MAC per 256-token block, advancing the (virtual) row each time.
/// let mac = PimInstruction::mac(ChannelMask::first(16), 1, 0, 0, 0, 0);
/// let mut program = DpaProgram::new();
/// program.push(DpaInstruction::Loop(DynLoop {
///     bound: LoopBound::TokensDiv { divisor: 256 },
///     body: vec![DpaInstruction::Plain(mac)],
///     modifiers: vec![DynModi::new(0, OperandField::Row, 1)],
/// }));
/// let expanded = program.expand(1024);
/// assert_eq!(expanded.len(), 4);
/// assert_eq!(expanded[3].row, 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DpaProgram {
    instructions: Vec<DpaInstruction>,
}

impl DpaProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an element.
    pub fn push(&mut self, inst: DpaInstruction) {
        self.instructions.push(inst);
    }

    /// The top-level elements.
    pub fn instructions(&self) -> &[DpaInstruction] {
        &self.instructions
    }

    /// Expands the program for the current token length, producing the
    /// concrete instruction sequence a conventional PIM would have needed
    /// to store in full.
    pub fn expand(&self, t_cur: u64) -> Vec<PimInstruction> {
        let mut out = Vec::new();
        expand_into(&self.instructions, t_cur, &mut out);
        out
    }

    /// Number of *stored* elements (loops count once), before expansion.
    pub fn stored_len(&self) -> usize {
        fn count(insts: &[DpaInstruction]) -> usize {
            insts
                .iter()
                .map(|i| match i {
                    DpaInstruction::Plain(_) => 1,
                    DpaInstruction::Loop(l) => 1 + count(&l.body) + l.modifiers.len(),
                })
                .sum()
        }
        count(&self.instructions)
    }
}

impl FromIterator<DpaInstruction> for DpaProgram {
    fn from_iter<I: IntoIterator<Item = DpaInstruction>>(iter: I) -> Self {
        DpaProgram {
            instructions: iter.into_iter().collect(),
        }
    }
}

fn expand_into(insts: &[DpaInstruction], t_cur: u64, out: &mut Vec<PimInstruction>) {
    for inst in insts {
        match inst {
            DpaInstruction::Plain(p) => out.push(*p),
            DpaInstruction::Loop(l) => {
                let n = l.bound.resolve(t_cur);
                for iter in 0..n {
                    let start = out.len();
                    expand_into(&l.body, t_cur, out);
                    for m in &l.modifiers {
                        let idx = start + m.target as usize;
                        if let Some(slot) = out.get_mut(idx) {
                            m.apply(slot, iter);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::ChannelMask;

    fn mac() -> PimInstruction {
        PimInstruction::mac(ChannelMask::first(1), 1, 0, 0, 0, 0)
    }

    #[test]
    fn fixed_bound_resolves_constant() {
        assert_eq!(LoopBound::Fixed(7).resolve(123), 7);
    }

    #[test]
    fn tokens_div_rounds_up() {
        let b = LoopBound::TokensDiv { divisor: 256 };
        assert_eq!(b.resolve(1), 1);
        assert_eq!(b.resolve(256), 1);
        assert_eq!(b.resolve(257), 2);
        assert_eq!(b.resolve(0), 0);
    }

    #[test]
    fn modi_advances_row() {
        let mut program = DpaProgram::new();
        program.push(DpaInstruction::Loop(DynLoop {
            bound: LoopBound::Fixed(3),
            body: vec![DpaInstruction::Plain(mac())],
            modifiers: vec![DynModi::new(0, OperandField::Row, 2)],
        }));
        let rows: Vec<u32> = program.expand(0).iter().map(|i| i.row).collect();
        assert_eq!(rows, vec![0, 2, 4]);
    }

    #[test]
    fn modi_with_modulo_wraps() {
        let mut program = DpaProgram::new();
        program.push(DpaInstruction::Loop(DynLoop {
            bound: LoopBound::Fixed(5),
            body: vec![DpaInstruction::Plain(mac())],
            modifiers: vec![DynModi::with_modulo(0, OperandField::Col, 1, 3)],
        }));
        let cols: Vec<u16> = program.expand(0).iter().map(|i| i.col).collect();
        assert_eq!(cols, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn nested_loops_expand_product() {
        let inner = DynLoop {
            bound: LoopBound::Fixed(2),
            body: vec![DpaInstruction::Plain(mac())],
            modifiers: vec![DynModi::new(0, OperandField::Col, 1)],
        };
        let outer = DynLoop {
            bound: LoopBound::TokensDiv { divisor: 512 },
            body: vec![DpaInstruction::Loop(inner)],
            modifiers: vec![],
        };
        let program: DpaProgram = vec![DpaInstruction::Loop(outer)].into_iter().collect();
        assert_eq!(program.expand(1024).len(), 4);
    }

    #[test]
    fn stored_len_is_context_independent() {
        let mut program = DpaProgram::new();
        program.push(DpaInstruction::Loop(DynLoop {
            bound: LoopBound::TokensDiv { divisor: 16 },
            body: vec![DpaInstruction::Plain(mac())],
            modifiers: vec![DynModi::new(0, OperandField::Row, 1)],
        }));
        let stored = program.stored_len();
        assert_eq!(stored, 3);
        assert!(program.expand(1 << 20).len() > program.expand(16).len());
        assert_eq!(program.stored_len(), stored);
    }

    #[test]
    fn expansion_grows_with_tokens() {
        let mut program = DpaProgram::new();
        program.push(DpaInstruction::Loop(DynLoop {
            bound: LoopBound::TokensDiv { divisor: 256 },
            body: vec![DpaInstruction::Plain(mac())],
            modifiers: vec![],
        }));
        assert_eq!(program.expand(4096).len(), 16);
        assert_eq!(program.expand(8192).len(), 32);
    }
}
