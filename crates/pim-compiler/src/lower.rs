//! Lowering attention work to PIM instruction streams.
//!
//! Two encodings are produced for the same kernel (paper Fig. 10):
//!
//! * **Static** — fully expanded for a worst-case `T_max`; operand
//!   addresses are baked in, so the stream grows linearly with context.
//! * **DPA** — a compact [`DpaProgram`] using `Dyn-Loop` over the token
//!   axis and `Dyn-Modi` column advancement, expanded against the
//!   request's current token length at decode time.
//!
//! Only the instruction footprint and count are modelled (Fig. 10(c)).
//! The lowered MAC row and output slot stay at 0: no simulated cycle
//! comes from these streams. `pim-sim`'s kernel builders fold tiles into
//! rows and rotate output slots instead.

use pim_isa::dpa::{DpaInstruction, DpaProgram, DynLoop, DynModi, LoopBound, OperandField};
use pim_isa::size_model::{DYN_LOOP_BYTES, DYN_MODI_BYTES, PLAIN_INSTRUCTION_BYTES};
use pim_isa::{ChannelMask, PimInstruction};
use serde::Serialize;

/// Shape of one channel's attention kernel for lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AttentionLowering {
    /// Channels the instruction stream is multicast to.
    pub channels: u8,
    /// Per-head feature dimension.
    pub head_dim: u32,
    /// Elements per tile (16 for fp16).
    pub elems_per_tile: u32,
    /// Banks per channel.
    pub banks: u32,
}

impl AttentionLowering {
    /// AiMX-flavoured default.
    pub fn aimx_default() -> Self {
        AttentionLowering {
            channels: 16,
            head_dim: 128,
            elems_per_tile: 16,
            banks: 16,
        }
    }

    fn in_tiles(&self) -> u32 {
        self.head_dim.div_ceil(self.elems_per_tile)
    }

    /// Tokens covered by one loop iteration (one output group spans
    /// `banks` tokens on each of `channels` channels).
    pub fn tokens_per_iteration(&self) -> u32 {
        u32::from(self.channels) * self.banks
    }
}

/// Byte footprint of a lowered kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LoweredFootprint {
    /// Stored instruction bytes.
    pub bytes: u64,
    /// Stored instruction count.
    pub instructions: u64,
}

/// Lowers one `QKᵀ` kernel to a DPA program: write the query once, then a
/// `Dyn-Loop` over token groups with `Dyn-Modi` advancing the MAC column
/// and the drain's GPR address.
pub fn lower_attention_dpa(shape: &AttentionLowering) -> DpaProgram {
    let mask = ChannelMask::first(shape.channels);
    let in_tiles = shape.in_tiles();
    let mut program = DpaProgram::new();
    // Query tiles into GBuf.
    program.push(DpaInstruction::Plain(PimInstruction::wr_inp(
        mask, in_tiles, 0, 0,
    )));
    // One iteration per token group: in_tiles MACs + one RD-OUT.
    let body = vec![
        DpaInstruction::Plain(PimInstruction::mac(mask, in_tiles, 0, 0, 0, 0)),
        DpaInstruction::Plain(PimInstruction::rd_out(mask, 1, 0, 0)),
    ];
    program.push(DpaInstruction::Loop(DynLoop {
        bound: LoopBound::TokensDiv {
            divisor: shape.tokens_per_iteration(),
        },
        body,
        modifiers: vec![
            // Advance the MAC's column by the group's tile span.
            DynModi::new(0, OperandField::Col, i64::from(in_tiles)),
            // Stagger the drain target across iterations.
            DynModi::new(1, OperandField::GprAddr, 32),
        ],
    }));
    program
}

/// Lowers one `QKᵀ` kernel to a fully expanded static stream sized for
/// `t_max` tokens.
pub fn lower_attention_static(shape: &AttentionLowering, t_max: u64) -> Vec<PimInstruction> {
    let mask = ChannelMask::first(shape.channels);
    let in_tiles = shape.in_tiles();
    let groups = t_max.div_ceil(u64::from(shape.tokens_per_iteration()));
    let mut out = Vec::with_capacity(1 + 2 * groups as usize);
    out.push(PimInstruction::wr_inp(mask, in_tiles, 0, 0));
    for grp in 0..groups {
        let col = (grp * u64::from(in_tiles)) as u16;
        out.push(PimInstruction::mac(mask, in_tiles, 0, 0, col, 0));
        out.push(PimInstruction::rd_out(mask, 1, (grp * 32) as u32, 0));
    }
    out
}

/// Footprint of a static lowering at `t_max`.
pub fn static_footprint(shape: &AttentionLowering, t_max: u64) -> LoweredFootprint {
    let n = lower_attention_static(shape, t_max).len() as u64;
    LoweredFootprint {
        bytes: n * PLAIN_INSTRUCTION_BYTES,
        instructions: n,
    }
}

/// Footprint of the DPA lowering (context-independent).
pub fn dpa_footprint(shape: &AttentionLowering) -> LoweredFootprint {
    let program = lower_attention_dpa(shape);
    let mut bytes = 0u64;
    let mut instructions = 0u64;
    fn walk(insts: &[DpaInstruction], bytes: &mut u64, count: &mut u64) {
        for i in insts {
            match i {
                DpaInstruction::Plain(_) => {
                    *bytes += PLAIN_INSTRUCTION_BYTES;
                    *count += 1;
                }
                DpaInstruction::Loop(l) => {
                    *bytes += DYN_LOOP_BYTES + l.modifiers.len() as u64 * DYN_MODI_BYTES;
                    *count += 1;
                    walk(&l.body, bytes, count);
                }
            }
        }
    }
    walk(program.instructions(), &mut bytes, &mut instructions);
    LoweredFootprint {
        bytes,
        instructions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpa_expansion_matches_static_command_counts() {
        let shape = AttentionLowering::aimx_default();
        for t in [4096u64, 32 * 1024, 128 * 1024] {
            let dpa = lower_attention_dpa(&shape).expand(t);
            let stat = lower_attention_static(&shape, t);
            assert_eq!(dpa.len(), stat.len(), "t={t}");
        }
    }

    #[test]
    fn dpa_footprint_is_context_free_and_small() {
        let shape = AttentionLowering::aimx_default();
        let d = dpa_footprint(&shape);
        let s4k = static_footprint(&shape, 4096);
        let s1m = static_footprint(&shape, 1 << 20);
        assert!(d.bytes < s4k.bytes);
        assert!(s1m.bytes > 100 * s4k.bytes / 2, "static grows ~linearly");
        // DPA is hundreds of times smaller at 1M tokens.
        assert!(s1m.bytes / d.bytes > 1000, "ratio {}", s1m.bytes / d.bytes);
    }

    #[test]
    fn static_stream_is_linear_in_tmax() {
        let shape = AttentionLowering::aimx_default();
        let a = static_footprint(&shape, 64 * 1024).instructions;
        let b = static_footprint(&shape, 128 * 1024).instructions;
        let ratio = b as f64 / a as f64;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn dpa_rows_advance_via_modifier() {
        let shape = AttentionLowering::aimx_default();
        let insts = lower_attention_dpa(&shape).expand(3 * 256);
        let mac_cols: Vec<u16> = insts
            .iter()
            .filter(|i| i.kind == pim_isa::InstructionKind::Mac)
            .map(|i| i.col)
            .collect();
        assert_eq!(mac_cols, vec![0, 8, 16]);
    }

    #[test]
    fn tokens_per_iteration_matches_geometry() {
        let shape = AttentionLowering::aimx_default();
        assert_eq!(shape.tokens_per_iteration(), 256);
    }
}
