//! Host-visible PIM instructions (paper Table III).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Bitmask selecting which PIM channels an instruction targets.
///
/// A module has at most 32 channels, so a `u32` suffices. The Multicast
/// Interconnect broadcasts the decoded commands to every set channel.
///
/// # Example
///
/// ```
/// use pim_isa::ChannelMask;
/// let mask = ChannelMask::first(3);
/// assert!(mask.contains(0) && mask.contains(2) && !mask.contains(3));
/// assert_eq!(mask.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChannelMask(u32);

impl ChannelMask {
    /// Mask with no channels selected.
    pub const EMPTY: ChannelMask = ChannelMask(0);

    /// Creates a mask from a raw bitset.
    pub fn from_bits(bits: u32) -> Self {
        ChannelMask(bits)
    }

    /// Mask selecting only channel `ch`.
    ///
    /// # Panics
    /// Panics if `ch >= 32`.
    pub fn single(ch: u8) -> Self {
        assert!(ch < 32, "channel index {ch} out of range");
        ChannelMask(1 << ch)
    }

    /// Mask selecting channels `0..n`.
    ///
    /// # Panics
    /// Panics if `n > 32`.
    pub fn first(n: u8) -> Self {
        assert!(n <= 32, "channel count {n} out of range");
        if n == 32 {
            ChannelMask(u32::MAX)
        } else {
            ChannelMask((1u32 << n) - 1)
        }
    }

    /// Returns the raw bitset.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Whether channel `ch` is selected.
    pub fn contains(self, ch: u8) -> bool {
        ch < 32 && self.0 & (1 << ch) != 0
    }

    /// Number of selected channels.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterates over selected channel indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        (0u8..32).filter(move |&ch| self.contains(ch))
    }

    /// Union of two masks.
    pub fn union(self, other: ChannelMask) -> ChannelMask {
        ChannelMask(self.0 | other.0)
    }
}

impl fmt::Display for ChannelMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch[{:#010x}]", self.0)
    }
}

/// The primitive operation an instruction performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstructionKind {
    /// Copy input tiles from the GPR to the Global Buffer.
    WrInp,
    /// Dot-product of a GBuf tile against an open DRAM row column, per bank.
    Mac,
    /// Copy accumulated outputs from the Output Registers to the GPR.
    RdOut,
}

impl fmt::Display for InstructionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstructionKind::WrInp => "WR-INP",
            InstructionKind::Mac => "MAC",
            InstructionKind::RdOut => "RD-OUT",
        };
        f.write_str(s)
    }
}

/// A host-visible PIM instruction with the argument set of Table III.
///
/// `op_size` is the repetition count the PIM HUB's instruction sequencer
/// unrolls (paper §II-B); each repetition advances the relevant addresses
/// (GPR address, GBuf index, column, or output index) by one unit so the
/// expanded commands access consecutive locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PimInstruction {
    /// Target channels.
    pub ch_mask: ChannelMask,
    /// Repetition count (>= 1).
    pub op_size: u32,
    /// Operation performed.
    pub kind: InstructionKind,
    /// Base GPR address for `WR-INP` / `RD-OUT` data movement.
    pub gpr_addr: u32,
    /// Base Global Buffer entry index (`WR-INP` destination, `MAC` source).
    pub gbuf_idx: u16,
    /// Base output register/buffer index (`MAC` destination, `RD-OUT` source).
    pub out_idx: u16,
    /// DRAM row address for `MAC`.
    pub row: u32,
    /// Base DRAM column (tile) address within the row for `MAC`.
    pub col: u16,
}

impl PimInstruction {
    /// Creates a `WR-INP` instruction copying `op_size` tiles from
    /// `gpr_addr` into GBuf entries starting at `gbuf_idx`.
    pub fn wr_inp(ch_mask: ChannelMask, op_size: u32, gpr_addr: u32, gbuf_idx: u16) -> Self {
        PimInstruction {
            ch_mask,
            op_size,
            kind: InstructionKind::WrInp,
            gpr_addr,
            gbuf_idx,
            out_idx: 0,
            row: 0,
            col: 0,
        }
    }

    /// Creates a `MAC` instruction performing `op_size` consecutive-column
    /// dot products of GBuf entries starting at `gbuf_idx` against row
    /// `row`, accumulating into `out_idx`.
    pub fn mac(
        ch_mask: ChannelMask,
        op_size: u32,
        gbuf_idx: u16,
        row: u32,
        col: u16,
        out_idx: u16,
    ) -> Self {
        PimInstruction {
            ch_mask,
            op_size,
            kind: InstructionKind::Mac,
            gpr_addr: 0,
            gbuf_idx,
            out_idx,
            row,
            col,
        }
    }

    /// Creates an `RD-OUT` instruction draining `op_size` output entries
    /// starting at `out_idx` to `gpr_addr`.
    pub fn rd_out(ch_mask: ChannelMask, op_size: u32, gpr_addr: u32, out_idx: u16) -> Self {
        PimInstruction {
            ch_mask,
            op_size,
            kind: InstructionKind::RdOut,
            gpr_addr,
            gbuf_idx: 0,
            out_idx,
            row: 0,
            col: 0,
        }
    }
}

impl fmt::Display for PimInstruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            InstructionKind::WrInp => write!(
                f,
                "WR-INP {} x{} gpr={:#x} gbuf={}",
                self.ch_mask, self.op_size, self.gpr_addr, self.gbuf_idx
            ),
            InstructionKind::Mac => write!(
                f,
                "MAC {} x{} gbuf={} row={} col={} out={}",
                self.ch_mask, self.op_size, self.gbuf_idx, self.row, self.col, self.out_idx
            ),
            InstructionKind::RdOut => write!(
                f,
                "RD-OUT {} x{} gpr={:#x} out={}",
                self.ch_mask, self.op_size, self.gpr_addr, self.out_idx
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_first_selects_prefix() {
        let m = ChannelMask::first(5);
        assert_eq!(m.count(), 5);
        for ch in 0..5 {
            assert!(m.contains(ch));
        }
        assert!(!m.contains(5));
    }

    #[test]
    fn mask_first_all_32() {
        let m = ChannelMask::first(32);
        assert_eq!(m.count(), 32);
        assert!(m.contains(31));
    }

    #[test]
    fn mask_single_and_union() {
        let m = ChannelMask::single(3).union(ChannelMask::single(7));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    #[should_panic]
    fn mask_single_out_of_range_panics() {
        let _ = ChannelMask::single(32);
    }

    #[test]
    fn empty_mask_has_no_channels() {
        assert_eq!(ChannelMask::EMPTY.count(), 0);
        assert_eq!(ChannelMask::EMPTY.iter().count(), 0);
    }

    #[test]
    fn constructors_set_kind() {
        let m = ChannelMask::first(1);
        assert_eq!(
            PimInstruction::wr_inp(m, 1, 0, 0).kind,
            InstructionKind::WrInp
        );
        assert_eq!(
            PimInstruction::mac(m, 1, 0, 0, 0, 0).kind,
            InstructionKind::Mac
        );
        assert_eq!(
            PimInstruction::rd_out(m, 1, 0, 0).kind,
            InstructionKind::RdOut
        );
    }

    #[test]
    fn display_is_nonempty() {
        let m = ChannelMask::first(2);
        for inst in [
            PimInstruction::wr_inp(m, 2, 0x40, 1),
            PimInstruction::mac(m, 3, 0, 7, 2, 1),
            PimInstruction::rd_out(m, 1, 0x80, 0),
        ] {
            assert!(!inst.to_string().is_empty());
        }
    }
}
