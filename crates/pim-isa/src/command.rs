//! Channel-level PIM commands.
//!
//! In the paper's hardware, the Multicast Interconnect decodes each
//! [`PimInstruction`](crate::PimInstruction) into per-channel
//! [`PimCommand`]s. Here `pim-sim`'s kernel builders emit the commands
//! directly. These commands are what the PIM controller schedules; the
//! Dynamic Command Scheduler in `pim-sim` attaches dependency IDs to them
//! (paper Fig. 7(c)).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique identifier of a command within one channel's stream.
///
/// The DCS Dependency Table records, for each buffer entry, the ID of the
/// most recent command touching it; a later command's *Dependency ID* (DID)
/// points back at that command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CommandId(pub u32);

impl fmt::Display for CommandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The operation a channel-level command performs, with resolved addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommandKind {
    /// Write one 32 B input tile from the HUB into GBuf entry `gbuf_idx`.
    WrInp {
        /// Destination Global Buffer entry.
        gbuf_idx: u16,
        /// Source GPR address (for data routing; no scheduling effect).
        gpr_addr: u32,
    },
    /// Multiply GBuf entry `gbuf_idx` against column `col` of DRAM row
    /// `row` in every bank, accumulating into output entry `out_idx`.
    Mac {
        /// Source Global Buffer entry.
        gbuf_idx: u16,
        /// DRAM row (opening a different row costs ACT/PRE).
        row: u32,
        /// Column (tile) within the row.
        col: u16,
        /// Destination output register/buffer entry.
        out_idx: u16,
    },
    /// Drain output entry `out_idx` (2 B from each bank) to the HUB.
    RdOut {
        /// Source output register/buffer entry.
        out_idx: u16,
        /// Destination GPR address.
        gpr_addr: u32,
    },
}

impl CommandKind {
    /// Whether this is an I/O transfer (`WR-INP` / `RD-OUT`) as opposed to
    /// a compute (`MAC`) command. DCS routes I/O and compute into separate
    /// queues.
    #[inline]
    pub fn is_io(&self) -> bool {
        !matches!(self, CommandKind::Mac { .. })
    }

    /// The GBuf entry this command reads or writes, if any.
    #[inline]
    pub fn gbuf_entry(&self) -> Option<u16> {
        match self {
            CommandKind::WrInp { gbuf_idx, .. } => Some(*gbuf_idx),
            CommandKind::Mac { gbuf_idx, .. } => Some(*gbuf_idx),
            CommandKind::RdOut { .. } => None,
        }
    }

    /// The output entry this command reads or writes, if any.
    #[inline]
    pub fn out_entry(&self) -> Option<u16> {
        match self {
            CommandKind::WrInp { .. } => None,
            CommandKind::Mac { out_idx, .. } => Some(*out_idx),
            CommandKind::RdOut { out_idx, .. } => Some(*out_idx),
        }
    }
}

/// A fully decoded channel-level command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PimCommand {
    /// Stream-unique identifier (assigned in program order).
    pub id: CommandId,
    /// The operation and its addresses.
    pub kind: CommandKind,
}

impl PimCommand {
    /// Creates a command with the given id and kind.
    pub fn new(id: u32, kind: CommandKind) -> Self {
        PimCommand {
            id: CommandId(id),
            kind,
        }
    }

    /// Convenience constructor for a `WR-INP` command.
    pub fn wr_inp(id: u32, gbuf_idx: u16, gpr_addr: u32) -> Self {
        Self::new(id, CommandKind::WrInp { gbuf_idx, gpr_addr })
    }

    /// Convenience constructor for a `MAC` command.
    pub fn mac(id: u32, gbuf_idx: u16, row: u32, col: u16, out_idx: u16) -> Self {
        Self::new(
            id,
            CommandKind::Mac {
                gbuf_idx,
                row,
                col,
                out_idx,
            },
        )
    }

    /// Convenience constructor for an `RD-OUT` command.
    pub fn rd_out(id: u32, out_idx: u16, gpr_addr: u32) -> Self {
        Self::new(id, CommandKind::RdOut { out_idx, gpr_addr })
    }
}

impl fmt::Display for PimCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            CommandKind::WrInp { gbuf_idx, .. } => write!(f, "W{}(gbuf={})", self.id.0, gbuf_idx),
            CommandKind::Mac {
                gbuf_idx,
                row,
                col,
                out_idx,
            } => {
                write!(
                    f,
                    "M{}(gbuf={},r={},c={},out={})",
                    self.id.0, gbuf_idx, row, col, out_idx
                )
            }
            CommandKind::RdOut { out_idx, .. } => write!(f, "R{}(out={})", self.id.0, out_idx),
        }
    }
}

/// A per-channel command stream in program order.
///
/// Invariant: command IDs are strictly increasing (checked in debug builds
/// by [`CommandStream::push`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CommandStream {
    commands: Vec<PimCommand>,
}

impl CommandStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty stream with room for `capacity` commands, so a
    /// builder that knows its command count never reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        CommandStream {
            commands: Vec::with_capacity(capacity),
        }
    }

    /// Appends a command.
    ///
    /// # Panics
    /// Panics if `cmd.id` does not exceed the previous id. The check is
    /// a single compare and runs in release builds too — the
    /// `should_panic` test covering it must pass under `cargo test
    /// --release` (a `debug_assert!` here made the invariant silently
    /// unenforced in exactly the builds that serve real workloads).
    pub fn push(&mut self, cmd: PimCommand) {
        assert!(
            self.commands.last().map_or(true, |prev| prev.id < cmd.id),
            "command ids must be strictly increasing"
        );
        self.commands.push(cmd);
    }

    /// Appends a command with the next sequential id and returns that id.
    #[inline]
    pub fn push_next(&mut self, kind: CommandKind) -> CommandId {
        let id = CommandId(self.commands.len() as u32);
        self.commands.push(PimCommand { id, kind });
        id
    }

    /// The commands in program order.
    #[inline]
    pub fn commands(&self) -> &[PimCommand] {
        &self.commands
    }

    /// Number of commands.
    #[inline]
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// Whether the stream is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Iterates over commands in program order.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, PimCommand> {
        self.commands.iter()
    }

    /// Counts commands of each kind: `(wr_inp, mac, rd_out)`.
    pub fn kind_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for c in &self.commands {
            match c.kind {
                CommandKind::WrInp { .. } => counts.0 += 1,
                CommandKind::Mac { .. } => counts.1 += 1,
                CommandKind::RdOut { .. } => counts.2 += 1,
            }
        }
        counts
    }
}

impl FromIterator<PimCommand> for CommandStream {
    fn from_iter<I: IntoIterator<Item = PimCommand>>(iter: I) -> Self {
        let mut s = CommandStream::new();
        for c in iter {
            s.push(c);
        }
        s
    }
}

impl Extend<PimCommand> for CommandStream {
    fn extend<I: IntoIterator<Item = PimCommand>>(&mut self, iter: I) {
        for c in iter {
            self.push(c);
        }
    }
}

impl<'a> IntoIterator for &'a CommandStream {
    type Item = &'a PimCommand;
    type IntoIter = std::slice::Iter<'a, PimCommand>;
    fn into_iter(self) -> Self::IntoIter {
        self.commands.iter()
    }
}

impl IntoIterator for CommandStream {
    type Item = PimCommand;
    type IntoIter = std::vec::IntoIter<PimCommand>;
    fn into_iter(self) -> Self::IntoIter {
        self.commands.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_classification() {
        assert!(CommandKind::WrInp {
            gbuf_idx: 0,
            gpr_addr: 0
        }
        .is_io());
        assert!(CommandKind::RdOut {
            out_idx: 0,
            gpr_addr: 0
        }
        .is_io());
        assert!(!CommandKind::Mac {
            gbuf_idx: 0,
            row: 0,
            col: 0,
            out_idx: 0
        }
        .is_io());
    }

    #[test]
    fn entry_accessors() {
        let mac = CommandKind::Mac {
            gbuf_idx: 3,
            row: 1,
            col: 2,
            out_idx: 5,
        };
        assert_eq!(mac.gbuf_entry(), Some(3));
        assert_eq!(mac.out_entry(), Some(5));
        let w = CommandKind::WrInp {
            gbuf_idx: 7,
            gpr_addr: 0,
        };
        assert_eq!(w.gbuf_entry(), Some(7));
        assert_eq!(w.out_entry(), None);
        let r = CommandKind::RdOut {
            out_idx: 9,
            gpr_addr: 0,
        };
        assert_eq!(r.gbuf_entry(), None);
        assert_eq!(r.out_entry(), Some(9));
    }

    #[test]
    fn stream_push_next_assigns_sequential_ids() {
        let mut s = CommandStream::new();
        let a = s.push_next(CommandKind::WrInp {
            gbuf_idx: 0,
            gpr_addr: 0,
        });
        let b = s.push_next(CommandKind::Mac {
            gbuf_idx: 0,
            row: 0,
            col: 0,
            out_idx: 0,
        });
        assert_eq!(a, CommandId(0));
        assert_eq!(b, CommandId(1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic]
    fn stream_rejects_non_increasing_ids() {
        let mut s = CommandStream::new();
        s.push(PimCommand::wr_inp(5, 0, 0));
        s.push(PimCommand::wr_inp(5, 1, 0));
    }

    #[test]
    fn kind_counts_counts_all() {
        let s: CommandStream = vec![
            PimCommand::wr_inp(0, 0, 0),
            PimCommand::mac(1, 0, 0, 0, 0),
            PimCommand::mac(2, 0, 0, 1, 0),
            PimCommand::rd_out(3, 0, 0),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.kind_counts(), (1, 2, 1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(PimCommand::wr_inp(0, 4, 0).to_string(), "W0(gbuf=4)");
        assert_eq!(PimCommand::rd_out(2, 1, 0).to_string(), "R2(out=1)");
    }
}
