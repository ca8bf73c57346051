//! The conventional static in-order PIM controller (paper §V-A).
//!
//! Commands issue strictly in program order. Because the controller tracks
//! no per-entry state, it must assume any adjacent pair of commands of
//! conflicting *types* may conflict, and separates them by the predecessor's
//! full execution time:
//!
//! * `WR-INP → MAC`: wait `t_WR-INP` (the input tile might be the MAC's).
//! * `MAC → RD-OUT` and `MAC → WR-INP`: wait `t_MAC`.
//! * `RD-OUT → MAC`: wait `t_RD-OUT`.
//! * Same-type neighbours pipeline at `t_CCDS` (the hardware supports
//!   back-to-back same-type streaming).
//!
//! A [`MacRun`](super::MacRun)'s first `MAC` takes the general issue
//! step. Each later one issues `t_CCDS` after the previous one's start,
//! delayed only by refresh windows, so the run advances from one window
//! to the next in closed form.

use super::{CommandSource, Issuer, SourceItem};
use crate::report::{CommandTiming, ExecutionReport, ScheduleSummary};
use crate::timing::Timing;
use pim_isa::command::{CommandKind, CommandStream};

/// In-order scheduler with type-derived conservative gaps.
#[derive(Debug, Clone)]
pub struct StaticScheduler {
    timing: Timing,
}

impl StaticScheduler {
    /// Creates a static scheduler for a channel. It tracks no buffer
    /// entries, so the channel's geometry does not enter.
    pub fn new(timing: Timing) -> Self {
        StaticScheduler { timing }
    }

    /// Schedules the stream, returning timings and a stall breakdown.
    pub fn run(&self, stream: &CommandStream) -> ExecutionReport {
        let mut pass = Pass::new(self.timing);
        let mut timings = Vec::with_capacity(stream.len());
        for cmd in stream {
            let (issue, complete) = pass.step(cmd.kind);
            timings.push(CommandTiming {
                id: cmd.id,
                issue,
                complete,
            });
        }
        ExecutionReport {
            timings,
            summary: pass.finish(),
        }
    }

    /// Schedules the commands `source` emits, keeping only the scalar
    /// results.
    pub fn summarize(&self, source: &(impl CommandSource + ?Sized)) -> ScheduleSummary {
        let mut pass = Pass::new(self.timing);
        source.emit(
            #[inline(always)]
            |item| match item {
                SourceItem::Macs(run) if run.len > 0 => {
                    pass.step(run.first());
                    pass.mac_tail(u64::from(run.len - 1));
                }
                io => io.for_each_command(
                    #[inline(always)]
                    |kind| {
                        pass.step(kind);
                    },
                ),
            },
        );
        pass.finish()
    }
}

/// Command classes, indexing [`Pass`]'s gap and stall tables; `START`
/// stands for "no predecessor".
const WR_INP: usize = 0;
const MAC: usize = 1;
const RD_OUT: usize = 2;
const START: usize = 3;

fn class(kind: &CommandKind) -> usize {
    match kind {
        CommandKind::WrInp { .. } => WR_INP,
        CommandKind::Mac { .. } => MAC,
        CommandKind::RdOut { .. } => RD_OUT,
    }
}

/// The in-order issue loop's state: it stores nothing per command.
struct Pass {
    /// `gap[prev][cur]`: the minimum issue distance from a `prev`-class
    /// command to a `cur`-class successor (the module docs' rules).
    gap: [[u64; 3]; 4],
    t_ccds: u64,
    core: Issuer,
    /// Stall beyond the pipelined minimum, by the predecessor's class:
    /// `DT-GBuf`, pipeline and `DT-OutReg` (`START` collects none).
    stall: [u64; 4],
    prev: usize,
    prev_issue: u64,
}

impl Pass {
    fn new(t: Timing) -> Self {
        let c = t.t_ccds;
        Pass {
            gap: [
                [c, t.t_wr_inp, c],
                [t.t_mac, c, t.t_mac],
                [t.t_rd_out, t.t_rd_out, c],
                [0, 0, 0],
            ],
            t_ccds: c,
            core: Issuer::new(&t),
            stall: [0; 4],
            prev: START,
            prev_issue: 0,
        }
    }

    /// Issues the next command in program order; returns its issue and
    /// completion cycles.
    #[inline(always)]
    fn step(&mut self, kind: CommandKind) -> (u64, u64) {
        let core = &mut self.core;
        core.count_step();
        let cur = class(&kind);
        let mut ready = self.prev_issue + self.gap[self.prev][cur];
        // A MAC on the open row also waits for the row to finish opening;
        // a row switch is charged as it issues.
        if let CommandKind::Mac { row, .. } = kind {
            ready = ready.max(core.row_release(row));
        }
        let issue = core.issue_at(ready);
        self.stall[self.prev] += ready.saturating_sub(self.prev_issue + self.t_ccds);

        // For subsequent gaps, a row-switching MAC behaves as if issued
        // once its row finished opening (the static controller waits out
        // the full ACT/PRE window).
        let (start, complete) = match kind {
            CommandKind::WrInp { .. } => (issue, core.wr_inp(issue)),
            CommandKind::Mac { row, .. } => core.mac(row, issue),
            CommandKind::RdOut { .. } => (issue, core.rd_out(issue)),
        };
        self.prev = cur;
        self.prev_issue = start;
        (issue, complete)
    }

    /// Issues `m` more `MAC`s of the run the last step started: each
    /// follows a `MAC` on its open row, so it issues `t_CCDS` after the
    /// previous one's start with no stall but refresh.
    #[inline(always)]
    fn mac_tail(&mut self, m: u64) {
        self.prev_issue = self.core.mac_train(self.prev_issue, m);
    }

    fn finish(mut self) -> ScheduleSummary {
        let b = &mut self.core.breakdown;
        b.dt_gbuf += self.stall[WR_INP];
        b.pipeline += self.stall[MAC];
        b.dt_outreg += self.stall[RD_OUT];
        self.core.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::PimCommand;

    fn sched() -> StaticScheduler {
        StaticScheduler::new(Timing::aimx_no_refresh())
    }

    #[test]
    fn in_order_issue() {
        let mut s = CommandStream::new();
        for i in 0..6 {
            s.push(PimCommand::wr_inp(i, i as u16, 0));
        }
        let r = sched().run(&s);
        let issues: Vec<u64> = r.timings.iter().map(|t| t.issue).collect();
        // Same-type commands pipeline at t_CCDS = 2 (paper Fig. 7(b)).
        assert_eq!(issues, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn mac_after_write_waits_full_write() {
        let mut s = CommandStream::new();
        s.push(PimCommand::wr_inp(0, 0, 0));
        s.push(PimCommand::mac(1, 0, 0, 0, 0));
        let r = sched().run(&s);
        let t = Timing::aimx_no_refresh();
        assert_eq!(r.timings[1].issue, t.t_wr_inp);
    }

    #[test]
    fn rd_out_after_mac_waits_full_mac() {
        let mut s = CommandStream::new();
        s.push(PimCommand::mac(0, 0, 0, 0, 0));
        s.push(PimCommand::rd_out(1, 0, 0));
        let r = sched().run(&s);
        let t = Timing::aimx_no_refresh();
        // MAC at 0 opens a row, so RD-OUT waits row-open + t_mac.
        assert_eq!(r.timings[1].issue, t.row_switch() + t.t_mac);
        assert_eq!(r.summary.row_switches, 1);
    }

    #[test]
    fn row_switch_counted_once_per_row() {
        let mut s = CommandStream::new();
        s.push(PimCommand::mac(0, 0, 0, 0, 0));
        s.push(PimCommand::mac(1, 0, 0, 1, 0));
        s.push(PimCommand::mac(2, 0, 1, 0, 0));
        let r = sched().run(&s);
        assert_eq!(r.summary.row_switches, 2);
        // Back-to-back switches cannot hide behind MAC runs, so both cost
        // activation time.
        assert!(r.summary.breakdown.act_pre > Timing::aimx().row_switch());
    }

    #[test]
    fn refresh_accounted() {
        let t = Timing {
            t_refi: 20,
            t_rfc: 5,
            ..Timing::aimx()
        };
        let sched = StaticScheduler::new(t);
        let mut s = CommandStream::new();
        for i in 0..40 {
            s.push(PimCommand::wr_inp(i, (i % 8) as u16, 0));
        }
        let r = sched.run(&s);
        assert!(r.summary.refresh_events > 0);
        assert!(r.summary.breakdown.refresh > 0);
    }

    #[test]
    fn breakdown_sums_to_makespan() {
        let mut s = CommandStream::new();
        s.push(PimCommand::wr_inp(0, 0, 0));
        s.push(PimCommand::mac(1, 0, 0, 0, 0));
        s.push(PimCommand::rd_out(2, 0, 0));
        let r = sched().run(&s);
        assert_eq!(r.summary.breakdown.total(), r.summary.cycles);
    }
}
