//! PIM command schedulers.
//!
//! Three controller designs are modeled (paper §V):
//!
//! * [`SchedulerKind::Static`] — the conventional in-order controller that
//!   separates consecutive commands by worst-case gaps derived from command
//!   execution times, with no per-entry dependency tracking.
//! * [`SchedulerKind::PingPong`] — the prior-work double-buffering scheme:
//!   I/O and MAC may overlap only when touching different buffer *halves*;
//!   hand-offs between halves stall (modeled as half-granular dependency
//!   tracking).
//! * [`SchedulerKind::Dcs`] — PIMphony's Dynamic Command Scheduling:
//!   per-entry D-Table/S-Table tracking, split I/O and compute queues with
//!   out-of-order issue across queues, and the `is-MAC` fast path that lets
//!   back-to-back MACs on one OBuf entry issue at `t_CCDS`.
//!
//! All schedulers only reorder *timing*; they never change results. The
//! [`crate::checker`] module replays any schedule against the hazard rules
//! to prove this.
//!
//! Each scheduler has one issue loop behind two entry points:
//! [`schedule`] records every command's [`crate::CommandTiming`], while
//! [`summarize`] keeps only the scalar results and takes its commands
//! from any [`CommandSource`], so a kernel builder can feed it without
//! materializing a [`CommandStream`].
//!
//! A source emits `WR-INP`s, `RD-OUT`s and [`MacRun`]s: `MAC`s on one
//! DRAM row that issue back to back in program order. A run's first
//! `MAC` takes the loop's general issue step. A later one follows a
//! `MAC` on its open row, so the static controller issues it `t_CCDS`
//! after the previous one's start, delayed only by refresh, and advances
//! the whole run from one refresh window to the next in closed form. DCS
//! and ping-pong issue it when the bus frees, without weighing the I/O
//! queue, as long as nothing else holds it. A [`CommandStream`] emits
//! each `MAC` as a run of one, so [`schedule`] takes the general step for
//! every command, and per-command timings and the stall attribution are
//! the same on both entry points.

mod dynamic;
mod static_sched;

pub use dynamic::{DynamicScheduler, Tracking};
pub use static_sched::StaticScheduler;

use crate::geometry::Geometry;
use crate::report::{Breakdown, ExecutionReport, ScheduleSummary};
use crate::timing::Timing;
use pim_isa::command::{CommandKind, CommandStream};
use serde::{Deserialize, Serialize};

/// Which controller scheduling policy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Conservative in-order issue with type-derived gaps.
    Static,
    /// Double-buffered overlap at buffer-half granularity.
    PingPong,
    /// PIMphony's dependency-aware dynamic scheduling.
    Dcs,
}

impl SchedulerKind {
    /// All scheduler kinds, for sweeps.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Static,
        SchedulerKind::PingPong,
        SchedulerKind::Dcs,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Static => "static",
            SchedulerKind::PingPong => "ping-pong",
            SchedulerKind::Dcs => "dcs",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Schedules `stream` on one channel under the given policy.
///
/// # Example
///
/// ```
/// use pim_isa::command::{CommandStream, PimCommand};
/// use pim_sim::{schedule, Geometry, SchedulerKind, Timing};
///
/// let mut s = CommandStream::new();
/// s.push(PimCommand::wr_inp(0, 0, 0));
/// s.push(PimCommand::mac(1, 0, 0, 0, 0));
/// s.push(PimCommand::rd_out(2, 0, 0));
/// let report = schedule(&s, SchedulerKind::Dcs, &Timing::aimx_no_refresh(), &Geometry::pimphony());
/// assert_eq!(report.timings.len(), 3);
/// ```
pub fn schedule(
    stream: &CommandStream,
    kind: SchedulerKind,
    timing: &Timing,
    geometry: &Geometry,
) -> ExecutionReport {
    let report = match kind {
        SchedulerKind::Static => StaticScheduler::new(*timing).run(stream),
        SchedulerKind::PingPong => {
            DynamicScheduler::new(*timing, *geometry, Tracking::PerHalf).run(stream)
        }
        SchedulerKind::Dcs => {
            DynamicScheduler::new(*timing, *geometry, Tracking::PerEntry).run(stream)
        }
    };
    debug_assert_eq!(report.summary.breakdown.total(), report.summary.cycles);
    report
}

/// Scalar results of scheduling the commands `source` emits: exactly
/// the summary of [`schedule`]'s report, from the same issue loop,
/// without the per-command timings.
///
/// # Example
///
/// ```
/// use pim_sim::kernels::{AttentionSpec, QktKernel};
/// use pim_sim::{schedule, summarize, Geometry, SchedulerKind, Timing};
///
/// let geom = Geometry::pimphony();
/// let kernel = QktKernel::new(AttentionSpec::mha(512, 128), geom);
/// let timing = Timing::aimx();
/// let totals = summarize(&kernel, SchedulerKind::Dcs, &timing, &geom);
/// let report = schedule(&kernel.stream(), SchedulerKind::Dcs, &timing, &geom);
/// assert_eq!(totals, report.summary);
/// ```
pub fn summarize(
    source: &(impl CommandSource + ?Sized),
    kind: SchedulerKind,
    timing: &Timing,
    geometry: &Geometry,
) -> ScheduleSummary {
    let summary = match kind {
        SchedulerKind::Static => StaticScheduler::new(*timing).summarize(source),
        SchedulerKind::PingPong => {
            DynamicScheduler::new(*timing, *geometry, Tracking::PerHalf).summarize(source)
        }
        SchedulerKind::Dcs => {
            DynamicScheduler::new(*timing, *geometry, Tracking::PerEntry).summarize(source)
        }
    };
    debug_assert_eq!(summary.breakdown.total(), summary.cycles);
    summary
}

/// A program-order source of one channel's commands: a built
/// [`CommandStream`], or a kernel builder that emits its commands
/// without storing them.
pub trait CommandSource {
    /// Calls `f` with each item in program order: a `WR-INP`, an
    /// `RD-OUT`, or a [`MacRun`] of back-to-back `MAC`s.
    fn emit(&self, f: impl FnMut(SourceItem));
}

impl CommandSource for CommandStream {
    /// Emits each command on its own; a `MAC` is a run of one.
    fn emit(&self, mut f: impl FnMut(SourceItem)) {
        for cmd in self {
            f(SourceItem::from(cmd.kind));
        }
    }
}

/// One item of a [`CommandSource`]: an I/O command, or a run of `MAC`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceItem {
    /// Write one input tile into GBuf entry `gbuf_idx`.
    WrInp {
        /// Destination Global Buffer entry.
        gbuf_idx: u16,
        /// Source GPR address.
        gpr_addr: u32,
    },
    /// Drain output entry `out_idx`.
    RdOut {
        /// Source output register/buffer entry.
        out_idx: u16,
        /// Destination GPR address.
        gpr_addr: u32,
    },
    /// `MAC`s that issue back to back in program order on one row.
    Macs(MacRun),
}

impl SourceItem {
    /// Calls `f` with each command this item stands for, in program
    /// order.
    #[inline(always)]
    pub fn for_each_command(self, mut f: impl FnMut(CommandKind)) {
        match self {
            SourceItem::WrInp { gbuf_idx, gpr_addr } => {
                f(CommandKind::WrInp { gbuf_idx, gpr_addr })
            }
            SourceItem::RdOut { out_idx, gpr_addr } => f(CommandKind::RdOut { out_idx, gpr_addr }),
            SourceItem::Macs(run) => run.for_each_command(f),
        }
    }
}

impl From<CommandKind> for SourceItem {
    /// The item of one command; a `MAC` becomes a run of one.
    #[inline(always)]
    fn from(kind: CommandKind) -> Self {
        match kind {
            CommandKind::WrInp { gbuf_idx, gpr_addr } => SourceItem::WrInp { gbuf_idx, gpr_addr },
            CommandKind::RdOut { out_idx, gpr_addr } => SourceItem::RdOut { out_idx, gpr_addr },
            CommandKind::Mac {
                gbuf_idx,
                row,
                col,
                out_idx,
            } => SourceItem::Macs(MacRun::accumulate(gbuf_idx, row, col, out_idx, 1)),
        }
    }
}

/// `len` `MAC`s on DRAM row `row` that issue back to back in program
/// order. The first reads GBuf entry `gbuf_idx` and column `col` into
/// output entry `out_idx`; each later one steps the three by
/// `gbuf_step`, `col_step` and `out_step`.
///
/// The kernel builders emit two shapes, each cut at row boundaries:
/// consecutive tiles into one accumulator ([`MacRun::accumulate`]) and
/// one tile fanned out over consecutive accumulators
/// ([`MacRun::fan_out`]). The schedulers issue a run's later `MAC`s
/// without a general issue step while nothing but the bus holds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacRun {
    /// The first `MAC`'s GBuf entry.
    pub gbuf_idx: u16,
    /// The run's DRAM row.
    pub row: u32,
    /// The first `MAC`'s column.
    pub col: u16,
    /// The first `MAC`'s output entry.
    pub out_idx: u16,
    /// `MAC`s in the run; an empty run stands for no command.
    pub len: u32,
    /// GBuf entry step from one `MAC` to the next.
    pub gbuf_step: u16,
    /// Column step from one `MAC` to the next.
    pub col_step: u16,
    /// Output entry step from one `MAC` to the next.
    pub out_step: u16,
}

impl MacRun {
    /// `len` consecutive tiles from `(row, col)`, reading consecutive
    /// GBuf entries from `gbuf_idx`, into the one accumulator `out_idx`.
    #[inline(always)]
    pub fn accumulate(gbuf_idx: u16, row: u32, col: u16, out_idx: u16, len: u32) -> Self {
        MacRun {
            gbuf_idx,
            row,
            col,
            out_idx,
            len,
            gbuf_step: 1,
            col_step: 1,
            out_step: 0,
        }
    }

    /// The one tile `(row, col)` into `len` consecutive accumulators
    /// from `out_idx`, the GBuf entry stepping by `gbuf_stride` from
    /// `gbuf_idx`.
    #[inline(always)]
    pub fn fan_out(
        gbuf_idx: u16,
        gbuf_stride: u16,
        row: u32,
        col: u16,
        out_idx: u16,
        len: u32,
    ) -> Self {
        MacRun {
            gbuf_idx,
            row,
            col,
            out_idx,
            len,
            gbuf_step: gbuf_stride,
            col_step: 0,
            out_step: 1,
        }
    }

    /// The run's first `MAC`.
    #[inline(always)]
    pub fn first(&self) -> CommandKind {
        CommandKind::Mac {
            gbuf_idx: self.gbuf_idx,
            row: self.row,
            col: self.col,
            out_idx: self.out_idx,
        }
    }

    /// Calls `f` with each of the run's `MAC`s, in program order.
    #[inline(always)]
    pub fn for_each_command(&self, mut f: impl FnMut(CommandKind)) {
        let (mut gbuf_idx, mut col, mut out_idx) = (self.gbuf_idx, self.col, self.out_idx);
        for _ in 0..self.len {
            f(CommandKind::Mac {
                gbuf_idx,
                row: self.row,
                col,
                out_idx,
            });
            gbuf_idx = gbuf_idx.wrapping_add(self.gbuf_step);
            col = col.wrapping_add(self.col_step);
            out_idx = out_idx.wrapping_add(self.out_step);
        }
    }
}

/// Issue-time state both engines share: refresh, the open DRAM row, and
/// the counters a [`ScheduleSummary`] reports.
#[derive(Debug, Clone)]
pub(crate) struct Issuer {
    timing: Timing,
    refresh: RefreshState,
    open_row: Option<u32>,
    row_ready: u64,
    /// The end of the latest stall charged: no cycle before it is
    /// charged again.
    stall_end: u64,
    pub breakdown: Breakdown,
    makespan: u64,
    wr_inp_count: u64,
    mac_count: u64,
    rd_out_count: u64,
    row_switches: u64,
    #[cfg(test)]
    work: Work,
}

impl Issuer {
    pub(crate) fn new(timing: &Timing) -> Self {
        Issuer {
            timing: *timing,
            refresh: RefreshState::new(timing),
            open_row: None,
            row_ready: 0,
            stall_end: 0,
            breakdown: Breakdown::default(),
            makespan: 0,
            wr_inp_count: 0,
            mac_count: 0,
            rd_out_count: 0,
            row_switches: 0,
            #[cfg(test)]
            work: Work::default(),
        }
    }

    /// Counts one general issue step (test builds only).
    #[inline(always)]
    pub(crate) fn count_step(&mut self) {
        #[cfg(test)]
        {
            self.work.steps += 1;
        }
    }

    /// Counts `n` `MAC`s advanced inside a run without a general issue
    /// step (test builds only).
    #[inline(always)]
    pub(crate) fn count_run_macs(&mut self, n: u64) {
        #[cfg(test)]
        {
            self.work.run_macs += n;
        }
        let _ = n;
    }

    /// Counts one evaluation of the compute queue's head (test builds
    /// only).
    #[inline(always)]
    pub(crate) fn count_head_eval(&mut self) {
        #[cfg(test)]
        {
            self.work.head_evals += 1;
        }
    }

    /// Records the D-Table region writes of the walk that prepared this
    /// schedule.
    #[cfg(test)]
    pub(crate) fn count_dtable_writes(&mut self, n: u64) {
        self.work.dtable_writes = n;
    }

    /// Earliest issue a `MAC` on `row` may take for the row's sake: when
    /// the row is already open, the cycle it finished opening; otherwise
    /// 0, since the switch is charged as the MAC issues.
    #[inline]
    pub(crate) fn row_release(&self, row: u32) -> u64 {
        if self.open_row == Some(row) {
            self.row_ready
        } else {
            0
        }
    }

    /// The cycles of the stall `[from, to)` that no earlier stall
    /// charged, to be charged to one category. Stalls arrive in order of
    /// their start, so only a row switch's, which runs ahead of the bus,
    /// can overlap a later one.
    #[inline]
    pub(crate) fn stall(&mut self, from: u64, to: u64) -> u64 {
        if to <= from {
            return 0;
        }
        let cycles = to.saturating_sub(from.max(self.stall_end));
        self.stall_end = self.stall_end.max(to);
        cycles
    }

    /// The busy cycles one `MAC` charges: its bus slot, `t_CCDS`, or
    /// `t_MAC` if the accumulation is shorter.
    #[inline]
    fn mac_slot(&self) -> u64 {
        self.timing.t_ccds.min(self.timing.t_mac)
    }

    /// Charges the bus slot of a `MAC` issued at `issue` as busy time. A
    /// row switch's stall can run past the bus: the part of it under the
    /// slot is given back, so no cycle is charged twice.
    #[inline]
    pub(crate) fn occupy(&mut self, issue: u64) {
        let end = issue + self.mac_slot();
        self.breakdown.act_pre -= end.min(self.stall_end).saturating_sub(issue);
        self.stall_end = self.stall_end.max(end);
    }

    /// Pushes a command ready at `ready` past any refresh window,
    /// accounting the stall, and returns its issue cycle.
    #[inline]
    pub(crate) fn issue_at(&mut self, ready: u64) -> u64 {
        let issue = self.refresh.adjust(ready);
        self.breakdown.refresh += self.stall(ready, issue);
        issue
    }

    /// Completes a `WR-INP` issued at `issue`; returns its completion.
    #[inline]
    pub(crate) fn wr_inp(&mut self, issue: u64) -> u64 {
        self.wr_inp_count += 1;
        self.retire(issue + self.timing.t_wr_inp)
    }

    /// Completes an `RD-OUT` issued at `issue`; returns its completion.
    #[inline]
    pub(crate) fn rd_out(&mut self, issue: u64) -> u64 {
        self.rd_out_count += 1;
        self.retire(issue + self.timing.t_rd_out)
    }

    /// Completes a `MAC` on `row` issued at `issue`, opening the row if
    /// it is not open; returns `(start, complete)`, where `start` is the
    /// cycle the row is ready and the accumulation begins.
    #[inline]
    pub(crate) fn mac(&mut self, row: u32, issue: u64) -> (u64, u64) {
        let t = self.timing;
        self.mac_count += 1;
        let start = if self.open_row == Some(row) {
            issue.max(self.row_ready)
        } else {
            self.row_switches += 1;
            self.open_row = Some(row);
            // Row opening pipelines behind ongoing reads (bank groups
            // prepare the next row while the current one streams):
            // back-to-back switches are spaced by the row cycle, but a
            // switch after a long MAC run is fully hidden.
            let new_ready = issue.max(self.row_ready + t.row_switch());
            self.breakdown.act_pre += self.stall(issue, new_ready);
            self.row_ready = new_ready;
            new_ready
        };
        (start, self.retire(start + t.t_mac))
    }

    /// Issues `m` more `MAC`s on the open row after one that started at
    /// `start`, each `t_CCDS` after the previous one's issue and pushed
    /// only past refresh windows (the static controller's same-type
    /// pipelining); returns the last one's issue, or `start` when `m`
    /// is 0. The row must have finished opening by `start`.
    #[inline]
    pub(crate) fn mac_train(&mut self, start: u64, m: u64) -> u64 {
        let (last, stall) = self.refresh.adjust_pipelined(start, self.timing.t_ccds, m);
        self.breakdown.refresh += stall;
        self.mac_count += m;
        self.count_run_macs(m);
        self.retire(last + self.timing.t_mac);
        last
    }

    /// Issues `m` `MAC`s on the open row, the first ready at `ready` and
    /// each later one when the bus frees after the previous one's issue,
    /// every one pushed only past refresh windows; calls `each` with
    /// each issue in turn and returns the last. The row must have
    /// finished opening by `ready`, and `m` must be at least 1.
    #[inline(always)]
    pub(crate) fn mac_burst(&mut self, mut ready: u64, m: u32, mut each: impl FnMut(u64)) -> u64 {
        debug_assert!(m > 0 && self.row_ready <= ready);
        let mut issue = ready;
        for _ in 0..m {
            issue = self.issue_at(ready);
            each(issue);
            ready = issue + self.timing.t_ccds;
        }
        self.mac_count += u64::from(m);
        self.count_run_macs(u64::from(m));
        self.retire(issue + self.timing.t_mac);
        issue
    }

    #[inline]
    fn retire(&mut self, complete: u64) -> u64 {
        self.makespan = self.makespan.max(complete);
        complete
    }

    /// The scalar results: busy MAC time is a slot per `MAC`, and the
    /// makespan not attributed to any stall is residual pipeline time.
    /// Busy slots and stalls never share a cycle, so they fit in the
    /// makespan and the breakdown sums to it.
    pub(crate) fn finish(self) -> ScheduleSummary {
        #[cfg(test)]
        WORK.with(|w| w.set(self.work));
        let mut breakdown = self.breakdown;
        breakdown.mac = self.mac_count * self.mac_slot();
        let attributed = breakdown.total();
        debug_assert!(
            attributed <= self.makespan,
            "{attributed} cycles attributed in a makespan of {}: {breakdown:?}",
            self.makespan
        );
        breakdown.pipeline += self.makespan - attributed;
        ScheduleSummary {
            cycles: self.makespan,
            breakdown,
            mac_count: self.mac_count,
            wr_inp_count: self.wr_inp_count,
            rd_out_count: self.rd_out_count,
            row_switches: self.row_switches,
            refresh_events: self.refresh.events,
        }
    }
}

/// Shared refresh bookkeeping used by both engines.
#[derive(Debug, Clone)]
pub(crate) struct RefreshState {
    next: u64,
    interval: u64,
    duration: u64,
    pub events: u64,
}

impl RefreshState {
    pub(crate) fn new(timing: &Timing) -> Self {
        RefreshState {
            next: if timing.t_refi == 0 {
                u64::MAX
            } else {
                timing.t_refi
            },
            interval: timing.t_refi.max(1),
            duration: timing.t_rfc,
            events: 0,
        }
    }

    /// Pushes a candidate issue time past any refresh windows it collides
    /// with, counting every window crossed. The caller accounts the stall
    /// (the returned time minus `t`).
    pub(crate) fn adjust(&mut self, mut t: u64) -> u64 {
        while t >= self.next {
            let window_end = self.next + self.duration;
            if t < window_end {
                t = window_end;
            }
            self.next += self.interval;
            self.events += 1;
        }
        t
    }

    /// Issues `m` commands at `t + c`, then each `c` after the previous
    /// one's issue, every one pushed past the refresh windows it meets:
    /// exactly `m` calls of [`RefreshState::adjust`], but the commands
    /// between two windows advance in one step. Returns the last issue
    /// (`t` when `m` is 0) and the summed refresh stall.
    pub(crate) fn adjust_pipelined(&mut self, mut t: u64, c: u64, mut m: u64) -> (u64, u64) {
        let mut stall = 0;
        while m > 0 {
            // The commands that issue before the next window: those with
            // `t + k·c < next`.
            let clear = if t < self.next {
                (self.next - t - 1).checked_div(c).map_or(m, |k| k.min(m))
            } else {
                0
            };
            t += clear * c;
            m -= clear;
            if m == 0 {
                break;
            }
            let ready = t + c;
            t = self.adjust(ready);
            stall += t - ready;
            m -= 1;
        }
        (t, stall)
    }
}

/// Issue work of one schedule, counted in test builds only: general
/// issue steps, and `MAC`s advanced inside a run without one; for the
/// dynamic engine also the D-Table region writes of its walk and the
/// evaluations of its compute queue's head.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Work {
    pub steps: u64,
    pub run_macs: u64,
    pub dtable_writes: u64,
    pub head_evals: u64,
}

#[cfg(test)]
thread_local! {
    /// The [`Work`] of the last schedule finished on this thread.
    pub(crate) static WORK: std::cell::Cell<Work> = std::cell::Cell::default();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::PimCommand;

    fn tiny_stream() -> CommandStream {
        let mut s = CommandStream::new();
        s.push(PimCommand::wr_inp(0, 0, 0));
        s.push(PimCommand::mac(1, 0, 0, 0, 0));
        s.push(PimCommand::rd_out(2, 0, 0));
        s
    }

    #[test]
    fn all_schedulers_cover_all_commands() {
        let s = tiny_stream();
        for kind in SchedulerKind::ALL {
            let r = schedule(&s, kind, &Timing::aimx_no_refresh(), &Geometry::pimphony());
            assert_eq!(r.timings.len(), 3, "{kind}");
            assert!(r.summary.cycles > 0, "{kind}");
        }
    }

    #[test]
    fn summarize_matches_schedule_on_every_calibration_shape() {
        for timing in [Timing::aimx(), Timing::aimx_no_refresh()] {
            for (label, geom, kernel) in crate::kernels::calibration_kernels() {
                let stream = kernel.stream();
                let mut emitted = Vec::new();
                kernel.emit(|item| item.for_each_command(|kind| emitted.push(kind)));
                assert!(
                    emitted.iter().eq(stream.iter().map(|c| &c.kind)),
                    "emit vs stream: {label}"
                );
                for kind in SchedulerKind::ALL {
                    let want = schedule(&stream, kind, &timing, &geom).summary;
                    // Every stall cycle is charged once, so the breakdown
                    // sums to the makespan.
                    assert_eq!(want.breakdown.total(), want.cycles, "{kind} {label}");
                    let from_stream = summarize(&stream, kind, &timing, &geom);
                    assert_eq!(from_stream, want, "{kind} {label} {timing:?}");
                    let from_kernel = summarize(&kernel, kind, &timing, &geom);
                    assert_eq!(from_kernel, want, "{kind} {label} {timing:?}");
                }
            }
        }
    }

    /// Calls `f` with every kernel shape the `paper_ladder` benchmark
    /// calibrates, labelled, as a summary under a design: both attention
    /// kernels (d_h = 128) at 512 and 4,096 tokens for groups 1/2/4/8,
    /// with row reuse under DCS for groups above 1, and the FC GEMVs of
    /// its PIM-only cells.
    fn for_each_ladder_kernel(
        mut f: impl FnMut(String, &dyn Fn(SchedulerKind, Geometry) -> ScheduleSummary),
    ) {
        use crate::kernels::{AttentionSpec, GemvKernel, GemvSpec, QktKernel, SvKernel};
        const GEMVS: [(u32, u32); 35] = [
            (1, 8192),
            (2, 8192),
            (4, 4096),
            (4, 8192),
            (8, 4096),
            (8, 8192),
            (8, 24576),
            (16, 4096),
            (16, 8192),
            (16, 12288),
            (16, 24576),
            (24, 8192),
            (32, 4096),
            (32, 8192),
            (32, 12288),
            (32, 24576),
            (48, 4096),
            (48, 8192),
            (64, 4096),
            (64, 8192),
            (64, 12288),
            (64, 24576),
            (96, 4096),
            (96, 8192),
            (128, 4096),
            (128, 8192),
            (128, 12288),
            (128, 24576),
            (192, 4096),
            (192, 8192),
            (256, 8192),
            (256, 24576),
            (384, 4096),
            (384, 8192),
            (768, 8192),
        ];
        let timing = Timing::aimx();
        for tokens in [512, 4096] {
            for group_size in [1, 2, 4, 8] {
                let spec = |kind| AttentionSpec {
                    tokens,
                    head_dim: 128,
                    group_size,
                    row_reuse: kind == SchedulerKind::Dcs && group_size > 1,
                };
                f(format!("qkt/{tokens}/g{group_size}"), &|kind, geom| {
                    summarize(&QktKernel::new(spec(kind), geom), kind, &timing, &geom)
                });
                f(format!("sv/{tokens}/g{group_size}"), &|kind, geom| {
                    summarize(&SvKernel::new(spec(kind), geom), kind, &timing, &geom)
                });
            }
        }
        for (dout, din) in GEMVS {
            f(format!("gemv/{dout}x{din}"), &|kind, geom| {
                let kernel = GemvKernel::new(GemvSpec { dout, din }, geom);
                summarize(&kernel, kind, &timing, &geom)
            });
        }
    }

    /// The general issue steps each scheduler takes, against the `MAC`s
    /// it advances inside runs, on every `paper_ladder` kernel shape:
    /// static on baseline buffers and DCS on PIMphony buffers. The counts
    /// do not depend on the machine, so the work removed from the issue
    /// loops is pinned exactly.
    #[test]
    fn issue_work_is_pinned() {
        let designs = [
            (SchedulerKind::Static, Geometry::baseline()),
            (SchedulerKind::Dcs, Geometry::pimphony()),
        ];
        let mut out = String::from("kernel scheduler commands steps run_macs\n");
        let mut total = [0u64; 3];
        for_each_ladder_kernel(|label, summary_of| {
            for (kind, geom) in designs {
                let summary = summary_of(kind, geom);
                let work = WORK.get();
                let commands = summary.mac_count + summary.wr_inp_count + summary.rd_out_count;
                assert_eq!(work.steps + work.run_macs, commands, "{label} {kind}");
                for (sum, n) in total.iter_mut().zip([commands, work.steps, work.run_macs]) {
                    *sum += n;
                }
                out += &format!(
                    "{label} {kind} {commands} {} {}\n",
                    work.steps, work.run_macs
                );
            }
        });
        let [commands, steps, run_macs] = total;
        out += &format!("total {commands} {steps} {run_macs}\n");
        assert_eq!(out, include_str!("../../tests/golden/issue_work.txt"));
    }

    /// The D-Table region writes of the DCS walk and the evaluations of
    /// its compute queue's head, on every `paper_ladder` kernel shape
    /// (PIMphony buffers). A per-`MAC` walk writes two regions per `MAC`
    /// and one per I/O command, and a loop that weighs both heads at
    /// every step evaluates the compute head once per step; the pins
    /// gate what the one-pass accumulate walk and the I/O batches save.
    #[test]
    fn dcs_work_is_pinned() {
        let geom = Geometry::pimphony();
        let mut out = String::from("kernel commands macs dtable_writes steps head_evals\n");
        let mut total = [0u64; 5];
        for_each_ladder_kernel(|label, summary_of| {
            let summary = summary_of(SchedulerKind::Dcs, geom);
            let work = WORK.get();
            let io = summary.wr_inp_count + summary.rd_out_count;
            let macs = summary.mac_count;
            assert!(work.dtable_writes <= 2 * macs + io, "{label}");
            assert!(work.steps - io <= work.head_evals, "{label}");
            assert!(work.head_evals <= work.steps + 1, "{label}");
            let row = [
                macs + io,
                macs,
                work.dtable_writes,
                work.steps,
                work.head_evals,
            ];
            for (sum, n) in total.iter_mut().zip(row) {
                *sum += n;
            }
            let [commands, macs, writes, steps, evals] = row;
            out += &format!("{label} {commands} {macs} {writes} {steps} {evals}\n");
        });
        let [commands, macs, writes, steps, evals] = total;
        out += &format!("total {commands} {macs} {writes} {steps} {evals}\n");
        assert_eq!(out, include_str!("../../tests/golden/dcs_work.txt"));
    }

    #[test]
    fn refresh_pushes_past_window() {
        let t = Timing {
            t_refi: 100,
            t_rfc: 10,
            ..Timing::aimx()
        };
        let mut r = RefreshState::new(&t);
        assert_eq!(r.adjust(50), 50);
        assert_eq!(r.adjust(100), 110);
        assert_eq!(r.events, 1);
        // Next window at 200.
        assert_eq!(r.adjust(150), 150);
        assert_eq!(r.adjust(205), 210);
    }

    #[test]
    fn refresh_disabled_when_refi_zero() {
        let t = Timing::aimx_no_refresh();
        let mut r = RefreshState::new(&t);
        assert_eq!(r.adjust(u64::MAX / 2), u64::MAX / 2);
        assert_eq!(r.events, 0);
    }

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            SchedulerKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 3);
    }
}
