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
    match kind {
        SchedulerKind::Static => StaticScheduler::new(*timing, *geometry).run(stream),
        SchedulerKind::PingPong => {
            DynamicScheduler::new(*timing, *geometry, Tracking::PerHalf).run(stream)
        }
        SchedulerKind::Dcs => {
            DynamicScheduler::new(*timing, *geometry, Tracking::PerEntry).run(stream)
        }
    }
}

/// Scalar results of scheduling the commands `source` emits: exactly
/// [`schedule`]'s report without the per-command timings, from the same
/// issue loop.
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
/// assert_eq!(totals, report.summary());
/// ```
pub fn summarize(
    source: &(impl CommandSource + ?Sized),
    kind: SchedulerKind,
    timing: &Timing,
    geometry: &Geometry,
) -> ScheduleSummary {
    match kind {
        SchedulerKind::Static => StaticScheduler::new(*timing, *geometry).summarize(source),
        SchedulerKind::PingPong => {
            DynamicScheduler::new(*timing, *geometry, Tracking::PerHalf).summarize(source)
        }
        SchedulerKind::Dcs => {
            DynamicScheduler::new(*timing, *geometry, Tracking::PerEntry).summarize(source)
        }
    }
}

/// A program-order source of one channel's commands: a built
/// [`CommandStream`], or a kernel builder that emits its commands
/// without storing them.
pub trait CommandSource {
    /// Calls `f` with the kind of each command, in program order.
    fn emit(&self, f: impl FnMut(CommandKind));
}

impl CommandSource for CommandStream {
    fn emit(&self, mut f: impl FnMut(CommandKind)) {
        for cmd in self {
            f(cmd.kind);
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
    pub breakdown: Breakdown,
    makespan: u64,
    wr_inp_count: u64,
    mac_count: u64,
    rd_out_count: u64,
    row_switches: u64,
}

impl Issuer {
    pub(crate) fn new(timing: &Timing) -> Self {
        Issuer {
            timing: *timing,
            refresh: RefreshState::new(timing),
            open_row: None,
            row_ready: 0,
            breakdown: Breakdown::default(),
            makespan: 0,
            wr_inp_count: 0,
            mac_count: 0,
            rd_out_count: 0,
            row_switches: 0,
        }
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

    /// Pushes a command ready at `ready` past any refresh window,
    /// accounting the stall, and returns its issue cycle.
    #[inline]
    pub(crate) fn issue_at(&mut self, ready: u64) -> u64 {
        let issue = self.refresh.adjust(ready);
        self.breakdown.refresh += issue - ready;
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
        let t = &self.timing;
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
            self.breakdown.act_pre += new_ready - issue;
            self.row_ready = new_ready;
            new_ready
        };
        (start, self.retire(start + t.t_mac))
    }

    #[inline]
    fn retire(&mut self, complete: u64) -> u64 {
        self.makespan = self.makespan.max(complete);
        complete
    }

    /// The scalar results: busy MAC time is `n_mac * t_CCDS`, and the
    /// makespan not attributed to any stall is residual pipeline time.
    pub(crate) fn finish(self) -> ScheduleSummary {
        let mut breakdown = self.breakdown;
        breakdown.mac = self.mac_count * self.timing.t_ccds;
        let attributed = breakdown.total();
        breakdown.pipeline += self.makespan.saturating_sub(attributed);
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
            assert!(r.cycles > 0, "{kind}");
        }
    }

    #[test]
    fn summarize_matches_schedule_on_every_calibration_shape() {
        for timing in [Timing::aimx(), Timing::aimx_no_refresh()] {
            for (label, geom, kernel) in crate::kernels::calibration_kernels() {
                let stream = kernel.stream();
                let mut emitted = Vec::new();
                kernel.emit(|kind| emitted.push(kind));
                assert!(
                    emitted.iter().eq(stream.iter().map(|c| &c.kind)),
                    "emit vs stream: {label}"
                );
                for kind in SchedulerKind::ALL {
                    let want = schedule(&stream, kind, &timing, &geom).summary();
                    let from_stream = summarize(&stream, kind, &timing, &geom);
                    assert_eq!(from_stream, want, "{kind} {label} {timing:?}");
                    let from_kernel = summarize(&kernel, kind, &timing, &geom);
                    assert_eq!(from_kernel, want, "{kind} {label} {timing:?}");
                }
            }
        }
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
