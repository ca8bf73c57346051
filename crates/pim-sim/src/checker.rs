//! Hazard replay checker: proves a schedule never violates data hazards.
//!
//! The Dynamic Command Scheduler reorders I/O against compute. This module
//! replays any [`ExecutionReport`] against the per-entry hazard rules and
//! reports every violation, establishing that reordering is *safe* — the
//! cornerstone of the claim that DCS changes timing, never values.

use crate::report::ExecutionReport;
use pim_isa::command::{CommandKind, CommandStream};
use pim_isa::CommandId;
use std::collections::BTreeMap;
use std::fmt;

/// One detected hazard violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Earlier command (in program order) of the conflicting pair.
    pub first: CommandId,
    /// Later command whose timing violates the dependency.
    pub second: CommandId,
    /// Human-readable description of the violated rule.
    pub rule: &'static str,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}: {}", self.first, self.second, self.rule)
    }
}

/// Replays `report` against `stream`'s program-order hazards.
///
/// Rules (entry-granular):
/// * `WR-INP w` then `MAC m` reading the same GBuf entry: `m.issue >= w.complete` (RAW).
/// * `MAC m` then `WR-INP w` writing the same GBuf entry: `w.issue >= m.issue` (WAR;
///   the read is sampled at issue, so overwrite may not begin earlier).
/// * `WR-INP w1` then `WR-INP w2` to the same entry: `w2.issue >= w1.issue` (WAW order).
/// * `MAC m` then `RD-OUT r` on the same OBuf entry: `r.issue >= m.complete` (RAW).
/// * `RD-OUT r` then `MAC m` on the same OBuf entry: `m.issue >= r.complete` (WAR).
/// * `RD-OUT r1` then `RD-OUT r2` on the same entry: `r2.issue >= r1.issue`.
/// * `MAC` then `MAC` on the same OBuf entry: accumulation is commutative,
///   but issue order must be preserved.
///
/// Returns all violations (empty = schedule is hazard-free).
pub fn check_schedule(stream: &CommandStream, report: &ExecutionReport) -> Vec<Violation> {
    let timing: BTreeMap<CommandId, (u64, u64)> = report
        .timings
        .iter()
        .map(|t| (t.id, (t.issue, t.complete)))
        .collect();
    let mut violations = Vec::new();

    // Last accessors per entry, walked in program order.
    #[derive(Clone, Copy)]
    struct Access {
        id: CommandId,
        kind: AccessKind,
    }
    #[derive(Clone, Copy, PartialEq)]
    enum AccessKind {
        Write,
        MacRead,
        MacAcc,
        Drain,
    }

    let mut gbuf: BTreeMap<u16, Access> = BTreeMap::new();
    let mut obuf: BTreeMap<u16, Access> = BTreeMap::new();

    let push = |violations: &mut Vec<Violation>,
                first: CommandId,
                second: CommandId,
                ok: bool,
                rule: &'static str| {
        if !ok {
            violations.push(Violation {
                first,
                second,
                rule,
            });
        }
    };

    for cmd in stream.iter() {
        let (issue, _complete) = match timing.get(&cmd.id) {
            Some(&t) => t,
            None => {
                violations.push(Violation {
                    first: cmd.id,
                    second: cmd.id,
                    rule: "command missing from schedule",
                });
                continue;
            }
        };
        match cmd.kind {
            CommandKind::WrInp { gbuf_idx, .. } => {
                if let Some(prev) = gbuf.get(&gbuf_idx) {
                    let (p_issue, p_complete) = timing[&prev.id];
                    match prev.kind {
                        AccessKind::Write => push(
                            &mut violations,
                            prev.id,
                            cmd.id,
                            issue >= p_issue,
                            "WAW on GBuf entry out of order",
                        ),
                        AccessKind::MacRead => push(
                            &mut violations,
                            prev.id,
                            cmd.id,
                            issue >= p_issue.min(p_complete),
                            "WAR: overwrite before MAC sampled its input",
                        ),
                        _ => {}
                    }
                }
                gbuf.insert(
                    gbuf_idx,
                    Access {
                        id: cmd.id,
                        kind: AccessKind::Write,
                    },
                );
            }
            CommandKind::Mac {
                gbuf_idx, out_idx, ..
            } => {
                if let Some(prev) = gbuf.get(&gbuf_idx) {
                    if prev.kind == AccessKind::Write {
                        let (_, p_complete) = timing[&prev.id];
                        push(
                            &mut violations,
                            prev.id,
                            cmd.id,
                            issue >= p_complete,
                            "RAW: MAC read before WR-INP completed",
                        );
                    }
                }
                if let Some(prev) = obuf.get(&out_idx) {
                    let (p_issue, p_complete) = timing[&prev.id];
                    match prev.kind {
                        AccessKind::Drain => push(
                            &mut violations,
                            prev.id,
                            cmd.id,
                            issue >= p_complete,
                            "WAR: accumulate before drain completed",
                        ),
                        AccessKind::MacAcc => push(
                            &mut violations,
                            prev.id,
                            cmd.id,
                            issue >= p_issue,
                            "MAC accumulation order on OBuf entry",
                        ),
                        _ => {}
                    }
                }
                gbuf.insert(
                    gbuf_idx,
                    Access {
                        id: cmd.id,
                        kind: AccessKind::MacRead,
                    },
                );
                obuf.insert(
                    out_idx,
                    Access {
                        id: cmd.id,
                        kind: AccessKind::MacAcc,
                    },
                );
            }
            CommandKind::RdOut { out_idx, .. } => {
                if let Some(prev) = obuf.get(&out_idx) {
                    let (p_issue, p_complete) = timing[&prev.id];
                    match prev.kind {
                        AccessKind::MacAcc => push(
                            &mut violations,
                            prev.id,
                            cmd.id,
                            issue >= p_complete,
                            "RAW: drain before MAC accumulation completed",
                        ),
                        AccessKind::Drain => push(
                            &mut violations,
                            prev.id,
                            cmd.id,
                            issue >= p_issue,
                            "drain order on OBuf entry",
                        ),
                        _ => {}
                    }
                }
                obuf.insert(
                    out_idx,
                    Access {
                        id: cmd.id,
                        kind: AccessKind::Drain,
                    },
                );
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CommandTiming, ScheduleSummary};
    use pim_isa::PimCommand;

    fn report_from(timings: Vec<CommandTiming>) -> ExecutionReport {
        let cycles = timings.iter().map(|t| t.complete).max().unwrap_or(0);
        ExecutionReport {
            timings,
            summary: ScheduleSummary {
                cycles,
                ..Default::default()
            },
        }
    }

    fn wmr_stream() -> CommandStream {
        let mut s = CommandStream::new();
        s.push(PimCommand::wr_inp(0, 0, 0));
        s.push(PimCommand::mac(1, 0, 0, 0, 0));
        s.push(PimCommand::rd_out(2, 0, 0));
        s
    }

    #[test]
    fn clean_schedule_has_no_violations() {
        let s = wmr_stream();
        let r = report_from(vec![
            CommandTiming {
                id: CommandId(0),
                issue: 0,
                complete: 8,
            },
            CommandTiming {
                id: CommandId(1),
                issue: 8,
                complete: 16,
            },
            CommandTiming {
                id: CommandId(2),
                issue: 16,
                complete: 24,
            },
        ]);
        assert!(check_schedule(&s, &r).is_empty());
    }

    #[test]
    fn early_mac_read_is_flagged() {
        let s = wmr_stream();
        let r = report_from(vec![
            CommandTiming {
                id: CommandId(0),
                issue: 0,
                complete: 8,
            },
            CommandTiming {
                id: CommandId(1),
                issue: 4,
                complete: 12,
            }, // too early
            CommandTiming {
                id: CommandId(2),
                issue: 12,
                complete: 20,
            },
        ]);
        let v = check_schedule(&s, &r);
        assert_eq!(v.len(), 1);
        assert!(v[0].rule.contains("RAW: MAC read"));
    }

    #[test]
    fn early_drain_is_flagged() {
        let s = wmr_stream();
        let r = report_from(vec![
            CommandTiming {
                id: CommandId(0),
                issue: 0,
                complete: 8,
            },
            CommandTiming {
                id: CommandId(1),
                issue: 8,
                complete: 16,
            },
            CommandTiming {
                id: CommandId(2),
                issue: 10,
                complete: 18,
            }, // too early
        ]);
        let v = check_schedule(&s, &r);
        assert_eq!(v.len(), 1);
        assert!(v[0].rule.contains("drain before MAC"));
    }

    #[test]
    fn missing_command_is_flagged() {
        let s = wmr_stream();
        let r = report_from(vec![CommandTiming {
            id: CommandId(0),
            issue: 0,
            complete: 8,
        }]);
        let v = check_schedule(&s, &r);
        assert!(v.iter().any(|x| x.rule.contains("missing")));
    }

    #[test]
    fn all_schedulers_pass_checker_on_mixed_stream() {
        use crate::sched::{schedule, SchedulerKind};
        use crate::{Geometry, Timing};
        let mut s = CommandStream::new();
        let mut id = 0;
        for rep in 0..3u16 {
            for e in 0..4u16 {
                s.push(PimCommand::wr_inp(id, e, 0));
                id += 1;
            }
            for e in 0..4u16 {
                s.push(PimCommand::mac(id, e, rep as u32, e, e % 2));
                id += 1;
            }
            for o in 0..2u16 {
                s.push(PimCommand::rd_out(id, o, 0));
                id += 1;
            }
        }
        for kind in SchedulerKind::ALL {
            let r = schedule(&s, kind, &Timing::aimx_no_refresh(), &Geometry::pimphony());
            let v = check_schedule(&s, &r);
            assert!(v.is_empty(), "{kind}: {:?}", v);
        }
    }
}
