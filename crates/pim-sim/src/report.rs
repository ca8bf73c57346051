//! Execution schedules and latency/energy breakdown reports.

use pim_isa::CommandId;
use serde::{Deserialize, Serialize};

/// Per-command issue and completion times produced by a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommandTiming {
    /// Command identity (mirrors the stream).
    pub id: CommandId,
    /// Cycle the command was issued on the command bus.
    pub issue: u64,
    /// Cycle its effect (write/accumulate/drain) is complete.
    pub complete: u64,
}

/// Stall attribution categories (paper Fig. 8's stacked bars).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Cycles the MAC pipeline was usefully busy (`n_mac * t_CCDS`).
    pub mac: u64,
    /// Input-transfer time and stalls waiting on GBuf writes (`DT-GBuf`).
    pub dt_gbuf: u64,
    /// Output-drain time and stalls waiting on OutReg/OBuf (`DT-OutReg`).
    pub dt_outreg: u64,
    /// DRAM activate/precharge cycles.
    pub act_pre: u64,
    /// Refresh cycles.
    pub refresh: u64,
    /// Residual pipeline stalls not attributable to the above.
    pub pipeline: u64,
}

impl Breakdown {
    /// Total attributed cycles.
    pub fn total(&self) -> u64 {
        self.mac + self.dt_gbuf + self.dt_outreg + self.act_pre + self.refresh + self.pipeline
    }
}

/// The scalar results of scheduling one command stream. This is what
/// [`crate::summarize`] returns, and what an [`ExecutionReport`] holds
/// beside its per-command timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ScheduleSummary {
    /// Makespan: completion cycle of the last command.
    pub cycles: u64,
    /// Stall attribution.
    pub breakdown: Breakdown,
    /// Number of `MAC` commands executed.
    pub mac_count: u64,
    /// Number of `WR-INP` commands executed.
    pub wr_inp_count: u64,
    /// Number of `RD-OUT` commands executed.
    pub rd_out_count: u64,
    /// Number of DRAM row switches (ACT/PRE events).
    pub row_switches: u64,
    /// Number of refresh windows crossed.
    pub refresh_events: u64,
}

impl ScheduleSummary {
    /// MAC-pipeline utilization in `[0, 1]`: the fraction of the makespan
    /// during which the MAC units were fed at peak issue rate.
    pub fn mac_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (self.breakdown.mac as f64 / self.cycles as f64).min(1.0)
    }
}

/// Result of scheduling one command stream on one channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Per-command timings, in program order.
    pub timings: Vec<CommandTiming>,
    /// The scalar results.
    pub summary: ScheduleSummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_bounds() {
        let r = ScheduleSummary {
            cycles: 100,
            breakdown: Breakdown {
                mac: 40,
                ..Default::default()
            },
            mac_count: 20,
            ..Default::default()
        };
        assert!((r.mac_utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_report_zero_utilization() {
        let r = ScheduleSummary::default();
        assert_eq!(r.mac_utilization(), 0.0);
    }

    #[test]
    fn breakdown_total_sums_fields() {
        let b = Breakdown {
            mac: 1,
            dt_gbuf: 2,
            dt_outreg: 3,
            act_pre: 4,
            refresh: 5,
            pipeline: 6,
        };
        assert_eq!(b.total(), 21);
    }
}
