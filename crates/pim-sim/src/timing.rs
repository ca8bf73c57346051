//! DRAM-PIM timing parameters.
//!
//! All values are in memory-controller cycles. The defaults are flavoured
//! after SK hynix AiM/AiMX GDDR6-PIM publications; they are *calibration
//! inputs*, not claims — the reproduction targets relative behaviour
//! (stalls, overlap, utilization), which is governed by the ratios between
//! these constants.

use serde::{Deserialize, Serialize};

/// Timing constants for one PIM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timing {
    /// Minimum command-to-command issue interval on the command/data bus
    /// (`t_CCDS` in the paper's Fig. 7).
    pub t_ccds: u64,
    /// Execution time of a `WR-INP` (32 B tile transfer into GBuf).
    pub t_wr_inp: u64,
    /// Execution time of a `MAC` (per-bank dot product + accumulate).
    pub t_mac: u64,
    /// Execution time of an `RD-OUT` (2 B x 16 banks drain).
    pub t_rd_out: u64,
    /// Row activation time (`t_ACT`).
    pub t_act: u64,
    /// Precharge time (`t_PRE`).
    pub t_pre: u64,
    /// Average refresh interval (`t_REFI`); `0` disables refresh.
    pub t_refi: u64,
    /// Refresh cycle time (`t_RFC`).
    pub t_rfc: u64,
}

impl Timing {
    /// AiMX-flavoured defaults used throughout the evaluation.
    pub fn aimx() -> Self {
        Timing {
            t_ccds: 2,
            t_wr_inp: 8,
            t_mac: 8,
            t_rd_out: 8,
            t_act: 24,
            t_pre: 16,
            t_refi: 3900,
            t_rfc: 350,
        }
    }

    /// Same as [`Timing::aimx`] but with refresh disabled — useful for
    /// deterministic micro-examples such as the Fig. 7 timing diagram.
    pub fn aimx_no_refresh() -> Self {
        Timing {
            t_refi: 0,
            ..Self::aimx()
        }
    }

    /// Row switch penalty (`t_PRE + t_ACT`).
    pub fn row_switch(&self) -> u64 {
        self.t_pre + self.t_act
    }
}

impl Default for Timing {
    fn default() -> Self {
        Self::aimx()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let t = Timing::default();
        assert!(t.t_ccds <= t.t_wr_inp);
        assert!(t.t_ccds <= t.t_mac);
        assert!(t.t_ccds <= t.t_rd_out);
        assert!(t.t_rfc < t.t_refi);
    }

    #[test]
    fn no_refresh_variant_disables_refi() {
        assert_eq!(Timing::aimx_no_refresh().t_refi, 0);
        assert_eq!(Timing::aimx_no_refresh().t_mac, Timing::aimx().t_mac);
    }

    #[test]
    fn row_switch_sums_pre_and_act() {
        let t = Timing::aimx();
        assert_eq!(t.row_switch(), t.t_pre + t.t_act);
    }
}
