//! Energy model (paper Fig. 16).
//!
//! Energy is decomposed the way the paper reports it: MAC (compute), I/O
//! (GBuf/OutReg transfers), Background (runtime-proportional standby /
//! peripheral power — the baseline's dominant term at low utilization),
//! and Else (ACT/PRE, refresh, EPU, interconnect). FC and Attention are
//! tracked separately for the top panel of Fig. 16.

use crate::kernel::KernelCounts;
use crate::stage::IterationBreakdown;
use serde::Serialize;

/// Per-event and per-time energy constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EnergyModel {
    /// Energy per `MAC` command (one 16-lane dot product in 16 banks), nJ.
    pub mac_nj: f64,
    /// Energy per I/O command (32 B transfer), nJ.
    pub io_nj: f64,
    /// Energy per row activate+precharge, nJ.
    pub row_nj: f64,
    /// Background power per PIM channel, W.
    pub background_w_per_channel: f64,
    /// xPU FC energy per FLOP, pJ.
    pub fc_pj_per_flop: f64,
}

impl EnergyModel {
    /// AiMX-flavoured constants, calibrated so the conventional
    /// baseline's low MAC utilization makes background energy ~70% of
    /// attention energy (paper Fig. 16's 71.5%).
    pub fn aimx() -> Self {
        EnergyModel {
            // A MAC command reads 512 B across 16 banks: bit-line energy
            // dominates (~16 pJ/B).
            mac_nj: 8.0,
            io_nj: 4.0,
            row_nj: 20.0,
            background_w_per_channel: 0.5,
            fc_pj_per_flop: 0.8,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::aimx()
    }
}

/// Accumulated energy in joules, decomposed per Fig. 16.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct EnergyBreakdown {
    /// MAC compute energy.
    pub mac: f64,
    /// I/O transfer energy.
    pub io: f64,
    /// Runtime-proportional background energy.
    pub background: f64,
    /// Everything else (ACT/PRE, refresh, EPU, FC compute on xPU).
    pub else_: f64,
    /// Attention-stage share of the total.
    pub attention: f64,
    /// FC-stage share of the total.
    pub fc: f64,
}

impl EnergyBreakdown {
    /// Adds `terms` field by field (one float add per field, so a run
    /// total depends only on the order of the terms it is fed).
    pub fn add(&mut self, terms: &EnergyBreakdown) {
        self.mac += terms.mac;
        self.io += terms.io;
        self.background += terms.background;
        self.else_ += terms.else_;
        self.attention += terms.attention;
        self.fc += terms.fc;
    }

    /// Total joules.
    pub fn total(&self) -> f64 {
        self.mac + self.io + self.background + self.else_
    }

    /// Background share of the total (the paper's headline 71.5% → 13.0%).
    pub fn background_fraction(&self) -> f64 {
        let t = self.total();
        if t > 0.0 {
            self.background / t
        } else {
            0.0
        }
    }
}

impl EnergyModel {
    fn kernel_energy(&self, s: &KernelCounts) -> (f64, f64, f64) {
        let mac = s.macs * self.mac_nj * 1e-9;
        let io = s.ios * self.io_nj * 1e-9;
        let row = s.row_switches * self.row_nj * 1e-9;
        (mac, io, row)
    }

    /// The energy of `steps` decode iterations described by `it`, for a
    /// replica of `modules` modules with `channels` channels each: the
    /// per-field addends [`EnergyBreakdown::add`] sums into a run total.
    pub fn terms(
        &self,
        it: &IterationBreakdown,
        steps: f64,
        modules: u32,
        channels: u32,
    ) -> EnergyBreakdown {
        let (a_mac, a_io, a_row) = self.kernel_energy(&it.attn_totals);
        let (f_mac, f_io, f_row) = self.kernel_energy(&it.fc_totals);
        let fc_xpu = it.fc_flops * self.fc_pj_per_flop * 1e-12;
        let bg_power = self.background_w_per_channel * f64::from(modules) * f64::from(channels);
        let bg = bg_power * it.seconds;

        // Attribute stage shares: background splits by stage time.
        let attn_bg = if it.seconds > 0.0 {
            bg * (it.attn_seconds / it.seconds)
        } else {
            0.0
        };
        let fc_bg = if it.seconds > 0.0 {
            bg * (it.fc_seconds / it.seconds)
        } else {
            0.0
        };
        EnergyBreakdown {
            mac: steps * (a_mac + f_mac),
            io: steps * (a_io + f_io),
            background: steps * bg,
            else_: steps * (a_row + f_row + fc_xpu),
            attention: steps * (a_mac + a_io + a_row + attn_bg),
            fc: steps * (f_mac + f_io + f_row + fc_xpu + fc_bg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iteration(seconds: f64, attn_macs: f64, attn_ios: f64) -> IterationBreakdown {
        IterationBreakdown {
            seconds,
            attn_seconds: seconds * 0.8,
            fc_seconds: seconds * 0.2,
            attn_totals: KernelCounts {
                macs: attn_macs,
                ios: attn_ios,
                row_switches: 10.0,
            },
            ..Default::default()
        }
    }

    #[test]
    fn low_utilization_inflates_background_share() {
        let m = EnergyModel::aimx();
        // Same work, 5x the runtime (an underutilized baseline).
        let fast = iteration(1e-3, 1e6, 5e5);
        let slow = iteration(5e-3, 1e6, 5e5);
        let mut ef = EnergyBreakdown::default();
        let mut es = EnergyBreakdown::default();
        ef.add(&m.terms(&fast, 1.0, 8, 32));
        es.add(&m.terms(&slow, 1.0, 8, 32));
        assert!(es.background_fraction() > ef.background_fraction());
        assert!(es.total() > ef.total());
        assert!((es.mac - ef.mac).abs() < 1e-12, "work energy unchanged");
    }

    #[test]
    fn totals_are_consistent() {
        let m = EnergyModel::aimx();
        let mut e = EnergyBreakdown::default();
        e.add(&m.terms(&iteration(2e-3, 2e6, 1e6), 3.0, 8, 32));
        let sum = e.mac + e.io + e.background + e.else_;
        assert!((e.total() - sum).abs() < 1e-15);
        // Stage attribution covers (almost) the whole total.
        assert!((e.attention + e.fc) / e.total() > 0.95);
    }

    #[test]
    fn steps_scale_linearly() {
        let m = EnergyModel::aimx();
        let it = iteration(1e-3, 1e6, 1e6);
        let mut one = EnergyBreakdown::default();
        let mut ten = EnergyBreakdown::default();
        one.add(&m.terms(&it, 1.0, 8, 32));
        ten.add(&m.terms(&it, 10.0, 8, 32));
        assert!((ten.total() / one.total() - 10.0).abs() < 1e-9);
    }
}
