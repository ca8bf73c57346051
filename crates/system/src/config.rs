//! System and module configurations (paper Table IV).

use llm_model::ModelConfig;
use pim_compiler::ParallelConfig;
use serde::Serialize;

/// Node organization: PIM-only (CENT-like) or heterogeneous xPU+PIM
/// (NeuPIMs-like), per paper Fig. 3(b,c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SystemKind {
    /// CENT-like: all computation on PIM; a small PNM core handles
    /// non-GEMV work.
    PimOnly,
    /// NeuPIMs-like: NPU matrix units execute FC/GEMM, PIM executes
    /// attention GEMVs.
    XpuPim,
}

impl SystemKind {
    /// Every kind, in spec-label order.
    pub const ALL: [SystemKind; 2] = [SystemKind::PimOnly, SystemKind::XpuPim];

    /// The label a scenario spec names this kind by.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::PimOnly => "pim-only",
            SystemKind::XpuPim => "xpu-pim",
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::PimOnly => "PIM-only (CENT)",
            SystemKind::XpuPim => "xPU+PIM (NeuPIMs)",
        }
    }
}

/// One PIM module's resources (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ModuleConfig {
    /// PIM channels per module.
    pub channels: u32,
    /// Module DRAM capacity in bytes.
    pub capacity_bytes: u64,
    /// Aggregate internal bandwidth in bytes/second.
    pub internal_bw: f64,
    /// xPU compute throughput in FLOP/s (NPU matrix units for NeuPIMs,
    /// PNM core for CENT).
    pub xpu_flops: f64,
    /// xPU-visible memory bandwidth in bytes/second (weight streaming for
    /// the FC stage on NeuPIMs).
    pub xpu_mem_bw: f64,
    /// Host/inter-module interconnect bandwidth in bytes/second.
    pub interconnect_bw: f64,
    /// Memory clock in Hz (converts simulator cycles to seconds).
    pub clock_hz: f64,
}

impl ModuleConfig {
    /// CENT-like module: PNM 3 TFLOPS, 32 channels, 16 GB, 16 TB/s.
    pub fn cent() -> Self {
        ModuleConfig {
            channels: 32,
            capacity_bytes: 16 * (1 << 30),
            internal_bw: 16e12,
            xpu_flops: 3e12,
            xpu_mem_bw: 0.4e12,
            interconnect_bw: 64e9,
            clock_hz: 1e9,
        }
    }

    /// NeuPIMs-like module: 8 matrix units (256 TFLOPS), 32 channels,
    /// 32 GB, 32 TB/s.
    pub fn neupims() -> Self {
        ModuleConfig {
            channels: 32,
            capacity_bytes: 32 * (1 << 30),
            internal_bw: 32e12,
            xpu_flops: 256e12,
            xpu_mem_bw: 2e12,
            interconnect_bw: 128e9,
            clock_hz: 1e9,
        }
    }
}

/// A full multi-module system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SystemConfig {
    /// Node organization.
    pub kind: SystemKind,
    /// Module resources.
    pub module: ModuleConfig,
    /// Total modules.
    pub modules: u32,
    /// Parallelization of one model replica.
    pub parallel: ParallelConfig,
}

impl SystemConfig {
    /// The paper's PIM-only setup: 8 modules (128 GB) for 7B models,
    /// 32 modules (512 GB) for 72B models.
    pub fn cent_for(model: &ModelConfig) -> Self {
        let modules = if model.hidden_dim >= 8192 { 32 } else { 8 };
        SystemConfig {
            kind: SystemKind::PimOnly,
            module: ModuleConfig::cent(),
            modules,
            parallel: ParallelConfig::new(modules, 1),
        }
    }

    /// The paper's xPU+PIM setup: 4 modules (128 GB) for 7B models,
    /// 16 modules (512 GB) for 72B models.
    pub fn neupims_for(model: &ModelConfig) -> Self {
        let modules = if model.hidden_dim >= 8192 { 16 } else { 4 };
        SystemConfig {
            kind: SystemKind::XpuPim,
            module: ModuleConfig::neupims(),
            modules,
            parallel: ParallelConfig::new(modules, 1),
        }
    }

    /// Replicas the system can host (`modules / (tp*pp)`).
    pub fn replicas(&self) -> u32 {
        (self.modules / self.parallel.modules()).max(1)
    }

    /// Total system capacity in bytes.
    pub fn total_capacity(&self) -> u64 {
        u64::from(self.modules) * self.module.capacity_bytes
    }

    /// Returns a copy with a different parallel configuration.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }
}

/// Which PIMphony techniques are enabled (the Figs. 13/14 increments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Techniques {
    /// Token-Centric PIM Partitioning (§IV).
    pub tcp: bool,
    /// Dynamic PIM Command Scheduling (§V).
    pub dcs: bool,
    /// Dynamic PIM Access memory management (§VI).
    pub dpa: bool,
}

impl Techniques {
    /// The unmodified baseline (HFP + static scheduling + static memory).
    pub fn baseline() -> Self {
        Techniques {
            tcp: false,
            dcs: false,
            dpa: false,
        }
    }

    /// TCP only.
    pub fn tcp_only() -> Self {
        Techniques {
            tcp: true,
            dcs: false,
            dpa: false,
        }
    }

    /// TCP + DCS.
    pub fn tcp_dcs() -> Self {
        Techniques {
            tcp: true,
            dcs: true,
            dpa: false,
        }
    }

    /// Full PIMphony (TCP + DCS + DPA).
    pub fn pimphony() -> Self {
        Techniques {
            tcp: true,
            dcs: true,
            dpa: true,
        }
    }

    /// The incremental ladder used in Figs. 13–15.
    pub fn ladder() -> [Techniques; 4] {
        [
            Self::baseline(),
            Self::tcp_only(),
            Self::tcp_dcs(),
            Self::pimphony(),
        ]
    }

    /// Short label ("base", "+TCP", "+DCS", "+DPA").
    pub fn label(&self) -> &'static str {
        match (self.tcp, self.dcs, self.dpa) {
            (false, false, false) => "base",
            (true, false, false) => "+TCP",
            (true, true, false) => "+TCP+DCS",
            (true, true, true) => "+TCP+DCS+DPA",
            _ => "custom",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_model::{LLM_72B_32K, LLM_7B_32K};

    #[test]
    fn table4_capacities() {
        assert_eq!(
            SystemConfig::cent_for(&LLM_7B_32K).total_capacity(),
            128 * (1 << 30)
        );
        assert_eq!(
            SystemConfig::cent_for(&LLM_72B_32K).total_capacity(),
            512 * (1 << 30)
        );
        assert_eq!(
            SystemConfig::neupims_for(&LLM_7B_32K).total_capacity(),
            128 * (1 << 30)
        );
        assert_eq!(
            SystemConfig::neupims_for(&LLM_72B_32K).total_capacity(),
            512 * (1 << 30)
        );
    }

    #[test]
    fn module_specs_match_table4() {
        let c = ModuleConfig::cent();
        assert_eq!(c.channels, 32);
        assert!((c.internal_bw - 16e12).abs() < 1.0);
        let n = ModuleConfig::neupims();
        assert!((n.xpu_flops - 256e12).abs() < 1.0);
        assert_eq!(n.capacity_bytes, 32 * (1 << 30));
    }

    #[test]
    fn technique_ladder_is_monotone() {
        let l = Techniques::ladder();
        assert_eq!(l[0], Techniques::baseline());
        assert_eq!(l[3], Techniques::pimphony());
        assert!(l[1].tcp && !l[1].dcs);
        assert!(l[2].dcs && !l[2].dpa);
    }

    #[test]
    fn replicas_divide_modules() {
        let s = SystemConfig::cent_for(&LLM_7B_32K).with_parallel(ParallelConfig::new(4, 2));
        assert_eq!(s.replicas(), 1);
        let s2 = SystemConfig::cent_for(&LLM_7B_32K).with_parallel(ParallelConfig::new(2, 2));
        assert_eq!(s2.replicas(), 2);
    }
}
