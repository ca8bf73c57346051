//! Memoized per-channel kernel latency model.
//!
//! Attention kernels stream tokens, so their cycle cost is affine in the
//! token count. We simulate each distinct (kernel, scheduler, GQA,
//! row-reuse) configuration *exactly* at two calibration sizes with the
//! cycle-level `pim-sim` engine, fit `cycles = a + b·tokens`, and evaluate
//! the fit everywhere else. FC GEMVs have few distinct shapes, so they are
//! simulated exactly and memoized per shape. Calibration reads only
//! totals, so it runs `pim_sim::summarize` straight on the kernel
//! builders: no command stream and no per-command timing is built.

use parking_lot::Mutex;
use pim_sim::kernels::{AttentionSpec, GemvKernel, GemvSpec, QktKernel, SvKernel};
use pim_sim::{summarize, Geometry, ScheduleSummary, SchedulerKind, Timing};
use serde::Serialize;
use std::collections::HashMap;

/// Scalar statistics of one kernel execution, extrapolatable in tokens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct KernelStats {
    /// Total cycles.
    pub cycles: f64,
    /// Cycles the MAC pipeline was busy.
    pub mac_busy: f64,
    /// `MAC` command count.
    pub macs: f64,
    /// I/O command count (`WR-INP` + `RD-OUT`).
    pub ios: f64,
    /// DRAM row switches.
    pub row_switches: f64,
}

impl KernelStats {
    fn from_summary(r: &ScheduleSummary, timing: &Timing) -> Self {
        KernelStats {
            cycles: r.cycles as f64,
            mac_busy: (r.mac_count * timing.t_ccds) as f64,
            macs: r.mac_count as f64,
            ios: (r.wr_inp_count + r.rd_out_count) as f64,
            row_switches: r.row_switches as f64,
        }
    }

    fn axpy(a: &KernelStats, b: &KernelStats, x: f64) -> KernelStats {
        KernelStats {
            cycles: (a.cycles + b.cycles * x).max(0.0),
            mac_busy: (a.mac_busy + b.mac_busy * x).max(0.0),
            macs: (a.macs + b.macs * x).max(0.0),
            ios: (a.ios + b.ios * x).max(0.0),
            row_switches: (a.row_switches + b.row_switches * x).max(0.0),
        }
    }

    /// Scales all statistics (e.g. repeat a kernel `k` times).
    pub fn scaled(&self, k: f64) -> KernelStats {
        KernelStats {
            cycles: self.cycles * k,
            mac_busy: self.mac_busy * k,
            macs: self.macs * k,
            ios: self.ios * k,
            row_switches: self.row_switches * k,
        }
    }

    /// The event counts energy prices.
    pub fn counts(&self) -> KernelCounts {
        KernelCounts {
            macs: self.macs,
            ios: self.ios,
            row_switches: self.row_switches,
        }
    }
}

/// The event counts of kernel executions: what a stage's run-wide
/// totals carry, and all the energy model reads. A stage reads cycles
/// per channel and sums MAC-busy time on its own, for utilization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct KernelCounts {
    /// `MAC` command count.
    pub macs: f64,
    /// I/O command count (`WR-INP` + `RD-OUT`).
    pub ios: f64,
    /// DRAM row switches.
    pub row_switches: f64,
}

impl KernelCounts {
    /// Adds another kernel's counts.
    pub fn accumulate(&mut self, other: &KernelCounts) {
        self.macs += other.macs;
        self.ios += other.ios;
        self.row_switches += other.row_switches;
    }

    /// Scales all counts (e.g. repeat a kernel `k` times).
    pub fn scaled(&self, k: f64) -> KernelCounts {
        KernelCounts {
            macs: self.macs * k,
            ios: self.ios * k,
            row_switches: self.row_switches * k,
        }
    }
}

/// Attention kernel flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttentionKind {
    /// The score kernel.
    Qkt,
    /// The value kernel.
    Sv,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AttnKey {
    kind: AttentionKind,
    scheduler: SchedulerKind,
    group: u32,
    row_reuse: bool,
    pimphony_buffers: bool,
}

#[derive(Debug, Clone, Copy)]
struct Affine {
    intercept: KernelStats,
    slope: KernelStats,
}

/// A resolved attention-kernel configuration: the affine fit of one
/// (kernel, scheduler, GQA, row-reuse) key, looked up in the memo once
/// by [`KernelModel::attention_eval`] and then evaluated without the
/// memo lock. Hot loops price many token slices per iteration against
/// one fixed configuration, so the lookup stays out of the slice loop.
#[derive(Debug, Clone, Copy)]
pub struct AttentionEval {
    affine: Affine,
}

impl AttentionEval {
    /// Statistics of the kernel over `tokens` tokens on one channel.
    pub fn stats(&self, tokens: u64) -> KernelStats {
        count_eval();
        if tokens == 0 {
            return KernelStats::default();
        }
        KernelStats::axpy(&self.affine.intercept, &self.affine.slope, tokens as f64)
    }

    /// Total statistics summed over a causal prefill chunk on one
    /// channel: query positions `done+1 ..= done+chunk`, where position
    /// `i` attends to its `i`-token prefix. The affine per-position
    /// model makes the prefix sum closed-form — `Σᵢ (a + b·i) =
    /// chunk·a + b·(chunk·done + chunk·(chunk+1)/2)` — so a whole prompt
    /// chunk prices in O(1) regardless of its length.
    pub fn prefill(&self, done: u64, chunk: u64) -> KernelStats {
        count_eval();
        if chunk == 0 {
            return KernelStats::default();
        }
        let c = chunk as f64;
        let token_sum = c * done as f64 + c * (c + 1.0) / 2.0;
        KernelStats::axpy(
            &self.affine.intercept.scaled(c),
            &self.affine.slope,
            token_sum,
        )
    }
}

#[cfg(test)]
thread_local! {
    /// Affine evaluations made through an [`AttentionEval`] on this
    /// thread (test builds only).
    pub(crate) static EVALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one [`AttentionEval`] evaluation (test builds only).
#[inline(always)]
fn count_eval() {
    #[cfg(test)]
    EVALS.with(|n| n.set(n.get() + 1));
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GemvKey {
    dout: u32,
    din: u32,
    scheduler: SchedulerKind,
    pimphony_buffers: bool,
}

/// The memoizing kernel model shared by the system evaluator.
#[derive(Debug)]
pub struct KernelModel {
    timing: Timing,
    head_dim: u32,
    attn_cache: Mutex<HashMap<AttnKey, Affine>>,
    gemv_cache: Mutex<HashMap<GemvKey, KernelStats>>,
}

/// Calibration token counts for the affine fit.
const CAL_LO: u32 = 512;
const CAL_HI: u32 = 4096;

impl KernelModel {
    /// Creates a model for kernels with per-head dimension `head_dim`.
    pub fn new(timing: Timing, head_dim: u32) -> Self {
        KernelModel {
            timing,
            head_dim,
            attn_cache: Mutex::new(HashMap::new()),
            gemv_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The timing the model simulates with.
    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    fn geometry(&self, pimphony_buffers: bool) -> Geometry {
        if pimphony_buffers {
            Geometry::pimphony()
        } else {
            Geometry::baseline()
        }
    }

    fn simulate_attn(&self, key: AttnKey, tokens: u32) -> KernelStats {
        let geom = self.geometry(key.pimphony_buffers);
        let spec = AttentionSpec {
            tokens,
            head_dim: self.head_dim,
            group_size: key.group,
            row_reuse: key.row_reuse,
        };
        let summary = match key.kind {
            AttentionKind::Qkt => summarize(
                &QktKernel::new(spec, geom),
                key.scheduler,
                &self.timing,
                &geom,
            ),
            AttentionKind::Sv => summarize(
                &SvKernel::new(spec, geom),
                key.scheduler,
                &self.timing,
                &geom,
            ),
        };
        KernelStats::from_summary(&summary, &self.timing)
    }

    fn affine(&self, key: AttnKey) -> Affine {
        if let Some(a) = self.attn_cache.lock().get(&key) {
            return *a;
        }
        let lo = self.simulate_attn(key, CAL_LO);
        let hi = self.simulate_attn(key, CAL_HI);
        let dt = f64::from(CAL_HI - CAL_LO);
        let slope = KernelStats {
            cycles: (hi.cycles - lo.cycles) / dt,
            mac_busy: (hi.mac_busy - lo.mac_busy) / dt,
            macs: (hi.macs - lo.macs) / dt,
            ios: (hi.ios - lo.ios) / dt,
            row_switches: (hi.row_switches - lo.row_switches) / dt,
        };
        let intercept = KernelStats {
            cycles: lo.cycles - slope.cycles * f64::from(CAL_LO),
            mac_busy: lo.mac_busy - slope.mac_busy * f64::from(CAL_LO),
            macs: lo.macs - slope.macs * f64::from(CAL_LO),
            ios: lo.ios - slope.ios * f64::from(CAL_LO),
            row_switches: lo.row_switches - slope.row_switches * f64::from(CAL_LO),
        };
        let a = Affine { intercept, slope };
        self.attn_cache.lock().insert(key, a);
        a
    }

    /// The attention kernel `kind` as one channel runs it (`group` query
    /// heads share the KV data; `row_reuse` selects the GQA row-reuse
    /// mapping), resolved into an [`AttentionEval`]: the affine fit is
    /// calibrated on first use and memoized.
    pub fn attention_eval(
        &self,
        kind: AttentionKind,
        scheduler: SchedulerKind,
        pimphony_buffers: bool,
        group: u32,
        row_reuse: bool,
    ) -> AttentionEval {
        AttentionEval {
            affine: self.affine(AttnKey {
                kind,
                scheduler,
                group,
                row_reuse,
                pimphony_buffers,
            }),
        }
    }

    /// Statistics of one dense GEMV on one channel (exact, memoized).
    pub fn gemv(
        &self,
        scheduler: SchedulerKind,
        pimphony_buffers: bool,
        dout: u32,
        din: u32,
    ) -> KernelStats {
        if dout == 0 || din == 0 {
            return KernelStats::default();
        }
        let key = GemvKey {
            dout,
            din,
            scheduler,
            pimphony_buffers,
        };
        if let Some(s) = self.gemv_cache.lock().get(&key) {
            return *s;
        }
        let geom = self.geometry(pimphony_buffers);
        let kernel = GemvKernel::new(GemvSpec { dout, din }, geom);
        let summary = summarize(&kernel, scheduler, &self.timing, &geom);
        let stats = KernelStats::from_summary(&summary, &self.timing);
        self.gemv_cache.lock().insert(key, stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> KernelModel {
        KernelModel::new(Timing::aimx(), 128)
    }

    /// The `QKᵀ` evaluator under DCS on PIMphony buffers, one query per
    /// KV head.
    fn dcs_qkt(m: &KernelModel) -> AttentionEval {
        m.attention_eval(AttentionKind::Qkt, SchedulerKind::Dcs, true, 1, false)
    }

    #[test]
    fn affine_fit_tracks_exact_simulation() {
        let m = model();
        let key = AttnKey {
            kind: AttentionKind::Qkt,
            scheduler: SchedulerKind::Dcs,
            group: 1,
            row_reuse: false,
            pimphony_buffers: true,
        };
        let exact = m.simulate_attn(key, 2048);
        let fitted = dcs_qkt(&m).stats(2048);
        let err = (exact.cycles - fitted.cycles).abs() / exact.cycles;
        // Refresh windows and row-boundary effects add mild curvature;
        // a 10% envelope is tight enough for throughput composition.
        assert!(err < 0.10, "fit error {:.2}%", err * 100.0);
    }

    /// Exact cycles against the affine fit for every attention key the
    /// ladder calibrates: {QKᵀ, SV} × {static on baseline buffers, DCS on
    /// PIMphony buffers} × group {1, 4, 8}, with row reuse as
    /// `StageModel::row_reuse` picks it (group > 1 under DCS), over slices
    /// of 16 to 16K tokens. The fit is exact at its two calibration sizes
    /// (512 and 4096 tokens).
    #[test]
    fn affine_residuals_are_pinned() {
        let m = model();
        let mut out = String::from("kernel scheduler group reuse tokens exact fitted residual\n");
        for kind in [AttentionKind::Qkt, AttentionKind::Sv] {
            for (scheduler, pimphony_buffers) in
                [(SchedulerKind::Static, false), (SchedulerKind::Dcs, true)]
            {
                for group in [1, 4, 8] {
                    let row_reuse = group > 1 && pimphony_buffers;
                    let key = AttnKey {
                        kind,
                        scheduler,
                        group,
                        row_reuse,
                        pimphony_buffers,
                    };
                    let eval =
                        m.attention_eval(kind, scheduler, pimphony_buffers, group, row_reuse);
                    for tokens in [16, 64, 256, 512, 1024, 2048, 4096, 8192, 16384] {
                        let exact = m.simulate_attn(key, tokens).cycles;
                        let fitted = eval.stats(u64::from(tokens)).cycles;
                        let residual = (fitted - exact) / exact * 100.0;
                        out += &format!(
                            "{kind:?} {scheduler} {group} {row_reuse} {tokens} {exact} {fitted} \
                             {residual:+.3}%\n"
                        );
                    }
                }
            }
        }
        assert_eq!(out, include_str!("../tests/golden/affine_residuals.txt"));
    }

    #[test]
    fn dcs_is_never_slower_than_static() {
        let m = model();
        for kind in [AttentionKind::Qkt, AttentionKind::Sv] {
            let s = m
                .attention_eval(kind, SchedulerKind::Static, false, 1, false)
                .stats(8192);
            let d = m
                .attention_eval(kind, SchedulerKind::Dcs, true, 1, false)
                .stats(8192);
            assert!(
                d.cycles <= s.cycles,
                "{kind:?}: {} vs {}",
                d.cycles,
                s.cycles
            );
        }
    }

    #[test]
    fn zero_tokens_is_free() {
        let m = model();
        let s = m
            .attention_eval(AttentionKind::Sv, SchedulerKind::Dcs, true, 4, true)
            .stats(0);
        assert_eq!(s.cycles, 0.0);
    }

    #[test]
    fn stats_grow_with_tokens() {
        let m = model();
        let eval = dcs_qkt(&m);
        let (a, b) = (eval.stats(1024), eval.stats(65536));
        assert!(b.cycles > 10.0 * a.cycles);
        assert!(b.macs > a.macs);
    }

    #[test]
    fn gemv_cache_hits_are_stable() {
        let m = model();
        let a = m.gemv(SchedulerKind::Static, false, 256, 4096);
        let b = m.gemv(SchedulerKind::Static, false, 256, 4096);
        assert_eq!(a, b);
        assert!(a.cycles > 0.0);
    }

    #[test]
    fn prefill_closed_form_matches_per_position_sum() {
        let m = model();
        let eval = dcs_qkt(&m);
        let (done, chunk) = (1000u64, 7u64);
        let closed = eval.prefill(done, chunk);
        let (mut cycles, mut macs) = (0.0, 0.0);
        for i in 1..=chunk {
            let s = eval.stats(done + i);
            cycles += s.cycles;
            macs += s.macs;
        }
        assert!(
            (closed.cycles - cycles).abs() < 1e-6 * cycles,
            "{} vs {cycles}",
            closed.cycles
        );
        assert!((closed.macs - macs).abs() < 1e-6 * macs);
    }

    #[test]
    fn prefill_single_position_equals_decode_attention() {
        let m = model();
        let eval = m.attention_eval(AttentionKind::Sv, SchedulerKind::Static, false, 1, false);
        let (one, decode) = (eval.prefill(4095, 1), eval.stats(4096));
        assert!((one.cycles - decode.cycles).abs() < 1e-9 * decode.cycles);
    }

    #[test]
    fn prefill_zero_chunk_is_free_and_grows_with_chunk() {
        let m = model();
        let eval = dcs_qkt(&m);
        assert_eq!(eval.prefill(512, 0).cycles, 0.0);
        let (small, big) = (eval.prefill(0, 1024), eval.prefill(0, 8192));
        // Causal prefill is superlinear in the prompt: 8x the tokens is
        // far more than 8x the work.
        assert!(big.cycles > 16.0 * small.cycles);
    }

    #[test]
    fn accumulate_and_scale() {
        let mut s = KernelCounts::default();
        let one = KernelStats {
            cycles: 10.0,
            mac_busy: 4.0,
            macs: 2.0,
            ios: 1.0,
            row_switches: 0.0,
        };
        assert_eq!(one.scaled(2.0).cycles, 20.0);
        s.accumulate(&one.counts());
        s.accumulate(&one.counts().scaled(2.0));
        assert_eq!(s.macs, 6.0);
        assert_eq!(s.ios, 3.0);
    }
}
