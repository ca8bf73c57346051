//! Extra Processing Unit (EPU) and Activation Function Unit (paper
//! Fig. 3(a)).
//!
//! The PIM HUB contains an EPU for auxiliary operations — notably the
//! softmax between `QKᵀ` and `SV` — and an Activation Function Unit that
//! evaluates non-linearities via Look-Up-Table approximation. Under TCP,
//! the EPU also performs the inter-channel reduction of `SV` partial sums
//! gathered in the GPR (paper §IV-C).

use serde::Serialize;

/// A piecewise-linear look-up table approximating `f` over `[lo, hi]`.
///
/// # Example
///
/// ```
/// use pim_sim::epu::LutTable;
/// let lut = LutTable::tabulate(|x| x.exp(), -8.0, 0.0, 256);
/// assert!((lut.approximate(-1.0) - (-1.0f32).exp()).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct LutTable {
    lo: f32,
    hi: f32,
    values: Vec<f32>,
}

impl LutTable {
    /// Samples `f` at `entries + 1` uniformly spaced points.
    ///
    /// # Panics
    /// Panics if `entries == 0` or `lo >= hi`.
    pub fn tabulate<F: Fn(f32) -> f32>(f: F, lo: f32, hi: f32, entries: usize) -> Self {
        assert!(entries > 0, "LUT needs at least one segment");
        assert!(lo < hi, "invalid LUT range");
        let values = (0..=entries)
            .map(|i| f(lo + (hi - lo) * i as f32 / entries as f32))
            .collect();
        LutTable { lo, hi, values }
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.values.len() - 1
    }

    /// Piecewise-linear approximation of the tabulated function; inputs
    /// outside the range clamp to the endpoints.
    pub fn approximate(&self, x: f32) -> f32 {
        let n = self.segments() as f32;
        let t = ((x - self.lo) / (self.hi - self.lo) * n).clamp(0.0, n);
        let i = (t as usize).min(self.segments() - 1);
        let frac = t - i as f32;
        self.values[i] * (1.0 - frac) + self.values[i + 1] * frac
    }
}

/// EPU timing parameters (elements processed per cycle).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EpuConfig {
    /// Softmax elements per cycle (vector lanes in the EPU).
    pub softmax_lanes: u32,
    /// Reduction elements per cycle (GPR-side adder width).
    pub reduce_lanes: u32,
    /// LUT segments for the exp approximation.
    pub exp_segments: usize,
}

impl Default for EpuConfig {
    fn default() -> Self {
        EpuConfig {
            softmax_lanes: 16,
            reduce_lanes: 16,
            exp_segments: 256,
        }
    }
}

impl EpuConfig {
    /// EPU cycles to softmax a score vector of `tokens` elements (two
    /// passes: max+exp, then normalize).
    pub fn softmax_cycles(&self, tokens: u64) -> u64 {
        2 * tokens.div_ceil(u64::from(self.softmax_lanes))
    }

    /// EPU cycles for the inter-channel reduction of `channels` partial
    /// vectors of `dims` elements.
    pub fn reduce_cycles(&self, channels: u32, dims: u32) -> u64 {
        u64::from(channels.saturating_sub(1)) * u64::from(dims.div_ceil(self.reduce_lanes))
    }
}

/// The HUB's Extra Processing Unit.
#[derive(Debug, Clone)]
pub struct Epu {
    exp_lut: LutTable,
}

impl Epu {
    /// Creates an EPU with the given configuration.
    pub fn new(config: EpuConfig) -> Self {
        // Softmax inputs are shifted to (-inf, 0], so tabulating exp on
        // [-16, 0] covers everything that matters numerically.
        let exp_lut = LutTable::tabulate(|x| x.exp(), -16.0, 0.0, config.exp_segments);
        Epu { exp_lut }
    }

    /// Numerically stabilized softmax using the LUT exp — the operation
    /// the EPU performs between `QKᵀ` and `SV`.
    pub fn softmax(&self, scores: &[f32]) -> Vec<f32> {
        if scores.is_empty() {
            return Vec::new();
        }
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = scores
            .iter()
            .map(|&s| self.exp_lut.approximate(s - max))
            .collect();
        let sum: f32 = exps.iter().sum();
        if sum <= 0.0 {
            // Degenerate input: fall back to uniform.
            return vec![1.0 / scores.len() as f32; scores.len()];
        }
        exps.iter().map(|&e| e / sum).collect()
    }

    /// Reduces per-channel `SV` partial outputs gathered in the GPR (TCP's
    /// inter-channel reduction, paper §IV-C): element-wise sum.
    ///
    /// # Panics
    /// Panics if the partial vectors have different lengths.
    pub fn reduce_partials(&self, partials: &[Vec<f32>]) -> Vec<f32> {
        let Some(first) = partials.first() else {
            return Vec::new();
        };
        let mut out = first.clone();
        for p in &partials[1..] {
            assert_eq!(p.len(), out.len(), "partial length mismatch");
            for (o, v) in out.iter_mut().zip(p) {
                *o += v;
            }
        }
        out
    }
}

impl Default for Epu {
    fn default() -> Self {
        Self::new(EpuConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut_exp_error_is_small() {
        let lut = LutTable::tabulate(|x| x.exp(), -16.0, 0.0, 256);
        let mut worst = 0.0f32;
        for i in 0..1000 {
            let x = -16.0 + 16.0 * i as f32 / 1000.0;
            worst = worst.max((lut.approximate(x) - x.exp()).abs());
        }
        assert!(worst < 2e-3, "worst LUT error {worst}");
    }

    #[test]
    fn lut_clamps_out_of_range() {
        let lut = LutTable::tabulate(|x| x, 0.0, 1.0, 16);
        assert_eq!(lut.approximate(-5.0), 0.0);
        assert_eq!(lut.approximate(7.0), 1.0);
    }

    #[test]
    fn softmax_is_a_distribution() {
        let epu = Epu::default();
        let s = epu.softmax(&[1.0, 2.0, 3.0, -1.0, 0.5]);
        let sum: f32 = s.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
        // Monotone in the input.
        assert!(s[2] > s[1] && s[1] > s[0] && s[0] > s[3]);
    }

    #[test]
    fn softmax_matches_reference_closely() {
        let epu = Epu::default();
        let scores = [0.3f32, -2.0, 1.7, 0.0, 4.2, -0.9];
        let got = epu.softmax(&scores);
        let max = 4.2f32;
        let exps: Vec<f32> = scores.iter().map(|&s| (s - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        for (g, e) in got.iter().zip(exps.iter()) {
            assert!((g - e / sum).abs() < 1e-3, "{g} vs {}", e / sum);
        }
    }

    #[test]
    fn softmax_of_empty_is_empty() {
        assert!(Epu::default().softmax(&[]).is_empty());
    }

    #[test]
    fn reduction_sums_partials() {
        let epu = Epu::default();
        let partials = vec![vec![1.0, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]];
        assert_eq!(epu.reduce_partials(&partials), vec![111.0, 222.0]);
        assert!(epu.reduce_partials(&[]).is_empty());
    }

    #[test]
    fn cycle_models_scale_sanely() {
        let epu = EpuConfig::default();
        assert_eq!(epu.softmax_cycles(16), 2);
        assert!(epu.softmax_cycles(1 << 20) > epu.softmax_cycles(1 << 10));
        // 16 channels reducing a 128-dim head: 15 adds of 8 beats.
        assert_eq!(epu.reduce_cycles(16, 128), 15 * 8);
        assert_eq!(epu.reduce_cycles(1, 128), 0);
    }
}
