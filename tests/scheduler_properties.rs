//! Property-based tests for the PIM command schedulers: hazard freedom,
//! DCS superiority, functional correctness against reference linear
//! algebra, and bus legality — over randomized kernels and streams.

use pimphony::pim_sim::checker::check_schedule;
use pimphony::pim_sim::functional::FunctionalChannel;
use pimphony::pim_sim::kernels::{AttentionSpec, GemvKernel, GemvSpec, QktKernel, SvKernel};
use pimphony::pim_sim::{schedule, Geometry, SchedulerKind, Timing};
use proptest::prelude::*;

fn small_geometry() -> Geometry {
    Geometry {
        banks: 4,
        gbuf_entries: 8,
        out_entries: 2,
        row_tiles: 8,
        elems_per_tile: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every scheduler's schedule is hazard-free on random GEMV kernels.
    #[test]
    fn schedulers_never_violate_hazards(dout in 1u32..96, din in 1u32..96) {
        let geom = small_geometry();
        let stream = GemvKernel::new(GemvSpec { dout, din }, geom).stream();
        for kind in SchedulerKind::ALL {
            let r = schedule(&stream, kind, &Timing::aimx(), &geom);
            let v = check_schedule(&stream, &r);
            prop_assert!(v.is_empty(), "{kind}: {:?}", v);
        }
    }

    /// DCS never loses to static scheduling; ping-pong sits in between
    /// (up to a small modeling tolerance).
    #[test]
    fn dcs_dominates_static(tokens in 64u32..2048, group in 1u32..4) {
        let geom = Geometry::pimphony();
        let spec = AttentionSpec { tokens, head_dim: 128, group_size: group, row_reuse: group > 1 };
        for stream in [QktKernel::new(spec, geom).stream(), SvKernel::new(spec, geom).stream()] {
            let st = schedule(&stream, SchedulerKind::Static, &Timing::aimx(), &geom);
            let dc = schedule(&stream, SchedulerKind::Dcs, &Timing::aimx(), &geom);
            prop_assert!(dc.summary.cycles <= st.summary.cycles, "dcs {} > static {}", dc.summary.cycles, st.summary.cycles);
        }
    }

    /// The GEMV kernel computes the reference matrix-vector product for
    /// arbitrary shapes and values, including the partial-sum path.
    #[test]
    fn gemv_matches_reference(
        dout in 1u32..64,
        din in 1u32..96,
        seed in 0u64..1000,
    ) {
        let geom = small_geometry();
        let k = GemvKernel::new(GemvSpec { dout, din }, geom);
        let w = move |o: usize, i: usize| {
            (((o as u64 * 31 + i as u64 * 17 + seed) % 13) as f32) * 0.25 - 1.5
        };
        let x: Vec<f32> = (0..din as usize)
            .map(|i| (((i as u64 * 7 + seed) % 11) as f32) * 0.3 - 1.0)
            .collect();
        let mut ch = FunctionalChannel::new(geom);
        k.load_weights(&mut ch, w);
        ch.execute(&k.stream(), &k.input_tiles(&x));
        let got = k.output_from(&ch);
        for (o, &g) in got.iter().enumerate() {
            let want: f32 = (0..din as usize).map(|i| w(o, i) * x[i]).sum();
            prop_assert!((g - want).abs() < 1e-2, "out[{o}]: {g} vs {want}");
        }
    }

    /// Attention kernels honour GQA semantics: per-query scores equal the
    /// reference dot products under the row-reuse mapping.
    #[test]
    fn qkt_gqa_matches_reference(tokens in 4u32..48, g in 1u32..4) {
        let geom = small_geometry();
        let spec = AttentionSpec { tokens, head_dim: 8, group_size: g, row_reuse: g > 1 };
        let k = QktKernel::new(spec, geom);
        let key = |tok: usize, d: usize| ((tok * 3 + d) % 7) as f32 * 0.5 - 1.0;
        let queries: Vec<Vec<f32>> =
            (0..g as usize).map(|q| (0..8).map(|d| (q + d) as f32 * 0.25).collect()).collect();
        let mut ch = FunctionalChannel::new(geom);
        k.load_keys(&mut ch, key);
        ch.execute(&k.stream(), &k.input_tiles(&queries));
        let scores = k.scores_from(&ch);
        for (q, qv) in queries.iter().enumerate() {
            #[allow(clippy::needless_range_loop)]
            for tok in 0..tokens as usize {
                let want: f32 = (0..8).map(|d| key(tok, d) * qv[d]).sum();
                prop_assert!((scores[q][tok] - want).abs() < 1e-2, "q={q} tok={tok}");
            }
        }
    }

    /// Command-bus legality: no two commands issue closer than t_CCDS.
    #[test]
    fn bus_spacing_is_legal(tokens in 32u32..512) {
        let geom = Geometry::pimphony();
        let t = Timing::aimx();
        let stream = QktKernel::new(AttentionSpec::mha(tokens, 128), geom).stream();
        for kind in SchedulerKind::ALL {
            let r = schedule(&stream, kind, &t, &geom);
            let mut issues: Vec<u64> = r.timings.iter().map(|x| x.issue).collect();
            issues.sort_unstable();
            for w in issues.windows(2) {
                prop_assert!(w[1] - w[0] >= t.t_ccds, "{kind}: {:?}", w);
            }
        }
    }
}
