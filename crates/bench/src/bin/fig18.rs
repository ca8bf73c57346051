//! Fig. 18: compute utilization — DCS vs ping-pong buffering, across MHA
//! and GQA group sizes (both use the row-reuse mapping under GQA).

use pim_sim::kernels::{AttentionSpec, QktKernel, SvKernel};
use pim_sim::{summarize, Geometry, SchedulerKind, Timing};

fn attn_util(spec: AttentionSpec, kind: SchedulerKind, geom: Geometry, timing: &Timing) -> f64 {
    let summaries = [
        summarize(&QktKernel::new(spec, geom), kind, timing, &geom),
        summarize(&SvKernel::new(spec, geom), kind, timing, &geom),
    ];
    let mut busy = 0.0;
    let mut total = 0.0;
    for r in &summaries {
        busy += (r.mac_count * timing.t_ccds) as f64;
        total += r.cycles as f64;
    }
    busy / total
}

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("fig18");
    bench::header("Fig. 18: compute utilization, ping-pong vs DCS (attention)");
    let timing = Timing::aimx();
    let geom = Geometry::pimphony();
    println!(
        "{:<10} {:>10} {:>10} {:>8}",
        "workload", "ping-pong", "DCS", "gain"
    );
    for (label, g) in [
        ("MHA", 1u32),
        ("GQA g=2", 2),
        ("GQA g=4", 4),
        ("GQA g=8", 8),
    ] {
        let spec = AttentionSpec {
            tokens: 4096,
            head_dim: 128,
            group_size: g,
            row_reuse: g > 1,
        };
        let pp = attn_util(spec, SchedulerKind::PingPong, geom, &timing);
        let dcs = attn_util(spec, SchedulerKind::Dcs, geom, &timing);
        println!(
            "{:<10} {:>9.1}% {:>9.1}% {:>7.2}x",
            label,
            pp * 100.0,
            dcs * 100.0,
            dcs / pp
        );
        sink.metric(format!("{label}/pingpong_util"), pp);
        sink.metric(format!("{label}/dcs_util"), dcs);
        sink.metric(format!("{label}/gain_x"), dcs / pp);
    }
    println!("(paper: DCS achieves up to 1.4x higher compute-unit utilization)");
    sink.finish();
}
