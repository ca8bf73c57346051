//! Fig. 8: latency breakdown across matrix dimensions under static
//! scheduling — small (attention-like) dims drown in I/O and stalls.

use pim_sim::kernels::{GemvKernel, GemvSpec};
use pim_sim::{summarize, Geometry, SchedulerKind, Timing};

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("fig8");
    bench::header("Fig. 8: GEMV (d x d) latency breakdown, static scheduling");
    println!(
        "{:>6} {:>9} {:>7} {:>8} {:>8} {:>8} {:>6} {:>9} {:>9}",
        "dim", "cycles", "MAC%", "DTgbuf%", "DTout%", "actpre%", "ref%", "stall%", "MACutil"
    );
    let geom = Geometry::baseline();
    let timing = Timing::aimx();
    for d in [128u32, 256, 512, 1024, 2048, 4096, 8192] {
        let kernel = GemvKernel::new(GemvSpec { dout: d, din: d }, geom);
        let r = summarize(&kernel, SchedulerKind::Static, &timing, &geom);
        let b = &r.breakdown;
        let tot = r.cycles.max(1) as f64;
        println!(
            "{:>6} {:>9} {:>6.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>5.1}% {:>8.1}% {:>8.1}%",
            d,
            r.cycles,
            100.0 * b.mac as f64 / tot,
            100.0 * b.dt_gbuf as f64 / tot,
            100.0 * b.dt_outreg as f64 / tot,
            100.0 * b.act_pre as f64 / tot,
            100.0 * b.refresh as f64 / tot,
            100.0 * b.pipeline as f64 / tot,
            100.0 * r.mac_utilization(),
        );
        sink.metric(format!("d{d}/cycles"), r.cycles as f64);
        sink.metric(format!("d{d}/mac_util"), r.mac_utilization());
    }
    println!("(paper: MAC utilization drops to 14.7% at d=128)");
    sink.finish();
}
