//! Fig. 9: QKT / SV latency breakdown for LLM-72B attention, without and
//! with DCS. Both sides use the GQA row-reuse mapping.

use pim_sim::kernels::{AttentionSpec, QktKernel, SvKernel};
use pim_sim::{summarize, Geometry, ScheduleSummary, SchedulerKind, Timing};

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("fig9");
    bench::header("Fig. 9: LLM-72B attention breakdown (row-reuse mapping, g=8)");
    let timing = Timing::aimx();
    let spec = AttentionSpec {
        tokens: 4096,
        head_dim: 128,
        group_size: 8,
        row_reuse: true,
    };
    type SummaryOf = fn(AttentionSpec, SchedulerKind, &Timing, Geometry) -> ScheduleSummary;
    let kernels: [(&str, SummaryOf); 2] = [
        ("QKT", |s, k, t, g| {
            summarize(&QktKernel::new(s, g), k, t, &g)
        }),
        ("SV", |s, k, t, g| summarize(&SvKernel::new(s, g), k, t, &g)),
    ];
    println!(
        "{:>5} {:>10} {:>9} {:>7} {:>8} {:>8} {:>8} {:>9}",
        "krnl", "sched", "cycles", "MAC%", "DTgbuf%", "DTout%", "actpre%", "stall%"
    );
    for (name, summary_of) in kernels {
        for (label, kind, geom) in [
            ("static", SchedulerKind::Static, Geometry::baseline()),
            ("dcs", SchedulerKind::Dcs, Geometry::pimphony()),
        ] {
            let r = summary_of(spec, kind, &timing, geom);
            let tot = r.cycles.max(1) as f64;
            let b = &r.breakdown;
            println!(
                "{:>5} {:>10} {:>9} {:>6.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>8.1}%",
                name,
                label,
                r.cycles,
                100.0 * b.mac as f64 / tot,
                100.0 * b.dt_gbuf as f64 / tot,
                100.0 * b.dt_outreg as f64 / tot,
                100.0 * b.act_pre as f64 / tot,
                100.0 * (b.pipeline + b.refresh) as f64 / tot,
            );
            sink.metric(format!("{name}/{label}/cycles"), r.cycles as f64);
            sink.metric(
                format!("{name}/{label}/mac_pct"),
                100.0 * b.mac as f64 / tot,
            );
        }
    }
    sink.finish();
}
