//! Fig. 7: static vs Dynamic Command Scheduling on the GEMV micro-example.
//!
//! Three input tiles, two output groups of three MACs each, two drains —
//! the paper's command stack. The row is treated as pre-opened (t_ACT =
//! t_PRE = 0), as in the paper's diagram.

use pim_isa::command::CommandStream;
use pim_isa::PimCommand;
use pim_sim::{schedule, summarize, Geometry, SchedulerKind, Timing};

fn stream() -> CommandStream {
    let mut s = CommandStream::new();
    let mut id = 0;
    for e in 0..3u16 {
        s.push(PimCommand::wr_inp(id, e, 0));
        id += 1;
    }
    for col in 0..3u16 {
        s.push(PimCommand::mac(id, col, 0, col, 0));
        id += 1;
    }
    s.push(PimCommand::rd_out(id, 0, 0));
    id += 1;
    for col in 0..3u16 {
        s.push(PimCommand::mac(id, col, 0, 3 + col, 1));
        id += 1;
    }
    s.push(PimCommand::rd_out(id, 1, 0));
    s
}

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let s = stream();
    let timing = Timing {
        t_act: 0,
        t_pre: 0,
        ..Timing::aimx_no_refresh()
    };
    let geom = Geometry::pimphony();
    bench::header("Fig. 7: GEMV command stack, static vs DCS issue schedule");
    for kind in [SchedulerKind::Static, SchedulerKind::Dcs] {
        let r = schedule(&s, kind, &timing, &geom);
        println!("\n{kind} schedule ({} cycles):", r.summary.cycles);
        print!("  issue@: ");
        for (cmd, t) in s.iter().zip(&r.timings) {
            print!("{}={} ", cmd, t.issue);
        }
        println!();
    }
    let st = summarize(&s, SchedulerKind::Static, &timing, &geom);
    let dc = summarize(&s, SchedulerKind::Dcs, &timing, &geom);
    println!(
        "\nlatency reduction: {} -> {} cycles ({:.0}%; paper: 34 -> 22, 35%)",
        st.cycles,
        dc.cycles,
        100.0 * (1.0 - dc.cycles as f64 / st.cycles as f64)
    );
    let mut sink = bench::MetricSink::new("fig7");
    sink.metric("static_cycles", st.cycles as f64);
    sink.metric("dcs_cycles", dc.cycles as f64);
    sink.metric(
        "latency_reduction_pct",
        100.0 * (1.0 - dc.cycles as f64 / st.cycles as f64),
    );
    sink.finish();
}
