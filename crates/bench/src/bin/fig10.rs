//! Fig. 10(c): instruction-stream size vs context length — static streams
//! grow linearly, DPA stays nearly constant.

use pim_compiler::lower::{dpa_footprint, static_footprint, AttentionLowering};

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("fig10");
    bench::header("Fig. 10(c): per-kernel instruction bytes vs context length");
    let shape = AttentionLowering::aimx_default();
    let dpa = dpa_footprint(&shape);
    println!(
        "{:>10} {:>14} {:>12} {:>10}",
        "context", "static bytes", "DPA bytes", "ratio"
    );
    for exp in [12u32, 14, 16, 17, 18, 19, 20] {
        let t = 1u64 << exp;
        let s = static_footprint(&shape, t);
        println!(
            "{:>9}K {:>14} {:>12} {:>9.0}x",
            t / 1024,
            s.bytes,
            dpa.bytes,
            s.bytes as f64 / dpa.bytes as f64
        );
        sink.metric(format!("ctx{}K/static_bytes", t / 1024), s.bytes as f64);
        sink.metric(
            format!("ctx{}K/ratio", t / 1024),
            s.bytes as f64 / dpa.bytes as f64,
        );
    }
    println!(
        "(DPA encoding is context-independent: {} instructions)",
        dpa.instructions
    );
    sink.metric("dpa_bytes", dpa.bytes as f64);
    sink.metric("dpa_instructions", dpa.instructions as f64);
    sink.finish();
}
