//! Fig. 2: decode characteristics — compute intensity falls with context,
//! memory footprint grows with context and batch.

use llm_model::{DecodeAnalytics, LLM_7B_128K_GQA};

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("fig2");
    let a = DecodeAnalytics::new(LLM_7B_128K_GQA);
    bench::header("Fig. 2(a): compute intensity (FLOPs/Byte), LLM-7B w/ GQA, batch 8");
    println!("{:>10} {:>14}", "context", "FLOPs/Byte");
    for exp in [10, 12, 14, 16, 17, 18, 19, 20] {
        let t = 1u64 << exp;
        println!("{:>9}K {:>14.2}", t / 1024, a.compute_intensity(t, 8));
        sink.metric(
            format!("ctx{}K/flops_per_byte", t / 1024),
            a.compute_intensity(t, 8),
        );
    }

    bench::header("Fig. 2(b): memory footprint (GB); dashed line = A100-80GB");
    print!("{:>10}", "context");
    let batches = [1u64, 4, 16, 64];
    for b in batches {
        print!(" {:>9}", format!("batch={b}"));
    }
    println!();
    for exp in [12, 14, 16, 17, 18, 20] {
        let t = 1u64 << exp;
        print!("{:>9}K", t / 1024);
        for b in batches {
            let gb = a.memory_footprint(t, b) as f64 / (1u64 << 30) as f64;
            let marker = if gb > 80.0 { "*" } else { "" };
            print!(" {:>8.1}{marker}", gb);
            sink.metric(format!("ctx{}K/batch{b}/footprint_gb", t / 1024), gb);
        }
        println!();
    }
    println!("(* = exceeds one A100-80GB)");
    sink.finish();
}
