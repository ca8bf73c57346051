//! Fig. 4: PIM MAC utilization under short (4K) and long (32K) contexts
//! on CENT, as TCP / DCS / DPA are applied. Batch size scales inversely
//! with context due to the capacity constraint; request lengths vary, so
//! HFP also suffers load imbalance.

use llm_model::LLM_7B_128K_GQA;
use system::{Evaluator, SystemConfig, Techniques};
use workload::{DatasetStats, TraceBuilder};

fn varied_batch(ctx: u64, n: u64) -> Vec<(u64, u64)> {
    let stats = DatasetStats {
        name: "fig4",
        suite: "synthetic",
        mean: ctx as f64,
        std: ctx as f64 * 0.35,
        max: ctx * 2,
        min: (ctx / 4).max(1),
    };
    TraceBuilder::from_stats(stats)
        .seed(4)
        .requests(n as usize)
        .build()
        .iter()
        .map(|r| (r.id, r.context_len))
        .collect()
}

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("fig4");
    bench::header("Fig. 4: PIM utilization vs context (LLM-7B w/ GQA on CENT)");
    let model = LLM_7B_128K_GQA;
    let sys = SystemConfig::cent_for(&model);
    let mut base_util = [0.0f64; 2];
    for (i, ctx) in [4096u64, 32 * 1024].into_iter().enumerate() {
        println!("\ncontext = {}K", ctx / 1024);
        println!("{:<16} {:>10} {:>8}", "config", "MAC util", "batch");
        for t in Techniques::ladder() {
            let e = Evaluator::new(sys, model, t);
            // Effective batch: fill replica KV capacity at this context;
            // the static stream is compiled for the workload's 2x worst
            // case.
            let per = e.kv_reservation(ctx, ctx * 2);
            let batch = (e.replica_kv_capacity() / per).clamp(1, 64);
            let it = e.iteration(&varied_batch(ctx, batch));
            if t == Techniques::baseline() {
                base_util[i] = it.attn_utilization;
            }
            println!(
                "{:<16} {:>9.1}% {:>8}",
                t.label(),
                it.attn_utilization * 100.0,
                batch
            );
            sink.metric(
                format!("ctx{}K/{}/mac_util", ctx / 1024, t.label()),
                it.attn_utilization,
            );
        }
    }
    let drop = 100.0 * (1.0 - base_util[1] / base_util[0].max(1e-12));
    println!("\nbaseline utilization drop 4K -> 32K: {drop:.0}% (paper: 48%)");
    sink.metric("baseline_util_drop_pct", drop);
    sink.finish();
}
