//! Fig. 20: throughput, GPU (A100 + flash-decoding + paged-attention) vs
//! PIMphony, memory-matched.

use llm_model::{LLM_72B_128K_GQA, LLM_72B_32K, LLM_7B_128K_GQA, LLM_7B_32K};
use system::{GpuSystem, SystemConfig};
use workload::Dataset;

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("fig20");
    bench::header("Fig. 20: GPU vs PIMphony throughput (memory-matched)");
    let cases = [
        (LLM_7B_32K, Dataset::QmSum),
        (LLM_72B_32K, Dataset::QmSum),
        (LLM_7B_128K_GQA, Dataset::MultiFieldQa),
        (LLM_72B_128K_GQA, Dataset::MultiFieldQa),
    ];
    println!(
        "{:<18} {:<14} {:>6} {:>12} {:>14} {:>9}",
        "model", "dataset", "GPUs", "GPU tok/s", "phony tok/s", "speedup"
    );
    for (model, dataset) in cases {
        let trace = bench::trace_for(dataset, 24, 32);
        let gpu = GpuSystem::matched_for(&model);
        let g = gpu.throughput(&model, &trace);
        // PIMphony at its best (TP, PP), like the ladder.
        let rows = bench::ladder(SystemConfig::cent_for(&model), model, &trace);
        let p = &rows.last().expect("ladder nonempty").1;
        println!(
            "{:<18} {:<14} {:>6} {:>12.1} {:>14.1} {:>8.2}x",
            model.name,
            dataset.name(),
            gpu.gpus,
            g,
            p.tokens_per_second,
            p.tokens_per_second / g.max(1e-12)
        );
        sink.metric(format!("{}/gpu_tokens_per_second", model.name), g);
        sink.metric(
            format!("{}/phony_tokens_per_second", model.name),
            p.tokens_per_second,
        );
        sink.metric(
            format!("{}/speedup_x", model.name),
            p.tokens_per_second / g.max(1e-12),
        );
    }
    println!("(paper: PIMphony leads, larger on non-GQA; 72B narrows the FC gap)");
    sink.finish();
}
