//! Fig. 15: throughput across (TP, PP) factorizations, with PIMphony's
//! techniques applied incrementally.

use llm_model::{LLM_7B_128K_GQA, LLM_7B_32K};
use pim_compiler::ParallelConfig;
use system::{Evaluator, SystemConfig, Techniques};
use workload::Dataset;

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("fig15");
    bench::header("Fig. 15: tensor vs pipeline parallelization (CENT, 8 modules)");
    let cases = [
        (LLM_7B_32K, Dataset::QmSum, "LLM-7B-32K / QMSum"),
        (
            LLM_7B_128K_GQA,
            Dataset::MultiFieldQa,
            "LLM-7B-128K-GQA / multifieldqa",
        ),
    ];
    for (model, dataset, title) in cases {
        println!("\n{title}");
        let trace = bench::trace_for(dataset, 24, 32);
        let base_sys = SystemConfig::cent_for(&model);
        print!("{:<16}", "config");
        for p in ParallelConfig::factorizations(base_sys.modules) {
            print!(" {:>14}", p.to_string());
        }
        println!();
        for t in Techniques::ladder() {
            print!("{:<16}", t.label());
            for p in ParallelConfig::factorizations(base_sys.modules) {
                let e = Evaluator::new(base_sys.with_parallel(p), model, t);
                let tput = e.run_trace(&trace).tokens_per_second;
                print!(" {:>12.1}/s", tput);
                sink.metric(format!("{title}/{}/{p}/tokens_per_second", t.label()), tput);
            }
            println!();
        }
    }
    sink.finish();
}
