//! Quickstart: serve a long-context trace on a PIM system, with and
//! without PIMphony, and print the headline comparison.
//!
//! Run with: `cargo run --example quickstart`

use pimphony::system::{Evaluator, SystemConfig, Techniques};
use pimphony::workload::{Dataset, TraceBuilder};

fn main() {
    // A QMSum-like workload: 32 requests, 64 generated tokens each.
    let trace = TraceBuilder::new(Dataset::QmSum)
        .seed(1)
        .requests(32)
        .decode_len(64)
        .build();
    println!(
        "workload: {} requests, mean context {:.0} tokens",
        trace.len(),
        trace.mean_context()
    );

    // The CENT-like PIM-only system sized for the model (Table IV),
    // under the default closed-world wave scheduling.
    let model = pimphony::llm_model::LLM_7B_32K;
    let serve = |techniques| {
        Evaluator::new(SystemConfig::cent_for(&model), model, techniques).run_trace(&trace)
    };
    let rb = serve(Techniques::baseline());
    let rp = serve(Techniques::pimphony());
    println!(
        "\n{:<12} {:>12} {:>10} {:>10}",
        "config", "tokens/s", "MAC util", "capacity"
    );
    for (name, r) in [("baseline", &rb), ("PIMphony", &rp)] {
        println!(
            "{:<12} {:>12.1} {:>9.1}% {:>9.1}%",
            name,
            r.tokens_per_second,
            r.attn_utilization * 100.0,
            r.capacity_utilization * 100.0
        );
    }
    println!(
        "\nspeedup: {:.2}x",
        rp.tokens_per_second / rb.tokens_per_second
    );
}
