//! Table I: LLM specifications and context windows.

use llm_model::ModelConfig;

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("table1");
    bench::header("Table I: LLM specification and context window");
    println!(
        "{:<18} {:>4} {:>4} {:>5} {:>7} {:>7} {:>5} {:>9} {:>9}",
        "model", "nl", "nh", "dh", "d_in", "d_ffn", "GQA", "CW", "params"
    );
    for m in ModelConfig::table1() {
        println!(
            "{:<18} {:>4} {:>4} {:>5} {:>7} {:>7} {:>5} {:>8}K {:>8.1}B",
            m.name,
            m.layers,
            m.heads,
            m.head_dim,
            m.hidden_dim,
            m.ffn_dim,
            if m.uses_gqa() {
                format!("g={}", m.gqa_group)
            } else {
                "x".into()
            },
            m.context_window / 1024,
            m.param_count() as f64 / 1e9,
        );
        sink.metric(format!("{}/params_b", m.name), m.param_count() as f64 / 1e9);
        sink.metric(
            format!("{}/context_window", m.name),
            m.context_window as f64,
        );
    }
    sink.finish();
}
