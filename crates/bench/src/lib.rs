//! Shared helpers for the experiment binaries (`src/bin/fig*.rs`,
//! `src/bin/table*.rs`) and Criterion benches that regenerate every table
//! and figure of the PIMphony paper, and for the serving binaries:
//! [`study`] runs the serving sweeps from checked-in `studies/*.json`,
//! [`cli`] holds the argument parsing and the scenario rows every
//! serving run emits, and [`regression`] gates those rows against
//! `BENCH_serving.json`.

pub use jsonio as json;

pub mod cli;
pub mod regression;
pub mod study;

use json::Json;
use llm_model::ModelConfig;
use pim_compiler::ParallelConfig;
use system::{Evaluator, ServingReport, SystemConfig, Techniques};
use workload::{Dataset, Trace, TraceBuilder};

/// Makes a closed stdout end the process quietly with status 0, as
/// `fig13 | head -2` expects: `println!` panics with "failed printing
/// to stdout: Broken pipe" once the reader has gone, and this panic hook
/// turns exactly that panic into `exit(0)`. Every other panic keeps the
/// default report. The figure and table binaries call it first thing.
pub fn exit_quietly_on_closed_stdout() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        report(info);
    }));
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// One machine-readable result row for a serving run: the identifying
/// name, the offered rate, and the metrics the regression gate and the
/// perf trajectory track (throughput, latency percentiles,
/// prefill/eviction counters). Extend with `push_row_field` for
/// bench-specific columns.
pub fn serving_row(name: &str, rate: f64, r: &ServingReport) -> Json {
    let l = &r.latency;
    Json::obj([
        ("name", Json::str(name)),
        ("rate_rps", Json::num(rate)),
        ("tokens_per_second", Json::num(r.tokens_per_second)),
        ("tokens", Json::num(r.tokens as f64)),
        ("completed", Json::num(l.completed as f64)),
        ("ttft_p50", Json::num(l.ttft.p50)),
        ("ttft_p95", Json::num(l.ttft.p95)),
        ("ttft_p99", Json::num(l.ttft.p99)),
        ("tpot_p50", Json::num(l.tpot.p50)),
        ("tpot_p99", Json::num(l.tpot.p99)),
        ("e2e_p50", Json::num(l.e2e.p50)),
        ("e2e_p95", Json::num(l.e2e.p95)),
        ("e2e_p99", Json::num(l.e2e.p99)),
        ("queueing_p50", Json::num(l.queueing.p50)),
        ("prefill_p50", Json::num(l.prefill.p50)),
        ("prefill_tokens", Json::num(r.prefill_tokens as f64)),
        ("evictions", Json::num(r.evictions as f64)),
        (
            "wasted_prefill_tokens",
            Json::num(r.wasted_prefill_tokens as f64),
        ),
        (
            "wasted_decode_tokens",
            Json::num(r.wasted_decode_tokens as f64),
        ),
        ("restart_seconds", Json::num(r.restart_seconds)),
    ])
}

/// Appends a bench-specific field to a row built by [`serving_row`].
pub fn push_row_field(row: &mut Json, key: &str, value: Json) {
    if let Json::Obj(pairs) = row {
        pairs.push((key.to_string(), value));
    }
}

/// Row collector giving any bench binary a `--json <path>` mode.
///
/// Figure/table binaries record each printed number as a named scalar
/// (`metric`) and the ladder figures record full [`serving_row`]s
/// (`ladder`);
/// on [`MetricSink::finish`] the rows are written as the standard
/// `{"bench": ..., "rows": [...]}` document if `--json` was passed, and
/// discarded otherwise — so instrumenting a binary costs nothing when
/// the flag is absent. Scalar rows carry only `name`/`value` keys; the
/// regression gate ignores them unless they are added to the snapshot.
pub struct MetricSink {
    bench: &'static str,
    path: Option<String>,
    rows: Vec<Json>,
}

impl MetricSink {
    /// Creates a sink for the binary `bench`, reading `--json` from
    /// the process arguments; any other argument exits with the usage
    /// line (see [`cli::Usage`]).
    pub fn new(bench: &'static str) -> Self {
        let usage = cli::Usage {
            bin: bench,
            switches: &["--json <path>"],
            positionals: "",
        };
        MetricSink {
            bench,
            path: usage.parse().value("--json").map(str::to_string),
            rows: Vec::new(),
        }
    }

    /// Records one named scalar result.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.rows.push(Json::Obj(vec![
            ("name".to_string(), Json::Str(name.into())),
            ("value".to_string(), Json::num(value)),
        ]));
    }

    /// Records every rung of a technique ladder as serving rows named
    /// `{title}/{rung}`.
    pub fn ladder(&mut self, title: &str, rows: &[(&'static str, ServingReport)]) {
        for (label, report) in rows {
            self.rows
                .push(serving_row(&format!("{title}/{label}"), 0.0, report));
        }
    }

    /// Writes the collected rows if `--json` was requested.
    pub fn finish(self) {
        if let Some(path) = self.path {
            write_bench_json(&path, self.bench, self.rows);
        }
    }
}

/// Writes one bench's rows as a `{"bench": ..., "rows": [...]}` JSON
/// document (creating parent directories as needed) and reports the
/// path on stdout.
pub fn write_bench_json(path: &str, bench: &str, rows: Vec<Json>) {
    let doc = Json::obj([("bench", Json::str(bench)), ("rows", Json::Arr(rows))]);
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create --json parent directory");
        }
    }
    std::fs::write(path, doc.to_pretty()).expect("write --json output");
    println!("\nwrote {bench} results to {path}");
}

/// The standard evaluation trace for a dataset (small but representative;
/// seeds are fixed for reproducibility).
pub fn trace_for(dataset: Dataset, requests: usize, decode_len: u64) -> Trace {
    TraceBuilder::new(dataset)
        .seed(2026)
        .requests(requests)
        .decode_len(decode_len)
        .build()
}

/// Runs the base/+TCP/+DCS/+DPA ladder on one (system, model, trace),
/// picking the best (TP, PP) factorization per configuration — the
/// paper's "optimal TP/PP settings".
pub fn ladder(
    system: SystemConfig,
    model: ModelConfig,
    trace: &Trace,
) -> Vec<(&'static str, ServingReport)> {
    Techniques::ladder()
        .into_iter()
        .map(|t| (t.label(), best_parallel(system, model, t, trace)))
        .collect()
}

/// The highest-throughput run of `trace` across the feasible (TP, PP)
/// factorizations of `system`'s modules, falling back to `system`'s own
/// parallelization when none can hold the longest request.
pub fn best_parallel(
    system: SystemConfig,
    model: ModelConfig,
    techniques: Techniques,
    trace: &Trace,
) -> ServingReport {
    let t_max = trace.iter().map(|r| r.final_len()).max().unwrap_or(0);
    ParallelConfig::factorizations(system.modules)
        .into_iter()
        .filter_map(|p| {
            let e = Evaluator::new(system.with_parallel(p), model, techniques);
            e.feasible(t_max).then(|| e.run_trace(trace))
        })
        .max_by(|a, b| {
            a.tokens_per_second
                .partial_cmp(&b.tokens_per_second)
                .expect("finite throughput")
        })
        .unwrap_or_else(|| Evaluator::new(system, model, techniques).run_trace(trace))
}

/// Formats a speedup column relative to the first entry.
pub fn speedups(rows: &[(&'static str, ServingReport)]) -> Vec<(String, f64, f64)> {
    let base = rows
        .first()
        .map(|(_, r)| r.tokens_per_second)
        .unwrap_or(1.0)
        .max(1e-12);
    rows.iter()
        .map(|(label, r)| {
            (
                label.to_string(),
                r.tokens_per_second,
                r.tokens_per_second / base,
            )
        })
        .collect()
}

/// Prints a ladder as an aligned table.
pub fn print_ladder(title: &str, rows: &[(&'static str, ServingReport)]) {
    println!("\n{title}");
    println!(
        "{:<16} {:>14} {:>9} {:>10} {:>10}",
        "config", "tokens/s", "speedup", "util", "batch"
    );
    for (label, tput, speedup) in speedups(rows) {
        let report = &rows
            .iter()
            .find(|(l, _)| *l == label)
            .expect("label present")
            .1;
        println!(
            "{:<16} {:>14.1} {:>8.2}x {:>9.1}% {:>10.1}",
            label,
            tput_or(tput),
            speedup,
            report.attn_utilization * 100.0,
            report.mean_batch
        );
    }
}

fn tput_or(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The models the evaluation sweeps (Table I).
pub fn eval_models() -> [(ModelConfig, [Dataset; 2]); 4] {
    [
        (llm_model::LLM_7B_32K, Dataset::longbench()),
        (llm_model::LLM_72B_32K, Dataset::longbench()),
        (llm_model::LLM_7B_128K_GQA, Dataset::lv_eval()),
        (llm_model::LLM_72B_128K_GQA, Dataset::lv_eval()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_helper_is_reproducible() {
        let a = trace_for(Dataset::QmSum, 8, 16);
        let b = trace_for(Dataset::QmSum, 8, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn speedups_are_relative_to_first() {
        let sys = SystemConfig::cent_for(&llm_model::LLM_7B_32K);
        let trace = trace_for(Dataset::QmSum, 4, 8);
        let rows = ladder(sys, llm_model::LLM_7B_32K, &trace);
        let s = speedups(&rows);
        assert!((s[0].2 - 1.0).abs() < 1e-9);
        assert!(s.last().unwrap().2 >= 1.0);
    }
}
