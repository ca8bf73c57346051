//! A/B harness for host-speed claims: two built perfbench binaries, run
//! as interleaved pairs.
//!
//! ```sh
//! ab --base <perfbench> --change <perfbench> --workloads paper_ladder,fleet_jsq \
//!    --seeds 2026,4242 --seconds 4 --pairs 10 [--expect-output-change]
//! ```
//!
//! For each workload and seed, pair `i` runs both binaries once with
//! `--trace 0`, the base first in even pairs and the change first in odd
//! ones, so a drift in host load lands on both sides alike. Per metric
//! it prints each side's median and interquartile range, the median and
//! range of the change-over-base ratio across pairs, and in how many
//! pairs the change was ahead (higher is better except for times and
//! memory).
//!
//! The simulated outputs are deterministic, so they are compared
//! exactly: the run fails (status 1) if `correct`, `failed` or any
//! `modelled_*` value differs between the two sides in any pair, unless
//! `--expect-output-change` is given. Wall-clock is reported, never
//! gated.

use bench::cli::Usage;
use bench::json::Json;
use std::process::{Command, ExitCode};

const USAGE: Usage = Usage {
    bin: "ab",
    switches: &[
        "--base <perfbench>",
        "--change <perfbench>",
        "--workloads <a,b,..>",
        "--seeds <n,m,..>",
        "--seconds <s>",
        "--pairs <n>",
        "--expect-output-change",
    ],
    positionals: "",
};

/// One perfbench run's last line: whether its outputs checked, how many
/// passes failed, and its metrics with their units, in printed order.
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    correct: bool,
    failed: f64,
    metrics: Vec<(String, String, f64)>,
}

impl RunResult {
    /// Parses the JSON object perfbench prints as its last line.
    fn parse(stdout: &str) -> Result<RunResult, String> {
        let line = stdout.lines().last().ok_or("empty output")?;
        let doc = Json::parse(line)?;
        let correct = match doc.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("no boolean \"correct\"".to_string()),
        };
        let failed = doc
            .get("failed")
            .and_then(Json::as_f64)
            .ok_or("no numeric \"failed\"")?;
        let Some(Json::Obj(pairs)) = doc.get("metrics") else {
            return Err("no \"metrics\" object".to_string());
        };
        let metrics = pairs
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) => Ok((name.clone(), u.to_string(), v)),
                    _ => Err(format!("metric {name}: no value and unit")),
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(RunResult {
            correct,
            failed,
            metrics,
        })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(.., v)| v)
    }

    /// What differs between two runs' simulated outputs: `correct`,
    /// `failed` and every `modelled_*` metric.
    fn output_diffs(&self, other: &RunResult) -> Vec<String> {
        let mut diffs = Vec::new();
        if self.correct != other.correct {
            diffs.push(format!("correct: {} vs {}", self.correct, other.correct));
        }
        if self.failed != other.failed {
            diffs.push(format!("failed: {} vs {}", self.failed, other.failed));
        }
        let mut names: Vec<&str> = [self, other]
            .iter()
            .flat_map(|r| r.metrics.iter().map(|(n, ..)| n.as_str()))
            .filter(|n| n.starts_with("modelled_"))
            .collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let (a, b) = (self.value(name), other.value(name));
            // Bit equality: the values are deterministic outputs.
            if a.map(f64::to_bits) != b.map(f64::to_bits) {
                diffs.push(format!("{name}: {a:?} vs {b:?}"));
            }
        }
        diffs
    }
}

/// Whether a smaller value of a metric in `unit` is the better one:
/// times and memory.
fn lower_is_better(unit: &str) -> bool {
    matches!(unit, "s" | "MiB")
}

/// The `q`-quantile of `sorted` (ascending, non-empty), interpolating
/// linearly between order statistics.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// One metric's summary over the pairs.
#[derive(Debug, Clone, PartialEq)]
struct MetricRow {
    name: String,
    unit: String,
    /// Median, first and third quartile of each side: base, change.
    sides: [[f64; 3]; 2],
    /// Median, least and greatest change-over-base ratio.
    ratio: [f64; 3],
    /// Pairs in which the change was strictly better.
    ahead: usize,
}

/// Summarizes every metric the base's first run reports over `pairs`
/// of `(base, change)` runs.
fn summarize(pairs: &[(RunResult, RunResult)]) -> Vec<MetricRow> {
    let Some((first, _)) = pairs.first() else {
        return Vec::new();
    };
    first
        .metrics
        .iter()
        .filter_map(|(name, unit, _)| {
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .map(|(a, b)| Some((a.value(name)?, b.value(name)?)))
                .collect::<Option<_>>()?;
            let stats = |v: Vec<f64>| {
                let s = sorted(v);
                [quantile(&s, 0.5), quantile(&s, 0.25), quantile(&s, 0.75)]
            };
            let base = stats(values.iter().map(|v| v.0).collect());
            let change = stats(values.iter().map(|v| v.1).collect());
            let ratios = sorted(values.iter().map(|&(a, b)| b / a).collect());
            let ahead = values
                .iter()
                .filter(|&&(a, b)| if lower_is_better(unit) { b < a } else { b > a })
                .count();
            Some(MetricRow {
                name: name.clone(),
                unit: unit.clone(),
                sides: [base, change],
                ratio: [quantile(&ratios, 0.5), ratios[0], ratios[ratios.len() - 1]],
                ahead,
            })
        })
        .collect()
}

/// Runs one perfbench binary and parses its result line.
fn run(bin: &str, workload: &str, seed: &str, seconds: &str) -> Result<RunResult, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", seed])
        .args(["--seconds", seconds, "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    RunResult::parse(&stdout).map_err(|e| {
        format!(
            "{bin} --workload {workload} --seed {seed}: {e} (status {}, stderr: {})",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })
}

fn print_rows(rows: &[MetricRow], pairs: usize) {
    println!(
        "{:<28} {:>8} {:>28} {:>28} {:>8} {:>17} {:>7}",
        "metric",
        "unit",
        "base median [q1, q3]",
        "change median [q1, q3]",
        "ratio",
        "ratio range",
        "ahead"
    );
    let side = |s: [f64; 3]| format!("{} [{}, {}]", fmt(s[0]), fmt(s[1]), fmt(s[2]));
    for r in rows {
        println!(
            "{:<28} {:>8} {:>28} {:>28} {:>8.4} {:>17} {:>7}",
            r.name,
            r.unit,
            side(r.sides[0]),
            side(r.sides[1]),
            r.ratio[0],
            format!("{:.4}..{:.4}", r.ratio[1], r.ratio[2]),
            format!("{}/{pairs}", r.ahead),
        );
    }
}

/// At least four significant digits, in fixed notation.
fn fmt(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        (3 - v.abs().log10().floor() as i32).max(0)
    };
    format!("{v:.*}", digits as usize)
}

fn main() -> ExitCode {
    let args = USAGE.parse();
    let need = |name: &str| {
        args.value(name)
            .unwrap_or_else(|| USAGE.exit(&format!("{name} is required")))
            .to_string()
    };
    let (base, change) = (need("--base"), need("--change"));
    let list = |name: &str| -> Vec<String> {
        need(name)
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    };
    let (workloads, seeds) = (list("--workloads"), list("--seeds"));
    let seconds = need("--seconds");
    let pairs: usize = need("--pairs")
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| USAGE.exit("--pairs must be a positive integer"));
    let expect_change = args.flag("--expect-output-change");

    let mut diverged = false;
    for workload in &workloads {
        for seed in &seeds {
            let mut results = Vec::with_capacity(pairs);
            for i in 0..pairs {
                let side = |bin: &str| {
                    run(bin, workload, seed, &seconds).unwrap_or_else(|e| {
                        eprintln!("ab: {e}");
                        std::process::exit(1)
                    })
                };
                let pair = if i % 2 == 0 {
                    let a = side(&base);
                    (a, side(&change))
                } else {
                    let b = side(&change);
                    (side(&base), b)
                };
                for diff in pair.0.output_diffs(&pair.1) {
                    diverged = true;
                    eprintln!("ab: {workload} seed {seed} pair {i}: output differs: {diff}");
                }
                results.push(pair);
            }
            println!("\n{workload} seed {seed}: {pairs} interleaved pairs, {seconds} s each");
            print_rows(&summarize(&results), pairs);
        }
    }
    if diverged && !expect_change {
        eprintln!("ab: simulated outputs differ (pass --expect-output-change if intended)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(correct: bool, failed: u32, rate: f64, tok: f64) -> String {
        format!(
            "noise\n{{\"correct\": {correct}, \"attempted\": 4, \"failed\": {failed}, \"metrics\": \
             {{\"sim_req_per_s\": {{\"value\": {rate}, \"unit\": \"1/s\"}}, \
             \"setup_s\": {{\"value\": 0.5, \"unit\": \"s\"}}, \
             \"modelled_tok_per_s\": {{\"value\": {tok}, \"unit\": \"tok/s\"}}}}}}"
        )
    }

    #[test]
    fn parses_the_last_line() {
        let r = RunResult::parse(&line(true, 0, 100.0, 7.5)).unwrap();
        assert!(r.correct);
        assert_eq!(r.failed, 0.0);
        assert_eq!(r.value("sim_req_per_s"), Some(100.0));
        assert_eq!(r.metrics[1], ("setup_s".into(), "s".into(), 0.5));
        assert!(RunResult::parse("").is_err());
        assert!(RunResult::parse("{\"correct\": true}").is_err());
    }

    #[test]
    fn output_diffs_name_correct_failed_and_modelled_only() {
        let a = RunResult::parse(&line(true, 0, 100.0, 7.5)).unwrap();
        let faster = RunResult::parse(&line(true, 0, 120.0, 7.5)).unwrap();
        assert!(a.output_diffs(&faster).is_empty());
        let moved = RunResult::parse(&line(true, 0, 100.0, 7.500000000000001)).unwrap();
        assert_eq!(a.output_diffs(&moved).len(), 1);
        let wrong = RunResult::parse(&line(false, 1, 100.0, 7.5)).unwrap();
        assert_eq!(a.output_diffs(&wrong).len(), 2);
    }

    #[test]
    fn summary_counts_the_better_direction() {
        let run = |rate: f64, setup: f64| RunResult {
            correct: true,
            failed: 0.0,
            metrics: vec![
                ("sim_req_per_s".into(), "1/s".into(), rate),
                ("setup_s".into(), "s".into(), setup),
            ],
        };
        let pairs = vec![
            (run(100.0, 1.0), run(110.0, 0.9)),
            (run(100.0, 1.0), run(90.0, 1.1)),
            (run(100.0, 1.0), run(120.0, 0.8)),
        ];
        let rows = summarize(&pairs);
        assert_eq!(rows[0].ahead, 2);
        assert_eq!(rows[0].sides[1][0], 110.0);
        assert_eq!(rows[0].ratio, [1.1, 0.9, 1.2]);
        assert_eq!(rows[1].ahead, 2);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert_eq!(quantile(&[5.0], 0.75), 5.0);
    }
}
