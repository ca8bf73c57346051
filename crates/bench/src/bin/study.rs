//! Runs study specs: the serving sweeps as checked-in data
//! (`studies/<bench>.json`, format in `docs/scenarios.md`, "Studies").
//! Each study writes one bench document, the rows the regression gate
//! pins in `BENCH_serving.json`.
//!
//! Run with: `cargo run --release -p bench --bin study -- studies/*.json`
//! (`--tiny` for the CI smoke configuration, `--json-dir <dir>` to write
//! each study's rows to `<dir>/<bench>.json`).

use bench::cli::Usage;
use bench::study::Study;

const USAGE: Usage = Usage {
    bin: "study",
    switches: &["--tiny", "--json-dir <dir>"],
    positionals: "<study.json>...",
};

fn main() {
    let args = USAGE.parse();
    if args.rest.is_empty() {
        USAGE.exit("no study file given");
    }
    let mut failures = 0usize;
    for path in &args.rest {
        let result =
            Study::from_file(path).and_then(|s| Ok((s.run(args.flag("--tiny"))?, s.bench)));
        match result {
            Ok((rows, bench)) => {
                if let Some(dir) = args.value("--json-dir") {
                    bench::write_bench_json(&format!("{dir}/{bench}.json"), &bench, rows);
                }
            }
            Err(e) => {
                eprintln!("\nFAIL {path}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
