//! Bench-trajectory regression gate (offline-friendly CLI over
//! `bench::regression`).
//!
//! Two modes:
//!
//! * `check_regression --snapshot BENCH_serving.json fresh1.json ...`
//!   — compares freshly produced `--json` bench files against the
//!   checked-in snapshot. Every field of every row must be identical,
//!   except the wall-clock fields: `wall_seconds` is not compared and
//!   `sim_requests_per_second` may drop by less than 30%. Prints one
//!   `bench/row.field: <snapshot> -> <fresh>` line per difference and
//!   exits nonzero, ending with the command that accepts the fresh
//!   rows.
//! * `check_regression --write-snapshot BENCH_serving.json fresh1.json ...`
//!   — merges per-bin bench files into a new snapshot. This is the only
//!   accept step.
//!
//! Malformed input (a document without a `bench` name, a row without a
//! `name`, a duplicate `bench/name` row) is an error in both modes.
//! CI runs the `--tiny` serving benches with `--json` and gates on the
//! snapshot; the same two commands reproduce the gate locally with no
//! network or services.

use bench::json::Json;
use bench::regression;

fn read_doc(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

/// Runs the gate, exiting with status 2 on malformed input.
fn compare(snapshot: &Json, fresh: &[Json]) -> (usize, Vec<String>) {
    regression::compare(snapshot, fresh).unwrap_or_else(|e| {
        eprintln!("check_regression: malformed bench file: {e}");
        std::process::exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((mode, rest)) if mode == "--write-snapshot" && rest.len() >= 2 => {
            let (out, inputs) = rest.split_first().expect("output path then inputs");
            let benches: Vec<Json> = inputs.iter().map(|p| read_doc(p)).collect();
            let snapshot = regression::merge_snapshot(benches.clone());
            let (rows, _) = compare(&snapshot, &benches);
            std::fs::write(out, snapshot.to_pretty())
                .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
            println!(
                "wrote snapshot {out} ({} benches, {rows} rows)",
                benches.len()
            );
        }
        Some((mode, rest)) if mode == "--snapshot" && rest.len() >= 2 => {
            let (snap_path, inputs) = rest.split_first().expect("snapshot path then inputs");
            let fresh: Vec<Json> = inputs.iter().map(|p| read_doc(p)).collect();
            let (rows, diffs) = compare(&read_doc(snap_path), &fresh);
            if diffs.is_empty() {
                println!(
                    "OK: {rows} rows identical to {snap_path} (wall_seconds not compared, \
                     sim_requests_per_second drop < {:.0}%)",
                    regression::MAX_SIM_SPEED_DROP * 100.0
                );
                return;
            }
            eprintln!(
                "REGRESSION GATE FAILED: {} differences from {snap_path}",
                diffs.len()
            );
            for d in &diffs {
                eprintln!("  {d}");
            }
            eprintln!(
                "\nIf every difference is intended, accept the fresh rows (the snapshot is \
                 rewritten from exactly these files):\n  \
                 cargo run --release -p bench --bin check_regression -- --write-snapshot {snap_path} {}",
                inputs.join(" ")
            );
            std::process::exit(1);
        }
        _ => {
            eprintln!(
                "usage: check_regression --snapshot <BENCH_serving.json> <fresh.json>...\n\
                 \x20      check_regression --write-snapshot <out.json> <fresh.json>..."
            );
            std::process::exit(2);
        }
    }
}
