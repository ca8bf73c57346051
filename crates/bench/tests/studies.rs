//! The checked-in studies, checked without simulating them: every
//! `studies/*.json` expands in tiny mode to exactly the rows its bench
//! pins in `BENCH_serving.json`, and the study and scenario front-ends
//! reject a misspelled key or switch with a non-zero exit that names it.

use bench::json::Json;
use bench::study::Study;
use std::collections::BTreeSet;
use std::process::Command;

const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn study_files() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(format!("{REPO}/studies"))
        .expect("studies/ exists")
        .map(|e| e.expect("directory entry").path().display().to_string())
        .filter(|p| p.ends_with(".json"))
        .collect();
    files.sort();
    files
}

/// The row names a run emits (see `bench::cli::scenario_rows`): the
/// aggregate row, one row per tenant, and one per pool when the pool
/// structure is observable.
fn row_names(run: &bench::study::Run) -> Vec<String> {
    let s = &run.scenario;
    let mut names = vec![run.name.clone()];
    names.extend(
        s.workload
            .iter()
            .map(|t| format!("{}/{}", run.name, t.name)),
    );
    let pools = &s.cluster.pools;
    if pools.len() > 1 || pools.iter().any(|p| p.role != system::PoolRole::Mixed) {
        names.extend(
            pools
                .iter()
                .map(|p| format!("{}/pool/{}", run.name, p.name)),
        );
    }
    names
}

#[test]
fn tiny_studies_expand_to_the_snapshot_rows() {
    let text = std::fs::read_to_string(format!("{REPO}/BENCH_serving.json")).expect("snapshot");
    let snapshot = Json::parse(&text).expect("snapshot parses");
    let mut benches = Vec::new();
    for path in study_files() {
        let study = Study::from_file(&path).expect("study parses");
        let expanded: BTreeSet<String> = study
            .expand(true)
            .expect("study expands")
            .iter()
            .flat_map(row_names)
            .collect();
        let doc = snapshot
            .get("benches")
            .and_then(Json::as_arr)
            .expect("benches array")
            .iter()
            .find(|b| b.get("bench").and_then(Json::as_str) == Some(study.bench.as_str()))
            .unwrap_or_else(|| panic!("{path}: bench {} not in the snapshot", study.bench));
        let pinned: BTreeSet<String> = doc
            .get("rows")
            .and_then(Json::as_arr)
            .expect("rows")
            .iter()
            .map(|r| {
                r.get("name")
                    .and_then(Json::as_str)
                    .expect("row name")
                    .to_string()
            })
            .collect();
        assert_eq!(expanded, pinned, "{path}");
        benches.push(study.bench);
    }
    assert_eq!(
        benches,
        [
            "disagg_frontier",
            "goodput_frontier",
            "latency_curve",
            "preemption_sweep",
            "prefill_sweep",
            "prefix_cache",
            "router_compare"
        ]
    );
}

#[test]
fn full_size_studies_expand_to_the_sweep_sizes() {
    // Runs per study at full size, in file order: the products of the
    // sweeps' axis lengths.
    let runs: Vec<usize> = study_files()
        .iter()
        .map(|path| Study::from_file(path).unwrap().expand(false).unwrap().len())
        .collect();
    assert_eq!(runs, [12, 12, 40, 21, 12, 6, 10]);
}

/// Runs a bench binary, expecting exit status 2 or 1 (`want_status`),
/// and returns its stderr.
fn failing_run(bin: &str, args: &[&str], want_status: i32) -> String {
    let out = Command::new(bin)
        .args(args)
        .current_dir(REPO)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(want_status),
        "{bin} {args:?}: {stderr}"
    );
    stderr
}

#[test]
fn an_unknown_switch_exits_2_naming_it() {
    let err = failing_run(env!("CARGO_BIN_EXE_study"), &["--tiny", "--bogus"], 2);
    assert!(err.contains("unknown argument \"--bogus\""), "{err}");
    assert!(err.contains("usage: study"), "{err}");
    let err = failing_run(env!("CARGO_BIN_EXE_fig10"), &["--bogus"], 2);
    assert!(err.contains("unknown argument \"--bogus\""), "{err}");
    assert!(err.contains("usage: fig10 [--json <path>]"), "{err}");
}

#[test]
fn a_misspelled_key_fails_the_run_naming_it() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let study = std::fs::read_to_string(format!("{REPO}/studies/prefix_cache.json")).unwrap();
    let typo = format!("{dir}/typo_study.json");
    std::fs::write(&typo, study.replacen("\"sweeps\"", "\"sweep\"", 1)).unwrap();
    let err = failing_run(env!("CARGO_BIN_EXE_study"), &["--tiny", &typo], 1);
    assert!(err.contains("sweep: unknown key"), "{err}");

    let spec = std::fs::read_to_string(format!("{REPO}/scenarios/two_tenant_slo.json")).unwrap();
    let typo = format!("{dir}/typo_scenario.json");
    let bad = spec.replacen("\"kv_capacity_factor\"", "\"kv_capactiy_factor\"", 1);
    std::fs::write(&typo, bad).unwrap();
    let err = failing_run(env!("CARGO_BIN_EXE_scenario_check"), &[&typo], 1);
    assert!(
        err.contains("policies.kv_capactiy_factor: unknown key"),
        "{err}"
    );
}
