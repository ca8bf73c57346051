//! Full-report digest pins for every checked-in scenario spec.
//!
//! `BENCH_serving.json` rows carry a chosen subset of each report
//! (throughput, latency percentiles, a few counters); energy,
//! utilization, capacity, mean batch, wave counts and shedding appear
//! in no row. These pins cover the whole `ServingReport`: each is the
//! FNV-1a (64-bit) digest of the report's `Debug` rendering, which
//! prints every float in its shortest round-trip form, so a digest
//! holds exactly when every field is bit-identical. The 100k-request
//! `perf/sim_speed_100k.json` is left to perfbench's `fleet_jsq`
//! digest.

use pimphony::system::{PrefillConfig, Scenario};
use std::path::{Path, PathBuf};

/// `(spec path under scenarios/, digest of its report's Debug text)`.
const PINS: &[(&str, u64)] = &[
    ("cache/shared_prefix.json", 0xc0ef31eea7f13b8f),
    ("disagg/colocated_baseline.json", 0xf525bc7a2641c8c0),
    ("disagg/split_2p2d.json", 0xa91f6166c7405744),
    ("single_tenant_continuous.json", 0xb4772a21287b0aef),
    ("slo/slo_native.json", 0x1f746839108d6f9f),
    ("two_tenant_slo.json", 0xd830fe97655f0687),
    ("wave_closed_world.json", 0x25b162fc67d4d6a9),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |state, &b| {
        (state ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

/// Every `.json` spec under `dir`, recursively, in path order.
fn specs_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable scenarios directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.extend(specs_under(&path));
        } else if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
    out.sort();
    out
}

#[test]
fn every_checked_in_spec_reproduces_its_pinned_report() {
    let root = scenarios_dir();
    let mut found = Vec::new();
    for path in specs_under(&root) {
        let rel = path
            .strip_prefix(&root)
            .expect("spec under scenarios/")
            .to_string_lossy()
            .replace('\\', "/");
        if rel == "perf/sim_speed_100k.json" {
            continue;
        }
        let scenario =
            Scenario::from_file(&path.display().to_string()).unwrap_or_else(|e| panic!("{e}"));
        let report = scenario
            .materialize()
            .unwrap_or_else(|e| panic!("{rel}: {e}"))
            .run();
        found.push((rel, fnv1a64(format!("{report:?}").as_bytes())));
    }
    let rendered: Vec<String> = found
        .iter()
        .map(|(rel, d)| format!("(\"{rel}\", {d:#018x}),"))
        .collect();
    let pinned: Vec<(String, u64)> = PINS.iter().map(|&(r, d)| (r.to_string(), d)).collect();
    assert_eq!(
        found,
        pinned,
        "report digests changed; fresh pins:\n{}",
        rendered.join("\n")
    );
}

/// No checked-in spec runs the wave policy with chunked prefill
/// (`wave_closed_world.json` has `prefill_chunk: 0`), so the wave loop's
/// prefill path is pinned on a programmatic variant: the same spec with
/// 512-token prefill chunks on a quarter of the KV capacity, so the
/// prompts run as several waves that prefill the same chunk offsets
/// again and again.
#[test]
fn wave_policy_with_chunked_prefill_reproduces_its_pinned_report() {
    let path = scenarios_dir().join("wave_closed_world.json");
    let mut scenario =
        Scenario::from_file(&path.display().to_string()).unwrap_or_else(|e| panic!("{e}"));
    scenario.policies.prefill = PrefillConfig::chunked(512);
    scenario.policies.kv_capacity_factor = 0.25;
    let report = scenario
        .materialize()
        .unwrap_or_else(|e| panic!("{e}"))
        .run();
    assert!(report.prefill_tokens > 0, "the variant prefills");
    assert!(report.waves > 1, "the variant runs several waves");
    let digest = fnv1a64(format!("{report:?}").as_bytes());
    assert_eq!(digest, 0xd32092b57c2aead4, "fresh pin: {digest:#018x}");
}
