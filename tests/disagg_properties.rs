//! Prefill/decode disaggregation properties: (1) a spec whose pool list
//! is a single all-default `mixed` pool is byte-identical to the flat
//! (pool-free) form it desugars from, (2) KV is conserved across the
//! prefill→decode handoff — every request the prefill pool retires is
//! served by the decode pool, and the transferred bytes are exactly the
//! per-request prices of the `KvTransferModel`, (3) transfer time is
//! monotone in the page count, and (4) thread-count byte-identity
//! holds with pools armed.

use pimphony::system::{
    KvTransferConfig, PoolRole, PoolSpec, PrefillConfig, RouterKind, Scenario, SchedulingPolicy,
    ServingReport, TenantSpec,
};
use pimphony::workload::{ArrivalProcess, Dataset, DecodeSpec};

const PREFILL_CHUNK: u64 = 512;
const REQUESTS: usize = 48;

/// The shared workload: one bursty open-loop tenant.
fn tenant() -> TenantSpec {
    TenantSpec::new("bursty-open-loop", Dataset::QmSum)
        .requests(REQUESTS)
        .seed(2026)
        .decode(DecodeSpec::Uniform(16, 96))
        .arrivals(ArrivalProcess::Bursty {
            rate: 16.0,
            cv: 2.5,
        })
}

/// Flat (pool-free) colocated baseline: 4 mixed replicas at TP=2.
fn flat_scenario() -> Scenario {
    let mut s = Scenario::new("LLM-7B-32K");
    s.cluster.tp = 2;
    s.cluster.modules = 8;
    s.cluster.threads = 1;
    s.policies.scheduling = SchedulingPolicy::Continuous;
    s.policies.prefill = PrefillConfig::chunked(PREFILL_CHUNK);
    s.tenant(tenant())
}

/// The same hardware written as one explicit `mixed` pool.
fn single_pool_scenario() -> Scenario {
    let mut s = flat_scenario();
    s.cluster.pools = vec![PoolSpec::new("all", PoolRole::Mixed, 4).parallel(2, 1)];
    s
}

/// A 2+2 disaggregated split of the same 8 modules: a prefill pool
/// handing off to a decode pool.
fn disagg_scenario() -> Scenario {
    let mut s = flat_scenario();
    s.cluster.pools = vec![
        PoolSpec::new("prefill", PoolRole::Prefill, 2).parallel(2, 1),
        PoolSpec::new("decode", PoolRole::Decode, 2).parallel(2, 1),
    ];
    s
}

/// Desugaring pin: the explicit single-mixed-pool spec must reproduce
/// the flat form byte-for-byte — per-pool structure stays invisible
/// (empty `per_pool`, zero transfer metrics), so pre-disaggregation
/// reports are unchanged.
#[test]
fn single_mixed_pool_desugars_to_the_flat_form_byte_identically() {
    let flat = flat_scenario().materialize().expect("flat").run();
    let pooled = single_pool_scenario().materialize().expect("pooled").run();
    assert_eq!(pooled, flat);
    assert!(pooled.per_pool.is_empty(), "one mixed pool is unobservable");
    assert_eq!(pooled.kv_transferred_bytes, 0);
    assert_eq!(pooled.transfer_seconds, 0.0);
}

/// KV conservation across the handoff: every request retired by the
/// prefill pool is admitted and served by the decode pool, and the
/// reported transfer traffic is exactly the sum of the model's
/// per-request prices over the trace — nothing shipped twice, nothing
/// dropped.
#[test]
fn handoff_conserves_requests_and_prices_transfers_exactly() {
    let m = disagg_scenario().materialize().expect("materialize");
    let r = m.run();
    assert_eq!(r.latency.completed, REQUESTS as u64, "every request lands");
    assert_eq!(r.per_pool.len(), 2);
    let (pre, dec) = (&r.per_pool[0], &r.per_pool[1]);
    assert_eq!(pre.role, PoolRole::Prefill);
    assert_eq!(dec.role, PoolRole::Decode);
    // Conservation: prefill serves (hands off) all N, decode serves the
    // same N again; nothing is shed on either side.
    assert_eq!(pre.routed, REQUESTS as u64);
    assert_eq!(pre.served, REQUESTS as u64);
    assert_eq!(pre.handoffs, REQUESTS as u64);
    assert_eq!(dec.routed, REQUESTS as u64);
    assert_eq!(dec.served, REQUESTS as u64);
    assert_eq!(pre.shed + dec.shed, 0);
    assert_eq!(dec.handoffs, 0, "decode pools only receive");
    // Exact pricing: the transferred bytes equal the model applied to
    // each prompt independently (`kv_bytes` is linear, so this is also
    // per-token exact).
    let model = m.pools[0].evaluator.kv_transfer_model();
    let mut bytes = 0u64;
    let mut secs = 0.0f64;
    for req in m.trace.requests() {
        let (b, pages, s) = model.transfer(req.context_len);
        assert!(pages > 0, "a prompt always occupies at least one page");
        bytes += b;
        secs += s;
    }
    assert_eq!(r.kv_transferred_bytes, bytes);
    assert_eq!(pre.kv_transferred_bytes, bytes);
    assert_eq!(dec.kv_transferred_bytes, 0);
    // Float sums run in different orders (merge: replica order;
    // here: trace order), so compare to relative epsilon.
    assert!(
        (r.transfer_seconds - secs).abs() <= secs * 1e-9,
        "{} vs {}",
        r.transfer_seconds,
        secs
    );
    assert!(r.transfer_seconds > 0.0);
    // Decode work happened where it should: the decode pool produced
    // all decode tokens (the prefill pool retires at prompt residency).
    assert!(dec.tokens > 0);
}

/// Transfer time is monotone (nondecreasing) in the prompt length, and
/// strictly increasing across page boundaries: more KV pages can never
/// ship faster.
#[test]
fn transfer_time_is_monotone_in_page_count() {
    let m = disagg_scenario().materialize().expect("materialize");
    let model = m.pools[0].evaluator.kv_transfer_model();
    let mut prev = model.transfer(1);
    for tokens in 2..=4096u64 {
        let cur = model.transfer(tokens);
        assert!(cur.0 >= prev.0, "bytes monotone at {tokens}");
        assert!(cur.1 >= prev.1, "pages monotone at {tokens}");
        assert!(cur.2 >= prev.2, "secs monotone at {tokens}");
        if cur.1 > prev.1 {
            assert!(cur.2 > prev.2, "a page boundary adds latency at {tokens}");
        }
        prev = cur;
    }
}

/// Thread-count byte-identity carries over to armed pools: the
/// two-phase handoff pipeline replays to the same report on 1, 2, and
/// 8 threads.
#[test]
fn disaggregated_run_is_thread_deterministic() {
    let runs: Vec<ServingReport> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let mut s = disagg_scenario();
            s.cluster.threads = threads;
            s.materialize().expect("materialize").run()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
}

/// Pool validation rejects topologies that cannot serve: a prefill
/// pool with nowhere to hand off, a decode pool with no feeder, roles
/// without continuous scheduling or modeled prefill, and duplicate
/// names.
#[test]
fn pool_validation_rejects_unservable_topologies() {
    let mut s = disagg_scenario();
    s.cluster.pools.pop();
    let err = s.materialize().unwrap_err();
    assert!(err.contains("decode pool is required"), "{err}");

    let mut s = disagg_scenario();
    s.cluster.pools.remove(0);
    let err = s.materialize().unwrap_err();
    assert!(err.contains("prefill pool is required"), "{err}");

    let mut s = disagg_scenario();
    s.policies.scheduling = SchedulingPolicy::Wave;
    let err = s.materialize().unwrap_err();
    assert!(err.contains("continuous scheduling"), "{err}");

    let mut s = disagg_scenario();
    s.policies.prefill = PrefillConfig::disabled();
    let err = s.materialize().unwrap_err();
    assert!(err.contains("prefill_chunk"), "{err}");

    let mut s = disagg_scenario();
    s.cluster.pools[1].name = "prefill".to_string();
    let err = s.materialize().unwrap_err();
    assert!(err.contains("duplicate pool name"), "{err}");
}

/// The checked-in `scenarios/disagg/*.json` pair parses, is canonical
/// (byte-identical to its own re-serialization), and exercises the
/// machinery it documents: the split spec declares prefill and decode
/// pools, runs with a populated `per_pool` breakdown and nonzero
/// transfer traffic; the colocated baseline stays pool-free.
#[test]
fn checked_in_disagg_scenarios_are_canonical_and_exercise_the_pools() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/disagg");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/disagg/ directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 2, "expected the colocated/split pair");
    assert!(
        paths.iter().any(|p| p.ends_with("split_2p2d.json")),
        "scenarios/disagg/split_2p2d.json is checked in"
    );
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let scenario = Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            scenario.to_pretty(),
            text,
            "{}: spec must be canonical (run scenario_check --canonicalize)",
            path.display()
        );
        let split = !scenario.cluster.pools.is_empty();
        // A pooled spec replayed as a flat cluster would hand nothing off.
        assert_eq!(
            split,
            path.ends_with("split_2p2d.json"),
            "{}",
            path.display()
        );
        let r = scenario
            .materialize()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .run();
        if split {
            assert_eq!(r.per_pool.len(), 2, "{}", path.display());
            assert!(r.kv_transferred_bytes > 0, "{}", path.display());
            assert!(r.transfer_seconds > 0.0, "{}", path.display());
        } else {
            assert!(r.per_pool.is_empty(), "{}", path.display());
            assert_eq!(r.kv_transferred_bytes, 0, "{}", path.display());
        }
        assert!(r.latency.completed > 0, "{}", path.display());
    }
}

/// The pooled spec round-trips through JSON — including role labels,
/// per-pool routers, and off-default transfer terms — and the
/// round-tripped spec reproduces the report byte-for-byte.
#[test]
fn pooled_spec_round_trips_through_json() {
    let mut s = disagg_scenario();
    s.cluster.pools[1].router = Some(RouterKind::JoinShortestQueue);
    s.policies.kv_transfer = KvTransferConfig {
        page_latency_us: 35.0,
        gbps: 32.0,
    };
    let text = s.to_pretty();
    let back = Scenario::parse(&text).expect("parse back");
    assert_eq!(back, s);
    assert_eq!(back.to_pretty(), text, "deterministic serialization");
    let r1 = s.materialize().expect("materialize").run();
    let r2 = back.materialize().expect("materialize back").run();
    assert_eq!(r1, r2);
}
