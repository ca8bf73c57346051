//! Scenario-spec properties: the declarative `system::scenario` layer
//! must be pure structure — (1) JSON round-trips are identities all the
//! way down to the `ServingReport` bytes, (2) a one-tenant scenario
//! with priority 0 and unchanged knobs is byte-identical to the
//! hand-assembled `TraceBuilder` + `Evaluator` path it replaced (the
//! wave, continuous, prefill, and preemption golden-pin
//! configurations), and (3) the checked-in `scenarios/*.json` parse,
//! materialize, and report per-tenant SLO attainment end-to-end.

use pimphony::pim_compiler::ParallelConfig;
use pimphony::system::{
    Cluster, Evaluator, PreemptionPolicy, RouterKind, Scenario, SchedulingPolicy, ServingReport,
    SystemConfig, Techniques, TenantSpec,
};
use pimphony::workload::{ArrivalProcess, Dataset, DecodeSpec, Trace, TraceBuilder};

const PREFILL_CHUNK: u64 = 512;

/// The hand-assembled path a spec must reproduce: 4 replicas (TP=2
/// over 8 modules) behind one cluster front-end.
fn base_eval() -> Evaluator {
    let sys = SystemConfig::cent_for(&pimphony::llm_model::LLM_7B_32K)
        .with_parallel(ParallelConfig::new(2, 1));
    Evaluator::new(sys, pimphony::llm_model::LLM_7B_32K, Techniques::pimphony())
}

/// The PR 3/PR 4 golden-pin trace: 160 bursty requests, decode
/// U[16,96], seed 2026.
fn pinned_trace() -> Trace {
    TraceBuilder::new(Dataset::QmSum)
        .seed(2026)
        .requests(160)
        .decode_range(16, 96)
        .bursty(16.0, 2.5)
        .build()
}

/// The one-tenant spec describing exactly that trace and cluster.
fn pinned_scenario() -> Scenario {
    let mut s = Scenario::new("LLM-7B-32K");
    s.cluster.tp = 2;
    s.cluster.threads = 4;
    s.policies.scheduling = SchedulingPolicy::Continuous;
    s.tenant(
        TenantSpec::new("bursty-open-loop", Dataset::QmSum)
            .requests(160)
            .seed(2026)
            .decode(DecodeSpec::Uniform(16, 96))
            .arrivals(ArrivalProcess::Bursty {
                rate: 16.0,
                cv: 2.5,
            }),
    )
}

fn direct_run(eval: &Evaluator, trace: &Trace, kind: RouterKind, threads: usize) -> ServingReport {
    Cluster::new(eval, eval.scheduling_policy())
        .with_threads(threads)
        .run(trace, kind.build_for(eval).as_mut())
}

/// One-tenant scenario traces are bit-identical to plain builder
/// traces: same ids, arrivals, contexts, decode budgets — the tenant
/// tag is the only (zero-valued) difference, and `Trace` equality
/// covers it.
#[test]
fn one_tenant_scenario_trace_is_bit_exact_with_trace_builder() {
    let m = pinned_scenario().materialize().expect("materialize");
    assert_eq!(m.trace, pinned_trace());
}

/// Continuous golden pin (PR 3/PR 4): the spec path must reproduce the
/// pinned numbers byte-for-byte, and the whole `ServingReport` must
/// equal the hand-assembled path's.
#[test]
fn continuous_golden_pin_through_scenario() {
    let m = pinned_scenario().materialize().expect("materialize");
    let r = m.run();
    let direct = direct_run(
        &base_eval().with_policy(SchedulingPolicy::Continuous),
        &pinned_trace(),
        RouterKind::RoundRobin,
        4,
    );
    assert_eq!(r, direct, "spec path must be byte-identical");
    // The PR 4 pinned values, re-asserted through the spec path.
    assert_eq!(r.tokens, 9029);
    assert_eq!(r.waves, 155);
    assert_eq!(
        r.tokens_per_second, 8.431546858351828e2,
        "tokens_per_second"
    );
    assert_eq!(r.latency.ttft.p99, 2.8818125257142846e-1, "ttft p99");
    // The single-tenant breakdown mirrors the aggregate.
    assert_eq!(r.latency_by_tenant.len(), 1);
    assert_eq!(r.latency_by_tenant[0].tenant, 0);
    assert_eq!(r.latency_by_tenant[0].latency, r.latency);
    assert_eq!(r.latency_by_tenant[0].tokens, r.tokens);
}

/// Wave golden pin: a closed-world one-tenant spec equals the
/// hand-assembled wave path byte-for-byte (which itself is pinned
/// against the pre-engine reference loop by `engine_properties`).
#[test]
fn wave_golden_pin_through_scenario() {
    let s = Scenario::new("LLM-7B-32K").tenant(
        TenantSpec::new("closed-world", Dataset::QmSum)
            .requests(12)
            .seed(3)
            .decode(DecodeSpec::Fixed(32)),
    );
    let r = s.materialize().expect("materialize").run();
    let trace = TraceBuilder::new(Dataset::QmSum)
        .seed(3)
        .requests(12)
        .decode_len(32)
        .build();
    let eval = Evaluator::new(
        SystemConfig::cent_for(&pimphony::llm_model::LLM_7B_32K),
        pimphony::llm_model::LLM_7B_32K,
        Techniques::pimphony(),
    );
    assert_eq!(r, direct_run(&eval, &trace, RouterKind::RoundRobin, 1));
    assert_eq!(r.tokens, trace.total_decode_tokens());
}

/// Prefill golden configuration: chunked prefill through the spec path
/// equals the hand-assembled `with_chunked_prefill` path byte-for-byte.
#[test]
fn prefill_configuration_through_scenario() {
    let mut s = pinned_scenario();
    s.policies.prefill = pimphony::system::PrefillConfig::chunked(PREFILL_CHUNK);
    s.policies.router = RouterKind::LeastPrefill;
    s.workload[0].requests = 32;
    let r = s.materialize().expect("materialize").run();
    let trace = TraceBuilder::new(Dataset::QmSum)
        .seed(2026)
        .requests(32)
        .decode_range(16, 96)
        .bursty(16.0, 2.5)
        .build();
    let eval = base_eval()
        .with_policy(SchedulingPolicy::Continuous)
        .with_chunked_prefill(PREFILL_CHUNK);
    let direct = direct_run(&eval, &trace, RouterKind::LeastPrefill, 4);
    assert_eq!(r, direct);
    assert!(r.prefill_tokens > 0);
}

/// Preemption golden configuration: a one-tenant priority-0 spec with
/// an eviction policy armed and the KV pool halved must (a) equal the
/// hand-assembled path byte-for-byte and (b) never evict — uniform
/// priorities make every preemption policy coincide with `None`, the
/// PR 4 invariant, now holding through the spec layer too.
#[test]
fn preemption_configuration_through_scenario_never_evicts_single_tenant() {
    let mut s = pinned_scenario();
    s.policies.preemption = PreemptionPolicy::EvictPause;
    s.policies.kv_capacity_factor = 0.5;
    s.policies.prefill = pimphony::system::PrefillConfig::chunked(PREFILL_CHUNK);
    s.policies.router = RouterKind::JoinShortestQueue;
    s.workload[0].requests = 48;
    s.workload[0].arrivals = ArrivalProcess::Bursty { rate: 1.0, cv: 2.5 };
    s.workload[0].seed = 7;
    let r = s.materialize().expect("materialize").run();
    let trace = TraceBuilder::new(Dataset::QmSum)
        .seed(7)
        .requests(48)
        .decode_range(16, 96)
        .bursty(1.0, 2.5)
        .build();
    let mk = |policy| {
        base_eval()
            .with_policy(SchedulingPolicy::Continuous)
            .with_chunked_prefill(PREFILL_CHUNK)
            .with_kv_capacity_factor(0.5)
            .with_preemption(policy)
    };
    let direct = direct_run(
        &mk(PreemptionPolicy::EvictPause),
        &trace,
        RouterKind::JoinShortestQueue,
        4,
    );
    assert_eq!(r, direct);
    assert_eq!(r.evictions, 0, "uniform priority must never evict");
    let none = direct_run(
        &mk(PreemptionPolicy::None),
        &trace,
        RouterKind::JoinShortestQueue,
        4,
    );
    assert_eq!(r, none, "armed-but-unprovoked must coincide with None");
}

/// Serialize → parse → materialize → run must produce byte-identical
/// reports to the in-memory spec (the full satellite round trip).
#[test]
fn json_round_trip_preserves_the_serving_report() {
    let mut s = pinned_scenario();
    s.workload[0].requests = 24;
    s.policies.router = RouterKind::JoinShortestQueue;
    s.workload[0].slo_ttft_p99 = Some(0.5);
    let text = s.to_pretty();
    let back = Scenario::parse(&text).expect("parse back");
    assert_eq!(back, s);
    let r1 = s.materialize().expect("materialize original").run();
    let r2 = back.materialize().expect("materialize round-trip").run();
    assert_eq!(r1, r2);
    assert_eq!(back.to_pretty(), text, "deterministic serialization");
}

/// Thread-count invariance extends to multi-tenant scenario runs.
#[test]
fn multi_tenant_scenario_is_thread_deterministic() {
    let mut s = pinned_scenario();
    s.policies.router = RouterKind::JoinShortestQueue;
    s.workload[0].requests = 16;
    s.workload[0].priority = 1;
    s.workload[0].slo_ttft_p99 = Some(30.0);
    let mut s = s.tenant(
        TenantSpec::new("batch", Dataset::Musique)
            .requests(12)
            .seed(9)
            .decode(DecodeSpec::Uniform(8, 48))
            .arrivals(ArrivalProcess::Poisson { rate: 2.0 }),
    );
    let runs: Vec<ServingReport> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            s.cluster.threads = threads;
            s.materialize().expect("materialize").run()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
    assert_eq!(runs[0].latency_by_tenant.len(), 2);
    // Conservation per tenant: every request completes for its owner.
    assert_eq!(runs[0].latency_by_tenant[0].latency.completed, 16);
    assert_eq!(runs[0].latency_by_tenant[1].latency.completed, 12);
}

/// Every checked-in `scenarios/*.json` must parse, materialize, run,
/// and report per-tenant statistics — the same contract CI's
/// `scenario_check` step enforces, kept test-local so `cargo test`
/// alone catches a drifting spec.
#[test]
fn checked_in_scenarios_parse_materialize_and_run() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 3, "expected the checked-in example specs");
    let mut saw_multi_tenant = false;
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let scenario = Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let m = scenario
            .materialize()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let r = m.run();
        assert!(r.latency.completed > 0, "{}", path.display());
        assert_eq!(
            r.latency_by_tenant.len(),
            scenario.workload.len(),
            "{}",
            path.display()
        );
        for t in &r.latency_by_tenant {
            assert!(
                (0.0..=1.0).contains(&t.slo_attainment),
                "{}",
                path.display()
            );
        }
        let f = r.tenant_fairness();
        assert!(f > 0.0 && f <= 1.0, "{}: fairness {f}", path.display());
        if scenario.workload.len() >= 2 {
            saw_multi_tenant = true;
            // The multi-tenant example must exercise the SLO machinery:
            // at least one tenant with a target, and under its eviction
            // policy the spec provokes real preemptions.
            assert!(scenario.workload.iter().any(|t| t.slo_ttft_p99.is_some()));
            assert!(r.evictions > 0, "{}: expected evictions", path.display());
        }
    }
    assert!(saw_multi_tenant, "a multi-tenant example spec is required");
}

/// Every `.json` spec under `dir`, recursively, in path order.
fn specs_under(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
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

/// There is one way to run a scenario: `Orchestrator::from_scenario`
/// plus `serve` returns exactly `Materialized::run`'s report for every
/// checked-in spec — replica pools and calibrated SLO-aware routers
/// included. (`scenarios/perf/` is skipped: its 100k requests belong to
/// `sim_speed`.) The disaggregated spec must really hand KV off, so a
/// pooled spec replayed as a flat cluster cannot pass.
#[test]
fn orchestrator_and_materialized_run_agree_on_every_checked_in_spec() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let specs: Vec<_> = specs_under(&root)
        .into_iter()
        .filter(|p| !p.starts_with(root.join("perf")))
        .collect();
    let mut saw_disagg = false;
    for path in &specs {
        let name = path.display().to_string();
        let scenario = Scenario::from_file(&name).unwrap_or_else(|e| panic!("{e}"));
        let direct = scenario.materialize().expect("materialize").run();
        let (orchestrator, trace) =
            pimphony::Orchestrator::from_scenario(&scenario).expect("materialize");
        assert_eq!(orchestrator.serve(&trace), direct, "{name}");
        if path.ends_with("disagg/split_2p2d.json") {
            saw_disagg = true;
            assert!(direct.kv_transferred_bytes > 0, "{name}: no KV handoff");
        }
    }
    assert!(saw_disagg, "scenarios/disagg/split_2p2d.json is checked in");
}
