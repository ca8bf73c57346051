//! Properties the benchmark's checks rely on: digests are stable and
//! sensitive, the timing router changes no decision, pinning a pass to a
//! core can be undone, and the generated workloads are the specs and
//! pipelines they claim to be.

use perfbench::digest::{fnv1a64, reports_digest};
use perfbench::harness::{run_pass, run_with_timed_routers, Setup};
use perfbench::timing::{affinity, set_affinity, CpuSet, RouteTimes};
use perfbench::workloads::{
    cell_seed, fleet_jsq, kv_pressure, ladder_scenarios, Workload, DEFAULT_SEED, MAX_SEED,
};
use system::{
    PreemptionPolicy, PrefillConfig, RouterKind, Scenario, SchedulingPolicy, ServingReport,
    SystemConfig, Techniques, TenantSpec,
};
use workload::{ArrivalProcess, Dataset, DecodeSpec, TraceBuilder};

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn pinning_to_one_core_is_undone_by_restoring_the_home_set() {
    assert_eq!(CpuSet::single(65).cpus(), vec![65]);
    let Some(home) = affinity() else {
        return; // the platform reports no affinity, so runs are not pinned
    };
    let first = home.cpus()[0];
    assert!(set_affinity(CpuSet::single(first)));
    assert_eq!(affinity(), Some(CpuSet::single(first)));
    assert!(set_affinity(home));
    assert_eq!(affinity(), Some(home));
}

#[test]
fn report_digest_is_pinned_and_order_sensitive() {
    assert_eq!(reports_digest(&[]), 0xcbf2_9ce4_8422_2325);
    let empty = ServingReport::default();
    assert_eq!(
        reports_digest(std::slice::from_ref(&empty)),
        0x1869_94cd_35b7_de1b
    );
    let tweaked = ServingReport {
        tokens_per_second: f64::from_bits(1),
        ..ServingReport::default()
    };
    let a = reports_digest(&[empty.clone(), tweaked.clone()]);
    assert_ne!(a, reports_digest(&[tweaked, empty]));
}

/// A small continuous scenario on four replicas where every router kind
/// sees real load differences: chunked prefill for the prefill-aware
/// routers, a TTFT SLO for the SLO-aware one.
fn small_cluster(router: RouterKind) -> Scenario {
    let mut s = Scenario::new("LLM-7B-32K").tenant(
        TenantSpec::new("chat", Dataset::QmSum)
            .requests(48)
            .seed(11)
            .decode(DecodeSpec::Uniform(8, 40))
            .arrivals(ArrivalProcess::Bursty { rate: 6.0, cv: 2.5 })
            .slo_ttft_p99(20.0),
    );
    s.cluster.tp = 2;
    s.cluster.threads = 2;
    s.policies.scheduling = SchedulingPolicy::Continuous;
    s.policies.router = router;
    s.policies.prefill = PrefillConfig::chunked(512);
    s.policies.preemption = PreemptionPolicy::EvictRestart;
    s.policies.kv_capacity_factor = 0.5;
    s
}

#[test]
fn timing_router_leaves_reports_byte_identical_for_every_router_kind() {
    for kind in RouterKind::ALL {
        let m = small_cluster(kind).materialize().expect("valid spec");
        let sink = RouteTimes::default();
        let timed = run_with_timed_routers(&m, m.threads, &sink);
        let plain = m.run();
        assert_eq!(
            reports_digest(std::slice::from_ref(&timed)),
            reports_digest(std::slice::from_ref(&plain)),
            "{kind}"
        );
        assert_eq!(timed, plain, "{kind}");
        assert_eq!(
            sink.take().len(),
            m.trace.len(),
            "{kind}: one route per request"
        );
    }
}

#[test]
fn timing_router_leaves_pooled_reports_byte_identical() {
    let mut s = kv_pressure(3);
    for t in &mut s.workload {
        t.requests /= 40;
    }
    let m = s.materialize().expect("valid spec");
    let sink = RouteTimes::default();
    assert_eq!(run_with_timed_routers(&m, 1, &sink), m.run());
    // Every request is routed once into a prefill pool and once more,
    // as a handoff, into a decode pool.
    assert_eq!(sink.take().len(), 2 * m.trace.len());
}

#[test]
fn fleet_jsq_is_the_checked_in_sim_speed_spec() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../scenarios/perf/sim_speed_100k.json"
    );
    let checked_in = Scenario::from_file(path).expect("checked-in spec parses");
    let mut ours = fleet_jsq(DEFAULT_SEED);
    ours.cluster.threads = checked_in.cluster.threads;
    assert_eq!(ours, checked_in);
}

#[test]
fn flat_replay_of_the_pooled_workload_fails_its_mechanism_check() {
    let mut s = kv_pressure(DEFAULT_SEED);
    for t in &mut s.workload {
        t.requests /= 40;
    }
    s.cluster.pools.clear();
    s.cluster.modules = 8;
    let setup = Setup::new(Workload::KvPressure, &[s.to_pretty()], 1).expect("valid spec");
    let (reports, _) = run_pass(&setup.cells);
    let err = Workload::KvPressure
        .check_mechanisms(&setup.cells, &reports)
        .expect_err("a flat replay transfers no KV");
    assert!(err.contains("transferred"), "{err}");
}

#[test]
fn ladder_cells_reproduce_the_figure_pipeline() {
    let model = llm_model::LLM_7B_32K;
    let seed = 5;
    let specs: Vec<String> =
        ladder_scenarios(seed, &[(model, Dataset::QmSum)], &Techniques::ladder())
            .iter()
            .map(Scenario::to_pretty)
            .collect();
    let setup = Setup::new(Workload::PaperLadder, &specs, 2).expect("valid specs");
    let (reports, _) = run_pass(&setup.cells);
    let trace = TraceBuilder::new(Dataset::QmSum)
        .seed(cell_seed(seed, 0))
        .requests(24)
        .decode_len(32)
        .build();
    for (sys, kind) in [
        (SystemConfig::cent_for(&model), system::SystemKind::PimOnly),
        (
            SystemConfig::neupims_for(&model),
            system::SystemKind::XpuPim,
        ),
    ] {
        for (t, (label, expected)) in Techniques::ladder()
            .into_iter()
            .zip(bench::ladder(sys, model, &trace))
        {
            let best = setup
                .cells
                .iter()
                .zip(&reports)
                .filter(|(m, _)| {
                    m.evaluator.system().kind == kind && *m.evaluator.techniques() == t
                })
                .map(|(_, r)| r.tokens_per_second)
                .fold(f64::MIN, f64::max);
            assert_eq!(best, expected.tokens_per_second, "{kind:?} {label}");
        }
    }
}

#[test]
fn workload_specs_round_trip_through_json() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
        let scenarios = w.scenarios(9);
        for (spec, scenario) in w.specs(9).iter().zip(&scenarios) {
            assert_eq!(&Scenario::parse(spec).expect("spec parses"), scenario);
        }
    }
    assert_eq!(Workload::from_name("nope"), None);
}

#[test]
fn cell_seeds_are_distinct_and_deterministic() {
    let seeds: Vec<u64> = (0..16).map(|i| cell_seed(DEFAULT_SEED, i)).collect();
    let mut unique = seeds.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), seeds.len());
    assert_eq!(seeds[3], cell_seed(DEFAULT_SEED, 3));
    assert!(seeds.iter().all(|&s| s <= MAX_SEED));
}
