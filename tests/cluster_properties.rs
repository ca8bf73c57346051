//! Cluster-layer properties: parallel/sequential determinism, routed
//! round-robin fidelity to the historical trace-level partitioning, and
//! the load-balancing win that motivates the layer — JSQ strictly
//! improving tail TTFT over blind round-robin on bursty traffic.

use pimphony::pim_compiler::ParallelConfig;
use pimphony::system::{
    Cluster, Evaluator, RouterKind, SchedulingPolicy, SystemConfig, Techniques,
};
use pimphony::workload::{Dataset, Trace, TraceBuilder};

/// 4 replicas behind one cluster front-end (TP=2 over 8 modules).
fn cluster_eval() -> Evaluator {
    let sys = SystemConfig::cent_for(&pimphony::llm_model::LLM_7B_32K)
        .with_parallel(ParallelConfig::new(2, 1));
    Evaluator::new(sys, pimphony::llm_model::LLM_7B_32K, Techniques::pimphony())
}

/// The bursty-gamma trace of the `router_compare` experiment: offered
/// load just past the 4-replica capacity, so bursts genuinely queue.
fn bursty_trace(seed: u64) -> Trace {
    TraceBuilder::new(Dataset::QmSum)
        .seed(seed)
        .requests(160)
        .decode_range(16, 96)
        .bursty(16.0, 2.5)
        .build()
}

/// Parallel replica simulation must be invisible in the results: for
/// every router, a cluster run on N scoped threads produces a
/// byte-identical `ServingReport` — latency percentiles, energy,
/// per-replica breakdowns, everything — to the single-threaded run.
#[test]
fn parallel_and_sequential_cluster_runs_are_byte_identical() {
    let e = cluster_eval();
    assert!(e.system().replicas() >= 4);
    let trace = bursty_trace(2026);
    for kind in RouterKind::ALL {
        let run = |threads: usize| {
            Cluster::new(&e, SchedulingPolicy::Continuous)
                .with_threads(threads)
                .run(&trace, kind.build_for(&e).as_mut())
        };
        let sequential = run(1);
        for threads in [2, 4, 8] {
            let parallel = run(threads);
            assert_eq!(sequential, parallel, "{kind} with {threads} threads");
        }
        assert_eq!(sequential.latency.completed, trace.len() as u64, "{kind}");
    }
}

/// The determinism guarantee holds for the wave policy too (its replica
/// sims do all their work at the drain barrier).
#[test]
fn wave_cluster_is_thread_count_invariant() {
    let e = cluster_eval();
    let trace = TraceBuilder::new(Dataset::QmSum)
        .seed(3)
        .requests(24)
        .decode_len(16)
        .build();
    let run = |threads: usize| {
        Cluster::new(&e, SchedulingPolicy::Wave)
            .with_threads(threads)
            .run(&trace, RouterKind::RoundRobin.build_for(&e).as_mut())
    };
    assert_eq!(run(1), run(4));
}

/// `Evaluator::run_trace` is the single-threaded round-robin cluster,
/// so its reports must equal an explicit round-robin cluster run on
/// any thread count, for both policies. (True fidelity oracles live
/// elsewhere: `run_trace_wave_reference` for the wave policy, and the
/// golden pin below for the continuous one.)
#[test]
fn run_trace_equals_explicit_round_robin_cluster() {
    for policy in [SchedulingPolicy::Wave, SchedulingPolicy::Continuous] {
        let e = cluster_eval().with_policy(policy);
        let trace = bursty_trace(7);
        let served = e.run_trace(&trace);
        let cluster = Cluster::new(&e, policy)
            .with_threads(4)
            .run(&trace, RouterKind::RoundRobin.build_for(&e).as_mut());
        assert_eq!(served, cluster, "{policy}");
    }
}

/// The wave policy routes in *trace* order, so round-robin through the
/// cluster reproduces the historical trace-index partitioning even on
/// hand-built traces whose `(arrival_us, id)` order differs from trace
/// order — checked against the independent pre-refactor reference loop.
/// (Uniform decode budgets: the reference keeps the original loop's
/// mid-chunk token over-count for varied budgets by design.)
#[test]
fn wave_round_robin_matches_reference_on_out_of_order_traces() {
    let e = cluster_eval();
    let mk = |id, context_len, arrival_us| pimphony::workload::Request {
        id,
        context_len,
        decode_len: 16,
        arrival_us,
        priority: 0,
        tenant: 0,
        shared_prefix: 0,
    };
    // Arrival times and ids deliberately disagree with trace order.
    let trace: Trace = [
        mk(9, 8000, 500_000),
        mk(3, 4000, 100_000),
        mk(7, 12000, 0),
        mk(1, 6000, 900_000),
        mk(5, 5000, 100_000),
    ]
    .into_iter()
    .collect();
    let served = e.run_trace(&trace);
    let reference = e.run_trace_wave_reference(&trace);
    assert_eq!(served.tokens, reference.tokens);
    assert_eq!(served.waves, reference.waves);
    assert_eq!(served.seconds, reference.seconds);
    assert_eq!(served.mean_batch, reference.mean_batch);
    assert_eq!(served.energy, reference.energy);
}

/// Golden pin for the continuous path: the wave policy has a live
/// oracle (`run_trace_wave_reference`), the continuous extraction does
/// not, so this pins a seeded run's numbers against silent behavioral
/// drift. The simulator is deterministic, so the pins are bit-exact:
/// any scheduling or pricing change moves them. (Values re-pinned when
/// chunk pricing moved to exact per-step midpoint pricing; the
/// prefill-enabled pin lives in `tests/prefill_properties.rs`.)
#[test]
fn continuous_round_robin_golden_pin() {
    let e = cluster_eval();
    let r = Cluster::new(&e, SchedulingPolicy::Continuous)
        .with_threads(4)
        .run(
            &bursty_trace(2026),
            RouterKind::RoundRobin.build_for(&e).as_mut(),
        );
    assert_eq!(r.tokens, 9029);
    assert_eq!(r.waves, 155);
    assert_eq!(r.seconds, 1.0708592565142856e1, "seconds");
    assert_eq!(
        r.tokens_per_second, 8.431546858351828e2,
        "tokens_per_second"
    );
    assert_eq!(r.mean_batch, 1.2955947768689913e0, "mean_batch");
    assert_eq!(r.busy_seconds, 1.5860865308000003e1, "busy_seconds");
    assert_eq!(r.latency.ttft.p50, 2.2197971428568053e-3, "ttft p50");
    assert_eq!(r.latency.ttft.p99, 2.8818125257142846e-1, "ttft p99");
    assert_eq!(r.latency.e2e.p95, 3.8047524914285713e-1, "e2e p95");
    assert_eq!(
        r.capacity_utilization, 9.998594854973665e-1,
        "capacity_utilization"
    );
    // Prefill is off by default, so the decode-only pin carries no
    // prompt-processing work.
    assert_eq!(r.prefill_tokens, 0);
    assert_eq!(r.prefill_seconds, 0.0);
}

/// The reason the cluster layer exists: join-shortest-queue strictly
/// improves p99 TTFT over blind round-robin on bursty gamma traffic, on
/// every checked seed and in aggregate. (The simulation is fully
/// deterministic, so these seeded margins — 20–33% at this
/// configuration — are stable regressions, not flaky statistics.)
#[test]
fn jsq_beats_round_robin_p99_ttft_on_bursty_traffic() {
    let e = cluster_eval();
    let mut rr_sum = 0.0;
    let mut jsq_sum = 0.0;
    for seed in [1u64, 7, 2026] {
        let trace = bursty_trace(seed);
        let run = |kind: RouterKind| {
            Cluster::new(&e, SchedulingPolicy::Continuous)
                .with_threads(4)
                .run(&trace, kind.build_for(&e).as_mut())
        };
        let rr = run(RouterKind::RoundRobin);
        let jsq = run(RouterKind::JoinShortestQueue);
        // Same work either way; the win is purely in the tail.
        assert_eq!(rr.tokens, jsq.tokens, "seed {seed}");
        assert!(
            jsq.latency.ttft.p99 < rr.latency.ttft.p99,
            "seed {seed}: jsq p99 {} !< rr p99 {}",
            jsq.latency.ttft.p99,
            rr.latency.ttft.p99
        );
        rr_sum += rr.latency.ttft.p99;
        jsq_sum += jsq.latency.ttft.p99;
    }
    // Aggregate margin is large, not a rounding artifact.
    assert!(
        jsq_sum < 0.9 * rr_sum,
        "aggregate jsq p99 {jsq_sum} vs rr {rr_sum}"
    );
}

/// Per-replica breakdowns expose the skew the routers create: blind
/// round-robin is perfectly count-fair, while JSQ trades count fairness
/// for time fairness.
#[test]
fn per_replica_breakdown_exposes_router_skew() {
    let e = cluster_eval();
    let replicas = e.system().replicas() as usize;
    let trace = bursty_trace(2026);
    let run = |kind: RouterKind| {
        Cluster::new(&e, SchedulingPolicy::Continuous)
            .with_threads(4)
            .run(&trace, kind.build_for(&e).as_mut())
    };
    let rr = run(RouterKind::RoundRobin);
    let jsq = run(RouterKind::JoinShortestQueue);

    for (label, r) in [("rr", &rr), ("jsq", &jsq)] {
        assert_eq!(r.per_replica.len(), replicas, "{label}");
        let routed: u64 = r.per_replica.iter().map(|b| b.routed).sum();
        let served: u64 = r.per_replica.iter().map(|b| b.served).sum();
        assert_eq!(routed, trace.len() as u64, "{label}");
        assert_eq!(served, trace.len() as u64, "{label}");
        let busy: f64 = r.per_replica.iter().map(|b| b.busy_seconds).sum();
        assert!((busy - r.busy_seconds).abs() < 1e-9, "{label}");
        assert!(r.per_replica.iter().all(|b| b.seconds <= r.seconds + 1e-12));
        let fairness = r.replica_fairness();
        assert!(
            (0.0..=1.0 + 1e-12).contains(&fairness),
            "{label}: {fairness}"
        );
    }

    // Round-robin splits 160 requests over 4 replicas exactly evenly.
    assert!(rr.per_replica.iter().all(|b| b.routed == 40));
    // JSQ adapts: its routed counts differ across replicas on bursty
    // traffic, yet its busy-time fairness stays high.
    let jsq_counts: Vec<u64> = jsq.per_replica.iter().map(|b| b.routed).collect();
    assert!(
        jsq_counts.iter().any(|&c| c != jsq_counts[0]),
        "jsq unexpectedly count-uniform: {jsq_counts:?}"
    );
    assert!(jsq.replica_fairness() > 0.8, "{}", jsq.replica_fairness());
}

/// Sanity across the memory-policy axis: the cluster path preserves the
/// DPA-vs-static capacity story under load-aware routing.
#[test]
fn least_loaded_cluster_serves_all_work_under_static_reservations() {
    let sys = SystemConfig::cent_for(&pimphony::llm_model::LLM_7B_32K)
        .with_parallel(ParallelConfig::new(2, 1));
    let e = Evaluator::new(
        sys,
        pimphony::llm_model::LLM_7B_32K,
        Techniques::tcp_dcs(), // static worst-case reservations
    );
    let trace = bursty_trace(42);
    let r = Cluster::new(&e, SchedulingPolicy::Continuous)
        .with_threads(2)
        .run(&trace, RouterKind::LeastLoaded.build_for(&e).as_mut());
    assert_eq!(r.tokens, trace.total_decode_tokens());
    assert_eq!(r.latency.completed, trace.len() as u64);
    assert!(r.per_replica.iter().all(|b| b.peak_reserved_kv > 0));
}
