//! Preemption and eviction properties: priority-ordered admission with
//! evict-and-restart / evict-and-pause under KV memory pressure must
//! (1) change *nothing* when disabled or unprovoked — `None` stays
//! bit-exact with the PR 3 golden pins and uniform-priority traces
//! never evict under any policy — and (2) under provoked pressure keep
//! the hard invariants: every evicted request still completes (work
//! conservation), reserved KV never exceeds the admission capacity,
//! thread count never changes results, ample capacity implies zero
//! evictions, and eviction buys the high-priority class a measurably
//! better tail (the seeded regression of ISSUE 4).

use pimphony::pim_compiler::ParallelConfig;
use pimphony::system::{
    Cluster, Evaluator, PreemptionPolicy, RouterKind, SchedulingPolicy, ServingReport,
    SystemConfig, Techniques,
};
use pimphony::workload::{Dataset, Trace, TraceBuilder};

const PREFILL_CHUNK: u64 = 512;
/// The sweep's pressure point: half the hardware KV pool.
const PRESSURE_FACTOR: f64 = 0.5;

/// 4 replicas behind one cluster front-end (TP=2 over 8 modules).
fn base_eval() -> Evaluator {
    let sys = SystemConfig::cent_for(&pimphony::llm_model::LLM_7B_32K)
        .with_parallel(ParallelConfig::new(2, 1));
    Evaluator::new(sys, pimphony::llm_model::LLM_7B_32K, Techniques::pimphony())
}

/// The `preemption_sweep` configuration: chunked prefill, scaled KV
/// pool, one of the preemption policies.
fn pressure_eval(policy: PreemptionPolicy, factor: f64) -> Evaluator {
    base_eval()
        .with_chunked_prefill(PREFILL_CHUNK)
        .with_kv_capacity_factor(factor)
        .with_preemption(policy)
}

/// The seeded two-class bursty trace of the `preemption_sweep`
/// experiment: interactive (1) vs batch (0) traffic at 0.8× the
/// full-capacity prefill-inclusive anchor rate.
fn priority_trace() -> Trace {
    let eval = base_eval().with_chunked_prefill(PREFILL_CHUNK);
    let closed = TraceBuilder::new(Dataset::QmSum)
        .seed(2026)
        .requests(96)
        .decode_range(16, 96)
        .build();
    let capacity_rps = closed.len() as f64 / eval.run_trace(&closed).seconds;
    TraceBuilder::new(Dataset::QmSum)
        .seed(2026)
        .requests(96)
        .decode_range(16, 96)
        .bursty(capacity_rps * 0.8, 2.5)
        .priority_levels(2)
        .build()
}

fn run(eval: &Evaluator, trace: &Trace, kind: RouterKind, threads: usize) -> ServingReport {
    Cluster::new(eval, SchedulingPolicy::Continuous)
        .with_threads(threads)
        .run(trace, kind.build_for(eval).as_mut())
}

/// PR 3 golden pin, re-run through the fully plumbed preemption path
/// with its default knobs (`None`, KV factor 1.0): the decode-only
/// continuous numbers must stay bit-for-bit identical — the whole
/// eviction machinery must be invisible until asked for.
#[test]
fn none_policy_is_bit_exact_with_pr3_golden_pin() {
    let e = base_eval()
        .with_preemption(PreemptionPolicy::None)
        .with_kv_capacity_factor(1.0);
    let trace = TraceBuilder::new(Dataset::QmSum)
        .seed(2026)
        .requests(160)
        .decode_range(16, 96)
        .bursty(16.0, 2.5)
        .build();
    let r = run(&e, &trace, RouterKind::RoundRobin, 4);
    assert_eq!(r.tokens, 9029);
    assert_eq!(r.waves, 155);
    assert_eq!(r.evictions, 0);
    assert_eq!(r.wasted_prefill_tokens, 0);
    assert_eq!(r.restart_seconds, 0.0);
    assert_eq!(r.seconds, 1.0708592565142856e1, "seconds");
    assert_eq!(
        r.tokens_per_second, 8.431546858351828e2,
        "tokens_per_second"
    );
    assert_eq!(r.latency.ttft.p50, 2.2197971428568053e-3, "ttft p50");
    assert_eq!(r.latency.ttft.p99, 2.8818125257142846e-1, "ttft p99");
    // The single-class breakdown mirrors the aggregate report.
    assert_eq!(r.latency_by_priority.len(), 1);
    assert_eq!(r.latency_by_priority[0].priority, 0);
    assert_eq!(r.latency_by_priority[0].latency, r.latency);
}

/// Eviction requires a strictly-lower-priority victim, so on a
/// uniform-priority trace every preemption policy must be *identical*
/// — byte-for-byte — to `None`, even under severe KV pressure.
#[test]
fn uniform_priority_traces_never_evict_under_any_policy() {
    let trace = TraceBuilder::new(Dataset::QmSum)
        .seed(7)
        .requests(48)
        .decode_range(16, 96)
        .bursty(1.0, 2.5)
        .build(); // every priority 0
    let none = run(
        &pressure_eval(PreemptionPolicy::None, PRESSURE_FACTOR),
        &trace,
        RouterKind::JoinShortestQueue,
        4,
    );
    for policy in [PreemptionPolicy::EvictRestart, PreemptionPolicy::EvictPause] {
        let r = run(
            &pressure_eval(policy, PRESSURE_FACTOR),
            &trace,
            RouterKind::JoinShortestQueue,
            4,
        );
        assert_eq!(r.evictions, 0, "{policy}");
        assert_eq!(r, none, "{policy} must coincide with none");
    }
}

/// Work conservation under provoked evictions: every request still
/// completes. `EvictPause` keeps generated tokens, so decode work is
/// produced exactly once; `EvictRestart` regenerates its victims' —
/// exactly `wasted_decode_tokens` more than the trace demands.
#[test]
fn evicted_requests_still_complete_with_conserved_work() {
    let trace = priority_trace();
    for policy in [PreemptionPolicy::EvictRestart, PreemptionPolicy::EvictPause] {
        let r = run(
            &pressure_eval(policy, PRESSURE_FACTOR),
            &trace,
            RouterKind::JoinShortestQueue,
            4,
        );
        assert!(r.evictions > 0, "{policy}: pressure must provoke evictions");
        let served: u64 = r.per_replica.iter().map(|b| b.served).sum();
        assert_eq!(served, trace.len() as u64, "{policy}");
        assert_eq!(r.latency.completed, trace.len() as u64, "{policy}");
        assert_eq!(
            r.tokens,
            trace.total_decode_tokens() + r.wasted_decode_tokens,
            "{policy}"
        );
        match policy {
            PreemptionPolicy::EvictPause => assert_eq!(r.wasted_decode_tokens, 0, "{policy}"),
            PreemptionPolicy::EvictRestart => {}
            PreemptionPolicy::None => unreachable!(),
        }
        // Eviction re-work is visible and correctly attributed: prompt
        // tokens were re-prefilled (beyond the trace's own prompts),
        // their seconds land in the restart bucket, and that bucket is
        // a share of total prefill time, not an addition to it.
        assert!(r.wasted_prefill_tokens > 0, "{policy}");
        assert!(r.prefill_tokens > trace.total_prompt_tokens(), "{policy}");
        assert!(r.restart_seconds > 0.0, "{policy}");
        assert!(r.restart_seconds < r.prefill_seconds, "{policy}");
        assert!(r.latency.restart.max > 0.0, "{policy}");
        // Eviction counters agree across their three homes.
        let per_replica: u64 = r.per_replica.iter().map(|b| b.evictions).sum();
        assert_eq!(per_replica, r.evictions, "{policy}");
    }
}

/// Reserved KV never exceeds the admission capacity at any instant.
/// `peak_reserved_kv` is sampled after every reservation, so it bounds
/// the whole event log. (The one sanctioned exception, inherited from
/// the wave loop: an empty batch admits its first request even if that
/// single request exceeds capacity.)
#[test]
fn reserved_kv_stays_within_scaled_capacity() {
    let trace = priority_trace();
    let t_max = trace.max_final_len();
    for policy in PreemptionPolicy::ALL {
        let eval = pressure_eval(policy, PRESSURE_FACTOR);
        let capacity = eval.replica_kv_capacity();
        let max_single = trace
            .iter()
            .map(|r| eval.kv_reservation(r.final_len(), t_max))
            .max()
            .unwrap();
        let r = run(&eval, &trace, RouterKind::JoinShortestQueue, 4);
        for (i, b) in r.per_replica.iter().enumerate() {
            assert!(
                b.peak_reserved_kv <= capacity.max(max_single),
                "{policy} replica {i}: peak {} > capacity {capacity} (max single {max_single})",
                b.peak_reserved_kv
            );
        }
    }
}

/// The scaled-down pool is genuinely binding: the same run at full
/// hardware capacity reserves more KV at peak than the scaled capacity
/// allows, so the invariant above is not vacuously true.
#[test]
fn pressure_factor_actually_binds() {
    let trace = priority_trace();
    let eval = pressure_eval(PreemptionPolicy::None, 1.0);
    let scaled_capacity =
        pressure_eval(PreemptionPolicy::None, PRESSURE_FACTOR).replica_kv_capacity();
    let r = run(&eval, &trace, RouterKind::JoinShortestQueue, 4);
    assert!(
        r.per_replica
            .iter()
            .any(|b| b.peak_reserved_kv > scaled_capacity),
        "full-capacity peaks must exceed the scaled pool for the pressure tests to mean anything"
    );
}

/// Thread-count determinism survives eviction: the whole report —
/// eviction counters, wasted-work totals, per-priority latencies —
/// must be byte-identical between sequential and parallel simulation,
/// for every router.
#[test]
fn parallel_and_sequential_runs_are_byte_identical_with_evictions() {
    let trace = priority_trace();
    for policy in [PreemptionPolicy::EvictRestart, PreemptionPolicy::EvictPause] {
        for kind in [
            RouterKind::RoundRobin,
            RouterKind::JoinShortestQueue,
            RouterKind::LeastLoaded,
        ] {
            let eval = pressure_eval(policy, PRESSURE_FACTOR);
            let sequential = run(&eval, &trace, kind, 1);
            for threads in [2, 4, 8] {
                let parallel = run(&eval, &trace, kind, threads);
                assert_eq!(
                    sequential, parallel,
                    "{policy}/{kind} with {threads} threads"
                );
            }
            assert!(sequential.evictions > 0, "{policy}/{kind}");
        }
    }
}

/// Capacity monotonicity, in the form that is actually an invariant:
/// once the pool holds every offered reservation simultaneously,
/// nothing can ever block and eviction counts drop to zero. (Raw
/// eviction counts are *not* monotone point-by-point in mid-range
/// capacity — a bigger pool admits more requests and thereby exposes
/// more victims; measured on this trace, factor 1.0 evicts more often
/// than factor 0.35 — so the meaningful monotone statement is the
/// ample-capacity endpoint, plus pressure provoking strictly more
/// evictions than ample capacity.)
#[test]
fn ample_kv_capacity_eliminates_evictions() {
    let trace = priority_trace();
    let t_max = trace.max_final_len();
    let probe = pressure_eval(PreemptionPolicy::EvictRestart, 1.0);
    let total_reserved: u64 = trace
        .iter()
        .map(|r| probe.kv_reservation(r.final_len(), t_max))
        .sum();
    // Scale the pool to hold the whole trace at once, with margin.
    let ample = total_reserved as f64 / probe.replica_kv_capacity() as f64 * 1.05;
    for policy in [PreemptionPolicy::EvictRestart, PreemptionPolicy::EvictPause] {
        let relaxed = run(
            &pressure_eval(policy, ample.max(1.0)),
            &trace,
            RouterKind::JoinShortestQueue,
            4,
        );
        assert_eq!(
            relaxed.evictions, 0,
            "{policy}: ample capacity still evicted"
        );
        assert_eq!(relaxed.wasted_prefill_tokens, 0, "{policy}");
        let pressured = run(
            &pressure_eval(policy, PRESSURE_FACTOR),
            &trace,
            RouterKind::JoinShortestQueue,
            4,
        );
        assert!(
            pressured.evictions > relaxed.evictions,
            "{policy}: pressure must evict more than ample capacity"
        );
    }
}

/// Equivalence property for the indexed hot-path structures: the
/// priority-lane pending queue and the incrementally maintained victim
/// index must be *behavior-identical* to the linear-scan / sort-based
/// implementations they replaced. Unoptimized builds cross-check every
/// admission candidate and every eviction plan in place against the
/// linear reference (`debug_assert`s in `system::replica`), so driving
/// randomized multi-priority traces through the continuous path *is*
/// the old-vs-new property — `cargo test` without `--release` panics on
/// the first divergence; byte-identical reports across thread counts
/// close the loop in optimized builds too.
#[test]
fn indexed_queues_match_linear_scan_reference_on_randomized_traces() {
    for seed in [1, 9, 23, 2026] {
        for levels in [1, 2, 4] {
            let trace = TraceBuilder::new(Dataset::QmSum)
                .seed(seed)
                .requests(64)
                .decode_range(8, 64)
                .bursty(12.0, 2.5)
                .priority_levels(levels)
                .build();
            for policy in PreemptionPolicy::ALL {
                let eval = pressure_eval(policy, PRESSURE_FACTOR);
                let sequential = run(&eval, &trace, RouterKind::JoinShortestQueue, 1);
                let parallel = run(&eval, &trace, RouterKind::JoinShortestQueue, 4);
                assert_eq!(
                    sequential, parallel,
                    "seed {seed} levels {levels} {policy}: thread count changed the report"
                );
                assert_eq!(
                    sequential.latency.completed,
                    trace.len() as u64,
                    "seed {seed} levels {levels} {policy}"
                );
            }
        }
    }
    // The sweep above stays light on memory pressure; make sure the
    // victim index's eviction walk is exercised too, not just built.
    let pressured = run(
        &pressure_eval(PreemptionPolicy::EvictRestart, PRESSURE_FACTOR),
        &priority_trace(),
        RouterKind::JoinShortestQueue,
        4,
    );
    assert!(
        pressured.evictions > 0,
        "the equivalence property must cover the eviction path"
    );
}

/// The headline seeded regression (ISSUE 4 acceptance): on the bursty
/// two-class trace at a KV capacity where admission blocks, eviction
/// buys the interactive class a much better p99 TTFT than `None` —
/// measured ≈−33% at this configuration; the 15% floor leaves room for
/// cross-platform libm drift in the trace generator only. The price is
/// wasted prompt work and a worse batch-class tail, which the sweep
/// (`bench --bin preemption_sweep`) quantifies.
#[test]
fn eviction_improves_high_priority_p99_ttft_under_pressure() {
    let trace = priority_trace();
    let hi_p99 = |r: &ServingReport| {
        r.latency_by_priority
            .iter()
            .find(|p| p.priority == 1)
            .expect("interactive class present")
            .latency
            .ttft
            .p99
    };
    let none = run(
        &pressure_eval(PreemptionPolicy::None, PRESSURE_FACTOR),
        &trace,
        RouterKind::JoinShortestQueue,
        4,
    );
    assert_eq!(none.evictions, 0);
    for policy in [PreemptionPolicy::EvictRestart, PreemptionPolicy::EvictPause] {
        let evict = run(
            &pressure_eval(policy, PRESSURE_FACTOR),
            &trace,
            RouterKind::JoinShortestQueue,
            4,
        );
        assert!(
            hi_p99(&evict) < hi_p99(&none) * 0.85,
            "{policy}: hi-class p99 TTFT {} not well below none's {}",
            hi_p99(&evict),
            hi_p99(&none)
        );
        // The tradeoff is visible, not free: work was discarded.
        assert!(evict.wasted_prefill_tokens > 0, "{policy}");
        // Same completed work for the trace itself.
        assert_eq!(evict.latency.completed, none.latency.completed, "{policy}");
    }
}
