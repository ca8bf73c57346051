//! Prefill lifecycle properties: with prompt processing modeled, TTFT
//! covers arrival → first emitted token end-to-end. These tests pin the
//! measurement model — dominance over the decode-only convention,
//! decomposition bounds, prompt-length monotonicity, work conservation,
//! thread-count determinism, and a golden pin of the corrected
//! router-comparison numbers.

use pimphony::pim_compiler::ParallelConfig;
use pimphony::system::{
    Cluster, Evaluator, PrefillConfig, RouterKind, SchedulingPolicy, SystemConfig, Techniques,
};
use pimphony::workload::{Dataset, Trace, TraceBuilder};

const PREFILL_CHUNK: u64 = PrefillConfig::DEFAULT_CHUNK;

/// 4 replicas behind one cluster front-end (TP=2 over 8 modules), with
/// chunked prefill enabled.
fn prefill_eval() -> Evaluator {
    decode_eval().with_chunked_prefill(PREFILL_CHUNK)
}

/// The same cluster without prefill (the historical decode-only model).
fn decode_eval() -> Evaluator {
    let sys = SystemConfig::cent_for(&pimphony::llm_model::LLM_7B_32K)
        .with_parallel(ParallelConfig::new(2, 1));
    Evaluator::new(sys, pimphony::llm_model::LLM_7B_32K, Techniques::pimphony())
}

/// The seeded bursty-gamma trace of the router-comparison experiment.
fn bursty_trace(seed: u64) -> Trace {
    TraceBuilder::new(Dataset::QmSum)
        .seed(seed)
        .requests(160)
        .decode_range(16, 96)
        .bursty(16.0, 2.5)
        .build()
}

fn run(
    eval: &Evaluator,
    trace: &Trace,
    kind: RouterKind,
    threads: usize,
) -> pimphony::system::ServingReport {
    Cluster::new(eval, SchedulingPolicy::Continuous)
        .with_threads(threads)
        .run(trace, kind.build_for(eval).as_mut())
}

/// The headline acceptance property: on the seeded bursty-gamma trace,
/// end-to-end TTFT strictly dominates decode-only TTFT at every
/// reported statistic — prompt processing can only add latency, and on
/// PIM-only hardware it adds a lot.
#[test]
fn ttft_strictly_dominates_decode_only_on_seeded_bursty_trace() {
    let trace = bursty_trace(2026);
    let decode = run(&decode_eval(), &trace, RouterKind::RoundRobin, 4);
    let e2e = run(&prefill_eval(), &trace, RouterKind::RoundRobin, 4);
    // Identical decode work either way; prefill only adds prompt work.
    assert_eq!(decode.tokens, e2e.tokens);
    assert_eq!(decode.latency.completed, e2e.latency.completed);
    assert_eq!(decode.prefill_tokens, 0);
    assert!(e2e.prefill_tokens > 0);
    for (name, d, e) in [
        ("mean", decode.latency.ttft.mean, e2e.latency.ttft.mean),
        ("p50", decode.latency.ttft.p50, e2e.latency.ttft.p50),
        ("p95", decode.latency.ttft.p95, e2e.latency.ttft.p95),
        ("p99", decode.latency.ttft.p99, e2e.latency.ttft.p99),
        ("max", decode.latency.ttft.max, e2e.latency.ttft.max),
    ] {
        assert!(e > d, "ttft {name}: end-to-end {e} !> decode-only {d}");
    }
}

/// TTFT decomposes as queueing + prefill + first decode step, so its
/// mean must dominate the queueing and prefill means combined, and the
/// prefill delay can never undercut the isolated prefill time of the
/// trace's smallest prompt.
#[test]
fn ttft_bounds_queueing_plus_minimum_prefill() {
    let eval = prefill_eval();
    let trace = TraceBuilder::new(Dataset::QmSum)
        .seed(7)
        .requests(24)
        .decode_range(8, 48)
        .poisson(0.2)
        .build();
    let r = run(&eval, &trace, RouterKind::JoinShortestQueue, 2);
    let l = &r.latency;
    assert_eq!(l.completed, trace.len() as u64);
    assert!(
        l.ttft.mean >= l.queueing.mean + l.prefill.mean - 1e-9,
        "ttft mean {} < queueing {} + prefill {}",
        l.ttft.mean,
        l.queueing.mean,
        l.prefill.mean
    );
    let min_prompt = trace.iter().map(|r| r.context_len).min().unwrap();
    let floor = eval.prefill_time(min_prompt);
    assert!(floor > 0.0);
    // Every request's prefill delay covers at least its own isolated
    // prefill, so even the distribution's cheapest sample is bounded.
    assert!(
        l.prefill.p50 >= floor && l.prefill.mean >= floor,
        "prefill p50 {} / mean {} below isolated floor {floor}",
        l.prefill.p50,
        l.prefill.mean
    );
}

/// Doubling every prompt strictly raises every TTFT statistic: the
/// prefill stage is monotone in prompt length (hand-built trace so the
/// comparison is exact, not distribution-sampled).
#[test]
fn ttft_is_monotone_in_prompt_length() {
    let mk_trace = |context_len: u64| -> Trace {
        (0..12u64)
            .map(|id| pimphony::workload::Request {
                id,
                context_len,
                decode_len: 16,
                arrival_us: id * 1_000_000,
                priority: 0,
                tenant: 0,
                shared_prefix: 0,
            })
            .collect()
    };
    let eval = prefill_eval();
    let short = run(&eval, &mk_trace(2_000), RouterKind::RoundRobin, 1);
    let long = run(&eval, &mk_trace(4_000), RouterKind::RoundRobin, 1);
    for (name, s, l) in [
        ("mean", short.latency.ttft.mean, long.latency.ttft.mean),
        ("p50", short.latency.ttft.p50, long.latency.ttft.p50),
        ("p99", short.latency.ttft.p99, long.latency.ttft.p99),
        ("max", short.latency.ttft.max, long.latency.ttft.max),
    ] {
        assert!(l > s, "ttft {name}: 4K prompt {l} !> 2K prompt {s}");
    }
    // Prefill work scales with the prompt (superlinearly, but at these
    // lengths at least linearly).
    assert!(long.prefill_seconds > 1.9 * short.prefill_seconds);
}

/// Work conservation with prefill: every prompt token is prefilled
/// exactly once, every decode token produced exactly once, under both
/// policies.
#[test]
fn prefill_conserves_prompt_and_decode_work() {
    let trace = TraceBuilder::new(Dataset::QmSum)
        .seed(11)
        .requests(20)
        .decode_range(4, 40)
        .poisson(5.0)
        .build();
    let total_prompt = trace.total_prompt_tokens();
    for policy in [SchedulingPolicy::Wave, SchedulingPolicy::Continuous] {
        let eval = prefill_eval().with_policy(policy);
        let r = eval.run_trace(&trace);
        assert_eq!(r.prefill_tokens, total_prompt, "{policy}");
        assert_eq!(r.tokens, trace.total_decode_tokens(), "{policy}");
        assert_eq!(r.latency.completed, trace.len() as u64, "{policy}");
        assert!(r.prefill_seconds > 0.0, "{policy}");
        // Prefill time is busy time: the replicas' busy seconds carry
        // both phases.
        assert!(r.busy_seconds > r.prefill_seconds, "{policy}");
    }
}

/// The wave policy prefills the whole admitted batch before its first
/// decode step, so every latency inflates versus decode-only waves
/// while the decode work stays identical.
#[test]
fn wave_prefill_precedes_whole_batch_decode() {
    let trace = TraceBuilder::new(Dataset::QmSum)
        .seed(3)
        .requests(12)
        .decode_len(32)
        .build();
    let decode = decode_eval().run_trace(&trace);
    let e2e = prefill_eval().run_trace(&trace);
    assert_eq!(decode.tokens, e2e.tokens);
    assert!(e2e.seconds > decode.seconds);
    assert!(e2e.latency.ttft.p50 > decode.latency.ttft.p50);
    assert!(e2e.latency.prefill.p50 > 0.0);
    // Decode-only reports carry no prefill side.
    assert_eq!(decode.prefill_seconds, 0.0);
    assert_eq!(decode.latency.prefill.max, 0.0);
}

/// The cluster determinism guarantee must survive the prefill stage:
/// threads = N byte-identical to threads = 1 for every router, with
/// mixed prefill/decode steps deferring at the routing frontier.
#[test]
fn parallel_and_sequential_runs_are_byte_identical_with_prefill() {
    let eval = prefill_eval();
    let trace = bursty_trace(2026);
    for kind in RouterKind::ALL {
        let sequential = run(&eval, &trace, kind, 1);
        for threads in [2, 4, 8] {
            let parallel = run(&eval, &trace, kind, threads);
            assert_eq!(sequential, parallel, "{kind} with {threads} threads");
        }
        assert_eq!(sequential.latency.completed, trace.len() as u64, "{kind}");
    }
}

/// Golden pin of the corrected (prefill-inclusive) router-comparison
/// numbers on the seeded bursty-gamma trace — the continuous+prefill
/// path has no live oracle, so this guards against silent behavioral
/// drift. The pins are bit-exact.
#[test]
fn prefill_router_comparison_golden_pin() {
    let r = run(
        &prefill_eval(),
        &bursty_trace(2026),
        RouterKind::RoundRobin,
        4,
    );
    assert_eq!(r.tokens, 9029);
    assert_eq!(r.prefill_tokens, 2_267_996);
    assert_eq!(r.waves, 126);
    assert_eq!(r.seconds, 9.43426016223212e2, "seconds");
    assert_eq!(r.prefill_seconds, 3.4628426859967562e3, "prefill_seconds");
    assert_eq!(r.latency.ttft.p50, 4.347299316554882e2, "ttft p50");
    assert_eq!(r.latency.ttft.p99, 9.051567532731457e2, "ttft p99");
    assert_eq!(r.latency.queueing.p99, 8.869406916652177e2, "queueing p99");
    assert_eq!(r.latency.prefill.p50, 2.9055406365194273e1, "prefill p50");
    assert_eq!(r.latency.e2e.p95, 8.372588159728963e2, "e2e p95");
}
