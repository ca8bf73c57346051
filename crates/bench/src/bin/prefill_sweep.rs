//! Prefill sweep: how prompt length and prefill chunking shape
//! end-to-end TTFT.
//!
//! Two sweeps over a 4-replica CENT-like cluster under continuous
//! batching with chunked prefill (`system::policy::PrefillConfig`):
//!
//! 1. **Prompt-length distributions** — QMSum's context distribution
//!    scaled to several means. For each, the decode-only TTFT
//!    (historical convention) is printed next to the corrected
//!    end-to-end TTFT and its queueing/prefill decomposition, plus the
//!    isolated prefill time of the mean prompt
//!    (`Evaluator::prefill_time`). The gap between the two TTFT columns
//!    is exactly the measurement error the decode-only simulator made.
//! 2. **Prefill chunk sizes** — the interleaving granularity. Small
//!    chunks give running decodes frequent turns (low TPOT inflation)
//!    at the same total prefill work; whole-prompt chunks stall decode
//!    steps behind entire prompts.
//!
//! Offered load sits below each configuration's measured end-to-end
//! capacity so queueing stays mild and the prefill share is legible.
//!
//! Run with: `cargo run --release -p bench --bin prefill_sweep`
//! (`-- --tiny` for the CI smoke configuration).

use bench::cli::{BenchArgs, DECODE_HI, DECODE_LO, SEED};
use llm_model::LLM_7B_32K;
use pim_compiler::ParallelConfig;
use system::{
    Cluster, Evaluator, PrefillConfig, RouterKind, SchedulingPolicy, SystemConfig, Techniques,
};
use workload::{Dataset, DatasetStats, Trace, TraceBuilder};

const LOAD_FRACTION: f64 = 0.7;
const DEFAULT_CHUNK: u64 = PrefillConfig::DEFAULT_CHUNK;

/// QMSum's shape scaled to a target mean (std scales along; bounds clamp
/// to the model's context budget minus the decode allowance).
fn scaled_stats(factor: f64) -> DatasetStats {
    let base = Dataset::QmSum.stats();
    let cap = LLM_7B_32K.context_window - DECODE_HI;
    DatasetStats {
        name: "QMSum-scaled",
        suite: "synthetic",
        mean: base.mean * factor,
        std: base.std * factor,
        min: ((base.min as f64 * factor) as u64).max(64),
        max: ((base.max as f64 * factor) as u64).min(cap),
    }
}

fn build_trace(stats: DatasetStats, requests: usize, rate: f64) -> Trace {
    TraceBuilder::from_stats(stats)
        .seed(SEED)
        .requests(requests)
        .decode_range(DECODE_LO, DECODE_HI)
        .poisson(rate)
        .build()
}

/// Measured end-to-end requests/second of the cluster on this prompt
/// distribution (closed-world wave run with prefill included).
fn capacity_rps(eval: &Evaluator, stats: DatasetStats, requests: usize) -> f64 {
    let closed_trace = TraceBuilder::from_stats(stats)
        .seed(SEED)
        .requests(requests)
        .decode_range(DECODE_LO, DECODE_HI)
        .build();
    bench::closed_world_capacity(eval, &closed_trace).1
}

fn main() {
    let args = BenchArgs::parse();
    let tiny = args.tiny;
    let json_path = args.json;
    let mut rows = Vec::new();
    let model = LLM_7B_32K;
    let sys = SystemConfig::cent_for(&model).with_parallel(ParallelConfig::new(2, 1));
    let requests = if tiny { 12 } else { 64 };
    let factors: &[f64] = if tiny { &[1.0] } else { &[0.25, 0.5, 1.0, 1.5] };
    let chunks: &[u64] = if tiny {
        &[512, 2048]
    } else {
        &[128, 512, 2048, 8192]
    };

    bench::header(&format!(
        "Prefill sweep: {} × {} replicas, {requests} Poisson requests at {LOAD_FRACTION}x capacity, decode U[{DECODE_LO},{DECODE_HI}]",
        model.name,
        sys.replicas(),
    ));

    println!("\n[1] Prompt-length distributions (prefill chunk {DEFAULT_CHUNK} tokens)");
    println!(
        "{:>10} {:>9} {:>10} {:>22} {:>22} {:>10} {:>10} {:>10}",
        "mean ctx",
        "req/s",
        "prefill(s)",
        "decode-only TTFT p50/99",
        "end-to-end TTFT p50/99",
        "queue p50",
        "pref p50",
        "TPOT p50"
    );
    for &factor in factors {
        let stats = scaled_stats(factor);
        let eval_pf =
            Evaluator::new(sys, model, Techniques::pimphony()).with_chunked_prefill(DEFAULT_CHUNK);
        let eval_decode = Evaluator::new(sys, model, Techniques::pimphony());
        let rate = capacity_rps(&eval_pf, stats, requests) * LOAD_FRACTION;
        let trace = build_trace(stats, requests, rate);
        let run = |eval: &Evaluator| {
            Cluster::new(eval, SchedulingPolicy::Continuous)
                .with_threads(0)
                .run(
                    &trace,
                    RouterKind::JoinShortestQueue.build_for(eval).as_mut(),
                )
        };
        let decode = run(&eval_decode);
        let e2e = run(&eval_pf);
        println!(
            "{:>10.0} {:>9.3} {:>10.2} {:>11.3}/{:>10.3} {:>11.3}/{:>10.3} {:>10.3} {:>10.3} {:>10.4}",
            stats.mean,
            rate,
            eval_pf.prefill_time(stats.mean as u64),
            decode.latency.ttft.p50,
            decode.latency.ttft.p99,
            e2e.latency.ttft.p50,
            e2e.latency.ttft.p99,
            e2e.latency.queueing.p50,
            e2e.latency.prefill.p50,
            e2e.latency.tpot.p50,
        );
        assert!(
            e2e.latency.ttft.p50 > decode.latency.ttft.p50,
            "end-to-end TTFT must dominate decode-only TTFT"
        );
        rows.push(bench::serving_row(
            &format!("mean{:.0}/decode-only", stats.mean),
            rate,
            &decode,
        ));
        rows.push(bench::serving_row(
            &format!("mean{:.0}/e2e", stats.mean),
            rate,
            &e2e,
        ));
    }

    println!("\n[2] Prefill chunk sizes (QMSum distribution)");
    println!(
        "{:>10} {:>9} {:>22} {:>10} {:>10} {:>10} {:>10}",
        "chunk", "req/s", "TTFT p50/p99 (s)", "queue p50", "pref p50", "TPOT p50", "TPOT p99"
    );
    let stats = scaled_stats(1.0);
    for &chunk in chunks {
        let eval = Evaluator::new(sys, model, Techniques::pimphony()).with_chunked_prefill(chunk);
        let rate = capacity_rps(&eval, stats, requests) * LOAD_FRACTION;
        let trace = build_trace(stats, requests, rate);
        let r = Cluster::new(&eval, SchedulingPolicy::Continuous)
            .with_threads(0)
            .run(
                &trace,
                RouterKind::JoinShortestQueue.build_for(&eval).as_mut(),
            );
        println!(
            "{:>10} {:>9.3} {:>11.3}/{:>10.3} {:>10.3} {:>10.3} {:>10.4} {:>10.4}",
            chunk,
            rate,
            r.latency.ttft.p50,
            r.latency.ttft.p99,
            r.latency.queueing.p50,
            r.latency.prefill.p50,
            r.latency.tpot.p50,
            r.latency.tpot.p99,
        );
        rows.push(bench::serving_row(&format!("chunk{chunk}"), rate, &r));
    }

    println!(
        "\nReading the sweep: [1] end-to-end TTFT grows superlinearly with the \
         prompt (causal attention is O(P²) and PIM FC streams the prompt as \
         GEMV passes), while decode-only TTFT barely moves — the historical \
         metric was blind to the dominant term. [2] at this pp=1 \
         configuration total prefill work is chunk-invariant (the causal \
         prefix sum does not care where it is cut; under pipeline \
         parallelism fine chunks would additionally pay per-chunk pipeline \
         fill), so TTFT barely moves with the chunk; what the chunk sets is \
         the *interleaving granularity* — a running decode gets one token \
         per chunk, so small chunks mean many short decode stalls and more \
         tokens out during a neighbour's prefill, while large chunks mean \
         few long stalls."
    );

    if let Some(path) = json_path {
        bench::write_bench_json(&path, "prefill_sweep", rows);
    }
}
