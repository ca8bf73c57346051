//! Throughput–latency curves under continuous batching: sweep the
//! Poisson arrival rate from light load past saturation for each rung of
//! the technique ladder, reporting decode throughput and TTFT/TPOT
//! percentiles — the online-serving view the paper's closed-world
//! figures (13–15) do not show.
//!
//! TTFT is measured **end-to-end**: arrival → first emitted token,
//! including queueing delay and chunked prompt processing
//! (`system::policy::PrefillConfig`). The table decomposes it into its
//! queueing and prefill shares.
//!
//! Requests are served by a 4-replica cluster (TP=2 over 8 modules) and
//! each load point is run under both round-robin and join-shortest-queue
//! routing (`system::cluster`), so the curve also shows where load
//! balancing starts to matter: nowhere at light load, in the TTFT tail
//! near the knee.
//!
//! The rate axis is normalized per rung: each configuration's
//! closed-world wave throughput — prefill included, so the anchor uses
//! the same cost model as the sweep — sets its saturation request rate,
//! and the sweep offers fixed fractions of that capacity. Run with:
//! `cargo run --release -p bench --bin latency_curve` (`-- --tiny` for
//! the CI smoke configuration).

use bench::cli::{BenchArgs, DECODE_HI, DECODE_LO, SEED};
use llm_model::LLM_7B_32K;
use pim_compiler::ParallelConfig;
use system::{
    Cluster, Evaluator, PrefillConfig, RouterKind, SchedulingPolicy, SystemConfig, Techniques,
};
use workload::{Dataset, TraceBuilder};

/// Offered load as a fraction of the rung's closed-world capacity.
const LOAD_FRACTIONS: [f64; 5] = [0.25, 0.5, 0.75, 1.0, 1.5];
const TINY_LOAD_FRACTIONS: [f64; 2] = [0.5, 1.0];
const REQUESTS: usize = 96;
const TINY_REQUESTS: usize = 16;
const PREFILL_CHUNK: u64 = PrefillConfig::DEFAULT_CHUNK;
const ROUTERS: [RouterKind; 2] = [RouterKind::RoundRobin, RouterKind::JoinShortestQueue];

fn main() {
    let args = BenchArgs::parse();
    let tiny = args.tiny;
    let json_path = args.json;
    let mut rows = Vec::new();
    let model = LLM_7B_32K;
    let sys = SystemConfig::cent_for(&model).with_parallel(ParallelConfig::new(2, 1));
    let dataset = Dataset::QmSum;
    let requests = if tiny { TINY_REQUESTS } else { REQUESTS };
    let fractions: &[f64] = if tiny {
        &TINY_LOAD_FRACTIONS
    } else {
        &LOAD_FRACTIONS
    };
    let ladder = if tiny {
        vec![Techniques::pimphony()]
    } else {
        Techniques::ladder().to_vec()
    };

    bench::header(&format!(
        "Throughput–latency sweep: {} × {} replicas on {dataset}, {requests} Poisson requests, decode U[{DECODE_LO},{DECODE_HI}], end-to-end TTFT (chunked prefill, {PREFILL_CHUNK} tok/chunk)",
        model.name,
        sys.replicas(),
    ));

    for tech in ladder {
        // Closed-world capacity anchors this rung's rate axis: requests
        // per second the cluster can serve, prefill included.
        let eval = Evaluator::new(sys, model, tech).with_chunked_prefill(PREFILL_CHUNK);
        let closed_trace = TraceBuilder::new(dataset)
            .seed(SEED)
            .requests(requests)
            .decode_range(DECODE_LO, DECODE_HI)
            .build();
        let (closed, capacity_rps) = bench::closed_world_capacity(&eval, &closed_trace);

        println!(
            "\n{} — closed-world {:.1} tok/s (≈{:.2} req/s end-to-end capacity)",
            tech.label(),
            closed.tokens_per_second,
            capacity_rps,
        );
        println!(
            "{:>6} {:>9} {:>13} {:>11} {:>9} {:>24} {:>10} {:>10} {:>11} {:>9}",
            "load",
            "req/s",
            "router",
            "tok/s",
            "batch",
            "TTFT p50/p95/p99 (s)",
            "queue p50",
            "pref p50",
            "TPOT p50",
            "E2E p95"
        );

        for &frac in fractions {
            let rate = capacity_rps * frac;
            let trace = TraceBuilder::new(dataset)
                .seed(SEED)
                .requests(requests)
                .decode_range(DECODE_LO, DECODE_HI)
                .poisson(rate)
                .build();
            for kind in ROUTERS {
                let mut router = kind.build_for(&eval);
                let r = Cluster::new(&eval, SchedulingPolicy::Continuous)
                    .with_threads(0)
                    .run(&trace, router.as_mut());
                let l = &r.latency;
                println!(
                    "{:>5.2}x {:>9.3} {:>13} {:>11.1} {:>9.1} {:>8.3}/{:>6.3}/{:>6.3} {:>10.3} {:>10.3} {:>11.4} {:>9.3}",
                    frac,
                    rate,
                    kind.label(),
                    r.tokens_per_second,
                    r.mean_batch,
                    l.ttft.p50,
                    l.ttft.p95,
                    l.ttft.p99,
                    l.queueing.p50,
                    l.prefill.p50,
                    l.tpot.p50,
                    l.e2e.p95,
                );
                rows.push(bench::serving_row(
                    &format!("{}/{frac:.2}x/{}", tech.label(), kind.label()),
                    rate,
                    &r,
                ));
            }
        }
    }

    println!(
        "\nReading the curve: below 1.0x load the server keeps up (TTFT ~ prompt \
         processing + one iteration) and the router barely matters; past the \
         knee the queue grows, tail TTFT diverges while tok/s plateaus at the \
         rung's capacity, and join-shortest-queue pulls the TTFT tail in \
         versus blind round-robin. The queue/pref columns split TTFT between \
         scheduler-owned queueing delay and prefill-stage prompt processing \
         — on PIM-only hardware the prefill share is large (GEMV-bound FC, \
         O(P²) causal attention), which is exactly why decode-only TTFT was \
         systematically optimistic. DPA's lazy allocation admits more \
         concurrent requests, pushing the knee right."
    );

    if let Some(path) = json_path {
        bench::write_bench_json(&path, "latency_curve", rows);
    }
}
