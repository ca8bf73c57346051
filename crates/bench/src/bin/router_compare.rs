//! Cross-replica load balancing on bursty traffic: round-robin vs
//! join-shortest-queue vs least-loaded (reserved KV bytes), in the style
//! of the paper's figure binaries.
//!
//! Round-robin dispatches blindly, so a burst can pile onto a replica
//! that is already draining a long queue while its neighbours idle —
//! invisible in throughput, dominant in tail TTFT. JSQ and least-loaded
//! route on live replica state through the cluster layer
//! (`system::cluster`). Per-replica breakdowns and Jain's fairness index
//! make the skew visible.
//!
//! Two sections are printed:
//!
//! 1. the historical decode-only configuration (16 req/s, prefill not
//!    modeled) — comparable with the regression tests and ROADMAP
//!    numbers;
//! 2. the corrected end-to-end configuration: chunked prefill enabled,
//!    TTFT covering arrival → first token, with the offered rate scaled
//!    to the prefill-inclusive capacity (PIM-only prefill is orders of
//!    magnitude slower than decode refill, so the historical rate would
//!    saturate every router into the same multi-minute queue).
//!
//! Each run also reports its simulation wall-clock: caching the
//! deferred-chunk pricing in `ReplicaSim` keeps load-aware routing
//! (which advances every replica to each arrival's frontier) within a
//! small factor of blind round-robin — historically it re-priced the
//! pending chunk at every frontier visit, costing 2–3× (the smoke check
//! below warns if that regresses).
//!
//! Run with: `cargo run --release -p bench --bin router_compare`
//! (`-- --tiny` for the CI smoke configuration).

use bench::cli::{BenchArgs, DECODE_HI, DECODE_LO, SEED};
use llm_model::LLM_7B_32K;
use pim_compiler::ParallelConfig;
use std::time::Instant;
use system::{
    jain_fairness, Cluster, Evaluator, PrefillConfig, RouterKind, SchedulingPolicy, ServingReport,
    SystemConfig, Techniques,
};
use workload::{Dataset, Trace, TraceBuilder};

const PREFILL_CHUNK: u64 = PrefillConfig::DEFAULT_CHUNK;

fn bursty_trace(requests: usize, rate: f64, cv: f64) -> Trace {
    TraceBuilder::new(Dataset::QmSum)
        .seed(SEED)
        .requests(requests)
        .decode_range(DECODE_LO, DECODE_HI)
        .bursty(rate, cv)
        .build()
}

/// Runs all routers over `trace`, printing the comparison table, and
/// returns per-router `(kind, report, wall-clock seconds)`.
fn compare(eval: &Evaluator, trace: &Trace) -> Vec<(RouterKind, ServingReport, f64)> {
    println!(
        "{:<14} {:>9} {:>24} {:>10} {:>10} {:>24} {:>9} {:>8}",
        "router",
        "tok/s",
        "TTFT p50/p95/p99 (s)",
        "queue p50",
        "pref p50",
        "E2E p50/p95/p99 (s)",
        "fairness",
        "sim ms"
    );
    let mut reports = Vec::new();
    for kind in RouterKind::ALL {
        let mut router = kind.build_for(eval);
        // Wall-clock timing of the simulator itself, not sim time.
        #[allow(clippy::disallowed_methods)]
        let t0 = Instant::now();
        let r = Cluster::new(eval, SchedulingPolicy::Continuous)
            .with_threads(0)
            .run(trace, router.as_mut());
        let wall = t0.elapsed().as_secs_f64();
        println!(
            "{:<14} {:>9.1} {:>8.3}/{:>6.3}/{:>7.3} {:>10.3} {:>10.3} {:>8.3}/{:>6.3}/{:>7.3} {:>9.3} {:>8.1}",
            kind.label(),
            r.tokens_per_second,
            r.latency.ttft.p50,
            r.latency.ttft.p95,
            r.latency.ttft.p99,
            r.latency.queueing.p50,
            r.latency.prefill.p50,
            r.latency.e2e.p50,
            r.latency.e2e.p95,
            r.latency.e2e.p99,
            r.replica_fairness(),
            wall * 1000.0,
        );
        reports.push((kind, r, wall));
    }
    reports
}

fn per_replica_rows(reports: &[(RouterKind, ServingReport, f64)]) {
    println!("\nPer-replica breakdown (requests served / busy seconds / peak reserved KV GB):");
    for (kind, r, _) in reports {
        let row: Vec<String> = r
            .per_replica
            .iter()
            .map(|b| {
                format!(
                    "{}/{:.1}s/{:.1}",
                    b.served,
                    b.busy_seconds,
                    b.peak_reserved_kv as f64 / 1e9
                )
            })
            .collect();
        let served: Vec<f64> = r.per_replica.iter().map(|b| b.served as f64).collect();
        println!(
            "{:<14} {}  (served-fairness {:.3})",
            kind.label(),
            row.join("  "),
            jain_fairness(&served)
        );
    }
}

fn jsq_delta(reports: &[(RouterKind, ServingReport, f64)]) {
    if let (Some((_, rr, _)), Some((_, jsq, _))) = (
        reports
            .iter()
            .find(|(k, _, _)| *k == RouterKind::RoundRobin),
        reports
            .iter()
            .find(|(k, _, _)| *k == RouterKind::JoinShortestQueue),
    ) {
        let delta = (rr.latency.ttft.p99 - jsq.latency.ttft.p99) / rr.latency.ttft.p99;
        println!(
            "\nJSQ vs round-robin: p99 TTFT {:.3}s -> {:.3}s ({:+.1}%), p99 E2E {:.3}s -> {:.3}s",
            rr.latency.ttft.p99,
            jsq.latency.ttft.p99,
            -delta * 100.0,
            rr.latency.e2e.p99,
            jsq.latency.e2e.p99,
        );
    }
}

/// The wall-clock smoke check: load-aware routing must stay within a
/// small factor of blind round-robin now that the deferred-chunk pricing
/// is cached (it cost 2–3× before).
fn wall_clock_smoke(reports: &[(RouterKind, ServingReport, f64)]) {
    let rr = reports
        .iter()
        .find(|(k, _, _)| *k == RouterKind::RoundRobin)
        .map(|(_, _, w)| *w)
        .unwrap_or(0.0);
    for (kind, _, wall) in reports {
        if *kind == RouterKind::RoundRobin || rr <= 0.0 {
            continue;
        }
        let ratio = wall / rr;
        println!(
            "wall-clock {}: {:.2}x round-robin{}",
            kind.label(),
            ratio,
            if ratio > 2.5 {
                "  ** WARNING: load-aware routing overhead regressed (expected ~1x with the deferred-chunk pricing cache) **"
            } else {
                ""
            }
        );
    }
}

fn main() {
    let args = BenchArgs::parse();
    let tiny = args.tiny;
    let json_path = args.json;
    let model = LLM_7B_32K;
    // TP=2 over 8 modules → 4 replicas behind one cluster front-end.
    let sys = SystemConfig::cent_for(&model).with_parallel(ParallelConfig::new(2, 1));
    let replicas = sys.replicas();
    let requests = if tiny { 24 } else { 160 };
    let cv = 2.5;

    // Section 1: the historical decode-only configuration — offered load
    // just past the 4-replica decode capacity (~13.7 req/s) so bursts
    // genuinely queue; same trace as the `jsq_beats_round_robin_*`
    // regression test.
    let eval = Evaluator::new(sys, model, Techniques::pimphony());
    let rate = 16.0;
    bench::header(&format!(
        "Router comparison: {} × {replicas} replicas, {requests} requests, bursty gamma ({rate} req/s, cv {cv})",
        model.name
    ));
    println!("\n[1] decode-only TTFT (historical convention, prefill not modeled)");
    let decode_reports = compare(&eval, &bursty_trace(requests, rate, cv));
    per_replica_rows(&decode_reports);
    jsq_delta(&decode_reports);
    wall_clock_smoke(&decode_reports);

    // Section 2: corrected end-to-end TTFT. Prefill-inclusive capacity
    // is measured from the closed-world wave run on the same trace
    // shape, and the offered rate sits just past it so the tail story
    // stays comparable.
    let eval_pf =
        Evaluator::new(sys, model, Techniques::pimphony()).with_chunked_prefill(PREFILL_CHUNK);
    let (_, capacity_rps) =
        bench::closed_world_capacity(&eval_pf, &bursty_trace(requests, rate, cv));
    let rate_pf = capacity_rps * 1.2;
    println!(
        "\n[2] end-to-end TTFT (chunked prefill, {PREFILL_CHUNK} tok/chunk; \
         capacity ≈{capacity_rps:.3} req/s, offered {rate_pf:.3} req/s)"
    );
    let prefill_reports = compare(&eval_pf, &bursty_trace(requests, rate_pf, cv));
    per_replica_rows(&prefill_reports);
    jsq_delta(&prefill_reports);
    wall_clock_smoke(&prefill_reports);

    println!(
        "\nReading the tables: all routers serve the same work (tok/s is \
         arrival-bound below saturation); the spread is in the tail. Blind \
         round-robin lets bursts queue behind long decodes, JSQ balances \
         in-flight counts, least-loaded balances reserved KV bytes — which \
         also sees context length, not just request count. With prefill \
         modeled, TTFT additionally carries the prompt-processing delay \
         (queue vs pref columns); on PIM-only hardware that share dominates, \
         which is why section [1]'s TTFT was systematically optimistic."
    );

    if let Some(path) = json_path {
        let mut rows = Vec::new();
        for (section, section_rate, reports) in [
            ("decode-only", rate, &decode_reports),
            ("prefill", rate_pf, &prefill_reports),
        ] {
            for (kind, r, _) in reports {
                rows.push(bench::serving_row(
                    &format!("{section}/{}", kind.label()),
                    section_rate,
                    r,
                ));
            }
        }
        bench::write_bench_json(&path, "router_compare", rows);
    }
}
