//! Online serving: the same open-loop bursty trace served by the
//! closed-world wave policy vs event-driven continuous batching, with
//! per-request latency percentiles — the view production deployments are
//! judged on (the paper's figures report closed-world throughput only).
//! A second table sends the traffic through a 4-replica cluster under
//! each load balancer (round-robin / join-shortest-queue / least-loaded).
//!
//! Run with: `cargo run --example online_serving`

use pimphony::pim_compiler::ParallelConfig;
use pimphony::system::{
    run_pools, Evaluator, PolicySpec, PoolRun, RouterKind, SchedulingPolicy, SystemConfig,
    Techniques,
};
use pimphony::workload::{Dataset, TraceBuilder};

fn main() {
    let model = pimphony::llm_model::LLM_7B_32K;
    // 12 req/s of bursty traffic with production-like response spread.
    let trace = TraceBuilder::new(Dataset::QmSum)
        .seed(7)
        .requests(64)
        .decode_range(16, 96)
        .bursty(12.0, 2.5)
        .build();
    println!(
        "workload: {} requests over {:.1}s (~{:.1} req/s), mean context {:.0} tokens",
        trace.len(),
        trace.last_arrival_secs(),
        trace.offered_rate().unwrap_or(0.0),
        trace.mean_context()
    );

    println!(
        "\n{:<22} {:>9} {:>8} {:>26} {:>10}",
        "configuration", "tok/s", "batch", "TTFT p50/p95/p99 (s)", "TPOT p50"
    );
    for (name, scheduling, full) in [
        ("wave (closed-world)", SchedulingPolicy::Wave, true),
        ("continuous, baseline", SchedulingPolicy::Continuous, false),
        ("continuous, PIMphony", SchedulingPolicy::Continuous, true),
    ] {
        let techniques = if full {
            Techniques::pimphony()
        } else {
            Techniques::baseline()
        };
        let r = Evaluator::new(SystemConfig::cent_for(&model), model, techniques)
            .with_policies(PolicySpec {
                scheduling,
                ..PolicySpec::default()
            })
            .run_trace(&trace);
        let l = &r.latency;
        println!(
            "{:<22} {:>9.1} {:>8.1} {:>10.3}/{:>6.3}/{:>6.3} {:>10.4}",
            name, r.tokens_per_second, r.mean_batch, l.ttft.p50, l.ttft.p95, l.ttft.p99, l.tpot.p50
        );
    }

    println!(
        "\nThe wave row ignores arrival times (every request is assumed \
         queued at t=0), so its TTFT column measures closed-world batch \
         position, not online responsiveness."
    );

    // Heavier bursty traffic through a 4-replica cluster (TP=2 over 8
    // modules), dispatched by each load balancer — offered load just
    // past the cluster's capacity, so bursts genuinely queue. Parallel
    // replica simulation (threads) never changes the numbers, only
    // wall-clock.
    let cluster_trace = TraceBuilder::new(Dataset::QmSum)
        .seed(2026)
        .requests(160)
        .decode_range(16, 96)
        .bursty(16.0, 2.5)
        .build();
    println!(
        "\n{:<22} {:>9} {:>26} {:>10}",
        "4-replica cluster", "tok/s", "TTFT p50/p95/p99 (s)", "fairness"
    );
    let continuous = PolicySpec {
        scheduling: SchedulingPolicy::Continuous,
        ..PolicySpec::default()
    };
    let cluster = Evaluator::new(
        SystemConfig::cent_for(&model).with_parallel(ParallelConfig::new(2, 1)),
        model,
        Techniques::pimphony(),
    )
    .with_policies(continuous);
    for router in RouterKind::ALL {
        let mut pool = [PoolRun {
            name: String::new(),
            eval: &cluster,
            router: router.build_for(&cluster),
        }];
        // threads 0: one per CPU; results are identical anyway.
        let r = run_pools(&mut pool, continuous.scheduling, 0, &cluster_trace);
        let l = &r.latency;
        println!(
            "{:<22} {:>9.1} {:>10.3}/{:>6.3}/{:>6.3} {:>10.3}",
            router.label(),
            r.tokens_per_second,
            l.ttft.p50,
            l.ttft.p95,
            l.ttft.p99,
            r.replica_fairness(),
        );
    }
    println!(
        "\nRound-robin splits requests evenly but blindly; \
         join-shortest-queue and least-loaded route each arrival on live \
         replica state, which shows up in the TTFT tail on bursty traffic."
    );
}
