//! The TTFT/TPOT frontier of prefill/decode disaggregation at a matched
//! hardware budget: the same 8 modules (4 replicas at TP=2) serving one
//! bursty tenant, either colocated (every replica runs mixed
//! continuous batching) or split into a prefill pool that hands each
//! finished prompt's KV cache to a decode pool over a priced transfer
//! link.
//!
//! The trade the sweep measures is the one the disaggregation papers
//! (DistServe, Splitwise) make: colocated replicas interleave chunked
//! prefill with decode steps, so a long prompt arriving mid-decode
//! stretches every resident request's inter-token latency (TPOT);
//! splitting the pools removes that interference at the cost of (1)
//! fewer replicas per phase at the same budget and (2) an explicit
//! KV-transfer hop on TTFT. Which side wins depends on the
//! prefill:decode split and the offered load, so the sweep crosses
//! rate multipliers (anchored on the colocated closed-world capacity)
//! with split ratios, colocated included as the `4-mixed` baseline.
//!
//! Every disaggregated row carries the transfer accounting
//! (`kv_transferred_bytes`, `transfer_seconds`) and is followed by one
//! row per pool (`…/pool/prefill`, `…/pool/decode`) so the regression
//! gate pins the handoff pipeline, not just the end-to-end latencies.
//!
//! Run with: `cargo run --release -p bench --bin disagg_frontier`
//! (`-- --tiny` for the CI smoke configuration, `--json <path>` for
//! machine-readable rows).

use bench::cli::{self, BenchArgs, DECODE_HI, DECODE_LO, SEED};
use bench::json::Json;
use system::{
    ClusterSpec, PolicySpec, PoolRole, PoolSpec, PrefillConfig, RouterKind, Scenario,
    SchedulingPolicy, TenantSpec,
};
use workload::{ArrivalProcess, Dataset, DecodeSpec};

/// Prefill chunk (matches the checked-in scenarios and the colocated
/// baseline's interference profile).
const PREFILL_CHUNK: u64 = 512;
/// Offered-rate multipliers over the measured colocated capacity.
const MULTIPLIERS: [f64; 3] = [0.6, 1.0, 1.4];
/// Total replica budget (×TP=2 = 8 modules).
const BUDGET: u32 = 4;

/// The swept splits: `(label, prefill replicas, decode replicas)`;
/// `(label, 0, 0)` is the colocated baseline spending the whole budget
/// on mixed replicas.
const SPLITS: [(&str, u32, u32); 4] = [
    ("4-mixed", 0, 0),
    ("1p3d", 1, 3),
    ("2p2d", 2, 2),
    ("3p1d", 3, 1),
];

/// One bursty open-loop tenant on the matched 8-module budget, either
/// colocated (`prefill == 0`) or split `prefill`+`decode`.
fn scenario(
    requests: usize,
    rate: f64,
    scheduling: SchedulingPolicy,
    prefill: u32,
    decode: u32,
) -> Scenario {
    let mut s = Scenario::new("LLM-7B-32K");
    s.cluster = ClusterSpec {
        tp: 2,
        pp: 1,
        modules: 2 * BUDGET,
        threads: 0,
        pools: Vec::new(),
    };
    if prefill > 0 {
        s.cluster.pools = vec![
            PoolSpec::new("prefill", PoolRole::Prefill, prefill).parallel(2, 1),
            PoolSpec::new("decode", PoolRole::Decode, decode).parallel(2, 1),
        ];
    }
    s.policies = PolicySpec {
        scheduling,
        router: RouterKind::LeastLoaded,
        prefill: PrefillConfig::chunked(PREFILL_CHUNK),
        ..PolicySpec::default()
    };
    s.tenant(
        TenantSpec::new("bursty", Dataset::QmSum)
            .requests(requests)
            .seed(SEED)
            .decode(DecodeSpec::Uniform(DECODE_LO, DECODE_HI))
            .arrivals(ArrivalProcess::Bursty { rate, cv: 2.5 }),
    )
}

fn main() {
    let args = BenchArgs::parse();
    let requests = if args.tiny { 12 } else { 48 };

    // Capacity anchor: the closed-world (wave) round-robin run of the
    // colocated cluster and trace shape. Arrival rates do not matter
    // closed-world.
    let mut cap = scenario(requests, 0.05, SchedulingPolicy::Wave, 0, 0);
    cap.policies.router = RouterKind::RoundRobin;
    let cap = cap.materialize().expect("capacity scenario");
    let capacity_rps = cap.trace.len() as f64 / cap.run().seconds.max(f64::MIN_POSITIVE);

    bench::header(&format!(
        "Disaggregation frontier: LLM-7B-32K × {BUDGET}-replica budget (TP=2), \
         {requests} requests, colocated capacity ≈{capacity_rps:.3} req/s",
    ));

    let mut rows = Vec::new();
    for mult in MULTIPLIERS {
        let rate = capacity_rps * mult;
        println!("\n[{mult:.1}x capacity] offered {rate:.3} req/s");
        println!(
            "{:<10} {:>9} {:>12} {:>12} {:>11} {:>11} {:>12} {:>11}",
            "split",
            "tok/s",
            "TTFT p50",
            "TTFT p99",
            "TPOT p50",
            "TPOT p99",
            "transfer MB",
            "xfer sec"
        );
        for (label, prefill, decode) in SPLITS {
            let s = scenario(
                requests,
                rate,
                SchedulingPolicy::Continuous,
                prefill,
                decode,
            );
            let m = s.materialize().expect("sweep scenario");
            let r = m.run();
            println!(
                "{:<10} {:>9.1} {:>12.3} {:>12.3} {:>11.4} {:>11.4} {:>12.2} {:>11.4}",
                label,
                r.tokens_per_second,
                r.latency.ttft.p50,
                r.latency.ttft.p99,
                r.latency.tpot.p50,
                r.latency.tpot.p99,
                r.kv_transferred_bytes as f64 / 1e6,
                r.transfer_seconds,
            );
            // Frontier rows carry the transfer accounting whenever the
            // pool structure is observable; the colocated baseline
            // omits it (and its pool rows), matching the scenario-row
            // convention.
            let name = format!("{mult:.1}x/{label}");
            let mut row = bench::serving_row(&name, rate, &r);
            if !r.per_pool.is_empty() {
                bench::push_row_field(
                    &mut row,
                    "kv_transferred_bytes",
                    Json::num(r.kv_transferred_bytes as f64),
                );
                bench::push_row_field(&mut row, "transfer_seconds", Json::num(r.transfer_seconds));
            }
            rows.push(row);
            for p in &r.per_pool {
                rows.push(cli::pool_row(&format!("{name}/pool/{}", p.name), p));
            }
        }
    }

    println!(
        "\nReading the table: every split spends the same 8 modules. The \
         colocated baseline interleaves chunked prefill with decode, so its \
         TPOT tail carries prefill interference; the splits remove that \
         interference but pay an explicit KV-transfer hop on TTFT and give \
         each phase fewer replicas. transfer MB and xfer sec price the \
         handoff link (per-page latency + bandwidth); the per-pool rows \
         below each disaggregated row pin where the work landed."
    );

    if let Some(path) = &args.json {
        bench::write_bench_json(path, "disagg_frontier", rows);
    }
}
