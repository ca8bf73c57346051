//! The goodput/attainment frontier of SLO-native serving: offered rate
//! × routing/admission policy on a two-tenant (interactive + batch)
//! cluster.
//!
//! Throughput counts every served token; goodput counts only the
//! tokens of requests whose TTFT met their tenant's SLO. Below
//! saturation the two coincide and every router looks alike. Past
//! saturation they diverge: load-oblivious routing lets interactive
//! requests queue behind batch prompts until their deadlines are
//! unmeetable, and serving those doomed requests *lowers* goodput while
//! raising throughput. The sweep measures that frontier for four
//! policies:
//!
//! * `jsq` / `least-loaded` — the load-balancing baselines, no SLO
//!   signal anywhere.
//! * `slo-aware` — the [`system::SloAware`] router: power-of-two-choices
//!   by predicted TTFT slack for interactive arrivals, memory-spreading
//!   for batch.
//! * `slo-aware+shed` — the same router plus deadline-aware admission
//!   control ([`system::SheddingPolicy::Reject`]): requests whose
//!   optimistic TTFT bound already misses their SLO are dropped at
//!   admission (counted in the `shed` column) instead of burning
//!   prefill capacity on work that cannot meet its deadline.
//!
//! The offered rate is anchored on the measured closed-world capacity
//! of the same cluster and trace shape (its wave run, requests/second)
//! and swept across under-load (0.8×) and overload (1.2×, 1.6×)
//! multipliers.
//!
//! Run with: `cargo run --release -p bench --bin goodput_frontier`
//! (`-- --tiny` for the CI smoke configuration, `--json <path>` for
//! machine-readable rows).

use bench::cli::{self, BenchArgs, DECODE_HI, DECODE_LO, SEED};
use system::{
    ClusterSpec, PolicySpec, PrefillConfig, RouterKind, Scenario, SchedulingPolicy, ServingReport,
    SheddingPolicy, TenantSpec,
};
use workload::{ArrivalProcess, Dataset, DecodeSpec};

/// Interactive tenant's TTFT SLO in seconds (matches the checked-in
/// `two_tenant_slo` scenario: prefill on PIM-only hardware dominates
/// TTFT, so targets are tens of seconds, not milliseconds).
const SLO_TTFT: f64 = 60.0;
/// Prefill chunk (matches the checked-in SLO scenarios).
const PREFILL_CHUNK: u64 = 512;
/// Offered-rate multipliers over the measured closed-world capacity.
const MULTIPLIERS: [f64; 3] = [0.8, 1.2, 1.6];

/// The swept policies: `(label, router, shedding)`.
const POLICIES: [(&str, RouterKind, SheddingPolicy); 4] = [
    ("jsq", RouterKind::JoinShortestQueue, SheddingPolicy::None),
    (
        "least-loaded",
        RouterKind::LeastLoaded,
        SheddingPolicy::None,
    ),
    ("slo-aware", RouterKind::SloAware, SheddingPolicy::None),
    (
        "slo-aware+shed",
        RouterKind::SloAware,
        SheddingPolicy::Reject,
    ),
];

/// The two-tenant scenario at one sweep point. Each tenant offers half
/// the total rate; interactive traffic is bursty (the hard case for
/// blind routing), batch is Poisson background.
fn scenario(
    requests: usize,
    rate_interactive: f64,
    rate_batch: f64,
    scheduling: SchedulingPolicy,
    router: RouterKind,
    shedding: SheddingPolicy,
) -> Scenario {
    let mut s = Scenario::new("LLM-7B-32K");
    s.cluster = ClusterSpec {
        tp: 2,
        pp: 1,
        modules: 0,
        threads: 0,
        pools: Vec::new(),
    };
    s.policies = PolicySpec {
        scheduling,
        router,
        prefill: PrefillConfig::chunked(PREFILL_CHUNK),
        shedding,
        ..PolicySpec::default()
    };
    s.tenant(
        TenantSpec::new("interactive", Dataset::QmSum)
            .requests(requests)
            .seed(SEED)
            .decode(DecodeSpec::Uniform(DECODE_LO, DECODE_HI))
            .arrivals(ArrivalProcess::Bursty {
                rate: rate_interactive,
                cv: 2.5,
            })
            .priority(1)
            .slo_ttft_p99(SLO_TTFT),
    )
    .tenant(
        TenantSpec::new("batch", Dataset::QmSum)
            .requests(requests)
            .seed(SEED + 1)
            .decode(DecodeSpec::Uniform(DECODE_LO, DECODE_HI))
            .arrivals(ArrivalProcess::Poisson { rate: rate_batch }),
    )
}

/// The interactive tenant's share of a report (tenant id 0 by workload
/// order).
fn interactive(r: &ServingReport) -> &system::TenantLatency {
    r.latency_by_tenant
        .iter()
        .find(|t| t.tenant == 0)
        .expect("interactive tenant completed requests")
}

fn main() {
    let args = BenchArgs::parse();
    let requests = if args.tiny { 12 } else { 48 };

    // Capacity anchor: the closed-world (wave) run of the same cluster
    // and trace shape, prefill included. Arrival rates do not matter
    // closed-world; reuse the 1×-shape trace.
    let cap_scenario = scenario(
        requests,
        0.05,
        0.05,
        SchedulingPolicy::Wave,
        RouterKind::RoundRobin,
        SheddingPolicy::None,
    );
    let cap = cap_scenario.materialize().expect("capacity scenario");
    let capacity_rps = cap.trace.len() as f64 / cap.run().seconds.max(f64::MIN_POSITIVE);

    bench::header(&format!(
        "Goodput frontier: LLM-7B-32K × {} replicas, 2 tenants × {requests} requests, \
         interactive SLO {SLO_TTFT}s, capacity ≈{capacity_rps:.3} req/s",
        cap.evaluator.system().replicas(),
    ));

    let mut rows = Vec::new();
    for mult in MULTIPLIERS {
        let total = capacity_rps * mult;
        println!(
            "\n[{mult:.1}x capacity] offered {total:.3} req/s \
             ({:.3} interactive + {:.3} batch)",
            total / 2.0,
            total / 2.0
        );
        println!(
            "{:<16} {:>9} {:>9} {:>6} {:>12} {:>12} {:>12} {:>11}",
            "policy",
            "tok/s",
            "goodput",
            "shed",
            "int TTFT p99",
            "int goodput",
            "int tokens",
            "attainment"
        );
        for (label, router, shedding) in POLICIES {
            let s = scenario(
                requests,
                total / 2.0,
                total / 2.0,
                SchedulingPolicy::Continuous,
                router,
                shedding,
            );
            let m = s.materialize().expect("sweep scenario");
            let r = m.run();
            let int = interactive(&r);
            let int_goodput = if r.seconds > 0.0 {
                int.goodput_tokens as f64 / r.seconds
            } else {
                0.0
            };
            println!(
                "{:<16} {:>9.1} {:>9.1} {:>6} {:>12.3} {:>12.1} {:>12} {:>10.1}%",
                label,
                r.tokens_per_second,
                r.goodput(),
                r.shed,
                int.latency.ttft.p99,
                int_goodput,
                int.tokens,
                int.slo_attainment * 100.0,
            );
            // Frontier rows always carry the goodput metrics — this
            // bench exists to gate them (unlike the historical serving
            // bins, whose rows predate the fields and stay byte-stable
            // by omitting them).
            let name = format!("{mult:.1}x/{label}");
            let mut row = bench::serving_row(&name, total, &r);
            bench::push_row_field(&mut row, "goodput", bench::json::Json::num(r.goodput()));
            bench::push_row_field(&mut row, "shed", bench::json::Json::num(r.shed as f64));
            rows.push(row);
            for t in &r.latency_by_tenant {
                let mut trow = cli::tenant_row(&format!("{name}/{}", m.tenant_name(t.tenant)), t);
                let goodput = if r.seconds > 0.0 {
                    t.goodput_tokens as f64 / r.seconds
                } else {
                    0.0
                };
                bench::push_row_field(&mut trow, "goodput", bench::json::Json::num(goodput));
                rows.push(trow);
            }
        }
    }

    println!(
        "\nReading the table: tok/s counts every served token, goodput only \
         the tokens whose requests met their tenant's TTFT SLO — the metric \
         the ROADMAP's \"goodput, not throughput\" item asks for. Below \
         capacity the columns agree. Past it, slo-aware routing keeps \
         interactive arrivals off backlogged replicas, and shedding stops \
         spending prefill on requests whose optimistic TTFT bound already \
         misses the deadline — higher interactive goodput and attainment at \
         the same offered load, paid for with explicitly-counted shed \
         requests instead of silent tail-latency inflation."
    );

    if let Some(path) = &args.json {
        bench::write_bench_json(path, "goodput_frontier", rows);
    }
}
