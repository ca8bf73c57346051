//! Prefix caching on a shared-system-prompt workload: sweep paged KV
//! off/on at matched KV pressure and measure the cache hit rate, the
//! shared-prefix tenant's TTFT, and eviction waste.
//!
//! The workload has two tenants: `assistant` traffic whose requests all
//! open with the same long system prompt (`shared_prefix` tokens) at
//! priority 0, and unrelated bursty `interactive` traffic at priority 1
//! whose bursts preempt assistant requests under KV pressure. With
//! prefix caching **off** every admission reserves and prefills its
//! whole prompt, and an evicted assistant request re-prefills it all;
//! **on**, the per-replica page pool maps the resident shared pages
//! (refcount++), prefill starts at the first non-cached token, and an
//! evicted request's shared pages stay resident — page-granular
//! eviction reclaims cold pages instead of whole requests.
//!
//! Two acceptance claims ride this bench into `BENCH_serving.json`:
//!
//! 1. On the shared-prefix workload the hit rate is > 0 and the shared
//!    tenant's TTFT drops versus caching off (same trace, same seeds).
//! 2. Under KV pressure with `EvictRestart`, page-granular reclamation
//!    preserves the victims' shared pages, so `wasted_prefill_tokens`
//!    shrinks versus whole-request reservations at the same capacity
//!    factor.
//!
//! Run with: `cargo run --release -p bench --bin prefix_cache`
//! (`-- --tiny` for the CI smoke configuration, `--json <path>` for
//! machine-readable results).

use bench::cli::{tenant_row, BenchArgs, DECODE_HI, DECODE_LO, SEED};
use bench::json::Json;
use system::{
    PagedKvConfig, PreemptionPolicy, PrefillConfig, RouterKind, Scenario, SchedulingPolicy,
    ServingReport, TenantSpec,
};
use workload::{ArrivalProcess, Dataset, DecodeSpec};

const CV: f64 = 2.5;
const PREFILL_CHUNK: u64 = PrefillConfig::DEFAULT_CHUNK;
/// The shared system prompt length in tokens (clamped per request to
/// its context length; QMSum contexts are long enough to share most of
/// it).
const SHARED_PREFIX: u64 = 6144;

/// The two-tenant shared-prefix scenario: `assistant` (priority 0, all
/// requests share `SHARED_PREFIX` leading tokens) preempted by bursty
/// `interactive` traffic at priority 1, continuous scheduling with
/// chunked prefill and `EvictRestart` under a scaled KV pool.
fn scenario(requests: usize, rates: (f64, f64), factor: f64, caching: bool) -> Scenario {
    let mut s = Scenario::new("LLM-7B-32K");
    s.cluster.tp = 2;
    s.cluster.threads = 0;
    s.policies.scheduling = SchedulingPolicy::Continuous;
    s.policies.router = RouterKind::JoinShortestQueue;
    s.policies.preemption = PreemptionPolicy::EvictRestart;
    s.policies.prefill = PrefillConfig::chunked(PREFILL_CHUNK);
    s.policies.kv_capacity_factor = factor;
    if caching {
        s.policies.paged_kv = PagedKvConfig::paged(PagedKvConfig::DEFAULT_PAGE_BYTES);
    }
    s.tenant(
        TenantSpec::new("assistant", Dataset::QmSum)
            .requests(requests)
            .seed(SEED)
            .decode(DecodeSpec::Uniform(DECODE_LO, DECODE_HI))
            .arrivals(ArrivalProcess::Poisson { rate: rates.0 })
            .slo_ttft_p99(60.0)
            .shared_prefix(SHARED_PREFIX),
    )
    .tenant(
        TenantSpec::new("interactive", Dataset::QmSum)
            .requests(requests * 2 / 3)
            .seed(SEED + 1)
            .decode(DecodeSpec::Uniform(DECODE_LO, DECODE_HI))
            .arrivals(ArrivalProcess::Bursty {
                rate: rates.1,
                cv: CV,
            })
            .priority(1),
    )
}

/// Fraction of offered prompt tokens served from the prefix cache.
fn hit_rate(r: &ServingReport) -> f64 {
    let offered = r.prefill_tokens + r.prefix_hit_tokens;
    if offered == 0 {
        0.0
    } else {
        r.prefix_hit_tokens as f64 / offered as f64
    }
}

/// The shared tenant's p99 TTFT (tenant 0 = `assistant`).
fn shared_ttft(r: &ServingReport) -> f64 {
    r.latency_by_tenant
        .first()
        .map(|t| t.latency.ttft.p99)
        .unwrap_or(0.0)
}

fn main() {
    let args = BenchArgs::parse();
    let tiny = args.tiny;
    let requests = if tiny { 24 } else { 60 };
    let factors: &[f64] = if tiny { &[0.35] } else { &[1.0, 0.5, 0.35] };
    // Offered rates (assistant poisson, interactive bursty) chosen
    // against the two_tenant_slo.json operating point: enough
    // concurrency that interactive bursts evict assistant requests
    // under a scaled-down KV pool.
    let rates = (0.06, 0.04);

    bench::header(&format!(
        "Prefix cache: 2 tenants ({requests}+{} requests), shared system prompt \
         {SHARED_PREFIX} tokens, chunked prefill {PREFILL_CHUNK}, evict-restart",
        requests * 2 / 3,
    ));

    let mut rows = Vec::new();
    for &factor in factors {
        println!("\nKV capacity ×{factor:.2}");
        println!(
            "{:<8} {:>9} {:>10} {:>9} {:>7} {:>11} {:>11} {:>12} {:>12}",
            "caching",
            "tok/s",
            "hit-tok",
            "hit-rate",
            "evict",
            "pages-recl",
            "waste-pre",
            "TTFT99 shr",
            "TTFT99 all"
        );
        let mut off_report: Option<ServingReport> = None;
        for caching in [false, true] {
            let label = if caching { "on" } else { "off" };
            let m = scenario(requests, rates, factor, caching)
                .materialize()
                .expect("scenario materializes");
            let r = m.run();
            println!(
                "{:<8} {:>9.1} {:>10} {:>9.1}% {:>7} {:>11} {:>11} {:>12.3} {:>12.3}",
                label,
                r.tokens_per_second,
                r.prefix_hit_tokens,
                hit_rate(&r) * 100.0,
                r.evictions,
                r.pages_evicted,
                r.wasted_prefill_tokens,
                shared_ttft(&r),
                r.latency.ttft.p99,
            );
            let name = format!("kv{factor:.2}/{label}");
            let mut row = bench::serving_row(&name, rates.0 + rates.1, &r);
            bench::push_row_field(&mut row, "kv_capacity_factor", Json::num(factor));
            bench::push_row_field(
                &mut row,
                "prefix_cache_hits",
                Json::num(r.prefix_cache_hits as f64),
            );
            bench::push_row_field(
                &mut row,
                "prefix_hit_tokens",
                Json::num(r.prefix_hit_tokens as f64),
            );
            bench::push_row_field(&mut row, "prefix_hit_rate", Json::num(hit_rate(&r)));
            bench::push_row_field(&mut row, "pages_evicted", Json::num(r.pages_evicted as f64));
            rows.push(row);
            // The shared tenant's own percentiles, pinned by name so the
            // regression gate watches the latency the cache is for.
            rows.push(tenant_row(
                &format!("{name}/assistant"),
                &r.latency_by_tenant[0],
            ));
            if caching {
                let off = off_report.take().expect("off ran first");
                let d_ttft =
                    (1.0 - shared_ttft(&r) / shared_ttft(&off).max(f64::MIN_POSITIVE)) * 100.0;
                println!(
                    "  on vs off: hit rate {:.1}%, shared-tenant TTFT p99 {:+.1}%, \
                     wasted prefill {} -> {} tokens",
                    hit_rate(&r) * 100.0,
                    -d_ttft,
                    off.wasted_prefill_tokens,
                    r.wasted_prefill_tokens,
                );
            } else {
                off_report = Some(r);
            }
        }
    }

    println!(
        "\nReading the sweep: with caching on, every assistant admission \
         after the first maps its system-prompt pages straight from the \
         replica's prefix tree — prefill starts at the first non-cached \
         token, so the shared tenant's TTFT drops by roughly the skipped \
         prompt fraction. Under pressure (smaller KV factors) the paged \
         pool also evicts *pages* (cold cached prefixes first) instead of \
         whole requests, and an evicted request's shared pages survive in \
         the pool, so its re-prefill restarts past the cached prefix — \
         wasted_prefill_tokens shrinks versus whole-request \
         evict-restart at the same capacity factor."
    );

    if let Some(path) = args.json {
        bench::write_bench_json(&path, "prefix_cache", rows);
    }
}
