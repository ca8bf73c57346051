//! Property tests for the event-driven serving engine: wave fidelity
//! against the original monolithic loop, continuous-batching dominance
//! under steady load, and latency-percentile sanity.

use pimphony::system::{Evaluator, PolicySpec, SchedulingPolicy, SystemConfig, Techniques};
use pimphony::workload::{Dataset, TraceBuilder};
use proptest::prelude::*;

fn cent_eval(techniques: Techniques) -> Evaluator {
    Evaluator::new(
        SystemConfig::cent_for(&pimphony::llm_model::LLM_7B_32K),
        pimphony::llm_model::LLM_7B_32K,
        techniques,
    )
}

/// [`cent_eval`] under an explicit scheduling policy and pricing stride.
fn cent_eval_with(techniques: Techniques, scheduling: SchedulingPolicy, stride: u64) -> Evaluator {
    cent_eval(techniques).with_policies(PolicySpec {
        scheduling,
        stride,
        ..PolicySpec::default()
    })
}

/// The engine's wave policy must reproduce the original wave loop's
/// report *exactly* (same arithmetic, extracted not reimplemented), for
/// every rung of the technique ladder on fixed-seed traces.
#[test]
fn wave_policy_reproduces_seed_wave_loop_exactly() {
    for seed in [3u64, 77, 2026] {
        for (dataset, requests, decode) in [
            (Dataset::QmSum, 12, 32),
            (Dataset::Musique, 9, 16),
            (Dataset::QmSum, 24, 8),
        ] {
            let trace = TraceBuilder::new(dataset)
                .seed(seed)
                .requests(requests)
                .decode_len(decode)
                .build();
            for tech in Techniques::ladder() {
                let e = cent_eval(tech);
                let engine = e.run_trace(&trace);
                let reference = e.run_trace_wave_reference(&trace);
                let label = format!("{} seed {seed} on {dataset}", tech.label());
                assert_eq!(engine.tokens, reference.tokens, "tokens: {label}");
                assert_eq!(engine.waves, reference.waves, "waves: {label}");
                assert_eq!(engine.seconds, reference.seconds, "seconds: {label}");
                assert_eq!(
                    engine.tokens_per_second, reference.tokens_per_second,
                    "throughput: {label}"
                );
                assert_eq!(
                    engine.mean_batch, reference.mean_batch,
                    "mean_batch: {label}"
                );
                assert_eq!(engine.energy, reference.energy, "energy: {label}");
                assert_eq!(engine.attn_seconds, reference.attn_seconds, "attn: {label}");
                assert_eq!(engine.fc_seconds, reference.fc_seconds, "fc: {label}");
                assert_eq!(
                    engine.capacity_utilization, reference.capacity_utilization,
                    "capacity: {label}"
                );
            }
        }
    }
}

/// A request that never emits a token (zero decode budget) must not
/// fabricate a first-token instant: the historical wave fallback
/// `first_token.unwrap_or(wave_start)` silently clamped such a request's
/// TTFT to the wave start, polluting the percentiles. It is still
/// served, but contributes no latency sample — under both policies.
#[test]
fn zero_emission_requests_produce_no_latency_sample() {
    let mk = |id, decode_len, arrival_us| pimphony::workload::Request {
        id,
        context_len: 4000,
        decode_len,
        arrival_us,
        priority: 0,
        tenant: 0,
        shared_prefix: 0,
    };
    let trace: pimphony::workload::Trace = [mk(0, 16, 0), mk(1, 0, 0), mk(2, 16, 100)]
        .into_iter()
        .collect();
    for policy in [SchedulingPolicy::Wave, SchedulingPolicy::Continuous] {
        let e = cent_eval_with(Techniques::pimphony(), policy, 64);
        let r = e.run_trace(&trace);
        // All three requests are served end-to-end...
        let served: u64 = r.per_replica.iter().map(|b| b.served).sum();
        assert_eq!(served, 3, "{policy}");
        assert_eq!(r.tokens, 32, "{policy}");
        // ...but only the two token-emitting ones yield latency samples,
        // and no sample's TTFT is clamped to a token that never existed.
        assert_eq!(r.latency.completed, 2, "{policy}");
        assert!(r.latency.ttft.p50 > 0.0, "{policy}: {:?}", r.latency.ttft);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under steady saturating Poisson load with varied response
    /// lengths, continuous batching never yields lower throughput than
    /// wave serving of the same trace: refilling freed batch slots beats
    /// decoding stragglers alone. (The wave policy even gets a head
    /// start, ignoring arrival times entirely.) The historical 0.5%
    /// tolerance covered a chunk-granularity *pricing* asymmetry (wave
    /// froze token counts for a whole 64-step stride, continuous
    /// re-priced at completion boundaries); both policies now price
    /// every chunk at its midpoint step — per-step exact under the
    /// affine kernel model, enforced at 0.01% by
    /// `chunk_pricing_is_stride_invariant` below — so the remaining
    /// tolerance covers pure scheduling: continuous admits FCFS and a
    /// worst-case head-of-line request can pack a batch worse than the
    /// wave planner's balanced waves (measured ≤ 0.49% across the seed
    /// domain, pricing's contribution < 0.01%).
    #[test]
    fn continuous_never_loses_to_wave_on_steady_load(
        seed in 0u64..1000,
        dpa in 0u32..2,
    ) {
        let tech = if dpa == 1 { Techniques::pimphony() } else { Techniques::tcp_dcs() };
        // Saturating: offered load well above per-replica service rate,
        // so the continuous server is never starved of arrivals.
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(seed)
            .requests(32)
            .decode_range(8, 96)
            .poisson(2000.0)
            .build();
        let wave = cent_eval(tech).run_trace(&trace);
        let cont = cent_eval_with(tech, SchedulingPolicy::Continuous, 64).run_trace(&trace);
        prop_assert_eq!(cont.tokens, wave.tokens);
        prop_assert!(
            cont.tokens_per_second >= wave.tokens_per_second * 0.995,
            "continuous {} < wave {} (seed {})",
            cont.tokens_per_second,
            wave.tokens_per_second,
            seed
        );
    }

    /// The chunk-pricing fix, gated tightly: throughput must be
    /// *stride-invariant*. `stride = 1` re-prices the iteration at every
    /// decode step (exact by construction); `stride = 64` prices chunks
    /// at their midpoint step. Under the affine kernel model the two are
    /// identical; the 0.01% envelope covers only the model's piecewise
    /// effects (partition slice boundaries, half-step midpoint
    /// rounding). Before the fix, chunk costs were frozen at the chunk's
    /// *first* step and this deviation measured 0.1–0.5%.
    #[test]
    fn chunk_pricing_is_stride_invariant(
        seed in 0u64..1000,
        cont in 0u32..2,
    ) {
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(seed)
            .requests(32)
            .decode_range(8, 96)
            .poisson(2000.0)
            .build();
        let policy = if cont == 1 { SchedulingPolicy::Continuous } else { SchedulingPolicy::Wave };
        let coarse = cent_eval_with(Techniques::pimphony(), policy, 64).run_trace(&trace);
        let exact = cent_eval_with(Techniques::pimphony(), policy, 1).run_trace(&trace);
        prop_assert_eq!(coarse.tokens, exact.tokens);
        let skew = (coarse.tokens_per_second / exact.tokens_per_second - 1.0).abs();
        prop_assert!(
            skew < 1e-4,
            "{policy} stride-64 vs stride-1 skew {:.6}% (seed {})",
            skew * 100.0,
            seed
        );
    }

    /// Latency percentiles are monotone (p50 ≤ p95 ≤ p99 ≤ max) and
    /// causally consistent for every metric, across arrival regimes.
    #[test]
    fn latency_percentiles_are_monotone(
        seed in 0u64..1000,
        rate_decishare in 2u64..30,
        bursty in 0u32..2,
    ) {
        let rate = rate_decishare as f64; // 0.2–3 req/s of heavy requests
        let builder = TraceBuilder::new(Dataset::QmSum)
            .seed(seed)
            .requests(16)
            .decode_range(4, 48);
        let trace = if bursty == 1 {
            builder.bursty(rate, 2.0).build()
        } else {
            builder.poisson(rate).build()
        };
        let r = cent_eval_with(Techniques::pimphony(), SchedulingPolicy::Continuous, 64)
            .run_trace(&trace);
        prop_assert_eq!(r.latency.completed, trace.len() as u64);
        for (name, s) in
            [("ttft", &r.latency.ttft), ("tpot", &r.latency.tpot), ("e2e", &r.latency.e2e)]
        {
            prop_assert!(s.p50 <= s.p95 + 1e-12, "{}: p50 {} > p95 {}", name, s.p50, s.p95);
            prop_assert!(s.p95 <= s.p99 + 1e-12, "{}: p95 {} > p99 {}", name, s.p95, s.p99);
            prop_assert!(s.p99 <= s.max + 1e-12, "{}: p99 {} > max {}", name, s.p99, s.max);
            prop_assert!(s.mean <= s.max + 1e-12, "{}: mean {} > max {}", name, s.mean, s.max);
            prop_assert!(s.p50 >= 0.0, "{name}: negative p50");
        }
        // First token can't come before its own arrival, and e2e
        // dominates ttft rank-by-rank.
        prop_assert!(r.latency.e2e.p50 >= r.latency.ttft.p50 - 1e-12);
        prop_assert!(r.latency.e2e.max >= r.latency.ttft.max - 1e-12);
    }

    /// Work conservation: whichever policy and arrival process, every
    /// request completes and every decode token is produced exactly once.
    #[test]
    fn every_policy_serves_all_tokens(seed in 0u64..1000, cont in 0u32..2) {
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(seed)
            .requests(12)
            .decode_range(1, 40)
            .poisson(5.0)
            .build();
        let policy = if cont == 1 { SchedulingPolicy::Continuous } else { SchedulingPolicy::Wave };
        let r = cent_eval_with(Techniques::pimphony(), policy, 64).run_trace(&trace);
        prop_assert_eq!(r.tokens, trace.total_decode_tokens());
        prop_assert_eq!(r.latency.completed, trace.len() as u64);
    }
}
