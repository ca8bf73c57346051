//! Criterion benches of the cycle-level simulator itself: command-stream
//! construction and scheduling throughput per controller (per-command
//! timings, and totals only for each kernel builder), kernel
//! calibration, stage-model prefill pricing, the paged-KV pool under
//! pressure, and the serving-simulator hot paths (admission sweep,
//! frontier advance and the chunked-prefill ledger) driven through the
//! public `run_pools` API.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llm_model::LLM_7B_32K;
use pim_compiler::ParallelConfig;
use pim_mem::{PagePool, RequestId};
use pim_sim::kernels::{AttentionSpec, GemvKernel, GemvSpec, QktKernel, SvKernel};
use pim_sim::{schedule, summarize, CommandSource, Geometry, SchedulerKind, Timing};
use std::hint::black_box;
use system::{
    run_pools, AttentionKind, Evaluator, KernelModel, PolicySpec, PoolRun, PrefillConfig,
    RouterKind, SchedulingPolicy, ServingReport, StageModel, SystemConfig, Techniques,
};
use workload::{Dataset, Trace, TraceBuilder};

fn bench_stream_building(c: &mut Criterion) {
    let geom = Geometry::pimphony();
    let mut g = c.benchmark_group("stream_build");
    g.bench_function("qkt_4k", |b| {
        b.iter(|| QktKernel::new(AttentionSpec::mha(4096, 128), geom).stream())
    });
    g.bench_function("sv_4k_gqa8", |b| {
        b.iter(|| SvKernel::new(AttentionSpec::gqa(4096, 128, 8), geom).stream())
    });
    g.bench_function("gemv_4kx4k", |b| {
        b.iter(|| {
            GemvKernel::new(
                GemvSpec {
                    dout: 4096,
                    din: 4096,
                },
                geom,
            )
            .stream()
        })
    });
    g.finish();
}

fn bench_schedulers(c: &mut Criterion) {
    let geom = Geometry::pimphony();
    let timing = Timing::aimx();
    let stream = QktKernel::new(AttentionSpec::mha(4096, 128), geom).stream();
    let mut g = c.benchmark_group("schedule_qkt_4k");
    for kind in SchedulerKind::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| b.iter(|| schedule(black_box(&stream), kind, &timing, &geom)),
        );
    }
    g.finish();
    // The totals path on the same kernel: commands go straight from the
    // builder into the issue loop, with no stream and no timings.
    let kernel = QktKernel::new(AttentionSpec::mha(4096, 128), geom);
    bench_summarize(c, "summarize_qkt_4k", &kernel, &SchedulerKind::ALL);
    // SV at 4K tokens (MHA) is a query-sequential GEMV whose 256 input
    // tiles stream through the Global Buffer in four chunks.
    let sv = SvKernel::new(AttentionSpec::mha(4096, 128), geom);
    // One channel's slice of LLM-7B's FFN up-projection on the CENT
    // preset (dout sharded over TP x channels), as a PIM-only system
    // calibrates it: a chunked GEMV.
    let sys = SystemConfig::cent_for(&LLM_7B_32K);
    let per_channel = sys.parallel.tp * sys.module.channels;
    let fc = GemvKernel::new(
        GemvSpec {
            dout: LLM_7B_32K.ffn_dim.div_ceil(per_channel),
            din: LLM_7B_32K.hidden_dim,
        },
        geom,
    );
    let kinds = [SchedulerKind::Static, SchedulerKind::Dcs];
    bench_summarize(c, "summarize_sv_4k", &sv, &kinds);
    bench_summarize(c, "summarize_fc_7b", &fc, &kinds);
    // SV at 4K tokens for GQA group 8 with the row-reuse mapping, as DCS
    // on PIMphony buffers calibrates it: every weight tile fans out over
    // the accumulators of the queries sharing it.
    let sv_gqa8 = SvKernel::new(AttentionSpec::gqa(4096, 128, 8), geom);
    bench_summarize(c, "summarize_sv_4k_gqa8", &sv_gqa8, &[SchedulerKind::Dcs]);
    // The two other heaviest `paper_ladder` calibrations under DCS: QKᵀ
    // at 4K tokens for GQA group 8 (accumulate runs over the row-reuse
    // mapping) and the largest FC GEMV slice, whose 1,536 input tiles
    // stream through the Global Buffer in 24 chunks.
    let qkt_gqa8 = QktKernel::new(AttentionSpec::gqa(4096, 128, 8), geom);
    bench_summarize(c, "summarize_qkt_4k_gqa8", &qkt_gqa8, &[SchedulerKind::Dcs]);
    let gemv = GemvKernel::new(
        GemvSpec {
            dout: 256,
            din: 24576,
        },
        geom,
    );
    bench_summarize(c, "summarize_gemv_256x24576", &gemv, &[SchedulerKind::Dcs]);
}

/// One bench group timing `summarize` on `source` per scheduler in
/// `kinds` (AiMX timing, PIMphony geometry).
fn bench_summarize(
    c: &mut Criterion,
    group: &str,
    source: &impl CommandSource,
    kinds: &[SchedulerKind],
) {
    let (timing, geom) = (Timing::aimx(), Geometry::pimphony());
    let mut g = c.benchmark_group(group);
    for &kind in kinds {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| b.iter(|| summarize(black_box(source), kind, &timing, &geom)),
        );
    }
    g.finish();
}

/// Calibration of a fresh kernel model for a PIMphony GQA attention
/// configuration (DCS, PIMphony buffers, group 8 with row reuse): both
/// attention kernels simulated at the fit's two token counts.
fn bench_calibration(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    g.bench_function("calibrate_gqa8_dcs", |b| {
        b.iter(|| {
            let model = KernelModel::new(Timing::aimx(), 128);
            [AttentionKind::Qkt, AttentionKind::Sv]
                .map(|kind| model.attention_eval(kind, SchedulerKind::Dcs, true, 8, true))
        })
    });
    g.finish();
}

/// Stage-model pricing on a calibrated LLM-7B-32K, TP 2, PIMphony stage
/// model (32 channels, 16 KV instances per module under TCP): prefill
/// of one 32K-token prompt in 512-token chunks, and one decode
/// attention layer over ~4K-token requests at batch 2 (about
/// `fleet_jsq`'s mean batch) and 16. Each TCP request adds one slice per
/// (KV head, channel) pair. These fixed shapes repeat one call, so the
/// branches inside the exact TCP sums stay predicted; `stage/mixed`
/// varies the shape on every call: 64 seeded decode iterations of 1–3
/// requests at 2K–12K tokens and 64 prefill chunks of 64–512 tokens at
/// offsets in 0–16K.
fn bench_stage(c: &mut Criterion) {
    let kernels = KernelModel::new(Timing::aimx(), LLM_7B_32K.head_dim);
    let sys = SystemConfig::cent_for(&LLM_7B_32K).with_parallel(ParallelConfig::new(2, 1));
    let stage = StageModel::new(sys, LLM_7B_32K, Techniques::pimphony(), &kernels);
    let mut g = c.benchmark_group("stage");
    g.bench_function("prefill_chunk", |b| {
        b.iter(|| {
            (0..64u64)
                .map(|i| stage.prefill_chunk(black_box(i * 512), 512).seconds)
                .sum::<f64>()
        })
    });
    for batch in [2u64, 16] {
        let requests: Vec<(u64, u64)> = (0..batch).map(|i| (i, 4000 + 97 * i)).collect();
        g.bench_with_input(
            BenchmarkId::new("attention_layer_tcp", batch),
            &requests,
            |b, requests| b.iter(|| stage.attention_layer(black_box(requests)).cycles),
        );
    }
    let mut rng = SplitMix(2026);
    let decode: Vec<Vec<(u64, u64)>> = (0..64)
        .map(|_| {
            (0..1 + rng.below(3))
                .map(|i| (i, 2048 + rng.below(10_241)))
                .collect()
        })
        .collect();
    let prefill: Vec<(u64, u64)> = (0..64)
        .map(|_| (rng.below(16_385), 64 + rng.below(449)))
        .collect();
    g.bench_function("mixed", |b| {
        b.iter(|| {
            let decode: f64 = decode
                .iter()
                .map(|batch| stage.iteration(black_box(batch)).seconds)
                .sum();
            let prefill: f64 = prefill
                .iter()
                .map(|&(done, chunk)| stage.prefill_chunk(black_box(done), chunk).seconds)
                .sum();
            decode + prefill
        })
    });
    g.finish();
}

/// A seeded SplitMix64 stream, for bench inputs.
struct SplitMix(u64);

impl SplitMix {
    /// A draw below `n`.
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// A page pool under pressure from shared-prefix traffic: 8 tenants
/// with 384-page prompt chains plus private pages, two sequences live at
/// a time, in a 1,536-page pool — so admissions both hit resident
/// prefixes and reclaim other tenants' cold chains tail-first.
fn bench_page_pool(c: &mut Criterion) {
    let chains: Vec<Vec<u64>> = (0..8u64)
        .map(|t| (0..384).map(|i| t << 32 | i).collect())
        .collect();
    let mut g = c.benchmark_group("serving");
    g.bench_function("page_pool_admit_release", |b| {
        b.iter(|| {
            let mut pool = PagePool::new(1536 * 4096, 4096);
            let (mut hit, mut reclaimed) = (0, 0);
            for id in 0..256u64 {
                let chain = &chains[((id * 7 + id / 5) % 8) as usize];
                let shared = 128 + (id * 37 % 257) as usize;
                let a = pool
                    .admit(RequestId(id), &chain[..shared], 16 + id % 64)
                    .expect("two sequences fit the pool");
                hit += a.hit_pages;
                reclaimed += a.reclaimed_pages;
                if id >= 1 {
                    pool.release(RequestId(id - 1)).expect("admitted earlier");
                }
            }
            (hit, reclaimed)
        })
    });
    g.finish();
}

/// A multi-replica continuous-batching evaluator (TP=2 over the CENT
/// preset's modules) and a bursty trace sized so admission, chunk
/// cutting and frontier advancing all stay busy.
fn serving_fixture(priority_levels: u8) -> (Evaluator, Trace) {
    let sys = SystemConfig::cent_for(&LLM_7B_32K).with_parallel(ParallelConfig::new(2, 1));
    let eval = Evaluator::new(sys, LLM_7B_32K, Techniques::pimphony());
    let trace = TraceBuilder::new(Dataset::QmSum)
        .seed(2026)
        .requests(512)
        .decode_range(16, 96)
        .bursty(60.0, 2.5)
        .priority_levels(priority_levels)
        .build();
    (eval, trace)
}

/// Serves `trace` continuously on `eval` as one mixed pool routed by
/// `kind`, on one thread.
fn serve(eval: &Evaluator, kind: RouterKind, trace: &Trace) -> ServingReport {
    let mut pool = [PoolRun {
        name: String::new(),
        eval,
        router: kind.build_for(eval),
    }];
    run_pools(&mut pool, SchedulingPolicy::Continuous, 1, trace)
}

/// The serving simulator's two hot paths, end to end through the public
/// `run_pools` API (the per-replica structures are crate-private):
///
/// * **admission sweep** — uniform- vs multi-priority traces exercise
///   the FCFS fast path and the priority-lane candidate scan that
///   replaced the linear pending-queue scan;
/// * **frontier advance** — a load-inspecting router (JSQ) advances
///   replicas to every arrival's routing frontier through the event
///   calendar, while round-robin skips interleaved advancing entirely
///   and bounds the non-calendar cost.
fn bench_serving_hot_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("serving");
    g.sample_size(10);
    for (label, levels) in [("admission_fcfs", 1), ("admission_priority", 4)] {
        let (eval, trace) = serving_fixture(levels);
        g.bench_function(label, |b| {
            b.iter(|| serve(&eval, RouterKind::RoundRobin, black_box(&trace)))
        });
    }
    let (eval, trace) = serving_fixture(1);
    g.bench_function("frontier_advance_jsq", |b| {
        b.iter(|| serve(&eval, RouterKind::JoinShortestQueue, black_box(&trace)))
    });
    g.finish();
}

/// Chunked-prefill serving end to end: 512-token prompt chunks make up
/// most of the step stream, so the run exercises the replicas' interned
/// prefill-price tables (one pricing per distinct `(done, chunk)`) and
/// the merge's replay of the 16-byte prefill records in step order with
/// the decode records.
fn bench_prefill_ledger(c: &mut Criterion) {
    let (eval, trace) = serving_fixture(1);
    let eval = eval.with_policies(PolicySpec {
        prefill: PrefillConfig::chunked(512),
        ..PolicySpec::default()
    });
    let mut g = c.benchmark_group("serving");
    g.sample_size(10);
    g.bench_function("prefill_ledger", |b| {
        b.iter(|| serve(&eval, RouterKind::RoundRobin, black_box(&trace)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_stream_building,
    bench_schedulers,
    bench_calibration,
    bench_stage,
    bench_page_pool,
    bench_serving_hot_paths,
    bench_prefill_ledger
);
criterion_main!(benches);
