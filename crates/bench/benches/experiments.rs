//! One Criterion bench per figure/table family, exercising exactly the
//! code paths the experiment binaries use (small parameterizations so
//! `cargo bench` touches every experiment quickly).

use criterion::{criterion_group, criterion_main, Criterion};
use llm_model::{DecodeAnalytics, LLM_7B_128K_GQA, LLM_7B_32K};
use pim_compiler::lower::{dpa_footprint, static_footprint, AttentionLowering};
use pim_mem::{ChunkAllocator, RequestId, StaticAllocator};
use pim_sim::kernels::{AttentionSpec, GemvKernel, GemvSpec, QktKernel};
use pim_sim::{schedule, Geometry, SchedulerKind, Timing};
use std::hint::black_box;
use system::{Evaluator, GpuSystem, SystemConfig, Techniques};
use workload::{Dataset, TraceBuilder};

fn small_trace() -> workload::Trace {
    TraceBuilder::new(Dataset::QmSum)
        .seed(2026)
        .requests(4)
        .decode_len(8)
        .build()
}

fn fig2_analytics(c: &mut Criterion) {
    let a = DecodeAnalytics::new(LLM_7B_128K_GQA);
    c.bench_function("fig2_compute_intensity_sweep", |b| {
        b.iter(|| {
            (10..=20)
                .map(|e| a.compute_intensity(1u64 << e, 8))
                .sum::<f64>()
        })
    });
}

fn fig4_utilization(c: &mut Criterion) {
    let e = Evaluator::new(
        SystemConfig::cent_for(&LLM_7B_128K_GQA),
        LLM_7B_128K_GQA,
        Techniques::pimphony(),
    );
    c.bench_function("fig4_iteration_utilization", |b| {
        b.iter(|| e.iteration(black_box(&[(0, 32_768), (1, 16_384)])))
    });
}

fn fig8_breakdown(c: &mut Criterion) {
    let geom = Geometry::baseline();
    let stream = GemvKernel::new(
        GemvSpec {
            dout: 512,
            din: 512,
        },
        geom,
    )
    .stream();
    c.bench_function("fig8_gemv_breakdown", |b| {
        b.iter(|| {
            schedule(
                black_box(&stream),
                SchedulerKind::Static,
                &Timing::aimx(),
                &geom,
            )
        })
    });
}

fn fig10_footprints(c: &mut Criterion) {
    let lowering = AttentionLowering::aimx_default();
    c.bench_function("fig10_instruction_footprints", |b| {
        b.iter(|| static_footprint(&lowering, 1 << 16).bytes + dpa_footprint(&lowering).bytes)
    });
}

fn fig13_ladder(c: &mut Criterion) {
    let trace = small_trace();
    let mut g = c.benchmark_group("fig13_ladder");
    g.sample_size(10);
    g.bench_function("cent_7b_qmsum", |b| {
        b.iter(|| {
            Techniques::ladder()
                .map(|t| {
                    Evaluator::new(SystemConfig::cent_for(&LLM_7B_32K), LLM_7B_32K, t)
                        .run_trace(&trace)
                        .tokens_per_second
                })
                .iter()
                .sum::<f64>()
        })
    });
    g.finish();
}

fn fig18_scheduler_comparison(c: &mut Criterion) {
    let geom = Geometry::pimphony();
    let timing = Timing::aimx();
    let stream = QktKernel::new(AttentionSpec::gqa(2048, 128, 4), geom).stream();
    c.bench_function("fig18_pingpong_vs_dcs", |b| {
        b.iter(|| {
            let pp = schedule(&stream, SchedulerKind::PingPong, &timing, &geom);
            let dc = schedule(&stream, SchedulerKind::Dcs, &timing, &geom);
            (pp.summary.cycles, dc.summary.cycles)
        })
    });
}

fn fig19_allocators(c: &mut Criterion) {
    let trace = TraceBuilder::new(Dataset::QmSum)
        .seed(1)
        .requests(32)
        .decode_len(64)
        .build();
    c.bench_function("fig19_capacity_utilization", |b| {
        b.iter(|| {
            let model = LLM_7B_32K;
            let cap = 128u64 << 30;
            let mut s = StaticAllocator::new(cap, model.kv_bytes(model.context_window));
            let mut d = ChunkAllocator::with_default_chunks(cap);
            for r in trace.iter() {
                let used = model.kv_bytes(r.final_len());
                if s.admit(RequestId(r.id), used).is_err() {
                    break;
                }
                d.register(RequestId(r.id)).expect("fresh");
                d.grow(RequestId(r.id), used).expect("fits");
            }
            (s.capacity_utilization(), d.capacity_utilization())
        })
    });
}

fn fig20_gpu_baseline(c: &mut Criterion) {
    let trace = small_trace();
    c.bench_function("fig20_gpu_throughput", |b| {
        b.iter(|| GpuSystem::matched_for(&LLM_7B_32K).throughput(&LLM_7B_32K, &trace))
    });
}

criterion_group!(
    benches,
    fig2_analytics,
    fig4_utilization,
    fig8_breakdown,
    fig10_footprints,
    fig13_ladder,
    fig18_scheduler_comparison,
    fig19_allocators,
    fig20_gpu_baseline
);
criterion_main!(benches);
