//! Criterion benches of the cycle-level simulator itself: command-stream
//! construction and scheduling throughput per controller, plus the
//! serving-simulator hot paths (admission sweep and frontier advance)
//! driven through the public `Cluster` API.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llm_model::LLM_7B_32K;
use pim_compiler::ParallelConfig;
use pim_sim::kernels::{AttentionSpec, GemvKernel, GemvSpec, QktKernel, SvKernel};
use pim_sim::{schedule, Geometry, SchedulerKind, Timing};
use std::hint::black_box;
use system::{Cluster, Evaluator, RouterKind, SchedulingPolicy, SystemConfig, Techniques};
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

/// The serving simulator's two hot paths, end to end through the public
/// `Cluster` API (the per-replica structures are crate-private):
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
            b.iter(|| {
                Cluster::new(&eval, SchedulingPolicy::Continuous).run(
                    black_box(&trace),
                    RouterKind::RoundRobin.build_for(&eval).as_mut(),
                )
            })
        });
    }
    let (eval, trace) = serving_fixture(1);
    g.bench_function("frontier_advance_jsq", |b| {
        b.iter(|| {
            Cluster::new(&eval, SchedulingPolicy::Continuous).run(
                black_box(&trace),
                RouterKind::JoinShortestQueue.build_for(&eval).as_mut(),
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_stream_building,
    bench_schedulers,
    bench_serving_hot_paths
);
criterion_main!(benches);
