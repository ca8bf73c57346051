//! Fig. 17: scalability with system capacity and context length
//! (LLM-7B-128K-GQA, 3-sigma context variation).

use llm_model::LLM_7B_128K_GQA;
use pim_compiler::ParallelConfig;
use system::{ModuleConfig, SystemConfig, SystemKind, Techniques};
use workload::{DatasetStats, TraceBuilder};

fn synthetic_trace(ctx: u64, n: usize) -> workload::Trace {
    let stats = DatasetStats {
        name: "synthetic",
        suite: "synthetic",
        mean: ctx as f64,
        std: ctx as f64 * 0.15,
        max: ctx * 2,
        min: (ctx / 4).max(1),
    };
    TraceBuilder::from_stats(stats)
        .seed(11)
        .requests(n)
        .decode_len(24)
        .sigma_clip(3.0)
        .build()
}

fn system(kind: SystemKind, modules: u32) -> SystemConfig {
    let module = match kind {
        SystemKind::PimOnly => ModuleConfig::cent(),
        SystemKind::XpuPim => ModuleConfig::neupims(),
    };
    SystemConfig {
        kind,
        module,
        modules,
        parallel: ParallelConfig::new(modules, 1),
    }
}

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let model = LLM_7B_128K_GQA;
    let mut sink = bench::MetricSink::new("fig17");
    bench::header("Fig. 17(a): throughput vs capacity at 64K context");
    for (kind, mods) in [
        (SystemKind::PimOnly, vec![8u32, 16, 32, 64]),
        (SystemKind::XpuPim, vec![4u32, 8, 16, 32]),
    ] {
        println!("\n{}", kind.name());
        println!(
            "{:<10} {:>10} {:>14} {:>14}",
            "modules", "capacity", "base tok/s", "phony tok/s"
        );
        for m in mods {
            let sys = system(kind, m);
            let trace = synthetic_trace(64 * 1024, 24);
            let b = bench::best_parallel(sys, model, Techniques::baseline(), &trace);
            let p = bench::best_parallel(sys, model, Techniques::pimphony(), &trace);
            println!(
                "{:<10} {:>8}GB {:>14.1} {:>14.1}",
                m,
                sys.total_capacity() >> 30,
                b.tokens_per_second,
                p.tokens_per_second
            );
            sink.metric(
                format!("a/{}/m{m}/phony_tokens_per_second", kind.name()),
                p.tokens_per_second,
            );
        }
    }

    bench::header("Fig. 17(b): throughput vs context at 512GB");
    for kind in [SystemKind::PimOnly, SystemKind::XpuPim] {
        let modules = match kind {
            SystemKind::PimOnly => 32,
            SystemKind::XpuPim => 16,
        };
        println!("\n{}", kind.name());
        println!(
            "{:>9} {:>14} {:>14} {:>9}",
            "context", "base tok/s", "phony tok/s", "speedup"
        );
        for exp in [12u32, 14, 16, 18, 20] {
            let ctx = 1u64 << exp;
            let sys = system(kind, modules);
            let trace = synthetic_trace(ctx, 16);
            let b = bench::best_parallel(sys, model, Techniques::baseline(), &trace);
            let p = bench::best_parallel(sys, model, Techniques::pimphony(), &trace);
            println!(
                "{:>8}K {:>14.2} {:>14.2} {:>8.1}x",
                ctx / 1024,
                b.tokens_per_second,
                p.tokens_per_second,
                p.tokens_per_second / b.tokens_per_second.max(1e-12)
            );
            sink.metric(
                format!("b/{}/ctx{}K/speedup_x", kind.name(), ctx / 1024),
                p.tokens_per_second / b.tokens_per_second.max(1e-12),
            );
        }
    }

    bench::header("Fig. 17(c): attention vs FC time share (PIMphony, CENT 512GB)");
    println!("{:>9} {:>10} {:>10}", "context", "attn%", "fc%");
    for exp in [12u32, 14, 16, 18, 20] {
        let ctx = 1u64 << exp;
        let sys = system(SystemKind::PimOnly, 32);
        let r = bench::best_parallel(sys, model, Techniques::pimphony(), &synthetic_trace(ctx, 8));
        let tot = (r.attn_seconds + r.fc_seconds).max(1e-12);
        println!(
            "{:>8}K {:>9.1}% {:>9.1}%",
            ctx / 1024,
            100.0 * r.attn_seconds / tot,
            100.0 * r.fc_seconds / tot
        );
        sink.metric(
            format!("c/ctx{}K/attn_share", ctx / 1024),
            r.attn_seconds / tot,
        );
    }
    println!("\n(paper: 46.6x on CENT and 5.0x on NeuPIMs at 1M context)");
    sink.finish();
}
