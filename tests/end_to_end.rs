//! Cross-crate integration tests: full serving pipelines and figure-level
//! shape assertions.

use pimphony::llm_model::{LLM_72B_128K_GQA, LLM_7B_128K_GQA, LLM_7B_32K};
use pimphony::pim_compiler::ParallelConfig;
use pimphony::system::{Evaluator, GpuSystem, SystemConfig, Techniques};
use pimphony::workload::{Dataset, TraceBuilder};

fn trace(d: Dataset, n: usize) -> pimphony::workload::Trace {
    TraceBuilder::new(d)
        .seed(77)
        .requests(n)
        .decode_len(16)
        .build()
}

#[test]
fn technique_ladder_improves_throughput_on_both_systems() {
    let t = trace(Dataset::QmSum, 12);
    for sys in [
        SystemConfig::cent_for(&LLM_7B_32K),
        SystemConfig::neupims_for(&LLM_7B_32K),
    ] {
        let mut last = 0.0;
        for tech in Techniques::ladder() {
            let r = Evaluator::new(sys, LLM_7B_32K, tech).run_trace(&t);
            assert!(
                r.tokens_per_second >= last * 0.999,
                "{} regressed",
                tech.label()
            );
            last = r.tokens_per_second;
        }
    }
}

#[test]
fn long_context_gqa_gains_exceed_short_context_gains() {
    // The paper's central claim: PIM inefficiency grows with context, so
    // PIMphony's relative gain is larger on LV-Eval than LongBench.
    let speedup = |model, d| {
        let t = trace(d, 8);
        let sys = SystemConfig::cent_for(&model);
        let b = Evaluator::new(sys, model, Techniques::baseline()).run_trace(&t);
        let p = Evaluator::new(sys, model, Techniques::pimphony()).run_trace(&t);
        p.tokens_per_second / b.tokens_per_second
    };
    let short = speedup(LLM_7B_32K, Dataset::QmSum);
    let long = speedup(LLM_7B_128K_GQA, Dataset::MultiFieldQa);
    assert!(long > short, "long {long:.2} vs short {short:.2}");
    assert!(long > 2.0, "long-context speedup {long:.2} too small");
}

#[test]
fn bigger_models_gain_more() {
    // Compare best (TP, PP) per configuration, as the paper's figures do.
    let t = trace(Dataset::MultiFieldQa, 8);
    let best = |model, tech| {
        let sys = SystemConfig::cent_for(&model);
        ParallelConfig::factorizations(sys.modules)
            .into_iter()
            .map(|p| {
                Evaluator::new(sys.with_parallel(p), model, tech)
                    .run_trace(&t)
                    .tokens_per_second
            })
            .fold(0.0f64, f64::max)
    };
    let speedup = |model| best(model, Techniques::pimphony()) / best(model, Techniques::baseline());
    assert!(speedup(LLM_72B_128K_GQA) > speedup(LLM_7B_128K_GQA));
}

#[test]
fn dpa_capacity_utilization_beats_static() {
    let t = trace(Dataset::LoogleSd, 24);
    let sys = SystemConfig::cent_for(&LLM_7B_128K_GQA);
    let s = Evaluator::new(sys, LLM_7B_128K_GQA, Techniques::tcp_dcs()).run_trace(&t);
    let d = Evaluator::new(sys, LLM_7B_128K_GQA, Techniques::pimphony()).run_trace(&t);
    assert!(d.capacity_utilization > s.capacity_utilization + 0.25);
}

#[test]
fn every_factorization_serves_all_tokens() {
    let t = trace(Dataset::QmSum, 8);
    for p in ParallelConfig::factorizations(8) {
        let sys = SystemConfig::cent_for(&LLM_7B_32K).with_parallel(p);
        let r = Evaluator::new(sys, LLM_7B_32K, Techniques::pimphony()).run_trace(&t);
        assert_eq!(r.tokens, t.total_decode_tokens(), "{p}");
        assert!(r.tokens_per_second > 0.0, "{p}");
    }
}

#[test]
fn pim_beats_gpu_on_memory_bound_workloads() {
    let t = trace(Dataset::QmSum, 12);
    let gpu = GpuSystem::matched_for(&LLM_7B_32K).throughput(&LLM_7B_32K, &t);
    let sys = SystemConfig::cent_for(&LLM_7B_32K);
    let pim = Evaluator::new(sys, LLM_7B_32K, Techniques::pimphony()).run_trace(&t);
    assert!(
        pim.tokens_per_second > gpu,
        "PIM {} vs GPU {gpu}",
        pim.tokens_per_second
    );
}

#[test]
fn energy_drops_with_pimphony() {
    let t = trace(Dataset::MultiFieldQa, 8);
    let sys = SystemConfig::cent_for(&LLM_7B_128K_GQA);
    let b = Evaluator::new(sys, LLM_7B_128K_GQA, Techniques::baseline()).run_trace(&t);
    let p = Evaluator::new(sys, LLM_7B_128K_GQA, Techniques::pimphony()).run_trace(&t);
    assert!(p.energy.total() < b.energy.total());
    assert!(p.energy.background_fraction() < b.energy.background_fraction());
}
