//! Fig. 16: energy breakdown, CENT vs CENT+PIMphony.

use system::{Evaluator, ServingReport, SystemConfig, Techniques};

fn print_energy(label: &str, r: &ServingReport) {
    let e = &r.energy;
    let tot = e.total().max(1e-18);
    println!(
        "{:<14} {:>9.1}J | FC {:>4.1}% Attn {:>4.1}% | MAC {:>4.1}% IO {:>4.1}% Bg {:>4.1}% Else {:>4.1}%",
        label,
        tot,
        100.0 * e.fc / tot,
        100.0 * e.attention / tot,
        100.0 * e.mac / tot,
        100.0 * e.io / tot,
        100.0 * e.background / tot,
        100.0 * e.else_ / tot,
    );
}

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("fig16");
    bench::header("Fig. 16: energy breakdown, CENT vs CENT+PIMphony");
    for (model, datasets) in bench::eval_models() {
        let trace = bench::trace_for(datasets[0], 16, 24);
        let sys = SystemConfig::cent_for(&model);
        let base = Evaluator::new(sys, model, Techniques::baseline()).run_trace(&trace);
        let full = Evaluator::new(sys, model, Techniques::pimphony()).run_trace(&trace);
        println!("\n{} on {}", model.name, datasets[0]);
        print_energy("CENT", &base);
        print_energy("+PIMphony", &full);
        println!(
            "  attention energy reduction: {:.2}x; background share {:.1}% -> {:.1}%",
            base.energy.attention / full.energy.attention.max(1e-18),
            100.0 * base.energy.background_fraction(),
            100.0 * full.energy.background_fraction()
        );
        sink.metric(
            format!("{}/attn_energy_reduction_x", model.name),
            base.energy.attention / full.energy.attention.max(1e-18),
        );
        sink.metric(
            format!("{}/background_share_full", model.name),
            full.energy.background_fraction(),
        );
    }
    println!("\n(paper: background 71.5% -> 13.0%; up to 3.46x attention energy reduction)");
    sink.finish();
}
