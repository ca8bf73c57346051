//! Fig. 14: xPU+PIM (NeuPIMs) throughput with TCP, DCS, DPA applied
//! incrementally, across the Table I models and Table II datasets.

use system::SystemConfig;

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("fig14");
    bench::header("Fig. 14: xPU+PIM (NeuPIMs) end-to-end throughput");
    for (model, datasets) in bench::eval_models() {
        for d in datasets {
            let trace = bench::trace_for(d, 24, 32);
            let rows = bench::ladder(SystemConfig::neupims_for(&model), model, &trace);
            bench::print_ladder(&format!("{} on {d}", model.name), &rows);
            sink.ladder(&format!("{}/{d}", model.name), &rows);
        }
    }
    sink.finish();
}
