//! Fig. 13: PIM-only (CENT) throughput with TCP, DCS, DPA applied
//! incrementally, across the Table I models and Table II datasets.

use system::SystemConfig;

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("fig13");
    bench::header("Fig. 13: PIM-only (CENT) end-to-end throughput");
    for (model, datasets) in bench::eval_models() {
        for d in datasets {
            let trace = bench::trace_for(d, 24, 32);
            let rows = bench::ladder(SystemConfig::cent_for(&model), model, &trace);
            bench::print_ladder(&format!("{} on {d}", model.name), &rows);
            sink.ladder(&format!("{}/{d}", model.name), &rows);
        }
    }
    sink.finish();
}
