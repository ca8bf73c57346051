//! Table II: input context-length statistics, spec vs sampled.

use workload::{Dataset, TraceBuilder};

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("table2");
    bench::header("Table II: context-length statistics (spec vs 4000 samples)");
    println!(
        "{:<14} {:<10} {:>9} {:>9} {:>8} {:>8} | {:>9} {:>9} {:>8} {:>8}",
        "dataset", "suite", "mean", "std", "max", "min", "s.mean", "s.std", "s.max", "s.min"
    );
    for d in Dataset::ALL {
        let s = d.stats();
        let t = TraceBuilder::new(d).seed(7).requests(4000).build();
        let (min, max) = t.context_range().expect("nonempty");
        println!(
            "{:<14} {:<10} {:>9.0} {:>9.0} {:>8} {:>8} | {:>9.0} {:>9.0} {:>8} {:>8}",
            s.name,
            s.suite,
            s.mean,
            s.std,
            s.max,
            s.min,
            t.mean_context(),
            t.std_context(),
            max,
            min
        );
        sink.metric(format!("{}/sampled_mean", s.name), t.mean_context());
        sink.metric(format!("{}/sampled_std", s.name), t.std_context());
    }
    sink.finish();
}
