//! Table IV: PIMphony module configurations.

use system::ModuleConfig;

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("table4");
    bench::header("Table IV: PIMphony module configurations");
    let rows = [
        ("NeuPIMs (xPU+PIM)", ModuleConfig::neupims()),
        ("CENT (PIM-only)", ModuleConfig::cent()),
    ];
    println!(
        "{:<20} {:>10} {:>10} {:>12} {:>14}",
        "module", "channels", "memory", "internal BW", "compute"
    );
    for (name, m) in rows {
        println!(
            "{:<20} {:>10} {:>8}GB {:>10}TB/s {:>11}TFLOPS",
            name,
            m.channels,
            m.capacity_bytes >> 30,
            (m.internal_bw / 1e12) as u64,
            (m.xpu_flops / 1e12) as u64
        );
        sink.metric(format!("{name}/channels"), m.channels as f64);
        sink.metric(
            format!("{name}/capacity_gb"),
            (m.capacity_bytes >> 30) as f64,
        );
        sink.metric(format!("{name}/internal_tb_s"), m.internal_bw / 1e12);
    }
    sink.finish();
}
