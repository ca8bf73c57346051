//! Scheduler deep dive: run the same attention command stream through the
//! static, ping-pong and DCS controllers; verify hazard-freedom with the
//! replay checker; and prove all mappings compute identical values.
//!
//! Run with: `cargo run --example scheduler_deep_dive`

use pimphony::pim_sim::checker::check_schedule;
use pimphony::pim_sim::functional::FunctionalChannel;
use pimphony::pim_sim::kernels::{AttentionSpec, QktKernel};
use pimphony::pim_sim::{schedule, Geometry, SchedulerKind, Timing};

fn main() {
    let geom = Geometry::pimphony();
    let timing = Timing::aimx();
    let spec = AttentionSpec::gqa(2048, 128, 4);
    let kernel = QktKernel::new(spec, geom);
    let stream = kernel.stream();
    let (w, m, r) = stream.kind_counts();
    println!("QKT kernel: {} WR-INP, {} MAC, {} RD-OUT", w, m, r);

    println!(
        "\n{:<10} {:>10} {:>9} {:>10}",
        "scheduler", "cycles", "MAC util", "hazards"
    );
    for kind in SchedulerKind::ALL {
        let report = schedule(&stream, kind, &timing, &geom);
        let violations = check_schedule(&stream, &report);
        println!(
            "{:<10} {:>10} {:>8.1}% {:>10}",
            kind.name(),
            report.summary.cycles,
            report.summary.mac_utilization() * 100.0,
            violations.len()
        );
        assert!(violations.is_empty(), "scheduler {kind} violated a hazard!");
    }

    // Functional execution: same values regardless of scheduler (the
    // schedulers only reorder timing; semantics are program-order).
    let key = |tok: usize, d: usize| ((tok * 7 + d) % 13) as f32 * 0.25 - 1.0;
    let queries: Vec<Vec<f32>> = (0..4)
        .map(|q| (0..128).map(|d| ((q + d) % 5) as f32 * 0.5).collect())
        .collect();
    let mut ch = FunctionalChannel::new(geom);
    kernel.load_keys(&mut ch, key);
    ch.execute(&stream, &kernel.input_tiles(&queries));
    let scores = kernel.scores_from(&ch);
    let want: f32 = (0..128).map(|d| key(100, d) * queries[1][d]).sum();
    assert!((scores[1][100] - want).abs() < 1e-2);
    println!("\nfunctional check passed: scores match the reference dot products");
}
