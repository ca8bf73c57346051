//! Table III: the PIM instruction set and its arguments.

use pim_isa::{ChannelMask, PimInstruction};

fn main() {
    bench::exit_quietly_on_closed_stdout();
    let mut sink = bench::MetricSink::new("table3");
    bench::header("Table III: PIM instructions for LLM inference");
    println!("{:<8} {:<42} arguments", "inst", "description");
    println!(
        "{:<8} {:<42} Ch-mask Op-size GPR-addr GBuf-Idx",
        "WR-INP", "copy input from GPR to GBuf"
    );
    println!(
        "{:<8} {:<42} Ch-mask Op-size GBuf-Idx Row/Col Out-Idx",
        "MAC", "dot-product on a DRAM row"
    );
    println!(
        "{:<8} {:<42} Ch-mask Op-size GPR-addr Out-Idx",
        "RD-OUT", "copy output from OutReg to GPR"
    );
    bench::header("Example encodings");
    let m = ChannelMask::first(16);
    let examples = [
        PimInstruction::wr_inp(m, 8, 0x100, 0),
        PimInstruction::mac(m, 8, 0, 3, 0, 1),
        PimInstruction::rd_out(m, 1, 0x200, 1),
    ];
    for inst in &examples {
        println!("  {inst}");
    }
    sink.metric("example_encodings", examples.len() as f64);
    sink.metric("example_channel_mask_width", m.count() as f64);
    bench::header("DPA extension (paper Fig. 10b)");
    println!("  Dyn-Loop  loop with runtime bound from T_cur   Loop-Bound Body-Len");
    println!("  Dyn-Modi  per-iteration operand adjustment     Target Field Stride [Mod]");
    sink.finish();
}
