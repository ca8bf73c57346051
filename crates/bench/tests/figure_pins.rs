//! The scheduler figures (7, 8, 9, 18), the calibration-heavy ladder
//! figures (13, 14, 17) and the other figures that price through kernel
//! calibration (4, 15, 16, 20) must print exactly their pinned output.
//!
//! Every number these binaries print comes from `pim-sim` command
//! streams and schedules, directly or through kernel calibration, so a
//! byte-identical stdout pins the simulator's cycles end to end.
//!
//! Fig. 10, Table III and Fig. 19 are pinned too. They print the
//! attention-lowering footprints (`pim-compiler`), the instruction
//! encodings (`pim-isa`) and the chunk/static allocator utilization
//! (`pim-mem`), which no simulated cycle depends on. After
//! an intended change to the model, regenerate a pin with
//! `cargo run --release -p bench --bin figN > crates/bench/tests/golden/figN.txt`.

use std::process::Command;

fn assert_stdout_pinned(bin: &str, golden: &str) {
    let out = Command::new(bin).output().expect("run the figure binary");
    assert!(
        out.status.success(),
        "{bin}: status {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if stdout != golden {
        let line = stdout
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| stdout.lines().count().min(golden.lines().count()));
        panic!(
            "{bin}: stdout differs from its pin at line {}\n got: {:?}\nwant: {:?}",
            line + 1,
            stdout.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}

#[test]
fn fig7_stdout_is_pinned() {
    assert_stdout_pinned(env!("CARGO_BIN_EXE_fig7"), include_str!("golden/fig7.txt"));
}

#[test]
fn fig8_stdout_is_pinned() {
    assert_stdout_pinned(env!("CARGO_BIN_EXE_fig8"), include_str!("golden/fig8.txt"));
}

#[test]
fn fig9_stdout_is_pinned() {
    assert_stdout_pinned(env!("CARGO_BIN_EXE_fig9"), include_str!("golden/fig9.txt"));
}

#[test]
fn fig18_stdout_is_pinned() {
    assert_stdout_pinned(
        env!("CARGO_BIN_EXE_fig18"),
        include_str!("golden/fig18.txt"),
    );
}

#[test]
fn fig13_stdout_is_pinned() {
    assert_stdout_pinned(
        env!("CARGO_BIN_EXE_fig13"),
        include_str!("golden/fig13.txt"),
    );
}

#[test]
fn fig14_stdout_is_pinned() {
    assert_stdout_pinned(
        env!("CARGO_BIN_EXE_fig14"),
        include_str!("golden/fig14.txt"),
    );
}

#[test]
fn fig17_stdout_is_pinned() {
    assert_stdout_pinned(
        env!("CARGO_BIN_EXE_fig17"),
        include_str!("golden/fig17.txt"),
    );
}

#[test]
fn fig10_stdout_is_pinned() {
    assert_stdout_pinned(
        env!("CARGO_BIN_EXE_fig10"),
        include_str!("golden/fig10.txt"),
    );
}

#[test]
fn table3_stdout_is_pinned() {
    assert_stdout_pinned(
        env!("CARGO_BIN_EXE_table3"),
        include_str!("golden/table3.txt"),
    );
}

#[test]
fn fig19_stdout_is_pinned() {
    assert_stdout_pinned(
        env!("CARGO_BIN_EXE_fig19"),
        include_str!("golden/fig19.txt"),
    );
}

#[test]
fn fig4_stdout_is_pinned() {
    assert_stdout_pinned(env!("CARGO_BIN_EXE_fig4"), include_str!("golden/fig4.txt"));
}

#[test]
fn fig15_stdout_is_pinned() {
    assert_stdout_pinned(
        env!("CARGO_BIN_EXE_fig15"),
        include_str!("golden/fig15.txt"),
    );
}

#[test]
fn fig16_stdout_is_pinned() {
    assert_stdout_pinned(
        env!("CARGO_BIN_EXE_fig16"),
        include_str!("golden/fig16.txt"),
    );
}

#[test]
fn fig20_stdout_is_pinned() {
    assert_stdout_pinned(
        env!("CARGO_BIN_EXE_fig20"),
        include_str!("golden/fig20.txt"),
    );
}
