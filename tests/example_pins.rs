//! Every example under `examples/` must print exactly its pinned output.
//!
//! The examples are the documented entry points; their stdout is
//! deterministic (no wall-clock output, and a thread count never changes
//! a report), so a byte-identical stdout pins each serving path they
//! take. `cargo test` builds the examples into `target/<profile>/examples/`,
//! beside the `deps/` directory this test binary runs from. After an
//! intended change to the model, regenerate a pin with
//! `cargo run --release --example NAME > tests/golden/examples/NAME.txt`.

use std::path::PathBuf;
use std::process::Command;

/// The compiled example `name` of the profile this test was built in.
fn example_binary(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("the test binary's path");
    let profile_dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("the test binary runs from target/<profile>/deps");
    let bin = profile_dir
        .join("examples")
        .join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    assert!(
        bin.is_file(),
        "example binary {} is missing; build the examples first \
         (plain `cargo test` builds them, `cargo test --test example_pins` does not)",
        bin.display()
    );
    bin
}

fn assert_example_pinned(name: &str, golden: &str) {
    let bin = example_binary(name);
    let out = Command::new(&bin).output().expect("run the example");
    assert!(
        out.status.success(),
        "{name}: status {:?}, stderr: {}",
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
            "{name}: stdout differs from its pin at line {}\n got: {:?}\nwant: {:?}",
            line + 1,
            stdout.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}

#[test]
fn quickstart_stdout_is_pinned() {
    assert_example_pinned("quickstart", include_str!("golden/examples/quickstart.txt"));
}

#[test]
fn online_serving_stdout_is_pinned() {
    assert_example_pinned(
        "online_serving",
        include_str!("golden/examples/online_serving.txt"),
    );
}

#[test]
fn capacity_planning_stdout_is_pinned() {
    assert_example_pinned(
        "capacity_planning",
        include_str!("golden/examples/capacity_planning.txt"),
    );
}

#[test]
fn long_context_serving_stdout_is_pinned() {
    assert_example_pinned(
        "long_context_serving",
        include_str!("golden/examples/long_context_serving.txt"),
    );
}

#[test]
fn scheduler_deep_dive_stdout_is_pinned() {
    assert_example_pinned(
        "scheduler_deep_dive",
        include_str!("golden/examples/scheduler_deep_dive.txt"),
    );
}
