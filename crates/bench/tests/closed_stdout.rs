//! The figure and table binaries must end quietly with status 0 when
//! their reader goes away (`fig13 | head -2`).

use std::process::{Command, Stdio};

#[test]
fn table_binary_exits_quietly_into_a_closed_pipe() {
    let bin = env!("CARGO_BIN_EXE_table1");
    // A pipe whose only reader has already exited: the reader is a run
    // of the same binary, which never reads its stdin. Every write the
    // second run makes therefore fails with a broken pipe.
    let mut reader = Command::new(bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn the reader");
    let write_end = reader.stdin.take().expect("reader stdin is piped");
    assert!(reader.wait().expect("reader exits").success());

    let out = Command::new(bin)
        .stdout(Stdio::from(write_end))
        .stderr(Stdio::piped())
        .output()
        .expect("run into the closed pipe");
    assert!(
        out.status.success(),
        "status {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
