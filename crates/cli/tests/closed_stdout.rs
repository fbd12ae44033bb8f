//! `axonnctl … | head` closes stdout before the command finishes; the
//! command must stop quietly rather than panic on the failed write.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_the_command_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_axonnctl"))
        .arg("models")
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("axonnctl runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
