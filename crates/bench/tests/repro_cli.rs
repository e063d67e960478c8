//! The `repro` binary rejects a zero trial count up front: it prints the
//! usage message and exits 2 instead of panicking mid-sweep.

use std::process::Command;

#[test]
fn zero_trials_prints_usage_and_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "test", "--trials", "0", "fig8"])
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("usage: repro"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
