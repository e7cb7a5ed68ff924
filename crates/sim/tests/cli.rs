//! Command-line contract of the `repro` binary: a sweep config that
//! cannot run is a usage error (exit 2, nothing on stdout), never a
//! table of `N/A` cells that reads as "infeasible".

use std::process::Command;

/// Runs `repro` with `args` and returns its exit code and stdout.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn zero_runs_is_a_usage_error() {
    let (code, stdout) = repro(&["fig3a", "--runs", "0"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "unexpected stdout: {stdout}");
}

#[test]
fn zero_threads_is_a_usage_error() {
    let (code, stdout) = repro(&["fig3a", "--runs", "1", "--threads", "0"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "unexpected stdout: {stdout}");
}
