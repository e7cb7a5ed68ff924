//! Command-line contract of the `repro` and `plan` binaries: a
//! configuration that cannot run as written is a usage error (exit 2,
//! nothing on stdout), never a table of `N/A` cells that reads as
//! "infeasible" or a run on a silently truncated value.

use std::process::Command;

/// Runs the binary at `exe` with `args` and returns its exit code and
/// stdout.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn repro(args: &[&str]) -> (Option<i32>, String) {
    run(env!("CARGO_BIN_EXE_repro"), args)
}

fn plan(args: &[&str]) -> (Option<i32>, String) {
    run(env!("CARGO_BIN_EXE_plan"), args)
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

#[test]
fn fractional_user_count_is_a_usage_error() {
    let (code, stdout) = plan(&["--users", "2.9"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "unexpected stdout: {stdout}");
}

#[test]
fn negative_seed_is_a_usage_error() {
    let (code, stdout) = plan(&["--users", "4", "--seed", "-1"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "unexpected stdout: {stdout}");
}

#[test]
fn non_finite_snr_is_a_usage_error() {
    for snr in ["nan", "inf"] {
        let (code, stdout) = plan(&["--users", "4", "--snr", snr]);
        assert_eq!(code, Some(2), "--snr {snr}");
        assert!(stdout.is_empty(), "unexpected stdout: {stdout}");
    }
}
