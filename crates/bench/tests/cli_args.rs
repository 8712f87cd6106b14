//! The `table1` and `figures` binaries reject malformed command lines with
//! a usage error and exit code 2, before doing any work: never a panic
//! (exit 101), and never a silent run with a default in place of a bad
//! value.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `binary` with `args` and returns its output.  A run still going
/// after a few seconds ignored the malformed argument and started on the
/// table, so it is killed and the test fails.
fn run(binary: &str, args: &[&str]) -> Output {
    let mut child = Command::new(binary)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("child status").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{binary} {args:?} ran instead of rejecting its arguments");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("child output")
}

fn assert_usage_error(binary: &str, args: &[&str]) {
    let output = run(binary, args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{binary} {args:?} must exit 2, stderr: {stderr}"
    );
    assert!(
        stderr.contains("usage:") && !stderr.contains("panicked"),
        "{binary} {args:?} must print a usage error, stderr: {stderr}"
    );
}

#[test]
fn table1_rejects_malformed_arguments() {
    let table1 = env!("CARGO_BIN_EXE_table1");
    // Each case pins the smoke scale and a tiny shot count first, so a
    // binary that drops the malformed argument runs a short table and
    // exits 0 instead of 2.
    for bad in [
        &["--dd-timeout-secs", "-1"][..],
        &["--dd-timeout-secs", "nan"],
        &["--dd-timeout-secs", "inf"],
        &["--dd-timeout-secs"],
        &["--shots", "ten"],
        &["--shots"],
        &["--budget-gib", "lots"],
        &["--dd-node-budget", "-5"],
        &["--scale", "huge"],
        &["--scale"],
        &["--frobnicate"],
    ] {
        let mut args = vec!["--scale", "smoke", "--shots", "10"];
        args.extend_from_slice(bad);
        assert_usage_error(table1, &args);
    }
}

#[test]
fn figures_rejects_unknown_figure_names() {
    let figures = env!("CARGO_BIN_EXE_figures");
    assert_usage_error(figures, &["fig5"]);
    assert_usage_error(figures, &["fig2", "fig3"]);
    let output = run(figures, &["fig3"]);
    assert!(output.status.success(), "a known figure still prints");
}
