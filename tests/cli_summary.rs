//! End-to-end serve-loop tests for `weaksim-cli`: per-request failures must
//! neither kill the loop nor corrupt the end-of-session cache summary — the
//! [`weaksim::ArtifactCache`] hit/miss counters printed at exit reflect
//! exactly the requests that reached the cache, malformed requests included
//! mid-stream notwithstanding.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const GOOD_QASM: &str = "OPENQASM 2.0;\n\
                         include \"qelib1.inc\";\n\
                         qreg q[3];\n\
                         creg c[3];\n\
                         h q[0];\n\
                         cx q[0],q[1];\n\
                         cx q[1],q[2];\n";

/// Writes `contents` to a unique file under the target tmp dir and returns
/// its path.
fn fixture(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("weaksim-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write fixture");
    path
}

/// Runs the CLI in serve mode with the given stdin lines; returns
/// (stdout, stderr, success).
fn serve(extra_args: &[&str], stdin_lines: &[&str]) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_weaksim-cli"))
        .args(["--shots", "200"])
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn weaksim-cli");
    child
        .stdin
        .take()
        .expect("stdin handle")
        .write_all(stdin_lines.join("\n").as_bytes())
        .expect("feed stdin");
    let output = child.wait_with_output().expect("wait for weaksim-cli");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

#[test]
fn cache_counters_survive_a_malformed_request_mid_stream() {
    let good = fixture("good.qasm", GOOD_QASM);
    let bad = fixture(
        "malformed.qasm",
        "OPENQASM 2.0;\nqreg q[2;\nthis is not qasm\n",
    );
    let good_path = good.to_str().expect("utf-8 path");
    let bad_path = bad.to_str().expect("utf-8 path");

    let (stdout, stderr, ok) = serve(&[], &[good_path, bad_path, good_path]);

    // The malformed request fails the session but not the loop: both good
    // requests are served (cold miss, then warm hit on the same artifact).
    assert!(!ok, "a malformed request must fail the session exit code");
    assert!(
        stderr.contains("QASM parse error"),
        "stderr should name the parse failure, got:\n{stderr}"
    );
    assert!(stdout.contains("cache miss"), "stdout:\n{stdout}");
    assert!(stdout.contains("cache hit"), "stdout:\n{stdout}");

    // The exit summary still accounts for exactly the two requests that
    // reached the cache — the mid-stream error neither dropped the summary
    // nor leaked a phantom miss.
    assert!(
        stdout.contains("1 hits / 1 misses"),
        "cache summary must survive the mid-stream error, got:\n{stdout}"
    );
}

#[test]
fn unreadable_path_mid_stream_keeps_serving_too() {
    let good = fixture("good2.qasm", GOOD_QASM);
    let good_path = good.to_str().expect("utf-8 path");

    let (stdout, stderr, ok) = serve(&[], &[good_path, "/no/such/file.qasm", good_path]);

    assert!(!ok);
    assert!(
        stderr.contains("cannot read"),
        "stderr should report the unreadable path, got:\n{stderr}"
    );
    assert!(
        stdout.contains("1 hits / 1 misses"),
        "cache summary must survive the unreadable path, got:\n{stdout}"
    );
}

#[test]
fn cache_bytes_budget_serves_oversized_artifacts_without_retaining_them() {
    let good = fixture("good-budget.qasm", GOOD_QASM);
    let good_path = good.to_str().expect("utf-8 path");

    // A one-byte budget is smaller than any artifact: both repeats are
    // served, but neither build is retained, so the second one misses too.
    let (stdout, stderr, ok) = serve(&["--cache-bytes", "1", "--repeat", "2"], &[good_path]);
    assert!(ok, "budgeted session failed:\n{stderr}");
    assert_eq!(
        stdout.matches("top outcomes").count(),
        2,
        "stdout:\n{stdout}"
    );
    assert!(stdout.contains("0 hits / 2 misses"), "stdout:\n{stdout}");

    // Without a budget the first build is retained and the repeat hits.
    let (stdout, stderr, ok) = serve(&["--repeat", "2"], &[good_path]);
    assert!(ok, "unbudgeted session failed:\n{stderr}");
    assert!(stdout.contains("1 hits / 1 misses"), "stdout:\n{stdout}");
}

#[test]
fn broken_stdout_pipe_still_reports_the_summary_and_exits_nonzero() {
    let good = fixture("good-pipe.qasm", GOOD_QASM);
    let good_path = good.to_str().expect("utf-8 path");

    let mut child = Command::new(env!("CARGO_BIN_EXE_weaksim-cli"))
        .args(["--shots", "200"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn weaksim-cli");
    // Close the read end of the CLI's stdout before it serves anything:
    // its first report write hits a broken pipe.
    drop(child.stdout.take());
    child
        .stdin
        .take()
        .expect("stdin handle")
        .write_all(format!("{good_path}\n{good_path}\n").as_bytes())
        .expect("feed stdin");
    let output = child.wait_with_output().expect("wait for weaksim-cli");
    let stderr = String::from_utf8_lossy(&output.stderr);

    assert!(
        !output.status.success(),
        "a broken stdout must fail the session exit code"
    );
    // No panic: the loop kept serving, and the end-of-session summary was
    // rerouted to stderr instead of being swallowed.
    assert!(
        stderr.contains("cache:"),
        "summary must survive the broken pipe on stderr, got:\n{stderr}"
    );
    assert!(
        stderr.contains("stdout"),
        "the broken pipe itself should be reported, got:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "broken pipe must never panic, got:\n{stderr}"
    );
}

#[test]
fn snapshot_round_trip_serves_the_second_session_warm() {
    let good = fixture("good-snap.qasm", GOOD_QASM);
    let good_path = good.to_str().expect("utf-8 path");
    let snap = fixture("cache.snap", ""); // unique path; content replaced below
    std::fs::remove_file(&snap).ok();
    let snap_path = snap.to_str().expect("utf-8 path");

    // Session 1: cold build, snapshot written at (clean) shutdown.
    let (stdout1, stderr1, ok1) = serve(&["--snapshot", snap_path], &[good_path]);
    assert!(ok1, "first session failed:\n{stderr1}");
    assert!(stdout1.contains("cache miss"), "stdout:\n{stdout1}");
    assert!(
        stderr1.contains("snapshot: wrote 1 artifact"),
        "stderr:\n{stderr1}"
    );
    assert!(snap.exists(), "snapshot file must exist after shutdown");

    // Session 2: the same request is served warm from the restored cache —
    // same seed, so the reported top outcomes match the cold run exactly.
    let (stdout2, stderr2, ok2) = serve(&["--snapshot", snap_path], &[good_path]);
    assert!(ok2, "second session failed:\n{stderr2}");
    assert!(
        stderr2.contains("restored 1 artifact"),
        "stderr:\n{stderr2}"
    );
    assert!(stdout2.contains("cache hit"), "stdout:\n{stdout2}");
    assert!(stdout2.contains("1 hits / 0 misses"), "stdout:\n{stdout2}");
    let outcomes = |out: &str| {
        out.lines()
            .filter(|line| line.contains("top outcomes"))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        outcomes(&stdout1),
        outcomes(&stdout2),
        "snapshot restore changed the served histogram"
    );
    std::fs::remove_file(&snap).ok();
}

#[test]
fn serve_threads_coalesce_identical_requests_into_one_build() {
    let good = fixture("good-threads.qasm", GOOD_QASM);
    let good_path = good.to_str().expect("utf-8 path");
    let requests = [good_path; 6];

    let (stdout, stderr, ok) = serve(&["--serve-threads", "4"], &requests);
    assert!(ok, "threaded session failed:\n{stderr}");

    // All six requests were served, every one with the identical histogram,
    // and the broker built the artifact exactly once — the rest were warm
    // hits or coalesced onto the single in-flight build.
    let outcomes: Vec<&str> = stdout
        .lines()
        .filter(|line| line.contains("top outcomes"))
        .collect();
    assert_eq!(outcomes.len(), 6, "stdout:\n{stdout}");
    assert!(
        outcomes.iter().all(|line| *line == outcomes[0]),
        "threaded serves diverged:\n{stdout}"
    );
    assert!(
        stdout.contains("service: 1 builds"),
        "single-flight must build exactly once, got:\n{stdout}"
    );
}

#[test]
fn removed_construction_threads_flag_is_rejected_as_unknown() {
    let good = fixture("good3.qasm", GOOD_QASM);

    // Decision diagrams are built on one path only, so the former
    // construction-worker flag is an ordinary unknown flag: a clean usage
    // error before any request is served.
    let output = Command::new(env!("CARGO_BIN_EXE_weaksim-cli"))
        .args(["--construction-threads", "4"])
        .arg(&good)
        .stdin(Stdio::null())
        .output()
        .expect("run weaksim-cli");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "an unknown flag must fail the exit code"
    );
    assert!(
        stderr.contains("unknown flag `--construction-threads`"),
        "stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(!stdout.contains("top outcomes"), "stdout:\n{stdout}");
}
