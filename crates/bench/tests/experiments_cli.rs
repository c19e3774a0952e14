//! The `experiments` command line as a user meets it: unknown artifact
//! names and flags are usage errors (exit 2, message on stderr), a closed
//! stdout pipe ends the run quietly with exit 0, and the §V-B detection
//! report, the simulator artifacts (`table2`, `faults`, `attacks`, `ids`)
//! and their metrics snapshots stay byte-identical to the checked-in
//! golden files in `tests/golden/`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn experiments")
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
}

#[test]
fn unknown_artifact_is_a_usage_error() {
    assert_usage_error(&["bogus"], "unknown artifact bogus");
    assert_usage_error(&["detection", "table2"], "one artifact per run");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["detection", "--bogusflag"], "unknown flag --bogusflag");
    assert_usage_error(&["--bogusflag"], "unknown flag --bogusflag");
    assert_usage_error(
        &["detection", "--metrics-out"],
        "--metrics-out needs a value",
    );
    assert_usage_error(
        &["sweep", "--dir", "x", "--bogusflag"],
        "unknown flag --bogusflag",
    );
}

#[test]
fn closed_stdout_pipe_ends_the_run_quietly() {
    let mut child = Command::new(BIN)
        .arg("detection")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn experiments");
    // Close the read end before the report is written: every write fails
    // with EPIPE, as it does once `head -3` has had its lines.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn detection_report_and_snapshot_match_the_golden_files() {
    let dir = std::env::temp_dir().join(format!("michican_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("detection_metrics.json");
    let out = run(&[
        "detection",
        "--shards",
        "2",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden("detection.txt")
    );
    assert_eq!(
        std::fs::read_to_string(&metrics).unwrap(),
        golden("detection_metrics.json")
    );
    assert_eq!(
        deterministic_prom(&metrics),
        golden("detection_metrics.prom")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The Prometheus rendering next to a `--metrics-out` snapshot, minus the
/// host wall-time span totals (its only non-deterministic lines).
fn deterministic_prom(metrics: &Path) -> String {
    std::fs::read_to_string(metrics.with_extension("prom"))
        .unwrap()
        .lines()
        .filter(|l| {
            !l.starts_with("bench_cell_wall_seconds_sum ")
                && !l.starts_with("bench_cell_wall_seconds_max ")
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

fn assert_stdout_matches(args: &[&str], golden_name: &str) {
    let out = run(args);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden(golden_name),
        "{args:?}"
    );
}

#[test]
fn simulator_reports_and_snapshot_match_the_golden_files() {
    let dir = std::env::temp_dir().join(format!("michican_cli_sim_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("faults_metrics.json");
    assert_stdout_matches(&["table2", "--shards", "2"], "table2.txt");
    assert_stdout_matches(
        &[
            "faults",
            "--shards",
            "2",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
        "faults.txt",
    );
    assert_eq!(
        std::fs::read_to_string(&metrics).unwrap(),
        golden("faults_metrics.json")
    );
    assert_eq!(deterministic_prom(&metrics), golden("faults_metrics.prom"));
    assert_stdout_matches(
        &["attacks", "--attacks", "all", "--shards", "2"],
        "attacks.txt",
    );
    assert_stdout_matches(&["ids", "--detectors", "all", "--shards", "2"], "ids.txt");
    let _ = std::fs::remove_dir_all(&dir);
}
