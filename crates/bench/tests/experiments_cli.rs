//! The `experiments` command line as a user meets it: unknown artifact
//! names and flags are usage errors (exit 2, message on stderr), a closed
//! stdout pipe ends the run quietly with exit 0, and the §V-B detection
//! report and its metrics snapshot stay byte-identical to the checked-in
//! golden files in `tests/golden/`.

use std::path::PathBuf;
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
    // The Prometheus rendering also carries host wall-time span totals;
    // everything else must match.
    let prom: String = std::fs::read_to_string(metrics.with_extension("prom"))
        .unwrap()
        .lines()
        .filter(|l| {
            !l.starts_with("bench_cell_wall_seconds_sum ")
                && !l.starts_with("bench_cell_wall_seconds_max ")
        })
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(prom, golden("detection_metrics.prom"));
    let _ = std::fs::remove_dir_all(&dir);
}
