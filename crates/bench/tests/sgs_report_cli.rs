//! Contract tests for the `sgs_report` binary: exit codes and messages
//! of `render` and `lint` against synthetic snapshots.
//!
//! The snapshots are built programmatically with `sgs_metrics` types and
//! written to per-test temp directories, then doctored field-by-field to
//! provoke each contract clause: a valid snapshot renders and lints
//! clean, a corrupt one fails the lint naming the broken field, and
//! malformed input is a clean error, never a panic.

use sgs_metrics::hist::Histogram;
use sgs_metrics::{Metadata, PhaseSnap, Snapshot, SCHEMA_VERSION};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sgs_report"))
        .args(args)
        .output()
        .expect("sgs_report spawns")
}

fn tmp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgs_report_cli_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A realistic little snapshot: counters, a run_seconds gauge, one
/// timing histogram and a two-node phase tree.
fn sample_snapshot() -> Snapshot {
    let h = Histogram::new();
    for i in 0..40 {
        h.observe(0.01 + f64::from(i) * 1e-3);
    }
    let mut counters = BTreeMap::new();
    counters.insert("nlp_solves".to_string(), 1u64);
    counters.insert("nlp_evals_objective".to_string(), 321u64);
    counters.insert("alloc_bytes".to_string(), 1_000_000u64);
    let mut gauges = BTreeMap::new();
    gauges.insert("run_seconds".to_string(), 2.0);
    let mut hists = BTreeMap::new();
    hists.insert(
        "nlp_outer_seconds".to_string(),
        h.snapshot("nlp_outer_seconds"),
    );
    let mut phases = BTreeMap::new();
    phases.insert(
        "solve".to_string(),
        PhaseSnap {
            name: "solve".into(),
            parent: None,
            seconds: 1.9,
            count: 1,
        },
    );
    phases.insert(
        "auglag".to_string(),
        PhaseSnap {
            name: "auglag".into(),
            parent: Some("solve".into()),
            seconds: 1.5,
            count: 3,
        },
    );
    Snapshot {
        schema_version: SCHEMA_VERSION,
        meta: Metadata {
            bin: "size_blif".into(),
            circuit: "rdag40".into(),
            git_sha: "cafebabe".into(),
            threads: 2,
            timestamp: "1700000000".into(),
        },
        counters,
        gauges,
        hists,
        phases,
    }
}

fn write(dir: &std::path::Path, name: &str, snap: &Snapshot) -> String {
    let path = dir.join(name);
    std::fs::write(&path, snap.to_json()).expect("write snapshot");
    path.to_string_lossy().into_owned()
}

#[test]
fn render_prints_profile_and_counters() {
    let dir = tmp_dir("render");
    let snap = sample_snapshot();
    let a = write(&dir, "a.json", &snap);
    let out = report(&["render", &a]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for needle in [
        "size_blif",
        "rdag40",
        "solve",
        "auglag",
        "nlp_outer_seconds",
        "nlp_solves",
    ] {
        assert!(
            stdout.contains(needle),
            "render output missing {needle}: {stdout}"
        );
    }
}

#[test]
fn lint_accepts_valid_and_rejects_corrupt_snapshots() {
    let dir = tmp_dir("lint");
    let snap = sample_snapshot();
    let good = write(&dir, "good.json", &snap);
    let out = report(&["lint", &good]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    let mut corrupt = sample_snapshot();
    corrupt.hists.get_mut("nlp_outer_seconds").unwrap().count += 5;
    let bad = write(&dir, "bad.json", &corrupt);
    let out = report(&["lint", &bad]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("bucket counts"), "stderr: {stderr}");
}

#[test]
fn malformed_input_and_bad_usage_error_cleanly() {
    let dir = tmp_dir("malformed");
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "this is not json").unwrap();
    let garbage = garbage.to_string_lossy().into_owned();

    // Not-JSON input: clean failure (exit 1), not a panic.
    assert_eq!(report(&["render", &garbage]).status.code(), Some(1));
    assert_eq!(report(&["lint", &garbage]).status.code(), Some(1));

    // Usage errors: exit 2.
    assert_eq!(report(&[]).status.code(), Some(2));
    assert_eq!(report(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(report(&["render"]).status.code(), Some(2));
    assert_eq!(report(&["lint", "--strict"]).status.code(), Some(2));
}
