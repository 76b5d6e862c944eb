//! The `sweep` bin's `--trace` file is a complete run trace: every
//! session of the sweep reports its convergence records, and the file
//! ends with the bin's `run_report`, so `trace_lint` accepts it.

use sgs_trace::json::{parse_json, validate_jsonl, Json};
use std::process::Command;

#[test]
fn sweep_trace_passes_trace_lint() {
    let dir = std::env::temp_dir().join(format!("sgs_sweep_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("sweep.jsonl");
    let blif = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/rdag40.blif");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args([blif, "--deadlines", "30,25,22"])
        .arg(format!("--trace={}", trace.display()))
        .output()
        .expect("sweep spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&trace).expect("trace written");
    let summary = validate_jsonl(&text).expect("every line is a known event");
    assert!(summary.count("outer_iteration") > 0, "{text}");
    assert!(summary.count("solve_done") >= 3, "one per deadline: {text}");
    assert_eq!(summary.count("run_report"), 1, "{text}");
    let last = parse_json(text.lines().last().expect("non-empty")).expect("parses");
    assert_eq!(last.get("event").and_then(Json::as_str), Some("run_report"));
    assert_eq!(last.get("bin").and_then(Json::as_str), Some("sweep"));
    assert_eq!(last.get("status").and_then(Json::as_str), Some("ok"));

    let lint = Command::new(env!("CARGO_BIN_EXE_trace_lint"))
        .arg(&trace)
        .output()
        .expect("trace_lint spawns");
    assert!(
        lint.status.success(),
        "{}",
        String::from_utf8_lossy(&lint.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
