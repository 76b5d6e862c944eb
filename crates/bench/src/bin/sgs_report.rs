//! Run-report renderer and snapshot linter for `--metrics=FILE`
//! snapshots.
//!
//! ```text
//! sgs_report render <metrics.json>
//! sgs_report lint <metrics.json>...
//! sgs_report timeline <run.jsonl> [--out FILE]
//! sgs_report timeline-lint <chrome.json> [--min-coverage=F]
//! ```
//!
//! `render` prints the human-readable run report: provenance header,
//! hierarchical phase profile (total/self wall-clock per phase), latency
//! histogram tables and the counter/gauge summary.
//!
//! `lint` validates snapshot files structurally (schema version, bucket
//! sums, quantile ordering, phase-parent closure) the way `trace_lint`
//! validates JSONL traces.
//!
//! `timeline` renders a whole run's `--trace` JSONL as a Chrome
//! trace-event file (loadable in Perfetto / `chrome://tracing`);
//! `timeline-lint` parses such a file back — from `timeline` or from the
//! daemon's `GET /debug/traces/<id>` — and asserts every begin/end span
//! pairs up, optionally enforcing a minimum request-span coverage.

use sgs_metrics::Snapshot;
use sgs_trace::chrome;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: sgs_report render <metrics.json>\n\
         \x20      sgs_report lint <metrics.json>...\n\
         \x20      sgs_report timeline <run.jsonl> [--out FILE]\n\
         \x20      sgs_report timeline-lint <chrome.json> [--min-coverage=F]"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Snapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn render(args: &[String]) -> ExitCode {
    let [path] = args else {
        return usage();
    };
    if path.starts_with("--") {
        return usage();
    }
    match load(path) {
        Ok(snap) => {
            print!("{}", sgs_metrics::report::render(&snap));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sgs_report: {e}");
            ExitCode::FAILURE
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    if args.is_empty() || args.iter().any(|a| a.starts_with("--")) {
        return usage();
    }
    let mut failed = false;
    for path in args {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sgs_report: cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        match Snapshot::lint(&text) {
            Ok(snap) => {
                let coverage = snap
                    .coverage()
                    .map_or("n/a".to_string(), |c| format!("{:.1}%", c * 100.0));
                println!(
                    "{path}: OK ({} counters, {} gauges, {} histograms, {} phases, coverage {})",
                    snap.counters.len(),
                    snap.gauges.len(),
                    snap.hists.len(),
                    snap.phases.len(),
                    coverage,
                );
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn timeline(args: &[String]) -> ExitCode {
    let mut input: Option<&str> = None;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(p) = arg.strip_prefix("--out=") {
            out = Some(p.to_string());
        } else if arg == "--out" {
            match it.next() {
                Some(p) => out = Some(p.clone()),
                None => return usage(),
            }
        } else if arg.starts_with("--") || input.is_some() {
            return usage();
        } else {
            input = Some(arg);
        }
    }
    let Some(path) = input else { return usage() };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sgs_report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = match chrome::jsonl_to_chrome(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sgs_report: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match out {
        Some(out_path) => {
            if let Err(e) = std::fs::write(&out_path, &rendered) {
                eprintln!("sgs_report: cannot write {out_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {out_path}");
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}

fn timeline_lint(args: &[String]) -> ExitCode {
    let mut input: Option<&str> = None;
    let mut min_coverage: Option<f64> = None;
    for arg in args {
        if let Some(v) = arg.strip_prefix("--min-coverage=") {
            match v.parse::<f64>() {
                Ok(f) if (0.0..=1.0).contains(&f) => min_coverage = Some(f),
                _ => {
                    eprintln!("sgs_report: --min-coverage needs a fraction in [0, 1]");
                    return usage();
                }
            }
        } else if arg.starts_with("--") || input.is_some() {
            return usage();
        } else {
            input = Some(arg);
        }
    }
    let Some(path) = input else { return usage() };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sgs_report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let summary = match chrome::validate_chrome(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let coverage = summary
        .coverage
        .map_or("n/a".to_string(), |c| format!("{:.1}%", c * 100.0));
    println!(
        "{path}: OK ({} events, {} span pairs, {} complete events, request coverage {coverage})",
        summary.events, summary.pairs, summary.complete,
    );
    if let Some(min) = min_coverage {
        let got = summary.coverage.unwrap_or(0.0);
        if got < min {
            eprintln!(
                "{path}: request-span coverage {:.3} below the required {min:.3}",
                got
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("render") => render(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("timeline") => timeline(&args[1..]),
        Some("timeline-lint") => timeline_lint(&args[1..]),
        _ => usage(),
    }
}
