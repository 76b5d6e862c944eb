//! Scenario sweep driver: area-vs-deadline Pareto frontiers over
//! warm-started `Resolver` sessions.
//!
//! ```text
//! sweep <netlist.blif|.v> [--points N] [--deadlines a,b,...] [--table FILE]
//! sweep --lint FILE...
//! ```
//!
//! Session mode traces the frontier on a named netlist — over an
//! auto-derived grid ([`SweepEngine::deadline_frontier`]) or explicit
//! `--deadlines` — and prints one row per feasible point at 17
//! significant digits (the golden-table format, `--table` writes it to a
//! file).
//!
//! With `--trace FILE` every session of the sweep writes its spans,
//! outer-iteration records and `solve_done` records to the JSONL trace,
//! which ends with the bin's `run_report` (status `ok` or `failed`).
//!
//! `--lint` re-parses committed frontier tables and exits nonzero if any
//! violates dominance (deadlines not ascending, or area increasing as the
//! deadline relaxes) — the CI guard against committing a non-dominant
//! frontier.

use sgs_bench::{BenchArgs, TraceArg};
use sgs_core::{Frontier, SweepConfig, SweepEngine};
use sgs_netlist::{blif, Library};
use std::fmt::Write as _;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: sweep <netlist.blif|.v> [--points N] [--deadlines a,b,...] [--table FILE] \
         [--trace FILE] [--metrics FILE] [--metrics-prom FILE]\n\
         \x20      sweep --lint FILE..."
    );
    ExitCode::from(2)
}

/// The 17-significant-digit frontier table (feasible points only; an
/// infeasible point has no `(area, mu, sigma)` to print). The session
/// prints it and `--table` writes it; `lint_table` (`--lint`) parses the
/// layout back. `tests/golden_sweep.rs` writes the same layout with its
/// own formatter, so a change here must be mirrored there.
fn render_table(name: &str, gates: usize, frontier: &Frontier) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# sweep circuit {name} gates {gates} points {} feasible {}",
        frontier.points.len(),
        frontier.feasible_count(),
    );
    let _ = writeln!(out, "# columns: deadline area mu sigma");
    for (i, p) in frontier.points.iter().filter(|p| p.feasible).enumerate() {
        let _ = writeln!(
            out,
            "point_{i:02}  {:+.17e}  {:+.17e}  {:+.17e}  {:+.17e}",
            p.deadline, p.area, p.mu, p.sigma
        );
    }
    out
}

fn parse_points(args: &mut Vec<String>) -> Result<Option<usize>, ()> {
    if let Some(i) = args.iter().position(|a| a == "--points") {
        if i + 1 >= args.len() {
            return Err(());
        }
        let n: usize = args[i + 1].parse().map_err(|_| ())?;
        args.drain(i..=i + 1);
        return Ok(Some(n));
    }
    Ok(None)
}

fn session(mut args: Vec<String>, trace: &TraceArg) -> ExitCode {
    let path = args.remove(0);
    let points = match parse_points(&mut args) {
        Ok(p) => p,
        Err(()) => return usage(),
    };
    let mut deadlines: Option<Vec<f64>> = None;
    let mut table: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deadlines" => match it.next() {
                Some(list) => {
                    let parsed: Result<Vec<f64>, _> =
                        list.split(',').map(str::parse::<f64>).collect();
                    match parsed {
                        Ok(ds) if !ds.is_empty() => deadlines = Some(ds),
                        _ => return usage(),
                    }
                }
                None => return usage(),
            },
            "--table" => table = it.next().cloned(),
            _ => return usage(),
        }
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = if path.ends_with(".v") {
        sgs_netlist::verilog::parse(&text)
    } else {
        blif::parse(&text)
    };
    let circuit = match parsed {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let lib = Library::paper_default();
    let mut config = SweepConfig::default();
    if let Some(n) = points {
        config.points = n.max(2);
    }
    let mut engine = SweepEngine::new(&circuit, &lib).config(config);
    if let Some(sink) = trace.sink() {
        engine = engine.sink(sink);
    }
    let traced = match deadlines {
        Some(ds) => engine.trace(&ds),
        None => engine.deadline_frontier(),
    };
    let report = |status: &str| {
        trace.report(
            circuit.name(),
            status,
            f64::NAN,
            f64::NAN,
            f64::NAN,
            f64::NAN,
        );
    };
    let frontier = match traced {
        Ok(f) => f,
        Err(e) => {
            report("failed");
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = frontier.check_dominance(1e-6) {
        report("failed");
        eprintln!("frontier violates dominance: {e}");
        return ExitCode::FAILURE;
    }
    report("ok");
    let rendered = render_table(circuit.name(), circuit.num_gates(), &frontier);
    print!("{rendered}");
    if let Some(file) = table {
        if let Err(e) = std::fs::write(&file, &rendered) {
            eprintln!("cannot write {file}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "# feasible {}  transitions {}  warm interior {:.0}%  refined {}",
        frontier.feasible_count(),
        frontier.transitions(),
        frontier.warm_interior_fraction() * 100.0,
        frontier.points.iter().filter(|p| p.refined).count(),
    );
    ExitCode::SUCCESS
}

/// Parses a rendered frontier table and checks dominance: deadlines
/// strictly ascending, area non-increasing as the deadline relaxes.
fn lint_table(path: &str, text: &str) -> Result<(), String> {
    let mut rows: Vec<(f64, f64)> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() != 5 {
            return Err(format!(
                "{path}:{}: expected 5 columns, got {}",
                ln + 1,
                cols.len()
            ));
        }
        let deadline: f64 = cols[1]
            .parse()
            .map_err(|_| format!("{path}:{}: bad deadline {}", ln + 1, cols[1]))?;
        let area: f64 = cols[2]
            .parse()
            .map_err(|_| format!("{path}:{}: bad area {}", ln + 1, cols[2]))?;
        rows.push((deadline, area));
    }
    if rows.is_empty() {
        return Err(format!("{path}: no frontier rows"));
    }
    for w in rows.windows(2) {
        let (d0, a0) = w[0];
        let (d1, a1) = w[1];
        if d1 <= d0 {
            return Err(format!("{path}: deadlines not ascending ({d0} then {d1})"));
        }
        if a1 > a0 + 1e-6 * (1.0 + a0.abs()) {
            return Err(format!(
                "{path}: dominance violated — area rises from {a0} (deadline {d0}) \
                 to {a1} (deadline {d1})"
            ));
        }
    }
    Ok(())
}

fn lint(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        return usage();
    }
    let mut failed = false;
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        match lint_table(path, &text) {
            Ok(()) => println!("{path}: frontier dominant"),
            Err(e) => {
                eprintln!("{e}");
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

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench_args = match BenchArgs::extract("sweep", &mut args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let code = match args.first().map(String::as_str) {
        Some("--lint") => lint(&args[1..]),
        Some(_) => session(args, bench_args.trace()),
        None => usage(),
    };
    if let Err(e) = bench_args.finish("sweep") {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    code
}
