//! What-if query driver: scripted size perturbations answered by the
//! incremental SSTA engine, with a full-recompute A/B mode.
//!
//! ```text
//! what_if <netlist.blif|.v> [--script FILE.json] [--queries N] [--seed S]
//!         [--full] [--table FILE] [--trace FILE]
//! ```
//!
//! Session mode applies a sequence of speed-factor perturbation steps
//! (from a JSON script, or `--queries N` deterministically generated
//! single-gate steps) and prints one row per step: step index, `mu_Tmax`
//! and `sigma_Tmax` to 17 significant digits. With `--full` every step is
//! answered by a from-scratch SSTA pass instead of the incremental
//! engine; the rows are **bit-identical** either way (that is the
//! incremental engine's contract), so CI diffs the two tables. Each step
//! also emits a `what_if_query` trace record carrying the per-query
//! latency and `gates_recomputed`.
//!
//! A JSON script is an array of steps; each step is one change object
//! `{"gate": <id>, "size": <speed factor>}` or an array of them.

use sgs_bench::script::{generated_steps, parse_script};
use sgs_bench::{BenchArgs, TraceArg};
use sgs_netlist::{blif, Circuit, GateId, Library};
use sgs_ssta::{ssta, IncrementalSsta};
use sgs_trace::TraceEvent;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: what_if <netlist.blif|.v> [--script FILE.json] [--queries N] [--seed S] \
         [--full] [--table FILE] [--trace FILE] [--metrics FILE] [--metrics-prom FILE]"
    );
    ExitCode::from(2)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        f64::NAN
    } else {
        v[v.len() / 2]
    }
}

/// One answered query: the post-step delay and its cost.
struct Answer {
    mu: f64,
    sigma: f64,
    gates_recomputed: usize,
    seconds: f64,
}

/// Answers every step incrementally (dirty cone only).
fn run_incremental(
    circuit: &Circuit,
    lib: &Library,
    s0: &[f64],
    steps: &[Vec<(GateId, f64)>],
) -> Vec<Answer> {
    let mut inc = IncrementalSsta::new(circuit, lib, s0);
    steps
        .iter()
        .map(|step| {
            let t = Instant::now();
            let stats = inc.apply(step);
            let seconds = t.elapsed().as_secs_f64();
            Answer {
                mu: inc.delay().mean(),
                sigma: inc.delay().sigma(),
                gates_recomputed: stats.gates_recomputed,
                seconds,
            }
        })
        .collect()
}

/// Answers every step with a from-scratch SSTA pass (the `--full` A/B
/// baseline).
fn run_full(
    circuit: &Circuit,
    lib: &Library,
    s0: &[f64],
    steps: &[Vec<(GateId, f64)>],
) -> Vec<Answer> {
    let mut s = s0.to_vec();
    steps
        .iter()
        .map(|step| {
            for &(g, v) in step {
                s[g.index()] = v;
            }
            let t = Instant::now();
            let report = ssta(circuit, lib, &s);
            let seconds = t.elapsed().as_secs_f64();
            Answer {
                mu: report.delay.mean(),
                sigma: report.delay.sigma(),
                gates_recomputed: circuit.num_gates(),
                seconds,
            }
        })
        .collect()
}

/// The 17-significant-digit per-step table both modes must reproduce
/// bit-identically.
fn render_table(circuit: &Circuit, answers: &[Answer]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# what_if circuit {} gates {} steps {}",
        circuit.name(),
        circuit.num_gates(),
        answers.len()
    );
    for (i, a) in answers.iter().enumerate() {
        let _ = writeln!(out, "{i:>4}  {:+.17e}  {:+.17e}", a.mu, a.sigma);
    }
    out
}

fn session(mut args: Vec<String>, trace: &TraceArg) -> ExitCode {
    let path = args.remove(0);
    let mut script: Option<String> = None;
    let mut queries = 20usize;
    let mut seed = 7u64;
    let mut full = false;
    let mut table: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--script" => script = it.next().cloned(),
            "--queries" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => queries = n,
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            "--full" => full = true,
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
    let steps = match script {
        Some(file) => {
            let text = match std::fs::read_to_string(&file) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match parse_script(&text, circuit.num_gates()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("bad script {file}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => generated_steps(&circuit, &lib, queries, seed),
    };

    let s0 = vec![1.0; circuit.num_gates()];
    let answers = if full {
        run_full(&circuit, &lib, &s0, &steps)
    } else {
        run_incremental(&circuit, &lib, &s0, &steps)
    };
    let tracer = trace.tracer();
    for (i, a) in answers.iter().enumerate() {
        tracer.emit(|| TraceEvent::WhatIfQuery {
            query: i,
            gates_recomputed: a.gates_recomputed as u64,
            full,
            seconds: a.seconds,
        });
    }

    let rendered = render_table(&circuit, &answers);
    print!("{rendered}");
    if let Some(file) = table {
        if let Err(e) = std::fs::write(&file, &rendered) {
            eprintln!("cannot write {file}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let total: usize = answers.iter().map(|a| a.gates_recomputed).sum();
    let lat_us: Vec<f64> = answers.iter().map(|a| a.seconds * 1e6).collect();
    println!(
        "# mode {}  gates_recomputed {total} (full-recompute equivalent {})  median latency {:.2} us",
        if full { "full" } else { "incremental" },
        circuit.num_gates() * answers.len(),
        median(lat_us),
    );
    trace.report(circuit.name(), "ok", f64::NAN, f64::NAN, f64::NAN, f64::NAN);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench_args = match BenchArgs::extract("what_if", &mut args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    if args.is_empty() {
        return usage();
    }
    let code = session(args, bench_args.trace());
    if let Err(e) = bench_args.finish("what_if") {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    code
}
