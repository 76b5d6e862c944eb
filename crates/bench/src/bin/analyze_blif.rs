//! Pre-solve static analyzer for BLIF netlists and generated circuits.
//!
//! ```text
//! analyze_blif [<netlist.blif> | <circuit-name>]... [--suite] [--json]
//!              [--objective mu|mu+1s|mu+3s|area|sigma] [--deadline D]
//!              [--stages LIST] [--no-derivatives] [--raw-variance]
//!              [--metrics FILE] [--metrics-prom FILE]
//! ```
//!
//! Runs the three-stage `sgs-analyze` pipeline (structural netlist lints,
//! interval-arithmetic safety proofs, derivative-sparsity verification)
//! over each argument without a single solver iteration. Arguments that name an existing file are
//! parsed as BLIF; otherwise they select a generated circuit (`tree7`,
//! `fig2`, `apex1`, `apex2`, `k2`, `adder<N>`, `chain<N>`,
//! `nandtree<N>`). `--suite` appends the paper's circuits (`tree7`,
//! `fig2` and the Table 1 stand-ins). `--stages 1,3` selects a subset
//! of stages (default: all). With `--json` every diagnostic is printed
//! as one JSONL object (sgs-trace conventions) followed by an
//! `analyze_report` summary line per circuit.
//!
//! Exits 1 if any analyzed circuit has an Error-severity finding — the
//! CI gate over `benchmarks/*.blif`.

use sgs_analyze::{analyze, analyze_blif_text, AnalyzerOptions, Report};
use sgs_bench::BenchArgs;
use sgs_core::{DelaySpec, Objective};
use sgs_netlist::{generate, Circuit, Library};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: analyze_blif [<netlist.blif> | tree7|fig2|apex1|apex2|k2|adder<N>|chain<N>|nandtree<N>]... \
         [--suite] [--json] [--objective mu|mu+1s|mu+3s|area|sigma] [--deadline D] \
         [--stages 1,2,3] [--no-derivatives] [--raw-variance] [--metrics FILE] \
         [--metrics-prom FILE]"
    );
    ExitCode::from(2)
}

fn generated(name: &str) -> Option<Circuit> {
    match name {
        "tree7" => return Some(generate::tree7()),
        "fig2" => return Some(generate::fig2()),
        "apex1" | "apex2" | "k2" => {
            return generate::benchmark_suite()
                .into_iter()
                .find(|c| c.name() == name)
        }
        _ => {}
    }
    if let Some(n) = name.strip_prefix("adder") {
        return n.parse().ok().map(generate::ripple_carry_adder);
    }
    if let Some(n) = name.strip_prefix("chain") {
        return n.parse().ok().map(generate::inverter_chain);
    }
    if let Some(n) = name.strip_prefix("nandtree") {
        return n.parse().ok().map(generate::nand_tree);
    }
    None
}

fn print_report(target: &str, report: &Report, json: bool) {
    if json {
        print!("{}", report.to_jsonl());
        println!(
            "{{\"event\":\"analyze_report\",\"circuit\":\"{}\",\"errors\":{},\"warnings\":{}}}",
            target,
            report.num_errors(),
            report.num_warnings()
        );
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        println!(
            "{target}: {} error(s), {} warning(s)",
            report.num_errors(),
            report.num_warnings()
        );
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench = match BenchArgs::extract("analyze_blif", &mut args) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let json = args.iter().any(|a| a == "--json");
    let suite = args.iter().any(|a| a == "--suite");
    let mut opts = AnalyzerOptions::default();
    if args.iter().any(|a| a == "--no-derivatives") {
        opts.derivatives = false;
    }
    if args.iter().any(|a| a == "--raw-variance") {
        opts.assume_runtime_clamps = false;
    }
    let mut objective = Objective::MeanPlusKSigma(3.0);
    let mut spec = DelaySpec::None;
    let mut targets: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" | "--suite" | "--no-derivatives" | "--raw-variance" => {}
            "--objective" => {
                objective = match it.next().map(String::as_str) {
                    Some("mu") => Objective::MeanDelay,
                    Some("mu+1s") => Objective::MeanPlusKSigma(1.0),
                    Some("mu+3s") => Objective::MeanPlusKSigma(3.0),
                    Some("area") => Objective::Area,
                    Some("sigma") => Objective::Sigma,
                    _ => return usage(),
                };
            }
            "--deadline" => match it.next().and_then(|v| v.parse().ok()) {
                Some(d) => spec = DelaySpec::MaxMeanPlusKSigma { k: 3.0, d },
                None => return usage(),
            },
            "--stages" => {
                let Some(list) = it.next() else {
                    return usage();
                };
                opts.structural = false;
                opts.intervals = false;
                opts.derivatives = false;
                for stage in list.split(',') {
                    match stage.trim() {
                        "1" => opts.structural = true,
                        "2" => opts.intervals = true,
                        "3" => opts.derivatives = true,
                        _ => return usage(),
                    }
                }
            }
            other if other.starts_with("--") => return usage(),
            other => targets.push(other.to_string()),
        }
    }
    if suite {
        for name in ["tree7", "fig2", "apex1", "apex2", "k2"] {
            targets.push(name.to_string());
        }
    }
    if targets.is_empty() {
        return usage();
    }

    let lib = Library::paper_default();
    let tracer = bench.trace().tracer();
    let mut errors = 0usize;
    for target in &targets {
        let report = if std::path::Path::new(target).is_file() {
            let text = match std::fs::read_to_string(target) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("analyze_blif: cannot read {target}: {e}");
                    return ExitCode::from(2);
                }
            };
            analyze_blif_text(&text, &lib, &objective, &spec, &opts, tracer)
        } else if let Some(circuit) = generated(target) {
            analyze(&circuit, &lib, &objective, &spec, &opts, tracer)
        } else {
            eprintln!("analyze_blif: {target}: no such file or generated circuit");
            return usage();
        };
        print_report(target, &report, json);
        errors += report.num_errors();
    }
    if let Err(e) = bench.finish(&targets.join("+")) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if errors > 0 {
        eprintln!("analyze_blif: {errors} error-severity finding(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
