//! Command-line statistical gate sizer for BLIF netlists.
//!
//! ```text
//! size_blif <netlist.blif> [--objective mu|mu+1s|mu+3s|area|sigma]
//!           [--deadline D [--confidence 0|1|3]] [--pin-mean D]
//!           [--full-space] [--analyze[=deny]] [--out sized.blif.tsv]
//!           [--trace run.jsonl] [--metrics run.json] [--metrics-prom run.prom]
//!           [--threads N]
//! ```
//!
//! Reads a mapped combinational BLIF netlist (e.g. a real MCNC benchmark,
//! which this repository cannot redistribute) or a structural Verilog
//! netlist (`.v`), sizes it under the statistical delay model, prints the
//! resulting delay distribution and area, and optionally writes a
//! `gate<TAB>speed-factor` table. `--full-space` runs the paper's
//! full-space augmented-Lagrangian solve after the reduced-space seed.

use sgs_bench::BenchArgs;
use sgs_core::{DelaySpec, Objective, Sizer, SolverChoice};
use sgs_metrics::Phase;
use sgs_netlist::{blif, Library};
use std::process::ExitCode;

// Allocation accounting for `--metrics` snapshots (the `alloc_calls` /
// `alloc_bytes` counters): two relaxed atomic adds per allocation on top
// of the system allocator.
#[global_allocator]
static GLOBAL: sgs_metrics::alloc::CountingAllocator = sgs_metrics::alloc::CountingAllocator;

fn usage() -> ExitCode {
    eprintln!(
        "usage: size_blif <netlist.blif> [--objective mu|mu+1s|mu+3s|area|sigma] \
         [--deadline D [--confidence 0|1|3]] [--pin-mean D] [--full-space] \
         [--analyze[=deny]] [--out FILE] [--trace FILE] [--metrics FILE] \
         [--metrics-prom FILE] [--threads N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    sgs_metrics::alloc::mark_installed();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench = match BenchArgs::extract("size_blif", &mut args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let trace = bench.trace();
    let Some(path) = args.first() else {
        return usage();
    };
    let mut objective = Objective::MeanPlusKSigma(3.0);
    let mut spec = DelaySpec::None;
    let mut deadline: Option<f64> = None;
    let mut confidence = 3.0f64;
    let mut full_space = false;
    let mut analyze: Option<bool> = None;
    let mut out: Option<String> = None;

    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
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
            "--deadline" => {
                deadline = it.next().and_then(|v| v.parse().ok());
                if deadline.is_none() {
                    return usage();
                }
            }
            "--confidence" => {
                confidence = match it.next().and_then(|v| v.parse::<u32>().ok()) {
                    Some(k @ (0 | 1 | 3)) => f64::from(k),
                    _ => return usage(),
                };
            }
            "--pin-mean" => match it.next().and_then(|v| v.parse().ok()) {
                Some(d) => spec = DelaySpec::ExactMean(d),
                None => return usage(),
            },
            "--full-space" => full_space = true,
            "--analyze" => analyze = Some(false),
            "--analyze=deny" => analyze = Some(true),
            "--out" => out = it.next().cloned(),
            _ => return usage(),
        }
    }
    if let Some(d) = deadline {
        spec = if confidence == 0.0 {
            DelaySpec::MaxMean(d)
        } else {
            DelaySpec::MaxMeanPlusKSigma { k: confidence, d }
        };
    }

    let circuit = {
        let _ph = sgs_metrics::phase(trace.tracer(), Phase::Load);
        let text = match std::fs::read_to_string(path) {
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
        match parsed {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let lib = Library::paper_default();
    println!("{circuit}");
    {
        let _ph = sgs_metrics::phase(trace.tracer(), Phase::Baseline);
        let unit_speeds = vec![1.0; circuit.num_gates()];
        let baseline = sgs_ssta::ssta(&circuit, &lib, &unit_speeds);
        println!(
            "unsized: mu = {:.4}, sigma = {:.4}",
            baseline.delay.mean(),
            baseline.delay.sigma()
        );
    }

    let mut sizer = Sizer::new(&circuit, &lib)
        .objective(objective)
        .delay_spec(spec);
    if full_space {
        sizer = sizer.solver(SolverChoice::FullSpace);
    }
    let gate = analyze.map(|deny| sgs_analyze::AnalyzerGate {
        deny,
        verbose: true,
        ..Default::default()
    });
    if let Some(gate) = &gate {
        sizer = sizer.preflight(gate);
    }
    if let Some(sink) = trace.sink() {
        sizer = sizer.trace(sink);
    }
    let result = match sizer.solve() {
        Ok(r) => r,
        Err(e) => {
            trace.report(
                circuit.name(),
                &e.to_string(),
                f64::NAN,
                f64::NAN,
                f64::NAN,
                f64::NAN,
            );
            if let Err(e) = bench.finish(circuit.name()) {
                eprintln!("{e}");
            }
            eprintln!("sizing failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "sized:   mu = {:.4}, sigma = {:.4}, mu + 3 sigma = {:.4}, area = {:.2} ({:.1}s)",
        result.delay.mean(),
        result.delay.sigma(),
        result.mean_plus_k_sigma(3.0),
        result.area,
        result.seconds
    );

    if let Some(out) = out {
        let _ph = sgs_metrics::phase(trace.tracer(), Phase::Emit);
        let mut body = String::from("# gate\tspeed_factor\n");
        for ((_, gate), s) in circuit.gates().zip(&result.s) {
            body.push_str(&format!("{}\t{:.6}\n", gate.name, s));
        }
        if let Err(e) = std::fs::write(&out, body) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote speed factors to {out}");
    }
    trace.report_with_evals(
        circuit.name(),
        "ok",
        result.objective,
        result.delay.mean(),
        result.delay.sigma(),
        result.area,
        result.evals.into(),
    );
    if let Err(e) = bench.finish(circuit.name()) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
