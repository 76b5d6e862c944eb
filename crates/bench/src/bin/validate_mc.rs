//! Monte Carlo validation of the analytical statistical machinery —
//! the claims behind the paper's Section 3 and its yield statements
//! (mu covers 50% of circuits, mu + sigma 84.1%, mu + 3 sigma 99.8%).
//!
//! 1. The Clark max moments (paper Eq. 10/12/13) vs sampled moments on a
//!    grid of operand configurations.
//! 2. Whole-circuit SSTA vs Monte Carlo timing on the tree, an adder and
//!    the synthetic benchmarks.
//! 3. Measured yield at `mu + k sigma` for sized circuits vs the normal
//!    theory values.
//!
//! Run with `cargo run -p sgs-bench --bin validate_mc --release`.

use std::time::Instant;

use sgs_bench::BenchArgs;
use sgs_core::{Objective, Sizer};
use sgs_netlist::{generate, Library};
use sgs_ssta::{monte_carlo, ssta, McOptions};
use sgs_statmath::{clark, mc, Normal};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench = BenchArgs::extract("validate_mc", &mut args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let trace = bench.trace();
    if let Some(arg) = args.first() {
        eprintln!("unknown argument: {arg}");
        eprintln!(
            "usage: validate_mc [--threads=N] [--trace=FILE] [--metrics=FILE] [--metrics-prom=FILE]"
        );
        std::process::exit(2);
    }
    println!("monte carlo threads: {}", rayon::current_num_threads());
    println!("\n## Clark max vs Monte Carlo (400k samples per case)\n");
    println!(
        "{:>8} {:>8} {:>8} {:>8} | {:>9} {:>9} | {:>9} {:>9}",
        "mu_a", "sig_a", "mu_b", "sig_b", "mu C", "mu MC", "sig C", "sig MC"
    );
    let cases = [
        (0.0, 1.0, 0.0, 1.0),
        (1.0, 1.0, 0.0, 2.0),
        (5.0, 0.5, 4.8, 0.6),
        (10.0, 2.0, 2.0, 0.5),
        (3.0, 0.1, 3.05, 0.12),
    ];
    for (i, &(ma, sa, mb, sb)) in cases.iter().enumerate() {
        let a = Normal::new(ma, sa);
        let b = Normal::new(mb, sb);
        let exact = clark::max(a, b);
        let est = mc::max_moments(a, b, 400_000, 7000 + i as u64);
        println!(
            "{:>8.2} {:>8.2} {:>8.2} {:>8.2} | {:>9.4} {:>9.4} | {:>9.4} {:>9.4}",
            ma,
            sa,
            mb,
            sb,
            exact.mean(),
            est.mean(),
            exact.sigma(),
            est.sigma()
        );
    }

    let lib = Library::paper_default();
    println!("\n## Circuit-level SSTA vs Monte Carlo (40k trials)\n");
    println!(
        "{:<12} {:>6} | {:>9} {:>9} | {:>9} {:>9} | {:>7} | {:>11}",
        "circuit", "cells", "mu SSTA", "mu MC", "sig SSTA", "sig MC", "err mu", "MC wall"
    );
    let mut circuits = vec![generate::tree7(), generate::ripple_carry_adder(8)];
    circuits.extend(generate::benchmark_suite());
    for c in &circuits {
        let s = vec![1.0; c.num_gates()];
        let a = ssta(c, &lib, &s);
        let t0 = Instant::now();
        let m = monte_carlo(
            c,
            &lib,
            &s,
            &McOptions {
                samples: 40_000,
                seed: 11,
                criticality: false,
                ..Default::default()
            },
        );
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:<12} {:>6} | {:>9.3} {:>9.3} | {:>9.3} {:>9.3} | {:>6.2}% | {:>8.1} ms",
            c.name(),
            c.num_gates(),
            a.delay.mean(),
            m.delay.mean(),
            a.delay.sigma(),
            m.delay.sigma(),
            100.0 * (a.delay.mean() - m.delay.mean()) / m.delay.mean(),
            wall_ms
        );
    }

    println!("\n## Yield at mu + k sigma for a min(mu + 3 sigma)-sized tree\n");
    let c = generate::tree7();
    let mut sizer = Sizer::new(&c, &lib).objective(Objective::MeanPlusKSigma(3.0));
    if let Some(sink) = trace.sink() {
        sizer = sizer.trace(sink);
    }
    let r = sizer.solve().expect("tree sizing converges");
    let t0 = Instant::now();
    let m = monte_carlo(
        &c,
        &lib,
        &r.s,
        &McOptions {
            samples: 200_000,
            seed: 12,
            criticality: false,
            ..Default::default()
        },
    );
    println!(
        "(200k trials in {:.1} ms)",
        t0.elapsed().as_secs_f64() * 1e3
    );
    println!(
        "{:>4} {:>12} {:>12} {:>12}",
        "k", "deadline", "yield MC", "theory"
    );
    for (k, theory) in [(0.0, 0.5), (1.0, 0.841), (2.0, 0.977), (3.0, 0.998)] {
        let t = r.delay.mean_plus_k_sigma(k);
        println!(
            "{:>4.0} {:>12.4} {:>12.4} {:>12.3}",
            k,
            t,
            m.yield_at(t),
            theory
        );
    }
    trace.report_with_evals(
        "tree7",
        "ok",
        r.objective,
        r.delay.mean(),
        r.delay.sigma(),
        r.area,
        r.evals.into(),
    );
    if let Err(e) = bench.finish("tree7+suite") {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
