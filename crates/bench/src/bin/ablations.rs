//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Max fold order** — the paper folds multi-operand maxima
//!    left-to-right and names the explicit multi-operand max as future
//!    work; compare left fold, balanced fold and Monte Carlo truth.
//! 2. **Smoothing floor eps** — the degenerate-operand regularisation must
//!    not affect results across many orders of magnitude.
//! 3. **Sigma factor** — how the value of statistical sizing scales with
//!    the per-gate uncertainty level (0.25 in all the paper's runs).
//! 4. **Solver architecture** — full-space NLP vs reduced-space adjoint vs
//!    TILOS-style greedy on the same instance: objective quality and cost.
//! 5. **Independence vs canonical correlation handling** (the paper's
//!    future work) against Monte Carlo on a reconvergent DAG.
//!
//! Run with `cargo run -p sgs-bench --bin ablations --release`.

use sgs_bench::{BenchArgs, TraceArg};
use sgs_core::greedy::{greedy_size, GreedyOptions};
use sgs_core::{Objective, Sizer, SolverChoice};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::Library;
use sgs_ssta::canonical::ssta_canonical;
use sgs_ssta::{monte_carlo, ssta, McOptions};
use sgs_statmath::{clark, mc, Normal};
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench = BenchArgs::extract("ablations", &mut args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let trace = bench.trace();
    if let Some(arg) = args.first() {
        eprintln!("unknown argument: {arg}");
        eprintln!(
            "usage: ablations [--threads=N] [--trace=FILE] [--metrics=FILE] [--metrics-prom=FILE]"
        );
        std::process::exit(2);
    }
    println!("monte carlo threads: {}", rayon::current_num_threads());
    fold_order();
    eps_sensitivity();
    sigma_factor_sweep();
    solver_comparison(trace);
    correlation_handling();
    trace.report("ablations", "ok", f64::NAN, f64::NAN, f64::NAN, f64::NAN);
    if let Err(e) = bench.finish("ablations") {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

fn fold_order() {
    println!("\n## Ablation 1: multi-operand max fold order\n");
    println!(
        "{:>3} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12}",
        "k", "mu left", "mu balanced", "mu MC", "sig left", "sig balanced", "sig MC"
    );
    for k in [3usize, 5, 8, 12] {
        let ops: Vec<Normal> = (0..k)
            .map(|i| Normal::new(10.0 + 0.3 * (i % 4) as f64, 1.0 + 0.1 * i as f64))
            .collect();
        let left = clark::max_n(ops.clone()).unwrap();
        let balanced = balanced_fold(&ops);
        // Monte Carlo truth.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(k as u64);
        let (m, v) = mc::moments((0..300_000).map(|_| {
            ops.iter()
                .map(|o| mc::sample(*o, &mut rng))
                .fold(f64::NEG_INFINITY, f64::max)
        }));
        println!(
            "{:>3} {:>12.4} {:>12.4} {:>12.4} | {:>12.4} {:>12.4} {:>12.4}",
            k,
            left.mean(),
            balanced.mean(),
            m,
            left.sigma(),
            balanced.sigma(),
            v.sqrt()
        );
    }
    println!(
        "(both orders are within MC noise of each other; the paper's left fold loses nothing)"
    );
}

fn balanced_fold(ops: &[Normal]) -> Normal {
    if ops.len() == 1 {
        return ops[0];
    }
    let mid = ops.len() / 2;
    clark::max(balanced_fold(&ops[..mid]), balanced_fold(&ops[mid..]))
}

fn eps_sensitivity() {
    println!("\n## Ablation 2: smoothing floor eps\n");
    let circuit = generate::tree7();
    let lib = Library::paper_default();
    println!("{:>8} {:>12} {:>12}", "eps", "mu_Tmax", "sigma_Tmax");
    for eps in [1e-6, 1e-9, 1e-12] {
        // SSTA with explicit eps through the clark kernel.
        let s = vec![1.0; 7];
        let model = sgs_ssta::DelayModel::new(&circuit, &lib);
        let mut arr: Vec<Normal> = Vec::new();
        for (id, gate) in circuit.gates() {
            let u = gate
                .inputs
                .iter()
                .map(|&sig| match sig {
                    sgs_netlist::Signal::Pi(_) => Normal::certain(0.0),
                    sgs_netlist::Signal::Gate(g) => arr[g.index()],
                })
                .reduce(|a, b| clark::max_eps(a, b, eps))
                .unwrap();
            arr.push(u + model.gate_delay(id, &s));
        }
        let d = arr[circuit.outputs()[0].index()];
        println!("{eps:>8.0e} {:>12.8} {:>12.8}", d.mean(), d.sigma());
    }
    println!(
        "(results identical to ~9 digits: the floor only matters at exactly-degenerate operands)"
    );
}

fn sigma_factor_sweep() {
    println!("\n## Ablation 3: per-gate uncertainty level (paper uses 0.25)\n");
    let circuit = generate::tree7();
    println!(
        "{:>6} | {:>10} {:>10} | {:>14} {:>14} | {:>9}",
        "kappa", "mu(min mu)", "sig(min mu)", "m3s(min mu)", "m3s(min m3s)", "gain %"
    );
    for kappa in [0.1, 0.25, 0.4] {
        let lib = Library::paper_default().with_sigma_factor(kappa);
        let a = Sizer::new(&circuit, &lib)
            .objective(Objective::MeanDelay)
            .solve()
            .expect("sizes");
        let b = Sizer::new(&circuit, &lib)
            .objective(Objective::MeanPlusKSigma(3.0))
            .solve()
            .expect("sizes");
        let gain = 100.0 * (a.mean_plus_k_sigma(3.0) - b.mean_plus_k_sigma(3.0))
            / a.mean_plus_k_sigma(3.0);
        println!(
            "{kappa:>6.2} | {:>10.3} {:>10.3} | {:>14.3} {:>14.3} | {:>9.3}",
            a.delay.mean(),
            a.delay.sigma(),
            a.mean_plus_k_sigma(3.0),
            b.mean_plus_k_sigma(3.0),
            gain
        );
    }
    println!("(the robust objective's edge over plain min-mu grows with the uncertainty level)");
}

fn solver_comparison(trace: &TraceArg) {
    println!("\n## Ablation 4: solver architecture on apex2 (min mu + 3 sigma)\n");
    let circuit = generate::benchmark_suite().remove(1);
    let lib = Library::paper_default();
    println!(
        "{:<22} {:>14} {:>10} {:>12}",
        "solver", "objective", "area", "seconds"
    );
    let t = Instant::now();
    let mut sizer = Sizer::new(&circuit, &lib)
        .objective(Objective::MeanPlusKSigma(3.0))
        .solver(SolverChoice::FullSpace);
    if let Some(sink) = trace.sink() {
        sizer = sizer.trace(sink);
    }
    let full = sizer.solve().expect("sizes");
    println!(
        "{:<22} {:>14.4} {:>10.1} {:>12.2}",
        "full-space NLP",
        full.mean_plus_k_sigma(3.0),
        full.area,
        t.elapsed().as_secs_f64()
    );
    let t = Instant::now();
    let red = Sizer::new(&circuit, &lib)
        .objective(Objective::MeanPlusKSigma(3.0))
        .solver(SolverChoice::ReducedSpace)
        .solve()
        .expect("sizes");
    println!(
        "{:<22} {:>14.4} {:>10.1} {:>12.2}",
        "reduced-space adjoint",
        red.mean_plus_k_sigma(3.0),
        red.area,
        t.elapsed().as_secs_f64()
    );
    let t = Instant::now();
    let greedy = greedy_size(
        &circuit,
        &lib,
        &Objective::MeanPlusKSigma(3.0),
        &GreedyOptions::default(),
    );
    println!(
        "{:<22} {:>14.4} {:>10.1} {:>12.2}  ({} metric evals)",
        "greedy (TILOS-style)",
        greedy.metric,
        greedy.s.iter().sum::<f64>(),
        t.elapsed().as_secs_f64(),
        greedy.evaluations
    );
}

fn correlation_handling() {
    println!("\n## Ablation 5: independence vs canonical correlation (paper's future work)\n");
    let lib = Library::paper_default();
    println!(
        "{:<10} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>11}",
        "circuit", "mu ind", "mu canon", "mu MC", "sig ind", "sig canon", "sig MC", "MC wall"
    );
    for (name, cells, depth, seed) in [
        ("sparse", 120usize, 10usize, 5u64),
        ("dense", 300, 12, 7),
        ("wide", 400, 8, 9),
    ] {
        let c = generate::random_dag(&RandomDagSpec {
            name: name.into(),
            cells,
            inputs: 10,
            depth,
            seed,
            ..Default::default()
        });
        let s = vec![1.5; c.num_gates()];
        let ind = ssta(&c, &lib, &s).delay;
        let can = ssta_canonical(&c, &lib, &s).delay_normal();
        let t0 = Instant::now();
        let mc = monte_carlo(
            &c,
            &lib,
            &s,
            &McOptions {
                samples: 50_000,
                seed: 3,
                criticality: false,
                ..Default::default()
            },
        )
        .delay;
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:<10} | {:>9.3} {:>9.3} {:>9.3} | {:>9.3} {:>9.3} {:>9.3} | {:>8.1} ms",
            name,
            ind.mean(),
            can.mean(),
            mc.mean(),
            ind.sigma(),
            can.sigma(),
            mc.sigma(),
            wall_ms
        );
    }
    println!("(canonical tracking removes most of the independence bias on reconvergent DAGs)");
}
