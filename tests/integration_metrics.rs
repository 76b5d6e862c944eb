//! Integration: the metrics registry end-to-end through the sizer.
//!
//! The contract under test (the acceptance criteria of the metrics
//! layer):
//!
//! * metrics are observation only — a solve with the registry enabled is
//!   bit-identical (iterates, objective, eval counts) to one with it
//!   disabled, which is the default state of every run without
//!   `--metrics`;
//! * the counters a solve leaves behind agree with the corresponding
//!   `SizingResult` fields — the snapshot is the result, not an estimate
//!   of it;
//! * the phase profile of an enabled run covers at least 95% of the
//!   measured wall clock, and the snapshot it produces passes the same
//!   `Snapshot::lint` gate CI applies to `--metrics` files, round-tripping
//!   through JSON byte-identically.
//!
//! The registry is process-global, so every test here serialises on one
//! mutex (the same discipline as the `sgs-metrics` unit tests).

use sgs_core::{DelaySpec, Objective, Sizer, SolverChoice};
use sgs_metrics::{Counter, Gauge, Metadata, Snapshot};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::{blif, Circuit, Library};
use std::sync::Mutex;
use std::time::Instant;

static LOCK: Mutex<()> = Mutex::new(());

fn lib() -> Library {
    Library::paper_default()
}

fn dag(cells: usize, seed: u64) -> Circuit {
    generate::random_dag(&RandomDagSpec {
        name: format!("metrics{cells}"),
        cells,
        inputs: 4,
        depth: 4,
        seed,
        ..Default::default()
    })
}

#[test]
fn enabled_metrics_solve_is_bit_identical_to_disabled() {
    let _g = LOCK.lock().unwrap();
    let lb = lib();
    for (c, solver) in [
        (generate::tree7(), SolverChoice::FullSpace),
        (dag(14, 99), SolverChoice::FullSpace),
        (generate::tree7(), SolverChoice::ReducedSpace),
    ] {
        let base = Sizer::new(&c, &lb)
            .objective(Objective::MeanPlusKSigma(3.0))
            .solver(solver);

        sgs_metrics::disable();
        let plain = base.clone().solve().expect("metrics-off solve");

        sgs_metrics::reset();
        sgs_metrics::enable();
        let metered = base.solve().expect("metrics-on solve");
        sgs_metrics::disable();

        let pb: Vec<u64> = plain.s.iter().map(|v| v.to_bits()).collect();
        let mb: Vec<u64> = metered.s.iter().map(|v| v.to_bits()).collect();
        assert_eq!(pb, mb, "iterates must be bit-identical");
        assert_eq!(plain.objective.to_bits(), metered.objective.to_bits());
        assert_eq!(plain.outer_iterations, metered.outer_iterations);
        assert_eq!(plain.inner_iterations, metered.inner_iterations);
        assert_eq!(plain.evals, metered.evals, "evaluation counts unchanged");
    }
}

#[test]
fn counters_agree_with_the_sizing_result() {
    let _g = LOCK.lock().unwrap();
    sgs_metrics::reset();
    sgs_metrics::enable();
    let c = dag(20, 7);
    let r = Sizer::new(&c, &lib())
        .objective(Objective::MeanPlusKSigma(3.0))
        .solver(SolverChoice::FullSpace)
        .solve()
        .expect("metered sizing converges");
    let get = sgs_metrics::counter_value;
    let restarts = get(Counter::SizerRestarts);
    let fallbacks = get(Counter::SizerGreedyFallbacks);
    sgs_metrics::disable();

    assert_eq!(get(Counter::SizerSolves), 1);
    assert_eq!(get(Counter::ClarkVarClamps), r.clark_var_clamps);

    // Counters accumulate over every attempt of the recovery ladder; the
    // result reports the successful one. With no restart or fallback the
    // two views must agree exactly.
    assert!(get(Counter::NlpSolves) >= 1);
    assert!(get(Counter::NlpOuterIterations) >= r.outer_iterations as u64);
    assert!(get(Counter::NlpEvalsObjective) >= r.evals.objective as u64);
    if restarts == 0 && fallbacks == 0 {
        assert_eq!(get(Counter::NlpOuterIterations), r.outer_iterations as u64);
        assert_eq!(get(Counter::NlpInnerIterations), r.inner_iterations as u64);
        assert_eq!(get(Counter::NlpEvalsObjective), r.evals.objective as u64);
        assert_eq!(get(Counter::NlpEvalsGradient), r.evals.gradient as u64);
        assert_eq!(
            get(Counter::NlpEvalsConstraints),
            r.evals.constraints as u64
        );
        assert_eq!(get(Counter::NlpEvalsJacobian), r.evals.jacobian as u64);
        assert_eq!(get(Counter::NlpEvalsHessian), r.evals.hessian as u64);
    }

    // Each outer iteration is timed exactly once.
    let outer_hist = sgs_metrics::hist_snapshot(sgs_metrics::HistId::NlpOuterSeconds);
    assert_eq!(outer_hist.count, get(Counter::NlpOuterIterations));
}

#[test]
fn reduced_iterations_count_every_multiplier_round() {
    // rdag40 area s.t. mu <= 0.9 x unsized takes several multiplier
    // rounds, one L-BFGS run each; the reported iteration count must sum
    // them, as the registry counter does.
    let _g = LOCK.lock().unwrap();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/rdag40.blif");
    let text = std::fs::read_to_string(path).expect("benchmarks/rdag40.blif exists");
    let c = blif::parse(&text).expect("rdag40.blif parses");
    let lb = lib();
    let unsized_mu = sgs_ssta::ssta(&c, &lb, &vec![1.0; c.num_gates()])
        .delay
        .mean();
    sgs_metrics::reset();
    sgs_metrics::enable();
    let r = Sizer::new(&c, &lb)
        .objective(Objective::Area)
        .delay_spec(DelaySpec::MaxMean(0.9 * unsized_mu))
        .solver(SolverChoice::ReducedSpace)
        .solve()
        .expect("reduced-space sizing succeeds");
    let counted = sgs_metrics::counter_value(Counter::ReducedLbfgsIterations);
    let rounds = sgs_metrics::counter_value(Counter::ReducedRounds);
    sgs_metrics::disable();
    assert!(rounds > 1, "{rounds} round(s)");
    assert_eq!(r.inner_iterations as u64, counted);
}

#[test]
fn profile_covers_the_wall_clock_and_snapshot_survives_the_lint_gate() {
    let _g = LOCK.lock().unwrap();
    sgs_metrics::reset();
    sgs_metrics::enable();
    let c = dag(40, 11);
    let t0 = Instant::now();
    Sizer::new(&c, &lib())
        .objective(Objective::MeanPlusKSigma(3.0))
        .solve()
        .expect("metered sizing converges");
    sgs_metrics::set_gauge(Gauge::RunSeconds, t0.elapsed().as_secs_f64());
    let snap = sgs_metrics::snapshot(Metadata {
        bin: "integration_metrics".into(),
        circuit: c.name().to_string(),
        git_sha: "test".into(),
        threads: 1,
        timestamp: "0".into(),
    });
    sgs_metrics::disable();

    let coverage = snap.coverage().expect("run_seconds gauge is set");
    assert!(
        coverage >= 0.95,
        "root phases cover {:.1}% of the wall clock",
        coverage * 100.0
    );
    assert!(coverage <= 1.0 + 1e-6, "coverage {coverage} over 100%");

    // The in-process snapshot passes the same structural gate as files.
    // (Struct equality is no use here: untouched histograms have NaN
    // quantiles, and NaN != NaN — byte-identity of the serialised form is
    // the stronger, NaN-proof statement.)
    let text = snap.to_json();
    let relinted = Snapshot::lint(&text).expect("snapshot passes lint");
    assert_eq!(relinted.to_json(), text, "round trip is byte-identical");
}
