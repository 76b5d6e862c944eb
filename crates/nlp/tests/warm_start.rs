//! Warm-start contract battery.
//!
//! Pins the two halves of the [`sgs_nlp::WarmStart`] contract: a warm
//! start from a converged point re-verifies optimality in at most one
//! outer iteration at the same objective, and a warm start taken from a
//! poisoned (NaN) previous result is *rejected* — the solve falls back to
//! the cold start and matches it bit for bit instead of diverging.

use sgs_nlp::auglag::SolveStatus;
use sgs_nlp::test_problems::{Hs28, Hs48, Hs7, PoisonAfter, ProductBound, SumToOne};
use sgs_nlp::{
    solve, solve_cached, solve_warm, solve_warm_traced, AugLagOptions, CachedProblem, NlpProblem,
    WarmStart,
};
use sgs_trace::{MemorySink, TraceEvent, Tracer};

fn assert_bit_identical(a: &sgs_nlp::SolveResult, b: &sgs_nlp::SolveResult) {
    assert_eq!(a.status, b.status);
    let abits: Vec<u64> = a.x.iter().map(|v| v.to_bits()).collect();
    let bbits: Vec<u64> = b.x.iter().map(|v| v.to_bits()).collect();
    assert_eq!(abits, bbits, "iterates differ");
    assert_eq!(a.f.to_bits(), b.f.to_bits(), "objectives differ");
    assert_eq!(a.evals, b.evals, "evaluation counts differ");
    assert_eq!(a.outer_iterations, b.outer_iterations);
}

#[test]
fn warm_restart_from_converged_point_takes_at_most_one_outer_iteration() {
    fn check<P: NlpProblem>(problem: &P, x0: &[f64]) {
        let opts = AugLagOptions::default();
        let cold = solve(problem, x0, &opts);
        assert!(cold.status.is_success(), "cold solve failed: {cold:?}");
        let warm = WarmStart::from_result(&cold);
        let rerun = solve_warm(problem, x0, Some(&warm), &opts);
        assert_eq!(rerun.status, SolveStatus::Converged, "{rerun:?}");
        assert!(
            rerun.outer_iterations <= 1,
            "warm restart took {} outer iterations",
            rerun.outer_iterations
        );
        // Same objective: the restart verifies the point, it does not
        // wander off it.
        assert!(
            (rerun.f - cold.f).abs() <= 1e-9 * (1.0 + cold.f.abs()),
            "objective moved: {} -> {}",
            cold.f,
            rerun.f
        );
        // And far cheaper than the cold solve.
        assert!(rerun.inner_iterations <= cold.inner_iterations);
    }
    check(&SumToOne, &[3.0, -2.0]);
    check(&Hs7, &[2.0, 2.0]);
    check(&Hs48, &[3.0, 5.0, -3.0, 2.0, -2.0]);
    check(&ProductBound, &[5.0, 5.0]);
}

#[test]
fn warm_start_from_poisoned_result_falls_back_to_cold_start() {
    // Produce a genuinely poisoned previous result via the fault-injection
    // hook: the objective turns to NaN mid-solve and the run diverges.
    let poisoned_problem = PoisonAfter::new(&Hs7, 3);
    let bad = solve(&poisoned_problem, &[2.0, 2.0], &AugLagOptions::default());
    assert_eq!(bad.status, SolveStatus::Diverged, "{bad:?}");

    let warm = WarmStart::from_result(&bad);
    // A NaN-poisoned carry-over must not be trusted...
    if warm.is_usable(2, 1) {
        // The diverged iterate can in principle still be finite; force the
        // non-finite case explicitly so the fallback path is always
        // exercised.
        let mut w = warm.clone();
        w.x[0] = f64::NAN;
        assert!(!w.is_usable(2, 1));
    }
    let mut nan_warm = warm.clone();
    nan_warm.x[0] = f64::NAN;
    nan_warm.lambda = vec![f64::NAN];

    // ...so the warm solve on the healthy problem equals the cold solve
    // bit for bit — no divergence, no NaN contamination.
    let cold = solve(&Hs7, &[2.0, 2.0], &AugLagOptions::default());
    assert!(cold.status.is_success());
    let fallback = solve_warm(
        &Hs7,
        &[2.0, 2.0],
        Some(&nan_warm),
        &AugLagOptions::default(),
    );
    assert_bit_identical(&fallback, &cold);
}

#[test]
fn dimension_mismatched_warm_start_is_rejected() {
    let from_hs7 = WarmStart::from_result(&solve(&Hs7, &[2.0, 2.0], &AugLagOptions::default()));
    assert!(!from_hs7.is_usable(3, 1), "wrong dimensions must not pass");
    let cold = solve(&Hs28, &[-4.0, 1.0, 1.0], &AugLagOptions::default());
    let fallback = solve_warm(
        &Hs28,
        &[-4.0, 1.0, 1.0],
        Some(&from_hs7),
        &AugLagOptions::default(),
    );
    assert_bit_identical(&fallback, &cold);
}

#[test]
fn warm_start_hit_counter_records_acceptance_and_fallback() {
    let opts = AugLagOptions::default();
    let cold = solve(&Hs7, &[2.0, 2.0], &opts);
    let warm = WarmStart::from_result(&cold);

    let count_hits = |warm: Option<&WarmStart>| -> Vec<u64> {
        let sink = MemorySink::new();
        let _ = solve_warm_traced(&Hs7, &[2.0, 2.0], warm, &opts, Tracer::new(&sink));
        sink.events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Counter {
                    name: "warm_start_hit",
                    value,
                } => Some(value),
                _ => None,
            })
            .collect()
    };

    assert_eq!(count_hits(Some(&warm)), vec![1], "accepted warm start");
    let mut bad = warm.clone();
    bad.rho = f64::INFINITY;
    assert_eq!(count_hits(Some(&bad)), vec![0], "rejected warm start");
    assert_eq!(count_hits(None), Vec::<u64>::new(), "cold solve is silent");

    // An untraced cold solve and a solve_warm(None) agree exactly.
    let a = solve(&Hs7, &[2.0, 2.0], &opts);
    let b = solve_warm(&Hs7, &[2.0, 2.0], None, &opts);
    assert_bit_identical(&a, &b);
}

#[test]
fn cached_problem_reused_across_solves_reports_per_solve_evals() {
    let cached = CachedProblem::new(&Hs7);
    let opts = AugLagOptions::default();
    let first = solve_cached(&cached, &[2.0, 2.0], None, &opts, Tracer::none());
    assert!(first.status.is_success(), "{first:?}");
    let warm = WarmStart::from_result(&first);
    let second = solve_cached(&cached, &[2.0, 2.0], Some(&warm), &opts, Tracer::none());
    assert!(second.status.is_success(), "{second:?}");
    assert!(second.outer_iterations <= 1);

    // Per-solve deltas, not cumulative counters: the two reports sum to
    // exactly what the shared cache performed in total.
    let total = cached.counts();
    assert_eq!(
        first.evals.constraints + second.evals.constraints,
        total.constraints
    );
    assert_eq!(
        first.evals.objective + second.evals.objective,
        total.objective
    );
    assert_eq!(first.evals.jacobian + second.evals.jacobian, total.jacobian);
    // The warm verification is much cheaper than the cold solve.
    assert!(second.evals.constraints < first.evals.constraints);
}

#[test]
fn warm_start_matches_seeded_state_solve() {
    // Carrying (x, lambda, rho) through WarmStart is exactly equivalent to
    // a solver whose initial state is that triple: pinned by comparing two
    // warm solves with identical carried state.
    let cold = solve(&SumToOne, &[3.0, -2.0], &AugLagOptions::default());
    let warm = WarmStart::from_result(&cold);
    let a = solve_warm(
        &SumToOne,
        &[3.0, -2.0],
        Some(&warm),
        &AugLagOptions::default(),
    );
    let b = solve_warm(
        &SumToOne,
        &[0.0, 0.0],
        Some(&warm),
        &AugLagOptions::default(),
    );
    // x0 is irrelevant once the warm start is accepted.
    assert_bit_identical(&a, &b);
}

/// [`SumToOne`] with a rewritable right-hand side: the NLP analogue of a
/// spec rewrite — the constant inside the formulation moves, the
/// structure does not.
struct ShiftedSum {
    target: f64,
}

impl NlpProblem for ShiftedSum {
    fn num_vars(&self) -> usize {
        2
    }
    fn num_constraints(&self) -> usize {
        1
    }
    fn bounds(&self) -> (&[f64], &[f64]) {
        const LO: [f64; 2] = [f64::NEG_INFINITY; 2];
        const HI: [f64; 2] = [f64::INFINITY; 2];
        (&LO, &HI)
    }
    fn objective(&self, x: &[f64]) -> f64 {
        x[0] * x[0] + x[1] * x[1]
    }
    fn gradient(&self, x: &[f64], g: &mut [f64]) {
        g[0] = 2.0 * x[0];
        g[1] = 2.0 * x[1];
    }
    fn constraints(&self, x: &[f64], c: &mut [f64]) {
        c[0] = x[0] + x[1] - self.target;
    }
    fn jacobian_structure(&self) -> Vec<(usize, usize)> {
        vec![(0, 0), (0, 1)]
    }
    fn jacobian_values(&self, _x: &[f64], vals: &mut [f64]) {
        vals[0] = 1.0;
        vals[1] = 1.0;
    }
    fn hessian_structure(&self) -> Vec<(usize, usize)> {
        vec![(0, 0), (1, 1)]
    }
    fn hessian_values(&self, _x: &[f64], sigma: f64, _lambda: &[f64], vals: &mut [f64]) {
        vals[0] = 2.0 * sigma;
        vals[1] = 2.0 * sigma;
    }
}

#[test]
fn warm_start_survives_a_spec_constant_rewrite() {
    // Rewriting a constant inside the formulation keeps the previous
    // (x, lambda, rho) dimension-compatible, so the next solve accepts it
    // and repairs the old optimum instead of restarting cold.
    let opts = AugLagOptions::default();
    let before = solve(&ShiftedSum { target: 1.0 }, &[3.0, -2.0], &opts);
    assert!(before.status.is_success(), "{before:?}");
    let warm = WarmStart::from_result(&before);
    let shifted = ShiftedSum { target: 1.2 };
    assert!(
        warm.is_usable(shifted.num_vars(), shifted.num_constraints()),
        "rewriting a constant must not change the warm dimensions"
    );

    let sink = MemorySink::new();
    let after = solve_warm_traced(
        &shifted,
        &[3.0, -2.0],
        Some(&warm),
        &opts,
        Tracer::new(&sink),
    );
    assert!(after.status.is_success(), "{after:?}");
    let hits: Vec<u64> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Counter {
                name: "warm_start_hit",
                value,
            } => Some(value),
            _ => None,
        })
        .collect();
    assert_eq!(hits, vec![1], "the carried warm start must be accepted");
    // It converges to the *new* optimum (x0 = x1 = target / 2), cheaper
    // than the cold solve of the shifted problem.
    assert!((after.x[0] - 0.6).abs() < 1e-6 && (after.x[1] - 0.6).abs() < 1e-6);
    let cold = solve(&shifted, &[3.0, -2.0], &opts);
    assert!(cold.status.is_success());
    assert!((after.f - cold.f).abs() <= 1e-5 * (1.0 + cold.f.abs()));
    assert!(after.inner_iterations <= cold.inner_iterations);
}

#[test]
fn traced_warm_solve_is_bit_identical_to_untraced() {
    let cold = solve(&Hs7, &[2.0, 2.0], &AugLagOptions::default());
    let warm = WarmStart::from_result(&cold);
    let plain = solve_warm(&Hs7, &[2.0, 2.0], Some(&warm), &AugLagOptions::default());
    let sink = MemorySink::new();
    let traced = solve_warm_traced(
        &Hs7,
        &[2.0, 2.0],
        Some(&warm),
        &AugLagOptions::default(),
        Tracer::new(&sink),
    );
    assert_bit_identical(&plain, &traced);
}
