//! Augmented-Lagrangian outer loop (the LANCELOT algorithm).
//!
//! Solves `min f(x) s.t. c(x) = 0, l <= x <= u` by repeatedly minimising
//! the augmented Lagrangian
//!
//! ```text
//! L_A(x; lambda, rho) = f(x) - lambda' c(x) + (rho/2) |c(x)|^2
//! ```
//!
//! over the bound box with the trust-region Newton-CG solver of
//! [`crate::tr`], then updating multipliers (`lambda <- lambda - rho c`)
//! when feasibility improves on schedule and increasing `rho` otherwise —
//! the classic Conn-Gould-Toint safeguarded scheme LANCELOT implements.

use crate::cache::{CachedProblem, EvalCounts};
use crate::problem::NlpProblem;
use crate::sparse::{CsrMatrix, SymTriplets};
use crate::tr::{self, SmoothFn, TrOptions};
use sgs_trace::{OuterRecord, SolveRecord, TraceEvent, Tracer};
use std::time::Instant;

/// Options for [`solve`].
#[derive(Debug, Clone)]
pub struct AugLagOptions {
    /// Feasibility tolerance on the constraint infinity norm.
    pub tol_feas: f64,
    /// Optimality tolerance on the projected gradient of the augmented
    /// Lagrangian.
    pub tol_opt: f64,
    /// Initial penalty parameter.
    pub rho0: f64,
    /// Penalty multiplication factor when feasibility stalls.
    pub rho_mult: f64,
    /// Maximum outer (multiplier/penalty) iterations.
    pub max_outer: usize,
    /// Cap on the penalty parameter (beyond it the run ends with
    /// [`SolveStatus::PenaltyCap`]).
    pub rho_max: f64,
    /// Wall-clock budget in seconds; when exceeded the solve returns the
    /// best point found with [`SolveStatus::TimeBudget`] at the next
    /// outer-iteration boundary. `None` means unlimited.
    pub max_seconds: Option<f64>,
    /// Inner trust-region settings (tolerance is overridden by the outer
    /// schedule; `max_iter` applies per inner solve).
    pub inner: TrOptions,
}

impl Default for AugLagOptions {
    fn default() -> Self {
        AugLagOptions {
            tol_feas: 1e-7,
            tol_opt: 1e-6,
            rho0: 10.0,
            rho_mult: 10.0,
            max_outer: 40,
            rho_max: 1e12,
            max_seconds: None,
            inner: TrOptions {
                max_iter: 200,
                ..Default::default()
            },
        }
    }
}

/// Termination status of [`solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// First-order optimal within tolerances.
    Converged,
    /// Outer-iteration budget exhausted; the returned point is the best
    /// found.
    MaxIterations,
    /// The penalty parameter reached its cap without achieving
    /// feasibility — the problem is likely infeasible or badly scaled.
    PenaltyCap,
    /// A non-finite objective, constraint value or iterate appeared; the
    /// offending iterate is recorded in the trace (and returned). The
    /// structured replacement for propagating NaN garbage silently.
    Diverged,
    /// The wall-clock budget ([`AugLagOptions::max_seconds`]) ran out.
    TimeBudget,
    /// Feasible, but an inner solve left the iterate where it was while
    /// its projected gradient was still above
    /// [`AugLagOptions::tol_opt`]: the point is not certified
    /// first-order optimal.
    Stalled,
}

impl SolveStatus {
    /// True for [`SolveStatus::Converged`].
    pub fn is_success(self) -> bool {
        self == SolveStatus::Converged
    }

    /// Stable lowercase tag for machine-readable reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SolveStatus::Converged => "converged",
            SolveStatus::MaxIterations => "max_iterations",
            SolveStatus::PenaltyCap => "penalty_cap",
            SolveStatus::Diverged => "diverged",
            SolveStatus::TimeBudget => "time_budget",
            SolveStatus::Stalled => "stalled",
        }
    }
}

/// Result of [`solve`].
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Objective at `x`.
    pub f: f64,
    /// Constraint infinity norm at `x`.
    pub c_norm: f64,
    /// Final multiplier estimates.
    pub lambda: Vec<f64>,
    /// Final penalty parameter.
    pub rho: f64,
    /// Outer iterations used.
    pub outer_iterations: usize,
    /// Total inner trust-region iterations.
    pub inner_iterations: usize,
    /// Total inner CG iterations.
    pub cg_iterations: usize,
    /// Underlying problem evaluations actually performed (same-point
    /// repeats are served by the evaluation cache and not counted here).
    pub evals: EvalCounts,
    /// Termination status.
    pub status: SolveStatus,
}

/// Solver state carried from one solve into the next: the final iterate,
/// multiplier estimates and penalty parameter of a previous
/// [`SolveResult`].
///
/// A warm start from a converged point re-verifies optimality in a single
/// outer iteration (the first inner solve cannot move the iterate, the
/// feasibility and projected-gradient checks both pass immediately), so a
/// re-solve after a small spec or size perturbation costs a fraction of a
/// cold run. Non-finite carried state is never trusted: [`solve_cached`]
/// checks [`WarmStart::is_usable`] and silently falls back to the cold
/// start (`lambda = 0`, `rho = rho0`) when a previous solve diverged into
/// NaN territory.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Starting iterate (projected into the bounds before use).
    pub x: Vec<f64>,
    /// Multiplier estimates.
    pub lambda: Vec<f64>,
    /// Penalty parameter.
    pub rho: f64,
}

impl WarmStart {
    /// Captures the carry-over state of a finished solve.
    pub fn from_result(r: &SolveResult) -> Self {
        WarmStart {
            x: r.x.clone(),
            lambda: r.lambda.clone(),
            rho: r.rho,
        }
    }

    /// True when the state is dimensionally compatible with a problem of
    /// `n` variables and `m` constraints and every number in it is finite
    /// (with a positive penalty) — the admission test for warm starting.
    pub fn is_usable(&self, n: usize, m: usize) -> bool {
        self.x.len() == n
            && self.lambda.len() == m
            && self.rho.is_finite()
            && self.rho > 0.0
            && self.x.iter().all(|v| v.is_finite())
            && self.lambda.iter().all(|v| v.is_finite())
    }
}

/// The augmented Lagrangian of an [`NlpProblem`] as a [`SmoothFn`].
struct AugLagFn<'a, P: NlpProblem> {
    p: &'a P,
    lambda: Vec<f64>,
    rho: f64,
    // Scratch.
    c: Vec<f64>,
    jac_vals: Vec<f64>,
    jac: CsrMatrix,
    hess_vals: Vec<f64>,
    hess: SymTriplets,
    jv: Vec<f64>,
    lambda_eff: Vec<f64>,
}

impl<'a, P: NlpProblem> AugLagFn<'a, P> {
    fn new(p: &'a P, lambda: Vec<f64>, rho: f64) -> Self {
        let m = p.num_constraints();
        let n = p.num_vars();
        let jstruct = p.jacobian_structure();
        let hstruct = p.hessian_structure();
        AugLagFn {
            p,
            lambda,
            rho,
            c: vec![0.0; m],
            jac_vals: vec![0.0; jstruct.len()],
            jac: CsrMatrix::from_structure(m, n, &jstruct),
            hess_vals: vec![0.0; hstruct.len()],
            hess: SymTriplets::from_structure(n, &hstruct),
            jv: vec![0.0; m],
            lambda_eff: vec![0.0; m],
        }
    }
}

impl<P: NlpProblem> SmoothFn for AugLagFn<'_, P> {
    fn n(&self) -> usize {
        self.p.num_vars()
    }

    fn value(&mut self, x: &[f64]) -> f64 {
        let f = self.p.objective(x);
        self.p.constraints(x, &mut self.c);
        let mut v = f;
        for (i, &ci) in self.c.iter().enumerate() {
            v += -self.lambda[i] * ci + 0.5 * self.rho * ci * ci;
        }
        v
    }

    fn grad(&mut self, x: &[f64], g: &mut [f64]) {
        self.p.gradient(x, g);
        self.p.constraints(x, &mut self.c);
        self.p.jacobian_values(x, &mut self.jac_vals);
        self.jac.set_values(&self.jac_vals);
        // g += J' (rho c - lambda)
        for i in 0..self.c.len() {
            self.jv[i] = self.rho * self.c[i] - self.lambda[i];
        }
        self.jac.mul_transpose_vec_add(&self.jv, g);
    }

    fn prepare_hess(&mut self, x: &[f64]) {
        self.p.constraints(x, &mut self.c);
        self.p.jacobian_values(x, &mut self.jac_vals);
        self.jac.set_values(&self.jac_vals);
        // Lagrangian part with effective multipliers rho c - lambda
        // (trait convention: H = sigma H_f + sum lambda_i H_ci).
        for i in 0..self.c.len() {
            self.lambda_eff[i] = self.rho * self.c[i] - self.lambda[i];
        }
        self.p
            .hessian_values(x, 1.0, &self.lambda_eff, &mut self.hess_vals);
        self.hess.set_values(&self.hess_vals);
    }

    fn hess_vec(&mut self, v: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        self.hess.mul_vec_add(v, out);
        // Gauss-Newton term rho J' (J v), through the reused `jv` scratch:
        // this runs once per CG iteration and must not allocate.
        self.jac.mul_vec(v, &mut self.jv);
        for e in self.jv.iter_mut() {
            *e *= self.rho;
        }
        self.jac.mul_transpose_vec_add(&self.jv, out);
    }
}

fn c_inf_norm(c: &[f64]) -> f64 {
    c.iter().fold(0.0f64, |a, &v| a.max(v.abs()))
}

/// Evaluations performed between two cache-counter snapshots, so a solve
/// over a reused [`CachedProblem`] reports only its own work.
fn counts_since(now: EvalCounts, before: EvalCounts) -> EvalCounts {
    EvalCounts {
        objective: now.objective - before.objective,
        gradient: now.gradient - before.gradient,
        constraints: now.constraints - before.constraints,
        jacobian: now.jacobian - before.jacobian,
        hessian: now.hessian - before.hessian,
    }
}

/// Solves the problem with the augmented-Lagrangian method starting from
/// `x0` (projected into the bounds).
///
/// Unconstrained problems (`m == 0`) collapse to a single bound-constrained
/// trust-region solve.
///
/// Equivalent to [`solve_traced`] with the disabled tracer; the traced
/// variant with a `NopSink` performs bit-identical arithmetic (same
/// iterates, same evaluation counts) — tracing only *reads* quantities
/// the solver computes anyway.
///
/// # Panics
///
/// Panics if `x0.len() != problem.num_vars()`.
pub fn solve<P: NlpProblem>(problem: &P, x0: &[f64], opts: &AugLagOptions) -> SolveResult {
    solve_traced(problem, x0, opts, Tracer::none())
}

/// [`solve`] reporting structured progress to `tracer`: one
/// `outer_iteration` convergence record per outer iteration, one
/// `inner_tr` phase span per inner solve, a `diverged` record carrying the
/// offending iterate when a non-finite value appears, and a final
/// `solve_done` record.
///
/// # Panics
///
/// Panics if `x0.len() != problem.num_vars()`.
pub fn solve_traced<P: NlpProblem>(
    problem: &P,
    x0: &[f64],
    opts: &AugLagOptions,
    tracer: Tracer<'_>,
) -> SolveResult {
    // Every evaluation below goes through a last-point cache: the merit
    // value, gradient and Hessian preparation all query constraints (and
    // the latter two the Jacobian) at the same iterate, so caching
    // removes two constraint sweeps and one Jacobian sweep per inner
    // iteration without changing a single bit of the arithmetic.
    solve_cached(&CachedProblem::new(problem), x0, None, opts, tracer)
}

/// [`solve`] seeded with the carried-over state of a previous solve.
///
/// A usable `warm` replaces the cold start (`x0`, zero multipliers,
/// `rho0`); an unusable one — wrong dimensions or non-finite, e.g. taken
/// from a diverged result — is ignored and the solve proceeds cold from
/// `x0`. Pass `None` for an explicit cold solve.
///
/// # Panics
///
/// Panics if `x0.len() != problem.num_vars()`.
pub fn solve_warm<P: NlpProblem>(
    problem: &P,
    x0: &[f64],
    warm: Option<&WarmStart>,
    opts: &AugLagOptions,
) -> SolveResult {
    solve_warm_traced(problem, x0, warm, opts, Tracer::none())
}

/// [`solve_warm`] reporting structured progress to `tracer`. When a warm
/// start is offered, a `warm_start_hit` counter records whether it was
/// accepted (1) or fell back to the cold start (0).
///
/// # Panics
///
/// Panics if `x0.len() != problem.num_vars()`.
pub fn solve_warm_traced<P: NlpProblem>(
    problem: &P,
    x0: &[f64],
    warm: Option<&WarmStart>,
    opts: &AugLagOptions,
    tracer: Tracer<'_>,
) -> SolveResult {
    solve_cached(&CachedProblem::new(problem), x0, warm, opts, tracer)
}

/// The full solver loop over a caller-owned [`CachedProblem`] — the entry
/// point for running several (warm-started) solves against one problem
/// while keeping the evaluation cache and its counters alive between
/// them. Reported [`SolveResult::evals`] are the evaluations *this* call
/// performed (the cumulative cache counters are snapshotted on entry).
///
/// # Panics
///
/// Panics if `x0.len() != problem.num_vars()`.
pub fn solve_cached<P: NlpProblem>(
    problem: &CachedProblem<'_, P>,
    x0: &[f64],
    warm: Option<&WarmStart>,
    opts: &AugLagOptions,
    tracer: Tracer<'_>,
) -> SolveResult {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    assert_eq!(x0.len(), n, "x0 length mismatch");
    let (l, u) = problem.bounds();
    let started = Instant::now();
    let counts0 = problem.counts();

    sgs_metrics::incr(sgs_metrics::Counter::NlpSolves);
    let accepted = warm.filter(|w| w.is_usable(n, m));
    if warm.is_some() {
        sgs_metrics::incr(sgs_metrics::Counter::NlpWarmOffered);
        if accepted.is_some() {
            sgs_metrics::incr(sgs_metrics::Counter::NlpWarmAccepted);
        }
        tracer.emit(|| TraceEvent::Counter {
            name: "warm_start_hit",
            value: u64::from(accepted.is_some()),
        });
    }
    let mut x = accepted.map_or_else(|| x0.to_vec(), |w| w.x.clone());
    tr::project(&mut x, l, u);
    let mut lambda = accepted.map_or_else(|| vec![0.0; m], |w| w.lambda.clone());
    let mut rho = accepted.map_or(opts.rho0, |w| w.rho);
    // Conn-Gould-Toint tolerance schedules.
    let mut omega = 1.0 / rho;
    let mut eta = 1.0 / rho.powf(0.1);
    let mut inner_total = 0usize;
    let mut cg_total = 0usize;

    let mut c = vec![0.0; m];
    let mut last_pg = f64::INFINITY;

    // Everything the ~245 inner and ~6,900 CG iterations touch is
    // allocated exactly once, here: the augmented-Lagrangian scratch
    // (constraint, multiplier and CSR value buffers) and the trust-region
    // workspace. The outer loop only refreshes `lambda`/`rho` in place.
    let mut al = AugLagFn::new(problem, lambda.clone(), rho);
    let mut ws = tr::SolveWorkspace::new(n);

    // Every exit funnels through here so the trace always ends with a
    // solve_done record matching the returned result.
    let finish = |x: Vec<f64>,
                  cn: f64,
                  lambda: Vec<f64>,
                  rho: f64,
                  outer_iterations: usize,
                  inner_total: usize,
                  cg_total: usize,
                  status: SolveStatus| {
        let result = SolveResult {
            f: problem.objective(&x),
            c_norm: cn,
            x,
            lambda,
            rho,
            outer_iterations,
            inner_iterations: inner_total,
            cg_iterations: cg_total,
            evals: counts_since(problem.counts(), counts0),
            status,
        };
        {
            use sgs_metrics::{add, incr, set_gauge, Counter, Gauge};
            if result.status == SolveStatus::Diverged {
                incr(Counter::NlpDiverged);
            }
            add(Counter::NlpEvalsObjective, result.evals.objective as u64);
            add(Counter::NlpEvalsGradient, result.evals.gradient as u64);
            add(
                Counter::NlpEvalsConstraints,
                result.evals.constraints as u64,
            );
            add(Counter::NlpEvalsJacobian, result.evals.jacobian as u64);
            add(Counter::NlpEvalsHessian, result.evals.hessian as u64);
            set_gauge(Gauge::NlpLastObjective, result.f);
            set_gauge(Gauge::NlpLastCNorm, result.c_norm);
        }
        tracer.emit(|| {
            TraceEvent::SolveDone(SolveRecord {
                status: result.status.as_str().to_string(),
                objective: result.f,
                c_norm: result.c_norm,
                outer_iterations: result.outer_iterations,
                inner_iterations: result.inner_iterations,
                evals: result.evals.into(),
            })
        });
        result
    };

    for outer in 0..opts.max_outer {
        // Wall-clock budget: checked at outer-iteration boundaries only,
        // so a within-budget run is untouched and an over-budget run
        // still returns a consistent (projected, evaluated) point.
        if outer > 0 {
            if let Some(max_seconds) = opts.max_seconds {
                if started.elapsed().as_secs_f64() > max_seconds {
                    problem.constraints(&x, &mut c);
                    let cn = c_inf_norm(&c);
                    return finish(
                        x,
                        cn,
                        lambda,
                        rho,
                        outer,
                        inner_total,
                        cg_total,
                        SolveStatus::TimeBudget,
                    );
                }
            }
        }

        // Dropped at every exit from this loop body (including the early
        // returns below), recording the iteration's wall-clock.
        let _outer_timer = sgs_metrics::time_hist(sgs_metrics::HistId::NlpOuterSeconds);
        al.lambda.copy_from_slice(&lambda);
        al.rho = rho;
        let inner_opts = TrOptions {
            tol: omega.max(opts.tol_opt * 0.1),
            ..opts.inner.clone()
        };
        let x_prev = x.clone();
        let inner_phase = sgs_metrics::phase(tracer, sgs_metrics::Phase::InnerTr);
        let r = tr::minimize_with(&mut al, &x, l, u, &inner_opts, &mut ws);
        drop(inner_phase);
        x = r.x;
        inner_total += r.iterations;
        cg_total += r.cg_iterations;
        last_pg = r.pg_norm;
        {
            use sgs_metrics::{add, incr, set_gauge, Counter, Gauge};
            incr(Counter::NlpOuterIterations);
            add(Counter::NlpInnerIterations, r.iterations as u64);
            add(Counter::NlpCgIterations, r.cg_iterations as u64);
            set_gauge(Gauge::NlpLastPgNorm, r.pg_norm);
        }

        problem.constraints(&x, &mut c);
        let cn = c_inf_norm(&c);

        // Stall detection input, doubling as the step-acceptance flag of
        // the convergence record: did the inner solve move the iterate?
        let moved = x
            .iter()
            .zip(&x_prev)
            .any(|(a, b)| (a - b).abs() > 1e-12 * (1.0 + a.abs()));

        tracer.emit(|| {
            TraceEvent::Outer(OuterRecord {
                outer,
                merit: r.f,
                c_norm: cn,
                pg_norm: r.pg_norm,
                rho,
                lambda_norm: lambda.iter().fold(0.0f64, |a, &v| a.max(v.abs())),
                inner_iterations: r.iterations,
                cg_iterations: r.cg_iterations,
                step_accepted: moved,
                inner_converged: r.converged,
            })
        });

        // NaN/Inf guard: a non-finite merit value, constraint norm or
        // iterate coordinate — or an inner solve stuck against
        // non-finite trial values (`bad_point`) — means the run left the
        // region where the model is meaningful. Stop with a structured
        // status instead of iterating on garbage; the trace records the
        // offending iterate.
        let poisoned = if !r.f.is_finite() {
            Some("inner merit value is non-finite")
        } else if !cn.is_finite() {
            Some("constraint norm is non-finite")
        } else if x.iter().any(|v| !v.is_finite()) {
            Some("iterate contains non-finite coordinates")
        } else if r.bad_point.is_some() {
            Some("inner solve stuck against non-finite trial values")
        } else {
            None
        };
        if let Some(detail) = poisoned {
            tracer.emit(|| TraceEvent::Diverged {
                outer,
                detail: detail.to_string(),
                x: r.bad_point.clone().unwrap_or_else(|| x.clone()),
            });
            return finish(
                x,
                cn,
                lambda,
                rho,
                outer + 1,
                inner_total,
                cg_total,
                SolveStatus::Diverged,
            );
        }

        // Stall detection: feasible and the inner solve did not move the
        // iterate, so stop rather than spin to the iteration cap. The
        // point is first-order optimal only if its projected gradient
        // says so; an inner tolerance looser than that gradient also
        // leaves the iterate unmoved.
        if cn <= opts.tol_feas && !moved && outer > 0 {
            let status = if last_pg <= opts.tol_opt {
                SolveStatus::Converged
            } else {
                SolveStatus::Stalled
            };
            return finish(x, cn, lambda, rho, outer + 1, inner_total, cg_total, status);
        }

        if m == 0 || cn <= eta.max(opts.tol_feas) {
            if cn <= opts.tol_feas && last_pg <= opts.tol_opt {
                return finish(
                    x,
                    cn,
                    lambda,
                    rho,
                    outer + 1,
                    inner_total,
                    cg_total,
                    SolveStatus::Converged,
                );
            }
            // First-order multiplier update; tighten both tolerances.
            for i in 0..m {
                lambda[i] -= rho * c[i];
            }
            eta /= rho.powf(0.9);
            omega /= rho;
        } else {
            rho *= opts.rho_mult;
            if rho > opts.rho_max {
                return finish(
                    x,
                    cn,
                    lambda,
                    rho,
                    outer + 1,
                    inner_total,
                    cg_total,
                    SolveStatus::PenaltyCap,
                );
            }
            eta = 1.0 / rho.powf(0.1);
            omega = 1.0 / rho;
        }
    }

    problem.constraints(&x, &mut c);
    let cn = c_inf_norm(&c);
    let converged = cn <= opts.tol_feas && last_pg <= opts.tol_opt;
    let status = if converged {
        SolveStatus::Converged
    } else {
        SolveStatus::MaxIterations
    };
    finish(
        x,
        cn,
        lambda,
        rho,
        opts.max_outer,
        inner_total,
        cg_total,
        status,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_problems::*;

    #[test]
    fn unconstrained_rosenbrock() {
        // At rho0 = 10 the inner tolerance is still 1e-4 when an inner
        // solve first leaves the iterate unmoved (see
        // `stall_exit_is_labelled_by_the_projected_gradient`); from 100
        // the schedule reaches `tol_opt` first.
        let opts = AugLagOptions {
            rho0: 100.0,
            ..AugLagOptions::default()
        };
        let r = solve(&Rosenbrock, &[-1.2, 1.0], &opts);
        assert!(r.status.is_success(), "{r:?}");
        assert!((r.x[0] - 1.0).abs() < 1e-5);
        assert!((r.x[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn stall_exit_is_labelled_by_the_projected_gradient() {
        use sgs_trace::{MemorySink, TraceEvent};
        let sink = MemorySink::new();
        let opts = AugLagOptions::default();
        let r = solve_traced(
            &Rosenbrock,
            &[-1.2, 1.0],
            &opts,
            sgs_trace::Tracer::new(&sink),
        );
        let last = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Outer(o) => Some(o),
                _ => None,
            })
            .next_back()
            .expect("outer records");
        // Feasible and unmoved, but only because the inner tolerance
        // (1e-4) was looser than the projected gradient it left.
        assert!(!last.step_accepted && last.outer > 0, "{last:?}");
        assert!(last.pg_norm > opts.tol_opt, "{last:?}");
        assert_eq!(r.status, SolveStatus::Stalled, "{r:?}");
        assert!(!r.status.is_success());
        let done = sink.count(|e| matches!(e, TraceEvent::SolveDone(s) if s.status == "stalled"));
        assert_eq!(done, 1);
        assert!((r.x[0] - 1.0).abs() < 1e-5 && (r.x[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn linear_equality_quadratic() {
        // min x^2 + y^2 s.t. x + y = 1 -> (0.5, 0.5), lambda = 1.
        let r = solve(&SumToOne, &[3.0, -2.0], &AugLagOptions::default());
        assert!(r.status.is_success(), "{r:?}");
        assert!((r.x[0] - 0.5).abs() < 1e-5, "{:?}", r.x);
        assert!((r.x[1] - 0.5).abs() < 1e-5, "{:?}", r.x);
        assert!((r.lambda[0] - 1.0).abs() < 1e-3, "lambda {:?}", r.lambda);
    }

    #[test]
    fn hs6() {
        let r = solve(&Hs6, &[-1.2, 1.0], &AugLagOptions::default());
        assert!(r.status.is_success(), "{r:?}");
        assert!(r.f < 1e-8, "f = {}", r.f);
        assert!((r.x[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn hs7() {
        let r = solve(&Hs7, &[2.0, 2.0], &AugLagOptions::default());
        assert!(r.status.is_success(), "{r:?}");
        let want = -(3.0f64.sqrt());
        assert!((r.f - want).abs() < 1e-5, "f = {} want {}", r.f, want);
    }

    #[test]
    fn hs28() {
        let r = solve(&Hs28, &[-4.0, 1.0, 1.0], &AugLagOptions::default());
        assert!(r.status.is_success(), "{r:?}");
        assert!(r.f.abs() < 1e-7, "f = {}", r.f);
        assert!(r.c_norm < 1e-7);
    }

    #[test]
    fn hs48_and_hs51() {
        let r = solve(
            &Hs48,
            &[3.0, 5.0, -3.0, 2.0, -2.0],
            &AugLagOptions::default(),
        );
        assert!(r.status.is_success(), "{r:?}");
        assert!(r.f < 1e-8, "f = {}", r.f);
        for &xi in &r.x {
            assert!((xi - 1.0).abs() < 1e-4, "{:?}", r.x);
        }
        let r = solve(
            &Hs51,
            &[2.5, 0.5, 2.0, -1.0, 0.5],
            &AugLagOptions::default(),
        );
        assert!(r.status.is_success(), "{r:?}");
        assert!(r.f < 1e-8, "f = {}", r.f);
    }

    #[test]
    fn solutions_satisfy_kkt() {
        use crate::problem::kkt_residual;
        let r = solve(&SumToOne, &[3.0, -2.0], &AugLagOptions::default());
        assert!(kkt_residual(&SumToOne, &r.x, &r.lambda).within(1e-4));
        let r = solve(&Hs7, &[2.0, 2.0], &AugLagOptions::default());
        assert!(kkt_residual(&Hs7, &r.x, &r.lambda).within(1e-4));
        let r = solve(
            &Hs48,
            &[3.0, 5.0, -3.0, 2.0, -2.0],
            &AugLagOptions::default(),
        );
        let k = kkt_residual(&Hs48, &r.x, &r.lambda);
        assert!(k.within(1e-4), "{k:?}");
    }

    #[test]
    fn bounded_equality() {
        // min x + y s.t. x * y = 4, 1 <= x <= 10, 1 <= y <= 10.
        // Optimum x = y = 2, f = 4.
        let r = solve(&ProductBound, &[5.0, 5.0], &AugLagOptions::default());
        assert!(r.status.is_success(), "{r:?}");
        assert!((r.x[0] - 2.0).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] - 2.0).abs() < 1e-4, "{:?}", r.x);
    }

    #[test]
    fn active_bound_with_constraint() {
        // min x + y s.t. x * y = 4, x >= 4 forces x = 4, y = 1.
        let p = ProductBoundTight;
        let r = solve(&p, &[5.0, 2.0], &AugLagOptions::default());
        assert!(r.status.is_success(), "{r:?}");
        assert!((r.x[0] - 4.0).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-4, "{:?}", r.x);
    }

    #[test]
    fn infeasible_detected_by_penalty_cap() {
        // c(x) = x^2 + 1 = 0 has no real solution.
        let r = solve(
            &Infeasible,
            &[0.5],
            &AugLagOptions {
                max_outer: 60,
                ..Default::default()
            },
        );
        assert!(!r.status.is_success());
    }

    #[test]
    fn slack_inequality_pattern() {
        // min (x-3)^2 s.t. x <= 1 encoded as x + s - 1 = 0, s >= 0.
        let r = solve(&SlackIneq, &[0.0, 0.0], &AugLagOptions::default());
        assert!(r.status.is_success(), "{r:?}");
        assert!((r.x[0] - 1.0).abs() < 1e-5, "{:?}", r.x);
    }

    /// Counts underlying evaluations and the distinct points they were
    /// requested at, to prove the solver's evaluation cache works.
    struct Counting<'a, P: NlpProblem> {
        inner: &'a P,
        constraint_calls: std::cell::Cell<usize>,
        jacobian_calls: std::cell::Cell<usize>,
        constraint_points: std::cell::RefCell<std::collections::HashSet<Vec<u64>>>,
        jacobian_points: std::cell::RefCell<std::collections::HashSet<Vec<u64>>>,
    }

    impl<'a, P: NlpProblem> Counting<'a, P> {
        fn new(inner: &'a P) -> Self {
            Counting {
                inner,
                constraint_calls: Default::default(),
                jacobian_calls: Default::default(),
                constraint_points: Default::default(),
                jacobian_points: Default::default(),
            }
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    impl<P: NlpProblem> NlpProblem for Counting<'_, P> {
        fn num_vars(&self) -> usize {
            self.inner.num_vars()
        }
        fn num_constraints(&self) -> usize {
            self.inner.num_constraints()
        }
        fn bounds(&self) -> (&[f64], &[f64]) {
            self.inner.bounds()
        }
        fn objective(&self, x: &[f64]) -> f64 {
            self.inner.objective(x)
        }
        fn gradient(&self, x: &[f64], g: &mut [f64]) {
            self.inner.gradient(x, g)
        }
        fn constraints(&self, x: &[f64], c: &mut [f64]) {
            self.constraint_calls.set(self.constraint_calls.get() + 1);
            self.constraint_points.borrow_mut().insert(bits(x));
            self.inner.constraints(x, c)
        }
        fn jacobian_structure(&self) -> Vec<(usize, usize)> {
            self.inner.jacobian_structure()
        }
        fn jacobian_values(&self, x: &[f64], vals: &mut [f64]) {
            self.jacobian_calls.set(self.jacobian_calls.get() + 1);
            self.jacobian_points.borrow_mut().insert(bits(x));
            self.inner.jacobian_values(x, vals)
        }
        fn hessian_structure(&self) -> Vec<(usize, usize)> {
            self.inner.hessian_structure()
        }
        fn hessian_values(&self, x: &[f64], sigma: f64, lambda: &[f64], vals: &mut [f64]) {
            self.inner.hessian_values(x, sigma, lambda, vals)
        }
    }

    #[test]
    fn cache_eliminates_same_point_reevaluation() {
        // Without the cache the merit value, gradient and Hessian prep
        // each evaluate constraints(x) (3x) and the latter two
        // jacobian_values(x) (2x) per inner iteration. With the cache,
        // every distinct point is evaluated at most once per quantity —
        // the counts below are exact equalities against the number of
        // distinct points seen.
        {
            let counting = Counting::new(&SumToOne);
            let r = solve(&counting, &[3.0, -2.0], &AugLagOptions::default());
            assert!(r.status.is_success(), "{r:?}");
            let c_calls = counting.constraint_calls.get();
            let c_points = counting.constraint_points.borrow().len();
            let j_calls = counting.jacobian_calls.get();
            let j_points = counting.jacobian_points.borrow().len();
            assert_eq!(
                c_calls, c_points,
                "constraints evaluated {c_calls}x for {c_points} distinct points"
            );
            assert_eq!(
                j_calls, j_points,
                "jacobian evaluated {j_calls}x for {j_points} distinct points"
            );
            // And the counter surfaced in the result agrees.
            assert_eq!(r.evals.constraints, c_calls);
            assert_eq!(r.evals.jacobian, j_calls);
        }
    }

    #[test]
    fn poisoned_objective_returns_diverged_with_iterate_in_trace() {
        use sgs_trace::{MemorySink, TraceEvent};
        let poisoned = PoisonAfter::new(&Hs7, 3);
        let sink = MemorySink::new();
        let r = solve_traced(
            &poisoned,
            &[2.0, 2.0],
            &AugLagOptions::default(),
            sgs_trace::Tracer::new(&sink),
        );
        assert_eq!(r.status, SolveStatus::Diverged, "{r:?}");
        assert!(!r.status.is_success());
        let diverged: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Diverged { outer, detail, x } => Some((outer, detail, x)),
                _ => None,
            })
            .collect();
        assert_eq!(diverged.len(), 1, "exactly one divergence record");
        let (_, detail, x) = &diverged[0];
        assert!(detail.contains("non-finite"), "{detail}");
        assert_eq!(x.len(), 2, "offending iterate recorded");
        // The final status record must agree.
        let done = sink.count(|e| matches!(e, TraceEvent::SolveDone(s) if s.status == "diverged"));
        assert_eq!(done, 1);
    }

    #[test]
    fn healthy_solve_emits_one_record_per_outer_iteration() {
        use sgs_trace::{MemorySink, TraceEvent};
        let sink = MemorySink::new();
        let r = solve_traced(
            &Hs7,
            &[2.0, 2.0],
            &AugLagOptions::default(),
            sgs_trace::Tracer::new(&sink),
        );
        assert!(r.status.is_success());
        let outer_records = sink.count(|e| matches!(e, TraceEvent::Outer(_)));
        assert_eq!(outer_records, r.outer_iterations);
        let spans = sink.count(|e| {
            matches!(
                e,
                TraceEvent::PhaseSpan {
                    phase: "inner_tr",
                    ..
                }
            )
        });
        assert_eq!(spans, r.outer_iterations);
        assert_eq!(sink.count(|e| matches!(e, TraceEvent::SolveDone(_))), 1);
    }

    #[test]
    fn nop_sink_solve_is_bit_identical_to_untraced() {
        let a = solve(&Hs7, &[2.0, 2.0], &AugLagOptions::default());
        let b = solve_traced(
            &Hs7,
            &[2.0, 2.0],
            &AugLagOptions::default(),
            sgs_trace::Tracer::none(),
        );
        let sink = sgs_trace::MemorySink::new();
        let c = solve_traced(
            &Hs7,
            &[2.0, 2.0],
            &AugLagOptions::default(),
            sgs_trace::Tracer::new(&sink),
        );
        for other in [&b, &c] {
            assert_eq!(a.x, other.x);
            assert_eq!(a.f.to_bits(), other.f.to_bits());
            assert_eq!(a.evals, other.evals);
            assert_eq!(a.status, other.status);
        }
    }

    #[test]
    fn time_budget_returns_structured_status() {
        // A zero budget trips at the first outer-iteration boundary.
        let r = solve(
            &Hs7,
            &[2.0, 2.0],
            &AugLagOptions {
                max_seconds: Some(0.0),
                ..Default::default()
            },
        );
        assert_eq!(r.status, SolveStatus::TimeBudget, "{r:?}");
        assert!(r.outer_iterations >= 1);
        assert!(r.x.iter().all(|v| v.is_finite()));
        // A generous budget never trips.
        let r = solve(
            &Hs7,
            &[2.0, 2.0],
            &AugLagOptions {
                max_seconds: Some(1e6),
                ..Default::default()
            },
        );
        assert!(r.status.is_success());
    }

    #[test]
    fn status_tags_are_stable() {
        assert_eq!(SolveStatus::Converged.as_str(), "converged");
        assert_eq!(SolveStatus::Diverged.as_str(), "diverged");
        assert_eq!(SolveStatus::TimeBudget.as_str(), "time_budget");
        assert_eq!(SolveStatus::PenaltyCap.as_str(), "penalty_cap");
        assert_eq!(SolveStatus::MaxIterations.as_str(), "max_iterations");
        assert_eq!(SolveStatus::Stalled.as_str(), "stalled");
    }

    #[test]
    fn cached_solve_matches_uncached_trajectory() {
        // The cache must be a pure memo: solving through it yields the
        // exact same iterate as the seed implementation did (the final
        // point of Hs7 with default options), bit-for-bit determinism
        // being guaranteed by bitwise-x keying.
        let a = solve(&Hs7, &[2.0, 2.0], &AugLagOptions::default());
        let b = solve(&Hs7, &[2.0, 2.0], &AugLagOptions::default());
        assert_eq!(a.x, b.x);
        assert_eq!(a.f.to_bits(), b.f.to_bits());
        assert_eq!(a.evals, b.evals);
    }
}
