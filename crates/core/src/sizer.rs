//! Sizing configuration and results. [`Sizer::solve`] is a fresh
//! [`Resolver`]'s cold solve (see [`crate::resolve`]) under either
//! [`SolverChoice`], so a one-shot solve and a session's first solve (the
//! daemon's `/solve`, a sweep's anchor) give the same bits. Every
//! [`SizingResult`] names the candidate it reports ([`AnswerSource`]).

use crate::reduced::{self, Multipliers, ReducedOptions, ReducedResult};
use crate::resolve::Resolver;
use crate::spec::{DelaySpec, Objective};
use sgs_netlist::{Circuit, Library};
use sgs_nlp::auglag::{AugLagOptions, SolveStatus};
use sgs_nlp::EvalCounts;
use sgs_statmath::Normal;
use sgs_trace::{TraceEvent, TraceSink, Tracer};
use std::error::Error;
use std::fmt;

/// Which solver carries the optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// The reduced-space seed alone (adjoint gradients and exact
    /// Hessian-vector products in projected truncated Newton, delay
    /// constraints by a multiplier loop; see [`crate::reduced`]). Default.
    #[default]
    ReducedSpace,
    /// The paper's path: the seed, then the full-space
    /// augmented-Lagrangian solve of the NLP (Eq. 17/18) from it, then a
    /// pick between the two by clean objective and spec violation.
    FullSpace,
}

/// Errors from [`Sizer::solve`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SizeError {
    /// The optimiser failed to converge to a feasible first-order point.
    SolverFailed {
        /// Solver status.
        status: String,
        /// Final constraint violation.
        c_norm: f64,
    },
    /// An attached [`Preflight`] gate refused the task before any solver
    /// iteration ran (Error-severity static-analysis findings).
    PreflightFailed {
        /// Human-readable summary of the blocking findings.
        summary: String,
    },
}

impl fmt::Display for SizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizeError::SolverFailed { status, c_norm } => {
                write!(f, "sizing solver failed ({status}, |c| = {c_norm:.2e})")
            }
            SizeError::PreflightFailed { summary } => {
                write!(f, "pre-solve static analysis refused the task: {summary}")
            }
        }
    }
}

impl Error for SizeError {}

/// A pre-solve static gate the [`Sizer`] runs before building or solving
/// anything.
///
/// Implemented by `sgs-analyze` (which this crate cannot depend on — the
/// dependency points the other way), so the sizer can refuse to start on
/// Error-severity findings without knowing how they are produced. A
/// failing check aborts [`Sizer::solve`] with
/// [`SizeError::PreflightFailed`] and costs no solver iterations.
pub trait Preflight {
    /// Checks the exact task the sizer is about to run. `Err` carries a
    /// human-readable summary of the blocking findings.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the task must not be solved (the implementor's
    /// severity policy decides what blocks).
    fn check(
        &self,
        circuit: &Circuit,
        lib: &Library,
        objective: &Objective,
        delay_spec: &DelaySpec,
    ) -> Result<(), String>;
}

/// Which candidate of the solve pipeline a [`SizingResult`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerSource {
    /// The augmented-Lagrangian solve's point
    /// ([`SolverChoice::FullSpace`] only).
    AugLag,
    /// The reduced-space seed: every [`SolverChoice::ReducedSpace`]
    /// answer, and a full-space one whose AL point is infeasible or no
    /// better.
    Seed,
}

impl AnswerSource {
    /// Stable lowercase tag for machine-readable reports.
    pub fn as_str(self) -> &'static str {
        match self {
            AnswerSource::AugLag => "auglag",
            AnswerSource::Seed => "seed",
        }
    }
}

/// Result of a sizing run.
#[derive(Debug, Clone)]
pub struct SizingResult {
    /// Optimised speed factors, one per gate.
    pub s: Vec<f64>,
    /// Circuit delay distribution at `s` (recomputed by a clean SSTA pass
    /// — i.e. `(mu_Tmax, sigma_Tmax)` as the paper's tables report).
    pub delay: Normal,
    /// Area measure `sum S_i`.
    pub area: f64,
    /// Objective value reached.
    pub objective: f64,
    /// Outer iterations: the seed's multiplier rounds under
    /// [`SolverChoice::ReducedSpace`], the AL's outer iterations under
    /// [`SolverChoice::FullSpace`] (also when the seed won).
    pub outer_iterations: usize,
    /// Inner iterations: the seed's truncated-Newton iterations, or the
    /// AL's trust-region iterations.
    pub inner_iterations: usize,
    /// Residual of the reported candidate: the AL's constraint violation,
    /// or the seed's delay-spec violation.
    pub c_norm: f64,
    /// Wall-clock seconds spent in the solver.
    pub seconds: f64,
    /// Underlying NLP evaluations performed by the full-space solve
    /// (zeros under [`SolverChoice::ReducedSpace`], which counts Newton
    /// iterations instead).
    pub evals: EvalCounts,
    /// How many Clark-max evaluations clamped a negative variance to zero
    /// during this solve (delta of
    /// [`sgs_statmath::clark::var_clamp_count`]; a process-global counter,
    /// so concurrent solves may inflate each other's delta). Also emitted
    /// as the `clark_var_clamped` trace counter.
    pub clark_var_clamps: u64,
    /// Which candidate this answer is.
    pub source: AnswerSource,
    /// How the solver that sets `outer_iterations` ended: for the seed,
    /// [`SolveStatus::Converged`] when its multiplier loop ended on its
    /// convergence test, else [`SolveStatus::MaxIterations`] (the last
    /// round hit the Newton iteration cap, or the rounds ran out; see
    /// [`reduced::ReducedResult::status`]); for the AL, its own status,
    /// also when the seed won.
    pub status: SolveStatus,
}

impl SizingResult {
    /// `mu_Tmax + k sigma_Tmax` at the solution.
    pub fn mean_plus_k_sigma(&self, k: f64) -> f64 {
        self.delay.mean_plus_k_sigma(k)
    }
}

/// Builder-style driver for sizing runs.
///
/// ```
/// use sgs_core::{DelaySpec, Objective, Sizer};
/// use sgs_netlist::{generate, Library};
///
/// let circuit = generate::tree7();
/// let lib = Library::paper_default();
/// let result = Sizer::new(&circuit, &lib)
///     .objective(Objective::Area)
///     .delay_spec(DelaySpec::MaxMean(6.5))
///     .solve()?;
/// assert!(result.delay.mean() <= 6.5 + 1e-3);
/// # Ok::<(), sgs_core::SizeError>(())
/// ```
#[derive(Clone)]
pub struct Sizer<'a> {
    pub(crate) circuit: &'a Circuit,
    pub(crate) lib: &'a Library,
    pub(crate) objective: Objective,
    pub(crate) delay_spec: DelaySpec,
    pub(crate) solver: SolverChoice,
    /// The AL's options under [`SolverChoice::FullSpace`]; its seeded
    /// start uses `rho0` as the penalty parameter.
    pub(crate) al_options: AugLagOptions,
    pub(crate) s0: Option<Vec<f64>>,
    pub(crate) input_arrivals: Option<Vec<Normal>>,
    trace: Option<&'a dyn TraceSink>,
    pub(crate) poison_nan_after: Option<usize>,
    preflight: Option<&'a dyn Preflight>,
}

impl fmt::Debug for Sizer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sizer")
            .field("objective", &self.objective)
            .field("delay_spec", &self.delay_spec)
            .field("solver", &self.solver)
            .field("al_options", &self.al_options)
            .field("s0", &self.s0)
            .field("input_arrivals", &self.input_arrivals)
            .field("trace", &self.trace.map(|_| "dyn TraceSink"))
            .field("poison_nan_after", &self.poison_nan_after)
            .field("preflight", &self.preflight.map(|_| "dyn Preflight"))
            .finish()
    }
}

impl<'a> Sizer<'a> {
    /// Starts a sizing run with the default objective
    /// ([`Objective::MeanDelay`]) and no delay constraint.
    pub fn new(circuit: &'a Circuit, lib: &'a Library) -> Self {
        Sizer {
            circuit,
            lib,
            objective: Objective::MeanDelay,
            delay_spec: DelaySpec::None,
            solver: SolverChoice::default(),
            al_options: AugLagOptions {
                tol_feas: 1e-6,
                tol_opt: 1e-4,
                ..Default::default()
            },
            s0: None,
            input_arrivals: None,
            trace: None,
            poison_nan_after: None,
            preflight: None,
        }
    }

    /// Attaches a pre-solve static gate (see [`Preflight`]); the solve
    /// then refuses to start — with [`SizeError::PreflightFailed`] — when
    /// the gate rejects the task. Default is no gate.
    pub fn preflight(mut self, gate: &'a dyn Preflight) -> Self {
        self.preflight = Some(gate);
        self
    }

    /// Attaches a trace sink. The solve then emits phase spans
    /// (`build_problem` when the resolver is built, then `reduced_space`,
    /// `evaluate`, and `auglag` under [`SolverChoice::FullSpace`]), one
    /// outer-iteration record per round of the reporting solver (the
    /// seed's multiplier loop, or the AL) and its `solve_done` record,
    /// and the AL's divergence events. The default is no sink, which
    /// costs nothing on the hot path.
    pub fn trace(mut self, sink: &'a dyn TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Fault injection for robustness tests: the full-space NLP objective
    /// returns `NaN` from its `n`-th evaluation onward (per solve).
    /// Exercises the AL's divergence detection and the pick of the seed
    /// under [`SolverChoice::FullSpace`] deterministically; never use
    /// outside tests.
    pub fn poison_nan_after(mut self, n: usize) -> Self {
        self.poison_nan_after = Some(n);
        self
    }

    /// Sets the objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the delay constraint.
    pub fn delay_spec(mut self, spec: DelaySpec) -> Self {
        self.delay_spec = spec;
        self
    }

    /// Selects the solver.
    pub fn solver(mut self, solver: SolverChoice) -> Self {
        self.solver = solver;
        self
    }

    /// Supplies explicit starting speed factors (default: all 1), where
    /// the reduced-space seed starts.
    pub fn initial_s(mut self, s0: Vec<f64>) -> Self {
        self.s0 = Some(s0);
        self
    }

    /// Supplies primary-input arrival-time distributions (default:
    /// deterministic arrival at 0, the paper's setting). Use this to size
    /// under uncertain upstream-block or interface timing.
    pub fn input_arrivals(mut self, arrivals: Vec<Normal>) -> Self {
        self.input_arrivals = Some(arrivals);
        self
    }

    /// Converts this configuration into a [`Resolver`], which runs
    /// [`Sizer::solve`], warm re-solves and what-if queries.
    pub fn resolver(self) -> Resolver<'a> {
        Resolver::configured(self)
    }

    /// Runs the optimisation: the pre-solve gate, then a [`Resolver`]'s
    /// cold solve.
    ///
    /// # Errors
    ///
    /// Returns [`SizeError::PreflightFailed`] when the attached gate
    /// refuses the task, and [`SizeError::SolverFailed`] when no candidate
    /// meets the delay spec.
    pub fn solve(&self) -> Result<SizingResult, SizeError> {
        sgs_metrics::incr(sgs_metrics::Counter::SizerSolves);
        if let Some(gate) = self.preflight {
            let _sp = self.tracer().span("preflight");
            let _ph = sgs_metrics::phase(sgs_metrics::Phase::Preflight);
            gate.check(self.circuit, self.lib, &self.objective, &self.delay_spec)
                .map_err(|summary| {
                    sgs_metrics::incr(sgs_metrics::Counter::SizerPreflightRejections);
                    SizeError::PreflightFailed { summary }
                })?;
        }
        Ok(self.clone().resolver().solve()?.result)
    }

    /// The reduced-space seed from `s0` and, when given, a previous run's
    /// multipliers: projected truncated Newton with adjoint gradients and
    /// Hessian-vector products inside a method-of-multipliers loop on
    /// shifted deadlines (see [`reduced`]), its rounds traced to `tracer`.
    pub(crate) fn reduced_seed(
        &self,
        s0: &[f64],
        start: Option<&Multipliers>,
        tracer: Tracer<'_>,
    ) -> ReducedResult {
        let _ph = sgs_metrics::phase(sgs_metrics::Phase::ReducedSpace);
        reduced::solve_reduced_with_arrivals(
            self.circuit,
            self.lib,
            self.objective.clone(),
            self.delay_spec.clone(),
            s0,
            &ReducedOptions::default(),
            self.input_arrivals.as_deref(),
            start,
            tracer,
        )
    }

    pub(crate) fn tracer(&self) -> Tracer<'a> {
        match self.trace {
            Some(sink) => Tracer::new(sink),
            None => Tracer::none(),
        }
    }
}

/// Delta of the process-global Clark variance-clamp counter since
/// `before`, emitted as the `clark_var_clamped` trace counter. The
/// metrics-registry total is maintained at the clamp sites themselves, so
/// concurrent solves cannot double-count each other's clamps.
pub(crate) fn clamp_delta(tracer: Tracer<'_>, before: u64) -> u64 {
    let delta = sgs_statmath::clark::var_clamp_count().saturating_sub(before);
    tracer.emit(|| TraceEvent::Counter {
        name: "clark_var_clamped",
        value: delta,
    });
    delta
}

/// Objective value at speed factors `s` with clean-SSTA delay `delay`.
pub(crate) fn objective_value(objective: &Objective, s: &[f64], delay: Normal) -> f64 {
    let mu = delay.mean();
    let sigma = delay.sigma();
    match objective {
        Objective::Area => s.iter().sum(),
        Objective::WeightedArea(w) => s.iter().zip(w).map(|(a, b)| a * b).sum(),
        Objective::MeanDelay => mu,
        Objective::MeanPlusKSigma(k) => mu + k * sigma,
        Objective::Sigma => sigma,
        Objective::NegSigma => -sigma,
    }
}

/// Delay-spec violation given clean per-gate arrivals and circuit delay.
/// Generic over the arrival storage layout so both report vectors and the
/// incremental engine's structure-of-arrays state can be checked without
/// a conversion copy.
pub(crate) fn spec_violation<A: sgs_ssta::ArrivalRead + ?Sized>(
    spec: &DelaySpec,
    circuit: &Circuit,
    arrivals: &A,
    delay: Normal,
) -> f64 {
    let mu = delay.mean();
    let sigma = delay.sigma();
    match spec {
        DelaySpec::None => 0.0,
        DelaySpec::MaxMean(d) => (mu - d).max(0.0),
        DelaySpec::MaxMeanPlusKSigma { k, d } => (mu + k * sigma - d).max(0.0),
        DelaySpec::ExactMean(d) => (mu - d).abs(),
        DelaySpec::PerOutput { k, d } => circuit
            .outputs()
            .iter()
            .zip(d)
            .map(|(&o, &d_o)| {
                let a = arrivals.arrival(o.index());
                (a.mean() + k * a.sigma() - d_o).max(0.0)
            })
            .fold(0.0, f64::max),
    }
}

/// Acceptable delay-spec violation, scaled to the deadline magnitude.
pub(crate) fn spec_tolerance(spec: &DelaySpec) -> f64 {
    match spec {
        DelaySpec::None => f64::INFINITY,
        DelaySpec::MaxMean(d)
        | DelaySpec::MaxMeanPlusKSigma { d, .. }
        | DelaySpec::ExactMean(d) => 1e-3 * (1.0 + d.abs()),
        DelaySpec::PerOutput { d, .. } => {
            1e-3 * (1.0 + d.iter().fold(f64::INFINITY, |a, &b| a.min(b)).abs())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_netlist::generate;
    use sgs_trace::MemorySink;

    fn lib() -> Library {
        Library::paper_default()
    }

    #[test]
    fn min_mean_delay_tree() {
        let c = generate::tree7();
        let r = Sizer::new(&c, &lib()).solve().unwrap();
        let baseline_mu = sgs_ssta::ssta(&c, &lib(), &[1.0; 7]).delay.mean();
        assert!(
            r.delay.mean() < baseline_mu - 1.0,
            "{} vs {}",
            r.delay.mean(),
            baseline_mu
        );
        assert!(r.c_norm < 1e-5);
    }

    #[test]
    fn full_and_reduced_agree_on_min_delay() {
        let c = generate::tree7();
        let full = Sizer::new(&c, &lib())
            .solver(SolverChoice::FullSpace)
            .solve()
            .unwrap();
        let red = Sizer::new(&c, &lib()).solve().unwrap();
        assert!(
            (full.delay.mean() - red.delay.mean()).abs() < 0.02,
            "full {} vs reduced {}",
            full.delay.mean(),
            red.delay.mean()
        );
    }

    #[test]
    fn min_area_unconstrained_is_all_ones() {
        let c = generate::tree7();
        let r = Sizer::new(&c, &lib())
            .objective(Objective::Area)
            .solve()
            .unwrap();
        assert!((r.area - 7.0).abs() < 1e-4, "area {}", r.area);
    }

    #[test]
    fn area_with_mean_cap_meets_deadline() {
        let c = generate::tree7();
        let r = Sizer::new(&c, &lib())
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .solve()
            .unwrap();
        assert!(r.delay.mean() <= 6.5 + 1e-3, "mu {}", r.delay.mean());
        assert!(r.area < 21.0);
    }

    #[test]
    fn sigma_objectives_bracket_area_objective() {
        // Paper Table 2: at a pinned mean, min-sigma and max-sigma bracket
        // the min-area solution's sigma.
        let c = generate::tree7();
        let d = 6.5;
        let area = Sizer::new(&c, &lib())
            .objective(Objective::Area)
            .delay_spec(DelaySpec::ExactMean(d))
            .solve()
            .unwrap();
        let min_sigma = Sizer::new(&c, &lib())
            .objective(Objective::Sigma)
            .delay_spec(DelaySpec::ExactMean(d))
            .solve()
            .unwrap();
        let max_sigma = Sizer::new(&c, &lib())
            .objective(Objective::NegSigma)
            .delay_spec(DelaySpec::ExactMean(d))
            .solve()
            .unwrap();
        for r in [&area, &min_sigma, &max_sigma] {
            assert!(
                (r.delay.mean() - d).abs() < 5e-3,
                "pin broken: {}",
                r.delay.mean()
            );
        }
        assert!(min_sigma.delay.sigma() <= area.delay.sigma() + 1e-3);
        assert!(max_sigma.delay.sigma() >= area.delay.sigma() - 1e-3);
        assert!(max_sigma.delay.sigma() > min_sigma.delay.sigma() + 1e-3);
    }

    #[test]
    fn k_sigma_objective_trades_mean_for_sigma() {
        let c = generate::tree7();
        let mu_only = Sizer::new(&c, &lib()).solve().unwrap();
        let robust = Sizer::new(&c, &lib())
            .objective(Objective::MeanPlusKSigma(3.0))
            .solve()
            .unwrap();
        // mu+3sigma optimum has the better mu+3sigma, mu-only has the
        // better mu.
        assert!(robust.mean_plus_k_sigma(3.0) <= mu_only.mean_plus_k_sigma(3.0) + 1e-4);
        assert!(mu_only.delay.mean() <= robust.delay.mean() + 1e-4);
    }

    #[test]
    fn poisoned_full_space_recovers_and_traces_restarts() {
        // The full-space solve is poisoned to NaN mid-solve; the run must
        // still return a feasible sizing (the reduced seed) and leave
        // evidence of the divergence in the trace rather than failing or
        // silently returning garbage.
        let c = generate::tree7();
        let l = lib();
        let sink = MemorySink::new();
        let r = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .solver(SolverChoice::FullSpace)
            .poison_nan_after(0)
            .trace(&sink)
            .solve()
            .unwrap();
        assert!(r.delay.mean() <= 6.5 + 1e-3, "mu {}", r.delay.mean());
        assert!(r.s.iter().all(|v| v.is_finite() && *v >= 1.0));
        let diverged = sink.count(|e| matches!(e, TraceEvent::Diverged { .. }));
        assert!(diverged >= 1, "expected divergence evidence in the trace");
        // The AL diverged, so the answer is the reduced seed's, and so
        // must be the residual reported with it.
        assert_eq!(r.source, AnswerSource::Seed);
        assert_eq!(r.status, SolveStatus::Diverged);
        let seed = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .solve()
            .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r.s), bits(&seed.s), "the seed's sizing is returned");
        assert_eq!(
            r.c_norm.to_bits(),
            seed.c_norm.to_bits(),
            "c_norm {:e} is not the returned seed's {:e}",
            r.c_norm,
            seed.c_norm
        );
    }

    #[test]
    fn traced_solve_matches_untraced_bitwise() {
        let c = generate::tree7();
        let l = lib();
        let plain = Sizer::new(&c, &l)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .objective(Objective::Area)
            .solver(SolverChoice::FullSpace)
            .solve()
            .unwrap();
        let sink = MemorySink::new();
        let traced = Sizer::new(&c, &l)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .objective(Objective::Area)
            .solver(SolverChoice::FullSpace)
            .trace(&sink)
            .solve()
            .unwrap();
        assert_eq!(plain.s.len(), traced.s.len());
        for (a, b) in plain.s.iter().zip(&traced.s) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(plain.objective.to_bits(), traced.objective.to_bits());
        assert_eq!(plain.outer_iterations, traced.outer_iterations);
        // The trace itself carries the expected structure.
        assert!(sink.count(|e| matches!(e, TraceEvent::Outer(_))) >= 1);
        assert!(sink.span_seconds("auglag") > 0.0);
        assert!(sink.span_seconds("reduced_space") > 0.0);
    }

    #[test]
    fn rdag40_seed_is_certified_in_one_outer_iteration() {
        // The four forms `size_cold` runs on rdag40, and the bitident
        // golden's area s.t. mu+3sigma <= 20: the reduced seed is
        // first-order and feasible to the AL's tolerances, so the
        // full-space AL only has to certify it, and the default (the seed
        // alone) gives the same answer bit for bit. (With lambda = 0, min
        // mu+3sigma ran all 40 outer iterations and then reported the
        // seed.)
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/rdag40.blif");
        let text = std::fs::read_to_string(path).expect("benchmarks/rdag40.blif exists");
        let c = sgs_netlist::blif::parse(&text).expect("rdag40.blif parses");
        let l = lib();
        let unsized_delay = sgs_ssta::ssta(&c, &l, &vec![1.0; c.num_gates()]).delay;
        let forms = [
            (Objective::MeanDelay, DelaySpec::None),
            (Objective::MeanPlusKSigma(3.0), DelaySpec::None),
            (
                Objective::Area,
                DelaySpec::MaxMean(0.9 * unsized_delay.mean()),
            ),
            (
                Objective::Area,
                DelaySpec::MaxMeanPlusKSigma {
                    k: 3.0,
                    d: 0.9 * unsized_delay.mean_plus_k_sigma(3.0),
                },
            ),
            (
                Objective::Area,
                DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 20.0 },
            ),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (objective, spec) in forms {
            let label = format!("{objective} s.t. {spec:?}");
            let sizer = Sizer::new(&c, &l).objective(objective).delay_spec(spec);
            let r = sizer
                .clone()
                .solver(SolverChoice::FullSpace)
                .solve()
                .unwrap();
            assert_eq!(r.outer_iterations, 1, "{label}");
            // The AL certifies the seed without moving off it, and a tie
            // goes to the AL.
            assert_eq!(r.source, AnswerSource::AugLag, "{label}");
            assert_eq!(r.status, SolveStatus::Converged, "{label}");
            let seed = sizer.solve().unwrap();
            assert_eq!(seed.source, AnswerSource::Seed, "{label}");
            assert_eq!(seed.status, SolveStatus::Converged, "{label}");
            assert_eq!(bits(&seed.s), bits(&r.s), "{label}");
            assert_eq!(seed.objective.to_bits(), r.objective.to_bits(), "{label}");
            assert_eq!(seed.delay.mean().to_bits(), r.delay.mean().to_bits());
            assert_eq!(seed.delay.var().to_bits(), r.delay.var().to_bits());
        }
    }
}
