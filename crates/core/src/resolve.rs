//! Cold solves, warm re-solves and what-if queries.
//!
//! A [`Resolver`] runs every sizing solve: [`Sizer::solve`] is a fresh
//! resolver's cold solve, and the daemon and the sweep engine keep
//! resolvers alive. Each holds an [`IncrementalSsta`] engine at the
//! current sizes (an edit re-times only its dirty cone) and the last
//! accepted answer's sizes and seed multipliers as its warm state.
//!
//! Every solve, cold or warm, runs one pipeline:
//!
//! 1. the reduced-space seed ([`crate::reduced`]);
//! 2. under [`SolverChoice::FullSpace`] only (the paper's path), the
//!    augmented Lagrangian on the full formulation, a [`SizingProblem`]
//!    built from the current task, started from the seed's exactly
//!    feasible point with least-squares multipliers
//!    ([`SizingProblem::multiplier_estimate`]) and penalty `rho0`;
//! 3. scoring on the engine, bit for bit a full SSTA. The answer is the
//!    seed, or under `FullSpace` the better of the AL's point and the
//!    seed by clean objective and spec violation, so AL residuals never
//!    reach the reported sizing. An answer that misses the delay spec is
//!    [`SizeError::SolverFailed`].
//!
//! A **cold** solve (no answer accepted yet) starts the seed from the
//! engine's sizes with no deadline shift. A **warm** re-solve starts it
//! from the carried state: the last answer's sizes (or, for
//! [`Resolver::resolve_sizes`], the engine's perturbed ones) and the
//! shifts `θ` and weight `w` that answer's seed was minimised under, so
//! the multipliers `λ = 2wθ` carry over and a re-solve at an unchanged
//! spec is a fixed point. The answer becomes the warm state and
//! [`SizingResult::source`] names it. A failed solve leaves the warm
//! state untouched. The stages' spans tile [`SizingResult::seconds`].
//! [`Resolver::what_if`] evaluates an edit without solving.

use crate::problem::SizingProblem;
use crate::reduced::{Multipliers, ReducedResult};
use crate::sizer::{self, AnswerSource, SizeError, Sizer, SizingResult, SolverChoice};
use crate::spec::{DelaySpec, Objective};
use sgs_netlist::{Circuit, GateId, Library};
use sgs_nlp::auglag::{self, SolveResult, SolveStatus};
use sgs_nlp::{EvalCounts, NlpProblem};
use sgs_ssta::{IncrementalSsta, UpdateStats};
use sgs_statmath::Normal;
use sgs_trace::{RequestContext, TraceEvent, Tracer};
use std::cell::Cell;
use std::time::Instant;

/// Result of an evaluation-only what-if query ([`Resolver::what_if`]).
#[derive(Debug, Clone, Copy)]
pub struct WhatIfReport {
    /// Circuit delay distribution at the perturbed sizes.
    pub delay: Normal,
    /// Objective value at the perturbed sizes.
    pub objective: f64,
    /// Delay-spec violation at the perturbed sizes (`0` when met).
    pub spec_violation: f64,
    /// Dirty-cone work accounting for this query.
    pub stats: UpdateStats,
}

/// Result of a (re-)solve through the [`Resolver`].
#[derive(Debug, Clone)]
pub struct ResolveOutcome {
    /// The sizing result, fields exactly as [`Sizer::solve`] reports them
    /// (delay/objective from the engine's clean arrivals).
    pub result: SizingResult,
    /// Whether this solve started from carried warm state (always `false`
    /// for a cold solve).
    pub warm_start_hit: bool,
    /// Gates whose arrival the incremental engine recomputed during this
    /// call (perturbation, candidate scoring and the final sync), also
    /// emitted as the `gates_recomputed` trace counter.
    pub gates_recomputed: usize,
}

/// The state a warm re-solve starts from: the last accepted answer's
/// speed factors and the multipliers its reduced seed was minimised under.
#[derive(Debug)]
struct WarmStart {
    s: Vec<f64>,
    multipliers: Multipliers,
}

/// The answer a solve settled on, before it becomes a [`SizingResult`],
/// with the figures of the solver that reports it (the seed, or the AL
/// under [`SolverChoice::FullSpace`]).
struct Picked {
    s: Vec<f64>,
    objective: f64,
    c_norm: f64,
    source: AnswerSource,
    outer_iterations: usize,
    inner_iterations: usize,
    evals: EvalCounts,
    status: SolveStatus,
}

/// Runs every solve, cold or warm. Construct via [`Sizer::resolver`]
/// (carrying the sizer's configuration) or [`Resolver::new`] (defaults),
/// then alternate [`Resolver::what_if`] probes with warm
/// [`Resolver::resolve_spec`] / [`Resolver::resolve_sizes`]
/// re-optimisations.
///
/// ```
/// use sgs_core::{DelaySpec, Objective, Sizer};
/// use sgs_netlist::{generate, Library};
///
/// let circuit = generate::tree7();
/// let lib = Library::paper_default();
/// let mut resolver = Sizer::new(&circuit, &lib)
///     .objective(Objective::Area)
///     .delay_spec(DelaySpec::MaxMean(6.5))
///     .resolver();
/// let first = resolver.solve()?;
/// // Tighten the deadline and re-solve warm: same structure, new cap.
/// let tightened = resolver.resolve_spec(6.3)?;
/// assert!(tightened.warm_start_hit);
/// assert!(tightened.result.delay.mean() <= 6.3 + 1e-3);
/// assert!(tightened.result.area >= first.result.area - 1e-6);
/// # Ok::<(), sgs_core::SizeError>(())
/// ```
pub struct Resolver<'a> {
    /// The task and its options; `objective` and `delay_spec` follow the
    /// warm moves.
    config: Sizer<'a>,
    inc: IncrementalSsta<'a>,
    warm: Option<WarmStart>,
    /// Clark variance clamps of building the engine, charged to the next
    /// solve's [`SizingResult::clark_var_clamps`] (so a one-shot
    /// [`Sizer::solve`] reports every clamp it caused).
    unreported_clamps: u64,
}

impl<'a> Resolver<'a> {
    /// Builds a resolver with the [`Sizer::new`] defaults (minimise mean
    /// delay, no delay constraint).
    pub fn new(circuit: &'a Circuit, lib: &'a Library) -> Self {
        Sizer::new(circuit, lib).resolver()
    }

    /// Builds the incremental engine at the configured starting sizes
    /// (all ones unless [`Sizer::initial_s`]).
    pub(crate) fn configured(config: Sizer<'a>) -> Self {
        let clamps_before = sgs_statmath::clark::var_clamp_count();
        let _sp = config.tracer().span("build_problem");
        let _ph = sgs_metrics::phase(sgs_metrics::Phase::BuildProblem);
        let arrivals = config.input_arrivals.as_deref();
        let s0 = (config.s0.clone()).unwrap_or_else(|| vec![1.0; config.circuit.num_gates()]);
        let inc = IncrementalSsta::with_arrivals(config.circuit, config.lib, &s0, arrivals);
        Resolver {
            config,
            inc,
            warm: None,
            unreported_clamps: sgs_statmath::clark::var_clamp_count().saturating_sub(clamps_before),
        }
    }

    /// Solves the current formulation. Until an answer is accepted this
    /// is a cold solve (see the module docs); later calls re-solve warm
    /// from the previous answer's sizes, whatever what-if probes moved
    /// the engine to since.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] when the answer misses the delay spec.
    pub fn solve(&mut self) -> Result<ResolveOutcome, SizeError> {
        self.solve_traced(None)
    }

    /// [`Resolver::solve`], additionally attributing solver phases and
    /// counters to a request context (the daemon's request-scoped
    /// tracing path; `None` behaves exactly like [`Resolver::solve`]).
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] as for [`Resolver::solve`].
    pub fn solve_traced(
        &mut self,
        req: Option<&RequestContext>,
    ) -> Result<ResolveOutcome, SizeError> {
        self.run(false, 0, req)
    }

    /// Moves the deadline of the current single-deadline spec to `d` and
    /// re-solves warm from the previous solution: the seed starts from the
    /// previous answer's sizes and its deadline shift.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] as for [`Resolver::solve`] — e.g. when
    /// `d` is tighter than the circuit can meet.
    ///
    /// # Panics
    ///
    /// Panics if the configured spec is not one of [`DelaySpec::MaxMean`],
    /// [`DelaySpec::MaxMeanPlusKSigma`] or [`DelaySpec::ExactMean`] (the
    /// single-deadline forms), or if `d` is not finite.
    pub fn resolve_spec(&mut self, d: f64) -> Result<ResolveOutcome, SizeError> {
        self.resolve_spec_traced(d, None)
    }

    /// [`Resolver::resolve_spec`] with request-scoped tracing attached.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] as for [`Resolver::resolve_spec`].
    ///
    /// # Panics
    ///
    /// As for [`Resolver::resolve_spec`].
    pub fn resolve_spec_traced(
        &mut self,
        d: f64,
        req: Option<&RequestContext>,
    ) -> Result<ResolveOutcome, SizeError> {
        assert!(d.is_finite(), "deadline must be finite, got {d}");
        match &mut self.config.delay_spec {
            DelaySpec::MaxMean(cap)
            | DelaySpec::ExactMean(cap)
            | DelaySpec::MaxMeanPlusKSigma { d: cap, .. } => *cap = d,
            other => panic!("resolve_spec needs a single-deadline spec, got {other:?}"),
        }
        self.run(false, 0, req)
    }

    /// Moves the sigma multiplier of a [`Objective::MeanPlusKSigma`]
    /// objective to `k` and re-solves warm from the previous solution: the
    /// seed starts from the previous answer. This is the robustness-sweep
    /// twin of [`Resolver::resolve_spec`].
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] as for [`Resolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if the configured objective is not
    /// [`Objective::MeanPlusKSigma`], or if `k` is not finite.
    pub fn resolve_objective_k(&mut self, k: f64) -> Result<ResolveOutcome, SizeError> {
        assert!(k.is_finite(), "objective k must be finite, got {k}");
        match &mut self.config.objective {
            Objective::MeanPlusKSigma(cur) => *cur = k,
            other => panic!("resolve_objective_k needs a mu + k sigma objective, got {other}"),
        }
        self.run(false, 0, None)
    }

    /// Applies size changes through the incremental engine (dirty cone
    /// only), then re-solves warm: the seed starts from the perturbed
    /// sizes with the previous answer's multipliers. Useful after
    /// externally pinning or snapping gates (e.g. discretisation) to let
    /// the optimiser repair the rest.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] as for [`Resolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if a gate id is out of range.
    pub fn resolve_sizes(
        &mut self,
        changes: &[(GateId, f64)],
    ) -> Result<ResolveOutcome, SizeError> {
        self.resolve_sizes_traced(changes, None)
    }

    /// [`Resolver::resolve_sizes`] with request-scoped tracing attached.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] as for [`Resolver::resolve_sizes`].
    ///
    /// # Panics
    ///
    /// Panics if a gate id is out of range.
    pub fn resolve_sizes_traced(
        &mut self,
        changes: &[(GateId, f64)],
        req: Option<&RequestContext>,
    ) -> Result<ResolveOutcome, SizeError> {
        let stats = self.inc.apply(changes);
        self.run(true, stats.gates_recomputed, req)
    }

    /// Evaluation-only what-if: applies the size changes to the
    /// incremental engine and reports delay, objective and spec violation
    /// at the perturbed point **without** re-optimising. Only the dirty
    /// cone is recomputed; a no-op perturbation recomputes nothing.
    ///
    /// # Panics
    ///
    /// Panics if a gate id is out of range.
    pub fn what_if(&mut self, changes: &[(GateId, f64)]) -> WhatIfReport {
        self.what_if_traced(changes, None)
    }

    /// [`Resolver::what_if`] with request-scoped tracing attached.
    ///
    /// # Panics
    ///
    /// Panics if a gate id is out of range.
    pub fn what_if_traced(
        &mut self,
        changes: &[(GateId, f64)],
        req: Option<&RequestContext>,
    ) -> WhatIfReport {
        sgs_metrics::incr(sgs_metrics::Counter::ResolveWhatIfQueries);
        let _timer = sgs_metrics::time_hist(sgs_metrics::HistId::WhatIfSeconds);
        let stats = self.inc.apply(changes);
        let (objective, spec_violation) = self.engine_score();
        let report = WhatIfReport {
            delay: self.inc.delay(),
            objective,
            spec_violation,
            stats,
        };
        let tracer = self.config.tracer().attach(req);
        tracer.emit(|| TraceEvent::Counter {
            name: "gates_recomputed",
            value: stats.gates_recomputed as u64,
        });
        report
    }

    /// The solve shared by [`Resolver::solve`], [`Resolver::resolve_spec`]
    /// and [`Resolver::resolve_sizes`]: cold until an answer is accepted,
    /// warm from it afterwards, with the seed starting from the engine's
    /// sizes when `from_engine` is set.
    fn run(
        &mut self,
        from_engine: bool,
        pre_recomputed: usize,
        req: Option<&RequestContext>,
    ) -> Result<ResolveOutcome, SizeError> {
        let start = Instant::now();
        let _solve_phase = sgs_metrics::phase(sgs_metrics::Phase::Solve);
        sgs_metrics::incr(sgs_metrics::Counter::ResolveSolves);
        let tracer = self.config.tracer().attach(req);
        let clamps_before = sgs_statmath::clark::var_clamp_count()
            .saturating_sub(std::mem::take(&mut self.unreported_clamps));
        let mut gates_recomputed = pre_recomputed;
        let mut clock = start;
        let solved = self.pipeline(from_engine, tracer, &mut clock, &mut gates_recomputed);
        let seconds = clock.duration_since(start).as_secs_f64();
        tracer.emit(|| TraceEvent::Counter {
            name: "gates_recomputed",
            value: gates_recomputed as u64,
        });
        let (picked, multipliers) = solved?;
        let warm_start_hit = self.warm.is_some();
        self.warm = Some(WarmStart {
            s: picked.s.clone(),
            multipliers,
        });
        Ok(ResolveOutcome {
            warm_start_hit,
            gates_recomputed,
            result: SizingResult {
                area: picked.s.iter().sum(),
                objective: picked.objective,
                s: picked.s,
                delay: self.inc.delay(),
                outer_iterations: picked.outer_iterations,
                inner_iterations: picked.inner_iterations,
                c_norm: picked.c_norm,
                seconds,
                evals: picked.evals,
                clark_var_clamps: sizer::clamp_delta(tracer, clamps_before),
                source: picked.source,
                status: picked.status,
            },
        })
    }

    /// The pipeline (module docs): the seed from the warm state (or the
    /// engine's sizes), the AL under [`SolverChoice::FullSpace`], the pick.
    /// Each stage is a span starting where the previous one ended on
    /// `clock`. Only the solver that reports the answer traces its
    /// iterations. Leaves the engine at the answer's sizes, and returns
    /// the multipliers the seed was minimised under.
    fn pipeline(
        &mut self,
        from_engine: bool,
        tracer: Tracer<'_>,
        clock: &mut Instant,
        gates: &mut usize,
    ) -> Result<(Picked, Multipliers), SizeError> {
        let warm = self.warm.as_ref();
        let s0 = match warm {
            Some(w) if !from_engine => &w.s[..],
            _ => self.inc.sizes(),
        };
        let full_space = self.config.solver == SolverChoice::FullSpace;
        let seed_tracer = if full_space { Tracer::none() } else { tracer };
        let red = tracer.stage("reduced_space", clock, || {
            self.config
                .reduced_seed(s0, warm.map(|w| &w.multipliers), seed_tracer)
        });
        let al = full_space.then(|| self.full_space(&red.s, tracer, clock));
        let picked = tracer.stage("evaluate", clock, || {
            let _ph = sgs_metrics::phase(sgs_metrics::Phase::Evaluate);
            self.pick(&red, al, gates)
        })?;
        sgs_metrics::incr(match picked.source {
            AnswerSource::AugLag => sgs_metrics::Counter::AnswerAugLag,
            AnswerSource::Seed => sgs_metrics::Counter::AnswerSeed,
        });
        Ok((picked, red.multipliers))
    }

    /// The AL stage of [`SolverChoice::FullSpace`], an `auglag` stage on
    /// `clock`: builds the full formulation of the current task and solves
    /// it from the exactly feasible point at speed factors `s`, with
    /// least-squares multipliers from one adjoint sweep (LANCELOT's
    /// first-order estimate) and penalty `rho0`. With lambda = 0 the AL
    /// has no curvature along the constraint tangent and walks off a seed
    /// that is already nearly optimal. Returns the AL's result and the
    /// speed factors of its point. Goes through the fault-injection
    /// wrapper when [`Sizer::poison_nan_after`] is set.
    fn full_space(
        &self,
        s: &[f64],
        tracer: Tracer<'_>,
        clock: &mut Instant,
    ) -> (SolveResult, Vec<f64>) {
        tracer.stage("auglag", clock, || {
            let _ph = sgs_metrics::phase(sgs_metrics::Phase::Auglag);
            let c = &self.config;
            let problem = SizingProblem::build_with_arrivals(
                c.circuit,
                c.lib,
                c.objective.clone(),
                c.delay_spec.clone(),
                c.input_arrivals.as_deref(),
            );
            let x = problem.initial_point(s);
            let start = auglag::WarmStart {
                lambda: problem.multiplier_estimate(&x),
                x,
                rho: c.al_options.rho0,
            };
            let (x0, opts) = (&start.x, &c.al_options);
            let al = match c.poison_nan_after {
                Some(after) => auglag::solve_warm_traced(
                    &PoisonNanAfter::new(&problem, after),
                    x0,
                    Some(&start),
                    opts,
                    tracer,
                ),
                None => auglag::solve_warm_traced(&problem, x0, Some(&start), opts, tracer),
            };
            let s_al = problem.extract_s(&al.x);
            (al, s_al)
        })
    }

    /// Scores the candidates on the engine and picks the answer: the seed,
    /// or the AL's point when there is one that meets the spec and is no
    /// worse than the seed (or the seed misses the spec). A diverged AL's
    /// point is no candidate. The AL's point usually wins, so it is scored
    /// last. Leaves the engine at the answer's sizes.
    fn pick(
        &mut self,
        red: &ReducedResult,
        al: Option<(SolveResult, Vec<f64>)>,
        gates: &mut usize,
    ) -> Result<Picked, SizeError> {
        let tol = sizer::spec_tolerance(&self.config.delay_spec);
        let seed_score = self.score(&red.s, gates);
        let seed_ok = seed_score.1 <= tol;
        let seed = Picked {
            s: red.s.clone(),
            objective: seed_score.0,
            c_norm: red.violation,
            source: AnswerSource::Seed,
            outer_iterations: red.rounds,
            inner_iterations: red.iterations,
            evals: EvalCounts::default(),
            status: red.status,
        };
        let Some((al, s_al)) = al else {
            if seed_ok {
                return Ok(seed);
            }
            return Err(SizeError::SolverFailed {
                status: red.status.as_str().to_string(),
                c_norm: seed_score.1,
            });
        };
        let al_score = match al.status {
            SolveStatus::Diverged => (f64::INFINITY, f64::INFINITY),
            _ => self.score(&s_al, gates),
        };
        let al_ok = al_score.1 <= tol;
        let seed = Picked {
            outer_iterations: al.outer_iterations,
            inner_iterations: al.inner_iterations,
            evals: al.evals,
            status: al.status,
            ..seed
        };
        if al_ok && (!seed_ok || al_score.0 <= seed_score.0) {
            Ok(Picked {
                s: s_al,
                objective: al_score.0,
                c_norm: al.c_norm,
                source: AnswerSource::AugLag,
                ..seed
            })
        } else if seed_ok {
            *gates += self.inc.set_sizes(&red.s).gates_recomputed;
            Ok(seed)
        } else {
            Err(SizeError::SolverFailed {
                status: al.status.as_str().to_string(),
                c_norm: al_score.1.min(seed_score.1),
            })
        }
    }

    /// Moves the engine to `s` (dirty cone only) and scores it by its
    /// clean objective and delay-spec violation. Non-finite sizes (a
    /// diverged iterate) score infeasible without touching the engine,
    /// which needs finite moments.
    fn score(&mut self, s: &[f64], gates: &mut usize) -> (f64, f64) {
        if s.iter().any(|v| !v.is_finite()) {
            return (f64::INFINITY, f64::INFINITY);
        }
        *gates += self.inc.set_sizes(s).gates_recomputed;
        self.engine_score()
    }

    /// Clean objective and delay-spec violation at the engine's sizes.
    fn engine_score(&self) -> (f64, f64) {
        let delay = self.inc.delay();
        (
            sizer::objective_value(&self.config.objective, self.inc.sizes(), delay),
            sizer::spec_violation(
                &self.config.delay_spec,
                self.config.circuit,
                self.inc.arrivals(),
                delay,
            ),
        )
    }

    /// The library the task was built against.
    pub fn library(&self) -> &'a Library {
        self.config.lib
    }

    /// Current speed factors held by the incremental engine (the last
    /// accepted answer, or the last perturbation applied on top of it).
    pub fn sizes(&self) -> &[f64] {
        self.inc.sizes()
    }

    /// Current circuit delay distribution at [`Resolver::sizes`].
    pub fn delay(&self) -> Normal {
        self.inc.delay()
    }

    /// The underlying incremental engine (arrivals, work counters).
    pub fn engine(&self) -> &IncrementalSsta<'a> {
        &self.inc
    }

    /// The currently configured delay spec (deadline moves with
    /// [`Resolver::resolve_spec`]).
    pub fn delay_spec(&self) -> &DelaySpec {
        &self.config.delay_spec
    }
}

/// Fault-injection wrapper behind [`Sizer::poison_nan_after`]: delegates
/// everything to the real formulation, except the objective turns to `NaN`
/// from the `after`-th evaluation onward.
struct PoisonNanAfter<'p> {
    inner: &'p SizingProblem,
    after: usize,
    calls: Cell<usize>,
}

impl<'p> PoisonNanAfter<'p> {
    fn new(inner: &'p SizingProblem, after: usize) -> Self {
        PoisonNanAfter {
            inner,
            after,
            calls: Cell::new(0),
        }
    }
}

impl NlpProblem for PoisonNanAfter<'_> {
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
        let k = self.calls.get();
        self.calls.set(k + 1);
        if k >= self.after {
            return f64::NAN;
        }
        self.inner.objective(x)
    }
    fn gradient(&self, x: &[f64], g: &mut [f64]) {
        self.inner.gradient(x, g)
    }
    fn constraints(&self, x: &[f64], c: &mut [f64]) {
        self.inner.constraints(x, c)
    }
    fn jacobian_structure(&self) -> Vec<(usize, usize)> {
        self.inner.jacobian_structure()
    }
    fn jacobian_values(&self, x: &[f64], vals: &mut [f64]) {
        self.inner.jacobian_values(x, vals)
    }
    fn hessian_structure(&self) -> Vec<(usize, usize)> {
        self.inner.hessian_structure()
    }
    fn hessian_values(&self, x: &[f64], sigma: f64, lambda: &[f64], vals: &mut [f64]) {
        self.inner.hessian_values(x, sigma, lambda, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sizer;
    use sgs_netlist::generate;
    use sgs_ssta::ssta;
    use sgs_trace::MemorySink;

    fn lib() -> Library {
        Library::paper_default()
    }

    #[test]
    fn cold_solve_matches_sizer_candidate_quality() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .resolver();
        let out = r.solve().unwrap();
        assert!(!out.warm_start_hit, "first solve has no warm start");
        assert!(out.result.delay.mean() <= 6.5 + 1e-3);
        // The engine's state is bit-identical to a fresh SSTA at the
        // reported sizes.
        let fresh = ssta(&c, &l, &out.result.s);
        assert_eq!(r.delay().mean().to_bits(), fresh.delay.mean().to_bits());
        assert_eq!(r.delay().var().to_bits(), fresh.delay.var().to_bits());
    }

    #[test]
    fn warm_resolve_spec_sweeps_deadlines() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(7.0))
            .resolver();
        let cold = r.solve().unwrap();
        let mut last_area = cold.result.area;
        for d in [6.8, 6.5, 6.3] {
            let out = r.resolve_spec(d).unwrap();
            assert!(out.warm_start_hit, "deadline {d} should re-solve warm");
            assert!(out.result.delay.mean() <= d + 1e-3, "deadline {d} missed");
            // Tighter deadline costs area (monotone trade-off).
            assert!(out.result.area >= last_area - 1e-6);
            last_area = out.result.area;
        }
    }

    #[test]
    fn warm_resolve_same_spec_verifies_in_one_outer_iteration() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .resolver();
        let cold = r.solve().unwrap();
        let rerun = r.solve().unwrap();
        assert!(rerun.warm_start_hit);
        assert!(
            rerun.result.outer_iterations <= 1,
            "warm rerun took {} outer iterations",
            rerun.result.outer_iterations
        );
        assert!((rerun.result.objective - cold.result.objective).abs() <= 1e-6);
        assert!(rerun.result.inner_iterations <= cold.result.inner_iterations);
    }

    /// Walks `factors` × the unsized mean delay warm, loose to tight and
    /// back: every answer meets its deadline under a clean SSTA and costs
    /// no more area than a cold solve at the same deadline.
    fn warm_chain_matches_cold_solves(c: &Circuit, factors: &[f64]) {
        let l = lib();
        let unsized_mu = ssta(c, &l, &vec![1.0; c.num_gates()]).delay.mean();
        let sizer = |d: f64| {
            Sizer::new(c, &l)
                .objective(Objective::Area)
                .delay_spec(DelaySpec::MaxMean(d))
        };
        let mut r = sizer(factors[0] * unsized_mu).resolver();
        for (i, f) in factors.iter().enumerate() {
            let d = f * unsized_mu;
            let out = if i == 0 { r.solve() } else { r.resolve_spec(d) };
            let out = out.unwrap_or_else(|e| panic!("{f} x unsized: {e}"));
            assert_eq!(out.warm_start_hit, i > 0);
            let mu = ssta(c, &l, &out.result.s).delay.mean();
            assert!(mu <= d * (1.0 + 1e-6), "{f} x unsized: mu {mu} over {d}");
            let cold = sizer(d).solve().unwrap();
            assert!(
                out.result.area <= cold.area * (1.0 + 1e-6),
                "{f} x unsized: warm area {} ({:?}) against cold {}",
                out.result.area,
                out.result.status,
                cold.area
            );
        }
    }

    #[test]
    fn warm_deadline_chain_matches_cold_on_tree7() {
        warm_chain_matches_cold_solves(&generate::tree7(), &[0.95, 0.85, 0.8, 0.85, 0.95, 1.0]);
    }

    #[test]
    fn warm_deadline_chain_matches_cold_on_rdag40() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/rdag40.blif");
        let text = std::fs::read_to_string(path).expect("benchmarks/rdag40.blif exists");
        let c = sgs_netlist::blif::parse(&text).expect("rdag40.blif parses");
        warm_chain_matches_cold_solves(&c, &[0.95, 0.85, 0.79, 0.775, 0.79, 0.85, 0.95, 1.0]);
    }

    #[test]
    fn a_resolve_after_probes_returns_the_held_answer_bit_for_bit() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .resolver();
        let held = r.solve().unwrap().result;
        for i in 0..100 {
            let g = GateId(i % c.num_gates());
            r.what_if(&[(g, 1.0 + 0.02 * (i % 50) as f64)]);
        }
        let again = r.solve().unwrap();
        assert!(again.warm_start_hit);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again.result.s), bits(&held.s));
        assert_eq!(again.result.objective.to_bits(), held.objective.to_bits());
    }

    #[test]
    fn what_if_is_evaluation_only_and_bit_identical() {
        let c = generate::ripple_carry_adder(8);
        let l = lib();
        let n = c.num_gates();
        let mut r = Sizer::new(&c, &l).objective(Objective::Area).resolver();
        let probe = r.what_if(&[(GateId(1), 2.0)]);
        assert!(probe.stats.gates_recomputed < n, "whole circuit recomputed");
        let mut s = vec![1.0; n];
        s[1] = 2.0;
        let fresh = ssta(&c, &l, &s);
        assert_eq!(probe.delay.mean().to_bits(), fresh.delay.mean().to_bits());
        assert_eq!(probe.delay.var().to_bits(), fresh.delay.var().to_bits());
        // No-op probe touches nothing.
        let noop = r.what_if(&[(GateId(1), 2.0)]);
        assert_eq!(noop.stats.gates_recomputed, 0);
    }

    #[test]
    fn resolve_sizes_repairs_a_pinned_gate() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .resolver();
        let first = r.solve().unwrap();
        // Pin gate 0 off its optimum and let the warm re-solve repair the
        // rest of the circuit around it.
        let pinned = (first.result.s[0] * 1.3).min(r.library().s_limit);
        let out = r.resolve_sizes(&[(GateId(0), pinned)]).unwrap();
        assert!(out.warm_start_hit);
        assert!(out.gates_recomputed >= 1);
        assert!(out.result.delay.mean() <= 6.5 + 1e-3);
    }

    #[test]
    fn counters_reach_the_trace_sink() {
        let c = generate::tree7();
        let l = lib();
        let sink = MemorySink::new();
        let mut r = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .trace(&sink)
            .resolver();
        let cold = r.solve().unwrap();
        r.what_if(&[(GateId(2), 1.4)]);
        let recomputed: Vec<u64> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Counter {
                    name: "gates_recomputed",
                    value,
                } => Some(value),
                _ => None,
            })
            .collect();
        assert_eq!(recomputed.len(), 2, "one per solve, one per what-if");
        assert!(recomputed[1] > 0 && recomputed[1] < c.num_gates() as u64);
        // The cold solve offers its seeded start to the AL (so the AL's
        // `warm_start_hit` trace counter may fire), but carries no
        // previous answer.
        assert!(!cold.warm_start_hit, "a cold solve carries no warm state");
    }

    #[test]
    fn warm_resolve_objective_k_sweeps_robustness() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Sizer::new(&c, &l)
            .objective(Objective::MeanPlusKSigma(0.0))
            .resolver();
        let cold = r.solve().unwrap();
        // V(k) = min mu + k sigma is non-decreasing in k: the optimum at
        // a larger k upper-bounds the smaller-k objective at its point.
        let mut last = cold.result.objective;
        for k in [0.5, 1.0, 2.0, 3.0] {
            let out = r.resolve_objective_k(k).unwrap();
            assert!(out.warm_start_hit, "k {k} should re-solve warm");
            assert!(
                out.result.objective >= last - 1e-6 * (1.0 + last.abs()),
                "V({k}) = {} dropped below {last}",
                out.result.objective
            );
            last = out.result.objective;
        }
    }

    #[test]
    #[should_panic(expected = "mu + k sigma objective")]
    fn resolve_objective_k_rejects_other_objectives() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Sizer::new(&c, &l).objective(Objective::Area).resolver();
        let _ = r.resolve_objective_k(1.0);
    }

    #[test]
    #[should_panic(expected = "single-deadline spec")]
    fn resolve_spec_rejects_unconstrained_formulations() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Resolver::new(&c, &l);
        let _ = r.resolve_spec(6.5);
    }
}
