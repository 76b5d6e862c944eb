//! Cold solves, warm re-solves and what-if queries.
//!
//! A [`Resolver`] runs every sizing solve: [`Sizer::solve`] is a fresh
//! resolver's cold solve, and the daemon and the sweep engine keep
//! resolvers alive. Each holds the built [`SizingProblem`] (a deadline
//! change only rewrites its cap constants), an [`IncrementalSsta`] engine
//! at the current sizes (an edit re-times only its dirty cone), and the
//! last answer's `(x, lambda, rho)` as a [`WarmStart`].
//!
//! A **cold** solve (no warm state yet) runs, from the engine's sizes:
//!
//! 1. the reduced-space seed ([`crate::reduced`]);
//! 2. the augmented Lagrangian from the seed's exactly feasible point,
//!    with least-squares multipliers
//!    ([`SizingProblem::multiplier_estimate`]) and penalty `rho0`;
//! 3. after a [`SolveStatus::Diverged`] AL, up to two retries from
//!    deterministically perturbed seeds;
//! 4. a pick between the AL's point and the seed by clean objective and
//!    spec violation, read off the engine (bit for bit a full SSTA), so
//!    AL residuals never reach the reported sizing;
//! 5. if neither meets the spec, a greedy descent ([`crate::greedy`])
//!    before [`SizeError::SolverFailed`].
//!
//! The winner becomes the warm state and [`SizingResult::source`] names
//! it; each escalation emits a [`TraceEvent::Restart`]. A **warm**
//! re-solve starts the AL from the carried (or, after a size change,
//! reseeded) state; an answer that misses the spec is
//! [`SizeError::SolverFailed`] and leaves the warm state untouched.
//! [`Resolver::what_if`] evaluates an edit without solving.

use crate::greedy::{self, GreedyOptions};
use crate::problem::SizingProblem;
use crate::sizer::{self, AnswerSource, SizeError, Sizer, SizingResult};
use crate::spec::{DelaySpec, Objective};
use sgs_netlist::{Circuit, GateId, Library};
use sgs_nlp::auglag::{self, SolveResult, SolveStatus, WarmStart};
use sgs_nlp::NlpProblem;
use sgs_ssta::{IncrementalSsta, UpdateStats};
use sgs_statmath::Normal;
use sgs_trace::{RequestContext, TraceEvent, Tracer};
use std::cell::Cell;
use std::time::Instant;

/// Perturbed-restart attempts after a diverged cold AL solve.
const MAX_RESTARTS: usize = 2;

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
    /// Whether a previous solution's `(x, lambda, rho)` was offered *and
    /// accepted* as the warm start for this solve (always `false` for a
    /// cold solve, whose seeded start is not carried state).
    pub warm_start_hit: bool,
    /// Gates whose arrival the incremental engine recomputed during this
    /// call (perturbation, candidate scoring and the final sync), also
    /// emitted as the `gates_recomputed` trace counter.
    pub gates_recomputed: usize,
}

/// How the previous solution seeds the next solve.
enum Seed {
    /// Carry `(x, lambda, rho)` verbatim (spec changes; plain re-solve).
    Carry,
    /// Keep `(lambda, rho)` but restart `x` from the exactly feasible
    /// point at the engine's current (perturbed) sizes.
    Reseed,
}

/// The answer a solve settled on, before it becomes a [`SizingResult`].
struct Picked {
    s: Vec<f64>,
    objective: f64,
    c_norm: f64,
    source: AnswerSource,
    /// The state the next warm re-solve starts from.
    warm: WarmStart,
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
    problem: SizingProblem,
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

    /// Builds the formulation and the incremental engine at the
    /// configured starting sizes (all ones unless [`Sizer::initial_s`]).
    pub(crate) fn configured(config: Sizer<'a>) -> Self {
        let clamps_before = sgs_statmath::clark::var_clamp_count();
        let _sp = config.tracer().span("build_problem");
        let _ph = sgs_metrics::phase(sgs_metrics::Phase::BuildProblem);
        let arrivals = config.input_arrivals.as_deref();
        let problem = SizingProblem::build_with_arrivals(
            config.circuit,
            config.lib,
            config.objective.clone(),
            config.delay_spec.clone(),
            arrivals,
        );
        let s0 = (config.s0.clone()).unwrap_or_else(|| vec![1.0; config.circuit.num_gates()]);
        let inc = IncrementalSsta::with_arrivals(config.circuit, config.lib, &s0, arrivals);
        Resolver {
            config,
            problem,
            inc,
            warm: None,
            unreported_clamps: sgs_statmath::clark::var_clamp_count().saturating_sub(clamps_before),
        }
    }

    /// Solves the current formulation. Until an answer is accepted this
    /// is a cold solve (see the module docs); later calls re-verify warm
    /// from the previous answer.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] when a cold solve finds no candidate
    /// that meets the delay spec, or a warm one produces a non-finite
    /// iterate or misses the spec.
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
        self.run(Seed::Carry, 0, req)
    }

    /// Moves the deadline of the current single-deadline spec to `d` and
    /// re-solves warm from the previous solution. Only the cap constants
    /// inside the existing formulation change
    /// ([`SizingProblem::set_deadline`]), so the previous `(x, lambda,
    /// rho)` stays dimension-compatible and is carried verbatim.
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
        match &mut self.config.delay_spec {
            DelaySpec::MaxMean(cap)
            | DelaySpec::ExactMean(cap)
            | DelaySpec::MaxMeanPlusKSigma { d: cap, .. } => *cap = d,
            other => panic!("resolve_spec needs a single-deadline spec, got {other:?}"),
        }
        let updated = self.problem.set_deadline(d);
        debug_assert!(updated > 0, "single-deadline spec must have a cap");
        self.run(Seed::Carry, 0, req)
    }

    /// Moves the sigma multiplier of a [`Objective::MeanPlusKSigma`]
    /// objective to `k` and re-solves warm from the previous solution.
    /// Only the scalar inside the existing formulation changes
    /// ([`SizingProblem::set_objective_k`] — the objective's Hessian slot
    /// is keyed on the variant, not the value, so the sparsity pattern is
    /// identical for every `k`), and the previous `(x, lambda, rho)` is
    /// carried verbatim. This is the robustness-sweep twin of
    /// [`Resolver::resolve_spec`].
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
        match &mut self.config.objective {
            Objective::MeanPlusKSigma(cur) => *cur = k,
            other => panic!("resolve_objective_k needs a mu + k sigma objective, got {other}"),
        }
        self.problem.set_objective_k(k);
        self.run(Seed::Carry, 0, None)
    }

    /// Applies size changes through the incremental engine (dirty cone
    /// only), then re-solves warm: the previous multipliers and penalty
    /// are kept while the iterate restarts from the exactly feasible
    /// point at the perturbed sizes. Useful after externally pinning or
    /// snapping gates (e.g. discretisation) to let the optimiser repair
    /// the rest.
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
        self.run(Seed::Reseed, stats.gates_recomputed, req)
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
    /// warm from it afterwards.
    fn run(
        &mut self,
        seed: Seed,
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
        let (warm_start_hit, solved) = match self.warm.clone() {
            None => (false, self.cold(tracer, &mut gates_recomputed)),
            Some(warm) => {
                let x0 = self.problem.initial_point(self.inc.sizes());
                let warm = match seed {
                    Seed::Carry => warm,
                    Seed::Reseed => WarmStart {
                        x: x0.clone(),
                        ..warm
                    },
                };
                let hit = warm.is_usable(self.problem.num_vars(), self.problem.num_constraints());
                let solved = self.warm_solve(&x0, &warm, tracer, &mut gates_recomputed);
                (hit, solved)
            }
        };
        tracer.emit(|| TraceEvent::Counter {
            name: "gates_recomputed",
            value: gates_recomputed as u64,
        });
        let (al, picked) = solved?;
        self.warm = Some(picked.warm);
        Ok(ResolveOutcome {
            warm_start_hit,
            gates_recomputed,
            result: SizingResult {
                area: picked.s.iter().sum(),
                objective: picked.objective,
                s: picked.s,
                delay: self.inc.delay(),
                outer_iterations: al.outer_iterations,
                inner_iterations: al.inner_iterations,
                c_norm: picked.c_norm,
                seconds: start.elapsed().as_secs_f64(),
                evals: al.evals,
                clark_var_clamps: sizer::clamp_delta(tracer, clamps_before),
                source: picked.source,
                status: Some(al.status),
            },
        })
    }

    /// The cold pipeline (module docs): seed, seeded AL with perturbed
    /// restarts, clean pick, greedy fallback. Leaves the engine at the
    /// winner's sizes.
    fn cold(
        &mut self,
        tracer: Tracer<'_>,
        gates: &mut usize,
    ) -> Result<(SolveResult, Picked), SizeError> {
        let red = self.config.reduced_seed(self.inc.sizes(), tracer);
        let (mut al, seeded) = self.seeded_auglag(&red.s, tracer);
        let mut attempt = 0;
        while al.status == SolveStatus::Diverged && attempt < MAX_RESTARTS {
            attempt += 1;
            sgs_metrics::incr(sgs_metrics::Counter::SizerRestarts);
            tracer.emit(|| TraceEvent::Restart {
                attempt,
                reason: format!(
                    "full-space solve diverged; perturbed restart {attempt}/{MAX_RESTARTS}"
                ),
            });
            al = self
                .seeded_auglag(&perturb(&red.s, attempt, self.config.lib.s_limit), tracer)
                .0;
        }
        let s_al = self.problem.extract_s(&al.x);
        let (al_score, seed_score) = {
            let _sp = tracer.span("evaluate");
            let _ph = sgs_metrics::phase(sgs_metrics::Phase::Evaluate);
            // The AL's point usually wins, so it is scored last.
            let seed_score = self.score(&red.s, gates);
            (self.score(&s_al, gates), seed_score)
        };
        let tol = sizer::spec_tolerance(&self.config.delay_spec);
        let (al_ok, seed_ok) = (al_score.1 <= tol, seed_score.1 <= tol);
        let picked = match (al_ok && (!seed_ok || al_score.0 <= seed_score.0), seed_ok) {
            (true, _) => Picked {
                s: s_al,
                objective: al_score.0,
                c_norm: al.c_norm,
                source: AnswerSource::AugLag,
                warm: WarmStart::from_result(&al),
            },
            (false, true) => {
                *gates += self.inc.set_sizes(&red.s).gates_recomputed;
                Picked {
                    s: red.s,
                    objective: seed_score.0,
                    c_norm: red.violation,
                    source: AnswerSource::Seed,
                    warm: seeded,
                }
            }
            (false, false) => {
                tracer.emit(|| TraceEvent::Restart {
                    attempt: attempt + 1,
                    reason: "no feasible candidate; greedy fallback".to_string(),
                });
                let fallback = {
                    let _sp = tracer.span("greedy_fallback");
                    let _ph = sgs_metrics::phase(sgs_metrics::Phase::GreedyFallback);
                    sgs_metrics::incr(sgs_metrics::Counter::SizerGreedyFallbacks);
                    self.greedy_fallback(gates)
                };
                let Some((s, objective)) = fallback else {
                    return Err(SizeError::SolverFailed {
                        status: al.status.as_str().to_string(),
                        c_norm: al_score.1.min(seed_score.1),
                    });
                };
                Picked {
                    warm: self.seeded_start(&s),
                    s,
                    objective,
                    c_norm: 0.0,
                    source: AnswerSource::Greedy,
                }
            }
        };
        Ok((al, picked))
    }

    /// One warm re-solve from `warm` (or `x0` should `warm` be unusable).
    /// Leaves the engine at the solver's point, even a rejected one.
    fn warm_solve(
        &mut self,
        x0: &[f64],
        warm: &WarmStart,
        tracer: Tracer<'_>,
        gates: &mut usize,
    ) -> Result<(SolveResult, Picked), SizeError> {
        let al = {
            let _sp = tracer.span("auglag");
            let _ph = sgs_metrics::phase(sgs_metrics::Phase::Auglag);
            self.auglag(x0, warm, tracer)
        };
        let s = self.problem.extract_s(&al.x);
        if s.iter().any(|v| !v.is_finite()) {
            return Err(SizeError::SolverFailed {
                status: al.status.as_str().to_string(),
                c_norm: al.c_norm,
            });
        }
        let (objective, viol) = self.score(&s, gates);
        if viol > sizer::spec_tolerance(&self.config.delay_spec) {
            return Err(SizeError::SolverFailed {
                status: al.status.as_str().to_string(),
                c_norm: viol,
            });
        }
        let picked = Picked {
            s,
            objective,
            c_norm: al.c_norm,
            source: AnswerSource::AugLag,
            warm: WarmStart::from_result(&al),
        };
        Ok((al, picked))
    }

    /// The exactly feasible point at speed factors `s`, with
    /// least-squares multipliers from one adjoint sweep (LANCELOT's
    /// first-order estimate) and penalty `rho0`: with lambda = 0 the AL
    /// has no curvature along the constraint tangent and walks off a seed
    /// that is already nearly optimal.
    fn seeded_start(&self, s: &[f64]) -> WarmStart {
        let x = self.problem.initial_point(s);
        WarmStart {
            lambda: self.problem.multiplier_estimate(&x),
            x,
            rho: self.config.al_options.rho0,
        }
    }

    /// One cold AL attempt: from [`Resolver::seeded_start`] at `s`,
    /// which it also returns.
    fn seeded_auglag(&self, s: &[f64], tracer: Tracer<'_>) -> (SolveResult, WarmStart) {
        let _sp = tracer.span("auglag");
        let _ph = sgs_metrics::phase(sgs_metrics::Phase::Auglag);
        let start = self.seeded_start(s);
        (self.auglag(&start.x, &start, tracer), start)
    }

    /// One augmented-Lagrangian solve, through the fault-injection
    /// wrapper when [`Sizer::poison_nan_after`] is set.
    fn auglag(&self, x0: &[f64], warm: &WarmStart, tracer: Tracer<'_>) -> SolveResult {
        let opts = &self.config.al_options;
        match self.config.poison_nan_after {
            Some(after) => auglag::solve_warm_traced(
                &PoisonNanAfter::new(&self.problem, after),
                x0,
                Some(warm),
                opts,
                tracer,
            ),
            None => auglag::solve_warm_traced(&self.problem, x0, Some(warm), opts, tracer),
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

    /// Last-resort fallback: greedy descent of the delay metric implied by
    /// the spec, accepted only if the result actually meets the spec.
    /// Returns the speed factors and their clean objective value, and
    /// leaves the engine at them.
    pub(crate) fn greedy_fallback(&mut self, gates: &mut usize) -> Option<(Vec<f64>, f64)> {
        let metric = match &self.config.delay_spec {
            DelaySpec::None => self.config.objective.clone(),
            DelaySpec::MaxMean(_) | DelaySpec::ExactMean(_) => Objective::MeanDelay,
            DelaySpec::MaxMeanPlusKSigma { k, .. } | DelaySpec::PerOutput { k, .. } => {
                Objective::MeanPlusKSigma(*k)
            }
        };
        let g = greedy::greedy_size(
            self.config.circuit,
            self.config.lib,
            &metric,
            &GreedyOptions::default(),
        );
        let (objective, viol) = self.score(&g.s, gates);
        (viol <= sizer::spec_tolerance(&self.config.delay_spec)).then_some((g.s, objective))
    }

    /// The library the formulation was built against.
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

/// Deterministic multiplicative jitter for restart warm starts: attempt
/// `a` scales each factor by up to `±0.1 a` (splitmix64 stream keyed on
/// the attempt number), clamped to the sizing range. No RNG state is
/// carried between calls, so restarts are reproducible run to run.
pub(crate) fn perturb(s: &[f64], attempt: usize, s_limit: f64) -> Vec<f64> {
    let mut state = (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let spread = 0.1 * attempt as f64;
    s.iter()
        .map(|&v| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            (v * (1.0 + spread * (2.0 * u - 1.0))).clamp(1.0, s_limit)
        })
        .collect()
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
