//! Scenario sweep engine: Pareto frontier tracing over warm re-solves.
//!
//! The paper reports one `(area, deadline)` point per benchmark; a
//! production flow wants the whole curve. [`SweepEngine`] drives a
//! [`Resolver`] session along a deadline grid — each step a warm
//! [`Resolver::resolve_spec`] re-solve of the *same* task with a moved
//! deadline — and assembles the resulting area-vs-deadline
//! [`Frontier`]. Three sweep families share the machinery:
//!
//! * **Deadline frontiers** ([`SweepEngine::deadline_frontier`]): walk an
//!   auto-derived grid from the unsized baseline delay down to just above
//!   the minimum achievable delay, loose to tight so every step's warm
//!   start is the previous (looser) optimum, then adaptively bisect the
//!   largest relative area jumps so the knee of the curve gets extra
//!   resolution ([`SweepConfig::knee_rel`] / [`SweepConfig::refine_max`]).
//! * **Robustness sweeps** ([`SweepEngine::k_sweep`]): walk `k` in a
//!   `min mu + k sigma` objective via [`Resolver::resolve_objective_k`];
//!   the optimal value is provably non-decreasing in `k`.
//! * **Multi-corner frontiers** ([`SweepEngine::corner_frontier`]): run
//!   one independent session per [`Corner`] (a scaled copy of the library,
//!   [`corner_library`]) in parallel over a shared grid and merge them
//!   point-wise into a worst-corner frontier (feasible iff every corner is
//!   feasible; area = the maximum over corners).
//!
//! Every traced point carries provenance — warm/cold/cache, outer
//! iterations, eval counts, Clark clamp counts, wall-clock seconds — and
//! its seconds feed the `sweep_point_seconds` histogram, so a `--metrics`
//! snapshot breaks the cost down per point, and
//! `tests/sweep_contracts.rs` pins the counts of a whole rdag40 scenario.
//!
//! # Warm-vs-cold equivalence contract (two tiers)
//!
//! The test battery pins the sweep with a two-tier contract:
//!
//! 1. **Bitwise evaluation tier** ([`Frontier::verify_evaluation`]): the
//!    `(mu, sigma, area)` reported for a point are bit-identical to a
//!    from-scratch [`ssta`] + `sum(s)` evaluation at that point's sizes.
//!    This holds exactly — the resolver syncs its incremental engine to
//!    the accepted iterate, and the engine is pinned bit-identical to a
//!    fresh analysis.
//! 2. **Solver tier** (oracle tests): an independent *cold* solve at the
//!    same spec agrees on feasibility and lands on the same frontier
//!    within a small relative tolerance. Warm and cold trajectories are
//!    different iterates of the same problem, so bit-equality is not expected
//!    at this tier — only agreement of the optimum they converge to.
//!
//! Exactly repeated deadlines are answered from the last traced point
//! without re-solving (a re-solve would return the same bits at the cost
//! of a solve; the cache makes no-op steps bit-identical *by
//! construction*), counted via the `sweep_cache_hits` metric.

use crate::resolve::Resolver;
use crate::sizer::{SizeError, SizingResult};
use crate::spec::{DelaySpec, Objective};
use crate::Sizer;
use rayon::prelude::*;
use sgs_netlist::{Circuit, GateKind, GateParams, Library};
use sgs_nlp::EvalCounts;
use sgs_ssta::ssta;
use sgs_trace::TraceSink;
use std::time::Instant;

/// Knobs for [`SweepEngine`] grids and refinement.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Base grid size for auto-derived deadline grids (before the
    /// infeasible probe and any knee refinement). Minimum 2.
    pub points: usize,
    /// `k` of the `mu + k sigma` cap the frontier is swept over
    /// (`0` sweeps a plain mean-delay cap, [`DelaySpec::MaxMean`]).
    pub spec_k: f64,
    /// Relative headroom above the minimum achievable delay for the
    /// tightest grid point: the grid ends at `d_min * (1 + tight_rel)`.
    pub tight_rel: f64,
    /// Relative margin *below* the minimum achievable delay for the
    /// trailing infeasible probe point (`0` disables the probe).
    pub infeasible_margin: f64,
    /// Maximum number of extra points inserted by knee refinement
    /// (`0` disables refinement).
    pub refine_max: usize,
    /// Refinement trigger: bisect an adjacent feasible pair whose
    /// relative area jump exceeds this.
    pub knee_rel: f64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            points: 14,
            spec_k: 0.0,
            tight_rel: 2e-3,
            infeasible_margin: 0.05,
            refine_max: 4,
            knee_rel: 0.10,
        }
    }
}

/// One traced point of an area-vs-deadline [`Frontier`], with full solve
/// provenance.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// The deadline this point was solved at.
    pub deadline: f64,
    /// Whether the deadline was met (`false`: the solve was rejected and
    /// the value fields below are `NaN` / empty).
    pub feasible: bool,
    /// Whether this point was inserted by adaptive knee refinement
    /// rather than the base grid.
    pub refined: bool,
    /// Whether this point repeated the previous deadline exactly and was
    /// answered from the last traced point without re-solving.
    pub cache_hit: bool,
    /// Whether the re-solve accepted the carried warm start.
    pub warm_start_hit: bool,
    /// Accepted speed factors (empty when infeasible).
    pub s: Vec<f64>,
    /// Mean circuit delay at the accepted sizes.
    pub mu: f64,
    /// Delay standard deviation at the accepted sizes.
    pub sigma: f64,
    /// Total area `sum(s)` at the accepted sizes.
    pub area: f64,
    /// Objective value at the accepted sizes.
    pub objective: f64,
    /// Outer iterations of this point's solve (multiplier rounds of the
    /// reduced seed; see [`SizingResult::outer_iterations`]).
    pub outer_iterations: usize,
    /// Inner (Newton-CG) iterations of this point's solve.
    pub inner_iterations: usize,
    /// Callback evaluation counts of this point's solve.
    pub evals: EvalCounts,
    /// Clark variance clamps hit during this point's solve.
    pub clark_var_clamps: u64,
    /// Wall-clock seconds spent tracing this point.
    pub seconds: f64,
}

impl FrontierPoint {
    fn infeasible(deadline: f64, refined: bool, seconds: f64) -> Self {
        FrontierPoint {
            deadline,
            feasible: false,
            refined,
            cache_hit: false,
            warm_start_hit: false,
            s: Vec::new(),
            mu: f64::NAN,
            sigma: f64::NAN,
            area: f64::NAN,
            objective: f64::NAN,
            outer_iterations: 0,
            inner_iterations: 0,
            evals: EvalCounts::default(),
            clark_var_clamps: 0,
            seconds,
        }
    }

    fn from_result(
        deadline: f64,
        result: &SizingResult,
        warm_start_hit: bool,
        refined: bool,
        seconds: f64,
    ) -> Self {
        FrontierPoint {
            deadline,
            feasible: true,
            refined,
            cache_hit: false,
            warm_start_hit,
            s: result.s.clone(),
            mu: result.delay.mean(),
            sigma: result.delay.sigma(),
            area: result.area,
            objective: result.objective,
            outer_iterations: result.outer_iterations,
            inner_iterations: result.inner_iterations,
            evals: result.evals,
            clark_var_clamps: result.clark_var_clamps,
            seconds,
        }
    }
}

/// An area-vs-deadline trade-off curve: traced points sorted ascending by
/// deadline (tightest first).
#[derive(Debug, Clone, Default)]
pub struct Frontier {
    /// The traced points, ascending by deadline.
    pub points: Vec<FrontierPoint>,
}

impl Frontier {
    /// Number of feasible points.
    pub fn feasible_count(&self) -> usize {
        self.points.iter().filter(|p| p.feasible).count()
    }

    /// Number of infeasible-to-feasible transitions along ascending
    /// deadlines. A well-formed frontier has exactly one when it contains
    /// both kinds of point, zero otherwise.
    pub fn transitions(&self) -> usize {
        self.points
            .windows(2)
            .filter(|w| !w[0].feasible && w[1].feasible)
            .count()
    }

    /// Fraction of warm-started points among the feasible points other
    /// than the sweep's cold anchor (the loosest feasible point — the
    /// first one solved in walk order). Cache-served repeats count as
    /// warm: they reuse the previous accepted solution outright.
    pub fn warm_interior_fraction(&self) -> f64 {
        let feasible: Vec<&FrontierPoint> = self.points.iter().filter(|p| p.feasible).collect();
        if feasible.len() <= 1 {
            return 1.0;
        }
        // Ascending order: the cold anchor is the last (loosest) point.
        let interior = &feasible[..feasible.len() - 1];
        let warm = interior
            .iter()
            .filter(|p| p.warm_start_hit || p.cache_hit)
            .count();
        warm as f64 / interior.len() as f64
    }

    /// Checks the two dominance invariants of a well-formed frontier:
    ///
    /// * infeasible points form a contiguous prefix (tightest deadlines),
    ///   so the infeasible-to-feasible transition happens at most once;
    /// * among feasible points, area is non-increasing as the deadline
    ///   relaxes, within relative tolerance `tol`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn check_dominance(&self, tol: f64) -> Result<(), String> {
        let mut seen_feasible = false;
        for (i, w) in self.points.windows(2).enumerate() {
            if w[1].deadline < w[0].deadline {
                return Err(format!(
                    "points out of order: deadline {} before {}",
                    w[0].deadline, w[1].deadline
                ));
            }
            seen_feasible |= w[0].feasible;
            if seen_feasible && !w[1].feasible {
                return Err(format!(
                    "infeasible point at deadline {} after a feasible one \
                     (index {})",
                    w[1].deadline,
                    i + 1
                ));
            }
            if w[0].feasible && w[1].feasible {
                let slack = tol * (1.0 + w[0].area.abs());
                if w[1].area > w[0].area + slack {
                    return Err(format!(
                        "area rises from {} (deadline {}) to {} (deadline \
                         {}): frontier not dominant",
                        w[0].area, w[0].deadline, w[1].area, w[1].deadline
                    ));
                }
            }
        }
        Ok(())
    }

    /// Bitwise evaluation tier of the warm-vs-cold contract: every
    /// feasible point's `(mu, sigma, area)` must be bit-identical to a
    /// from-scratch [`ssta`] + `sum(s)` evaluation at its sizes.
    ///
    /// # Errors
    ///
    /// A description of the first point whose reported values differ from
    /// the fresh evaluation by even one bit.
    pub fn verify_evaluation(&self, circuit: &Circuit, lib: &Library) -> Result<(), String> {
        for p in self.points.iter().filter(|p| p.feasible) {
            let fresh = ssta(circuit, lib, &p.s);
            let area: f64 = p.s.iter().sum();
            if fresh.delay.mean().to_bits() != p.mu.to_bits()
                || fresh.delay.sigma().to_bits() != p.sigma.to_bits()
                || area.to_bits() != p.area.to_bits()
            {
                return Err(format!(
                    "point at deadline {} is not bit-identical to a fresh \
                     evaluation: reported (mu {}, sigma {}, area {}), fresh \
                     (mu {}, sigma {}, area {})",
                    p.deadline,
                    p.mu,
                    p.sigma,
                    p.area,
                    fresh.delay.mean(),
                    fresh.delay.sigma(),
                    area
                ));
            }
        }
        Ok(())
    }
}

/// One traced point of a robustness ([`SweepEngine::k_sweep`]) curve.
#[derive(Debug, Clone)]
pub struct KPoint {
    /// The sigma multiplier this point was solved at.
    pub k: f64,
    /// Whether the re-solve accepted the carried warm start.
    pub warm_start_hit: bool,
    /// Whether this point repeated the previous `k` exactly and was
    /// answered from the last traced point without re-solving.
    pub cache_hit: bool,
    /// Accepted speed factors.
    pub s: Vec<f64>,
    /// Mean circuit delay at the accepted sizes.
    pub mu: f64,
    /// Delay standard deviation at the accepted sizes.
    pub sigma: f64,
    /// Total area `sum(s)` at the accepted sizes.
    pub area: f64,
    /// Objective value `mu + k sigma` at the accepted sizes.
    pub objective: f64,
    /// Outer iterations of this point's solve.
    pub outer_iterations: usize,
    /// Wall-clock seconds spent tracing this point.
    pub seconds: f64,
}

/// A named process/operating corner: per-corner scaling of every gate's
/// intrinsic delay and input capacitance.
#[derive(Debug, Clone, PartialEq)]
pub struct Corner {
    /// Corner name (e.g. `"nominal"`, `"slow"`).
    pub name: String,
    /// Multiplier applied to every gate's `t_int`.
    pub t_int_scale: f64,
    /// Multiplier applied to every gate's `C_in`.
    pub c_in_scale: f64,
}

impl Corner {
    /// The identity corner (scales of 1).
    pub fn nominal() -> Self {
        Corner {
            name: "nominal".to_string(),
            t_int_scale: 1.0,
            c_in_scale: 1.0,
        }
    }

    /// A named corner with the given `t_int` / `C_in` multipliers.
    pub fn scaled(name: &str, t_int_scale: f64, c_in_scale: f64) -> Self {
        assert!(
            t_int_scale > 0.0 && c_in_scale > 0.0,
            "corner scales must be positive, got ({t_int_scale}, {c_in_scale})"
        );
        Corner {
            name: name.to_string(),
            t_int_scale,
            c_in_scale,
        }
    }
}

/// Builds the per-corner library: a copy of `lib` with every gate kind's
/// `t_int` and `C_in` multiplied by the corner's scales.
pub fn corner_library(lib: &Library, corner: &Corner) -> Library {
    let mut scaled = lib.clone();
    for &kind in GateKind::all() {
        let p = lib.params(kind);
        scaled = scaled.with_params(
            kind,
            GateParams {
                t_int: p.t_int * corner.t_int_scale,
                c_in: p.c_in * corner.c_in_scale,
            },
        );
    }
    scaled
}

/// One corner's independent session output inside a [`CornerFrontier`].
#[derive(Debug, Clone)]
pub struct CornerTrace {
    /// The corner this session ran under.
    pub corner: Corner,
    /// The frontier traced on this corner's scaled library.
    pub frontier: Frontier,
}

/// A multi-corner sweep: every per-corner frontier plus their point-wise
/// worst-corner merge.
#[derive(Debug, Clone)]
pub struct CornerFrontier {
    /// Per-corner traces, in caller order.
    pub corners: Vec<CornerTrace>,
    /// The worst-corner merge: a grid point is feasible iff **all**
    /// corners met it, and carries the maximum area over corners (the
    /// argmax corner's full solution).
    pub merged: Frontier,
}

/// Drives [`Resolver`] sessions along deadline grids, `k` grids and
/// library corners. See the [module docs](self) for the sweep families
/// and the warm-vs-cold contract.
pub struct SweepEngine<'a> {
    circuit: &'a Circuit,
    lib: &'a Library,
    objective: Objective,
    config: SweepConfig,
    sink: Option<&'a dyn TraceSink>,
}

impl<'a> SweepEngine<'a> {
    /// A sweep engine minimising area under the default [`SweepConfig`].
    pub fn new(circuit: &'a Circuit, lib: &'a Library) -> Self {
        SweepEngine {
            circuit,
            lib,
            objective: Objective::Area,
            config: SweepConfig::default(),
            sink: None,
        }
    }

    /// Sets the objective minimised at each frontier point. Dominance
    /// checks compare `area`, so area-like objectives keep the frontier
    /// monotone.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Replaces the grid/refinement knobs.
    pub fn config(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a trace sink to every session the engine runs (see
    /// [`Sizer::trace`]): each anchor solve and warm re-solve then emits
    /// its phase spans, outer-iteration records and `solve_done` record.
    /// The default is no sink.
    pub fn sink(mut self, sink: &'a dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// A [`Sizer`] on `lib` carrying the engine's sink.
    fn sizer<'b>(&'b self, lib: &'b Library) -> Sizer<'b> {
        let sizer = Sizer::new(self.circuit, lib);
        match self.sink {
            Some(sink) => sizer.trace(sink),
            None => sizer,
        }
    }

    fn spec_for(&self, d: f64) -> DelaySpec {
        if self.config.spec_k == 0.0 {
            DelaySpec::MaxMean(d)
        } else {
            DelaySpec::MaxMeanPlusKSigma {
                d,
                k: self.config.spec_k,
            }
        }
    }

    /// The capped statistic (`mu + spec_k * sigma`) of a delay
    /// distribution, matching [`SweepEngine::spec_for`].
    fn capped_value(&self, delay: sgs_statmath::Normal) -> f64 {
        delay.mean() + self.config.spec_k * delay.sigma()
    }

    /// Derives the auto grid bounds on `lib`: the loosest deadline is the
    /// unsized (all-ones) circuit's capped delay, the tightest is the
    /// minimum achievable capped delay (an actual `min mu + k sigma`
    /// solve — all-max sizes are *not* the fastest sizing, upsizing loads
    /// the fan-in drivers) plus [`SweepConfig::tight_rel`] headroom.
    fn grid_bounds(&self, lib: &Library) -> Result<(f64, f64), SizeError> {
        let ones = vec![1.0; self.circuit.num_gates()];
        let loose = self.capped_value(ssta(self.circuit, lib, &ones).delay);
        let fastest = self
            .sizer(lib)
            .objective(Objective::MeanPlusKSigma(self.config.spec_k))
            .solve()?;
        let tight = self.capped_value(fastest.delay) * (1.0 + self.config.tight_rel);
        Ok((tight, loose.max(tight)))
    }

    /// Builds the walk-order (descending, loose to tight) grid from
    /// bounds, with the trailing infeasible probe when configured.
    fn grid_from_bounds(&self, tight: f64, loose: f64) -> Vec<f64> {
        let n = self.config.points.max(2);
        let mut grid: Vec<f64> = (0..n)
            .map(|i| loose + (tight - loose) * i as f64 / (n - 1) as f64)
            .collect();
        if self.config.infeasible_margin > 0.0 {
            let d_min = tight / (1.0 + self.config.tight_rel);
            grid.push(d_min * (1.0 - self.config.infeasible_margin));
        }
        grid
    }

    /// The auto-derived deadline grid in walk order (descending, loose to
    /// tight, trailing infeasible probe last).
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] when the minimum-delay anchor solve
    /// fails.
    pub fn grid(&self) -> Result<Vec<f64>, SizeError> {
        let (tight, loose) = self.grid_bounds(self.lib)?;
        Ok(self.grid_from_bounds(tight, loose))
    }

    /// Traces the frontier over the auto-derived grid with knee
    /// refinement per the config.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] when the anchor solves fail (grid
    /// derivation, or the loosest grid point itself). Infeasibility at
    /// tighter points is *not* an error — it becomes infeasible frontier
    /// points.
    pub fn deadline_frontier(&self) -> Result<Frontier, SizeError> {
        let grid = self.grid()?;
        self.trace(&grid)
    }

    /// Traces the frontier over caller-supplied deadlines (walked in the
    /// given order; warm starts chain best when walked loose to tight),
    /// then applies knee refinement per the config.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] when the first (anchor) point fails.
    pub fn trace(&self, deadlines: &[f64]) -> Result<Frontier, SizeError> {
        self.walk(self.lib, deadlines, self.config.refine_max)
    }

    /// Sweeps `k` over a `min mu + k sigma` objective (unconstrained —
    /// the robustness trade-off itself is the curve) in caller order,
    /// warm via [`Resolver::resolve_objective_k`]. Exactly repeated `k`
    /// values are answered from the previous point.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] when a solve diverges (there is no
    /// deadline to be infeasible against).
    pub fn k_sweep(&self, ks: &[f64]) -> Result<Vec<KPoint>, SizeError> {
        assert!(!ks.is_empty(), "k_sweep needs at least one k");
        let mut resolver = self
            .sizer(self.lib)
            .objective(Objective::MeanPlusKSigma(ks[0]))
            .resolver();
        let mut points: Vec<KPoint> = Vec::with_capacity(ks.len());
        for (i, &k) in ks.iter().enumerate() {
            assert!(k.is_finite(), "k_sweep k must be finite, got {k}");
            if let Some(prev) = points.last() {
                if prev.k.to_bits() == k.to_bits() {
                    sgs_metrics::incr(sgs_metrics::Counter::SweepPoints);
                    sgs_metrics::incr(sgs_metrics::Counter::SweepCacheHits);
                    let mut p = prev.clone();
                    p.cache_hit = true;
                    p.outer_iterations = 0;
                    p.seconds = 0.0;
                    points.push(p);
                    continue;
                }
            }
            sgs_metrics::incr(sgs_metrics::Counter::SweepPoints);
            let start = Instant::now();
            let out = if i == 0 {
                resolver.solve()
            } else {
                resolver.resolve_objective_k(k)
            };
            let seconds = start.elapsed().as_secs_f64();
            sgs_metrics::observe(sgs_metrics::HistId::SweepPointSeconds, seconds);
            let out = out?;
            if out.warm_start_hit {
                sgs_metrics::incr(sgs_metrics::Counter::SweepWarmHits);
            }
            points.push(KPoint {
                k,
                warm_start_hit: out.warm_start_hit,
                cache_hit: false,
                s: out.result.s.clone(),
                mu: out.result.delay.mean(),
                sigma: out.result.delay.sigma(),
                area: out.result.area,
                objective: out.result.objective,
                outer_iterations: out.result.outer_iterations,
                seconds,
            });
        }
        Ok(points)
    }

    /// Runs one independent session per corner **in parallel** over a
    /// shared grid (derived from the worst corner's bounds, so every
    /// corner sees the same deadlines — required for the point-wise
    /// merge; refinement is disabled for the same reason) and merges the
    /// per-corner frontiers into the worst-corner frontier.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] when any corner's anchor solve fails.
    ///
    /// # Panics
    ///
    /// Panics when `corners` is empty.
    pub fn corner_frontier(&self, corners: &[Corner]) -> Result<CornerFrontier, SizeError> {
        assert!(
            !corners.is_empty(),
            "corner_frontier needs at least one corner"
        );
        // Scale the libraries and derive each corner's bounds in
        // parallel (each needs a min-delay anchor solve).
        type CornerPrep = Result<(Library, (f64, f64)), SizeError>;
        let prep: Vec<CornerPrep> = corners
            .par_iter()
            .map(|c| {
                let lib = corner_library(self.lib, c);
                let bounds = self.grid_bounds(&lib)?;
                Ok((lib, bounds))
            })
            .collect();
        let mut libs = Vec::with_capacity(corners.len());
        let mut tight = f64::NEG_INFINITY;
        let mut loose = f64::NEG_INFINITY;
        for r in prep {
            let (lib, (t, l)) = r?;
            tight = tight.max(t);
            loose = loose.max(l);
            libs.push(lib);
        }
        // A shared grid covering the worst corner; looser corners simply
        // get slack at the tight end (possibly infeasible prefix points).
        let grid = self.grid_from_bounds(tight, loose.max(tight));
        let traced: Vec<Result<Frontier, SizeError>> = libs
            .par_iter()
            .map(|lib| self.walk(lib, &grid, 0))
            .collect();
        let mut traces = Vec::with_capacity(corners.len());
        for (corner, t) in corners.iter().zip(traced) {
            traces.push(CornerTrace {
                corner: corner.clone(),
                frontier: t?,
            });
        }
        let merged = merge_worst_corner(&traces);
        Ok(CornerFrontier {
            corners: traces,
            merged,
        })
    }

    /// The shared walk: solve each deadline in order on one warm session,
    /// then bisect the largest relative area jumps up to `refine_max`
    /// extra points. Returns the points sorted ascending by deadline.
    fn walk(
        &self,
        lib: &Library,
        deadlines: &[f64],
        refine_max: usize,
    ) -> Result<Frontier, SizeError> {
        assert!(!deadlines.is_empty(), "sweep needs at least one deadline");
        for &d in deadlines {
            assert!(d.is_finite(), "sweep deadline must be finite, got {d}");
        }
        let mut resolver = self
            .sizer(lib)
            .objective(self.objective.clone())
            .delay_spec(self.spec_for(deadlines[0]))
            .resolver();
        let mut points: Vec<FrontierPoint> = Vec::with_capacity(deadlines.len());
        for (i, &d) in deadlines.iter().enumerate() {
            if let Some(prev) = points.last() {
                if prev.deadline.to_bits() == d.to_bits() {
                    sgs_metrics::incr(sgs_metrics::Counter::SweepPoints);
                    sgs_metrics::incr(sgs_metrics::Counter::SweepCacheHits);
                    let mut p = prev.clone();
                    p.cache_hit = true;
                    p.outer_iterations = 0;
                    p.inner_iterations = 0;
                    p.evals = EvalCounts::default();
                    p.clark_var_clamps = 0;
                    p.seconds = 0.0;
                    points.push(p);
                    continue;
                }
            }
            let point = self.solve_point(&mut resolver, d, i == 0, false);
            if i == 0 && !point.feasible {
                // The anchor failing means there is nothing to warm-chain
                // from; surface the failure instead of an all-NaN curve.
                return Err(SizeError::SolverFailed {
                    status: "sweep anchor infeasible".to_string(),
                    c_norm: f64::NAN,
                });
            }
            points.push(point);
        }
        // Adaptive knee refinement: repeatedly bisect the adjacent
        // feasible pair with the largest relative area jump above the
        // trigger. The resolver stays warm from the last accepted point.
        let mut inserted = 0;
        while inserted < refine_max {
            points.sort_by(|a, b| a.deadline.total_cmp(&b.deadline));
            let Some((lo, hi)) = self.knee_pair(&points) else {
                break;
            };
            let mid = 0.5 * (lo + hi);
            let point = self.solve_point(&mut resolver, mid, false, true);
            points.push(point);
            inserted += 1;
        }
        points.sort_by(|a, b| a.deadline.total_cmp(&b.deadline));
        Ok(Frontier { points })
    }

    /// The adjacent feasible pair with the largest relative area jump
    /// above [`SweepConfig::knee_rel`], if any (`points` ascending).
    fn knee_pair(&self, points: &[FrontierPoint]) -> Option<(f64, f64)> {
        let mut best: Option<(f64, (f64, f64))> = None;
        for w in points.windows(2) {
            if !(w[0].feasible && w[1].feasible) {
                continue;
            }
            let gap = w[1].deadline - w[0].deadline;
            if gap <= 1e-6 * (1.0 + w[0].deadline.abs()) {
                continue; // already bisected down to numerical dust
            }
            let jump = (w[0].area - w[1].area) / (1.0 + w[1].area.abs());
            if jump > self.config.knee_rel && best.is_none_or(|(j, _)| jump > j) {
                best = Some((jump, (w[0].deadline, w[1].deadline)));
            }
        }
        best.map(|(_, pair)| pair)
    }

    /// Solves one point on the session, recording metrics and provenance.
    /// Infeasibility becomes an infeasible point, never an error: per the
    /// [`Resolver`] contract a rejected solve leaves the warm start (the
    /// last *accepted* solution) untouched, so the walk continues from
    /// the last good point.
    fn solve_point(
        &self,
        resolver: &mut Resolver<'_>,
        d: f64,
        first: bool,
        refined: bool,
    ) -> FrontierPoint {
        sgs_metrics::incr(sgs_metrics::Counter::SweepPoints);
        if refined {
            sgs_metrics::incr(sgs_metrics::Counter::SweepRefinements);
        }
        let start = Instant::now();
        let outcome = if first {
            resolver.solve()
        } else {
            resolver.resolve_spec(d)
        };
        let seconds = start.elapsed().as_secs_f64();
        sgs_metrics::observe(sgs_metrics::HistId::SweepPointSeconds, seconds);
        match outcome {
            Ok(out) => {
                if out.warm_start_hit {
                    sgs_metrics::incr(sgs_metrics::Counter::SweepWarmHits);
                }
                FrontierPoint::from_result(d, &out.result, out.warm_start_hit, refined, seconds)
            }
            Err(_) => {
                sgs_metrics::incr(sgs_metrics::Counter::SweepInfeasible);
                FrontierPoint::infeasible(d, refined, seconds)
            }
        }
    }
}

/// Point-wise worst-corner merge of per-corner frontiers traced over the
/// same grid: feasible iff all corners are feasible, carrying the
/// maximum-area corner's full solution (seconds summed across corners so
/// the merged provenance reflects total cost).
fn merge_worst_corner(traces: &[CornerTrace]) -> Frontier {
    let n = traces[0].frontier.points.len();
    debug_assert!(
        traces.iter().all(|t| t.frontier.points.len() == n),
        "corner frontiers must share the grid"
    );
    let mut merged = Vec::with_capacity(n);
    for i in 0..n {
        let at: Vec<&FrontierPoint> = traces.iter().map(|t| &t.frontier.points[i]).collect();
        let seconds: f64 = at.iter().map(|p| p.seconds).sum();
        let deadline = at[0].deadline;
        debug_assert!(
            at.iter()
                .all(|p| p.deadline.to_bits() == deadline.to_bits()),
            "corner frontiers must share deadlines point-wise"
        );
        if at.iter().all(|p| p.feasible) {
            let worst = at
                .iter()
                .max_by(|a, b| a.area.total_cmp(&b.area))
                .expect("at least one corner");
            let mut p = (*worst).clone();
            p.warm_start_hit = at.iter().all(|q| q.warm_start_hit || q.cache_hit);
            p.cache_hit = at.iter().all(|q| q.cache_hit);
            p.seconds = seconds;
            merged.push(p);
        } else {
            merged.push(FrontierPoint::infeasible(deadline, false, seconds));
        }
    }
    Frontier { points: merged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_netlist::generate;
    use std::sync::Mutex;

    /// Serializes the `SweepEngine` tests: `sweep_emits_point_and_warm_metrics`
    /// reads the process-wide metrics registry, so a sweep running
    /// concurrently in a sibling test would be counted too.
    static SWEEP: Mutex<()> = Mutex::new(());

    fn solo() -> std::sync::MutexGuard<'static, ()> {
        SWEEP.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lib() -> Library {
        Library::paper_default()
    }

    #[test]
    fn deadline_frontier_is_dominant_with_one_transition() {
        let _solo = solo();
        let c = generate::tree7();
        let l = lib();
        let f = SweepEngine::new(&c, &l)
            .config(SweepConfig {
                points: 6,
                refine_max: 2,
                ..SweepConfig::default()
            })
            .deadline_frontier()
            .unwrap();
        assert!(f.points.len() >= 7, "6 grid points + infeasible probe");
        f.check_dominance(1e-6).unwrap();
        f.verify_evaluation(&c, &l).unwrap();
        assert_eq!(
            f.transitions(),
            1,
            "the probe below min delay must be the only infeasible prefix"
        );
        assert!(f.warm_interior_fraction() >= 0.75);
    }

    #[test]
    fn repeated_deadline_is_served_from_cache_bit_identically() {
        let _solo = solo();
        let c = generate::tree7();
        let l = lib();
        let engine = SweepEngine::new(&c, &l);
        let d = 6.8;
        let f = engine.trace(&[7.0, d, d, 6.5]).unwrap();
        // Walk order descends, ascending sort keeps the repeat adjacent.
        let repeats: Vec<&FrontierPoint> = f
            .points
            .iter()
            .filter(|p| p.deadline.to_bits() == d.to_bits())
            .collect();
        assert_eq!(repeats.len(), 2);
        assert_eq!(repeats.iter().filter(|p| p.cache_hit).count(), 1);
        let bits = |p: &FrontierPoint| p.s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(repeats[0]), bits(repeats[1]), "no-op step moved sizes");
        assert_eq!(repeats[0].area.to_bits(), repeats[1].area.to_bits());
    }

    #[test]
    fn k_sweep_value_is_non_decreasing_and_warm() {
        let _solo = solo();
        let c = generate::tree7();
        let l = lib();
        let points = SweepEngine::new(&c, &l)
            .k_sweep(&[0.0, 1.0, 1.0, 2.0, 3.0])
            .unwrap();
        assert_eq!(points.len(), 5);
        assert!(points[2].cache_hit, "repeated k must be cache-served");
        for w in points.windows(2) {
            assert!(
                w[1].objective >= w[0].objective - 1e-6 * (1.0 + w[0].objective.abs()),
                "V(k) dropped from {} (k {}) to {} (k {})",
                w[0].objective,
                w[0].k,
                w[1].objective,
                w[1].k
            );
        }
        assert!(points[1..].iter().all(|p| p.warm_start_hit || p.cache_hit));
    }

    #[test]
    fn corner_frontier_merges_to_the_worst_corner() {
        let _solo = solo();
        let c = generate::tree7();
        let l = lib();
        let corners = [
            Corner::nominal(),
            Corner::scaled("slow", 1.15, 1.10),
            Corner::scaled("fast", 0.90, 0.95),
        ];
        let cf = SweepEngine::new(&c, &l)
            .config(SweepConfig {
                points: 5,
                refine_max: 0,
                ..SweepConfig::default()
            })
            .corner_frontier(&corners)
            .unwrap();
        assert_eq!(cf.corners.len(), 3);
        let n = cf.merged.points.len();
        assert!(cf.corners.iter().all(|t| t.frontier.points.len() == n));
        cf.merged.check_dominance(1e-6).unwrap();
        for (i, p) in cf.merged.points.iter().enumerate() {
            let per: Vec<&FrontierPoint> =
                cf.corners.iter().map(|t| &t.frontier.points[i]).collect();
            assert_eq!(p.feasible, per.iter().all(|q| q.feasible));
            if p.feasible {
                let worst = per.iter().map(|q| q.area).fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(p.area.to_bits(), worst.to_bits());
            }
        }
        // The slow corner must bind somewhere on the feasible segment.
        let slow = &cf.corners[1].frontier;
        assert!(cf
            .merged
            .points
            .iter()
            .zip(&slow.points)
            .any(|(m, s)| m.feasible && m.area.to_bits() == s.area.to_bits()));
    }

    #[test]
    fn corner_library_scales_every_kind() {
        let l = lib();
        let corner = Corner::scaled("slow", 1.2, 1.1);
        let scaled = corner_library(&l, &corner);
        for &kind in GateKind::all() {
            let base = l.params(kind);
            let got = scaled.params(kind);
            assert!((got.t_int - base.t_int * 1.2).abs() < 1e-12);
            assert!((got.c_in - base.c_in * 1.1).abs() < 1e-12);
        }
        assert_eq!(scaled.s_limit, l.s_limit);
    }

    #[test]
    fn sweep_emits_point_and_warm_metrics() {
        let _solo = solo();
        sgs_metrics::reset();
        sgs_metrics::enable();
        let c = generate::tree7();
        let l = lib();
        let f = SweepEngine::new(&c, &l)
            .config(SweepConfig {
                points: 4,
                refine_max: 1,
                ..SweepConfig::default()
            })
            .deadline_frontier()
            .unwrap();
        let snap = sgs_metrics::snapshot(sgs_metrics::Metadata::default());
        sgs_metrics::reset();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert_eq!(counter("sweep_points"), f.points.len() as u64);
        assert!(counter("sweep_warm_hits") >= f.points.len() as u64 - 2);
        assert!(counter("sweep_infeasible_points") >= 1, "probe must count");
        let refined = f.points.iter().filter(|p| p.refined).count() as u64;
        assert_eq!(counter("sweep_refinements"), refined);
        // The histogram observes each solved point's own seconds.
        let solved: Vec<f64> = f
            .points
            .iter()
            .filter(|p| !p.cache_hit)
            .map(|p| p.seconds)
            .collect();
        let h = &snap.hists["sweep_point_seconds"];
        assert_eq!(h.count, solved.len() as u64);
        let total: f64 = solved.iter().sum();
        assert!(
            (h.sum - total).abs() <= 1e-9 * total,
            "{} against {total}",
            h.sum
        );
    }
}
