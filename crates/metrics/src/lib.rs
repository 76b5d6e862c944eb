//! Process-wide metrics registry for the sgs stack.
//!
//! `sgs-trace` (PR 2) reports raw *events*; this crate is the aggregation
//! layer that turns them into an operable telemetry surface: counters,
//! gauges, log-bucketed [`hist::Histogram`]s and a hierarchical wall-clock
//! [`Phase`] profile, all held in `static` fixed-size atomic storage — the
//! same process-global-atomic idiom as `sgs_statmath::clark::var_clamp_count`,
//! generalised.
//!
//! Design rules:
//!
//! - **Disabled by default, one relaxed load to stay that way.** Every
//!   hot-path entry point ([`add`], [`observe`], [`set_gauge`],
//!   [`time_hist`]) checks a single `AtomicBool` and returns ([`phase`]
//!   also asks its tracer); the disabled path reads no clock, takes no
//!   lock and allocates nothing
//!   (`tests/alloc_disabled.rs` pins this with a counting global
//!   allocator). Instrumented solver code therefore never changes
//!   behaviour or numerics — metrics only *observe*.
//! - **Lock-free when enabled.** Metric identities are compile-time enums
//!   ([`Counter`], [`Gauge`], [`HistId`], [`Phase`]) indexing fixed
//!   `static` atomic arrays: recording is a relaxed `fetch_add`/CAS on
//!   pre-existing storage. The fixed metric set is also what makes run
//!   snapshots a *versioned schema*: `sgs_report lint` checks a snapshot's
//!   structure, and the golden transcripts (`tests/golden/bitident_*.txt`)
//!   pin every deterministic value of the metered solves.
//! - **No clock reads the library owns the meaning of.** Snapshot
//!   metadata (git sha, thread count, circuit, timestamp) is passed in by
//!   the binary; the library never calls `Date::now`-equivalents for
//!   anything but interval measurement.
//!
//! The registry is process-global, so tests that enable it must
//! serialise against each other (see `tests/integration_metrics.rs`,
//! which shares one `Mutex`).

pub mod alloc;
pub mod hist;
pub mod prom;
pub mod report;
pub mod snapshot;
pub mod window;

pub use hist::{HistSnapshot, Histogram};
pub use snapshot::{Metadata, PhaseSnap, Snapshot, SCHEMA_VERSION};

use sgs_trace::request::OpenSpan;
use sgs_trace::{RequestContext, TraceEvent, Tracer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

macro_rules! metric_enum {
    ($(#[$em:meta])* $name:ident { $($(#[$vm:meta])* $var:ident => $s:literal,)+ }) => {
        $(#[$em])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vm])* $var,)+
        }

        impl $name {
            /// Number of variants (storage array length).
            pub const COUNT: usize = [$($name::$var),+].len();
            /// Every variant in declaration order.
            pub const ALL: [$name; Self::COUNT] = [$($name::$var),+];

            /// Stable snake_case name used in snapshots and exposition.
            #[must_use]
            pub const fn name(self) -> &'static str {
                match self { $($name::$var => $s,)+ }
            }
        }
    };
}

metric_enum! {
    /// Monotone event counters.
    Counter {
        /// Augmented-Lagrangian solver invocations.
        NlpSolves => "nlp_solves",
        /// Outer (multiplier/penalty) iterations across all solves.
        NlpOuterIterations => "nlp_outer_iterations",
        /// Inner trust-region iterations across all solves.
        NlpInnerIterations => "nlp_inner_iterations",
        /// Inner CG iterations across all solves.
        NlpCgIterations => "nlp_cg_iterations",
        /// Solves that ended in divergence (NaN/Inf guard tripped).
        NlpDiverged => "nlp_diverged",
        /// Warm starts offered to the solver.
        NlpWarmOffered => "nlp_warm_start_offered",
        /// Warm starts accepted (dimension/finiteness checks passed).
        NlpWarmAccepted => "nlp_warm_start_accepted",
        /// Objective evaluations performed by the cached problem.
        NlpEvalsObjective => "nlp_evals_objective",
        /// Objective-gradient evaluations.
        NlpEvalsGradient => "nlp_evals_gradient",
        /// Constraint-vector evaluations.
        NlpEvalsConstraints => "nlp_evals_constraints",
        /// Jacobian-value evaluations.
        NlpEvalsJacobian => "nlp_evals_jacobian",
        /// Lagrangian-Hessian evaluations.
        NlpEvalsHessian => "nlp_evals_hessian",
        /// `Sizer::solve` invocations.
        SizerSolves => "sizer_solves",
        /// Perturbed-restart attempts. No solve restarts any more, so it
        /// reads 0; kept for the benchmark's per-layer report.
        SizerRestarts => "sizer_restarts",
        /// Greedy fallbacks. No solve falls back any more, so it reads 0;
        /// kept for the benchmark's per-layer report.
        SizerGreedyFallbacks => "sizer_greedy_fallbacks",
        /// Solves rejected by a preflight analyzer gate.
        SizerPreflightRejections => "sizer_preflight_rejections",
        /// Answers carried by the augmented-Lagrangian point (full-space
        /// solves only).
        AnswerAugLag => "answer_auglag",
        /// Answers carried by the reduced-space seed.
        AnswerSeed => "answer_seed",
        /// Multiplier rounds (one truncated-Newton run each) of the
        /// reduced-space pass.
        ReducedRounds => "reduced_rounds",
        /// Projected truncated-Newton iterations of the reduced-space pass.
        ReducedNewtonIterations => "reduced_newton_iterations",
        /// Reduced-space objective-value evaluations.
        ReducedEvalsValue => "reduced_evals_value",
        /// Reduced-space adjoint-gradient evaluations.
        ReducedEvalsGrad => "reduced_evals_grad",
        /// Reduced-space Hessian-vector products (CG iterations).
        ReducedHessVecs => "reduced_hess_vecs",
        /// Multiplier rounds whose Newton run stopped at its iteration
        /// cap.
        ReducedCapHits => "reduced_cap_hits",
        /// Clark max variance clamps fired during solves.
        ClarkVarClamps => "clark_var_clamps",
        /// Warm-started re-solves performed by `Resolver`.
        ResolveSolves => "resolve_solves",
        /// Evaluation-only what-if queries served by `Resolver`.
        ResolveWhatIfQueries => "resolve_what_if_queries",
        /// Full (from-scratch) SSTA passes.
        SstaFullPasses => "ssta_full_passes",
        /// Incremental SSTA update calls.
        SstaIncrementalUpdates => "ssta_incremental_updates",
        /// Gates re-timed by incremental updates.
        SstaGatesRecomputed => "ssta_gates_recomputed",
        /// Gates pruned by incremental bit-equality early termination.
        SstaFrontierPruned => "ssta_frontier_pruned",
        /// Monte Carlo runs.
        McRuns => "mc_runs",
        /// Monte Carlo trials drawn across all runs.
        McSamples => "mc_samples",
        /// Static-analyzer invocations.
        AnalyzeRuns => "analyze_runs",
        /// Error-severity diagnostics reported by the analyzer.
        AnalyzeErrors => "analyze_errors",
        /// Warning-severity diagnostics reported by the analyzer.
        AnalyzeWarnings => "analyze_warnings",
        /// Frontier points traced by `SweepEngine` sweeps (feasible or
        /// not, including cache-served repeats).
        SweepPoints => "sweep_points",
        /// Sweep points whose re-solve accepted the carried warm start.
        SweepWarmHits => "sweep_warm_hits",
        /// Extra points inserted by adaptive knee refinement.
        SweepRefinements => "sweep_refinements",
        /// Sweep points whose deadline proved infeasible.
        SweepInfeasible => "sweep_infeasible_points",
        /// No-op sweep steps answered from the last accepted point
        /// without re-solving (repeated deadline).
        SweepCacheHits => "sweep_cache_hits",
        /// HTTP requests parsed and routed by the `sgs-serve` daemon
        /// (rejected-at-admission connections are counted separately).
        ServeRequests => "serve_requests",
        /// Requests answered with a structured 4xx/5xx error body.
        ServeErrors => "serve_errors",
        /// Connections rejected with `429 Retry-After` because the
        /// admission queue was full.
        ServeRejectedSaturated => "serve_rejected_saturated",
        /// Session-store lookups answered by an existing warm session.
        ServeSessionHits => "serve_session_hits",
        /// Session-store lookups that created a new (cold) session.
        ServeSessionMisses => "serve_session_misses",
        /// Warm sessions evicted by the LRU policy to admit a new one.
        ServeSessionEvictions => "serve_session_evictions",
    }
}

metric_enum! {
    /// Last-value gauges.
    Gauge {
        /// Objective value at the end of the most recent NLP solve.
        NlpLastObjective => "nlp_last_objective",
        /// Constraint infinity norm at the end of the most recent solve.
        NlpLastCNorm => "nlp_last_c_norm",
        /// Projected-gradient norm at the end of the most recent solve.
        NlpLastPgNorm => "nlp_last_pg_norm",
        /// Wall-clock seconds of the whole run (set by the binary).
        RunSeconds => "run_seconds",
        /// Connections waiting in the `sgs-serve` admission queue.
        ServeQueueDepth => "serve_queue_depth",
        /// Warm sessions currently held by the `sgs-serve` session store.
        ServeSessionsLive => "serve_sessions_live",
    }
}

metric_enum! {
    /// Log-bucketed histogram identities.
    HistId {
        /// Wall-clock seconds per augmented-Lagrangian outer iteration.
        NlpOuterSeconds => "nlp_outer_seconds",
        /// Wall-clock seconds per full SSTA pass.
        SstaFullSeconds => "ssta_full_seconds",
        /// Gates recomputed per incremental SSTA update.
        SstaIncrementalGates => "ssta_incremental_gates",
        /// Wall-clock seconds per what-if query.
        WhatIfSeconds => "what_if_seconds",
        /// Wall-clock seconds per traced sweep point (solve included).
        SweepPointSeconds => "sweep_point_seconds",
        /// Served `/solve` request latency (parse to response body).
        ServeSolveSeconds => "serve_solve_seconds",
        /// Served `/resolve` request latency.
        ServeResolveSeconds => "serve_resolve_seconds",
        /// Served `/what_if` request latency.
        ServeWhatIfSeconds => "serve_what_if_seconds",
        /// Served `/analyze` request latency.
        ServeAnalyzeSeconds => "serve_analyze_seconds",
        /// Seconds each parsed request spent in the admission (accept)
        /// queue before a connection worker picked it up.
        ServeQueueWaitSeconds => "serve_queue_wait_seconds",
        /// Seconds each sizing request spent in its session worker's job
        /// queue before the worker started it.
        ServeSessionWaitSeconds => "serve_session_wait_seconds",
    }
}

metric_enum! {
    /// Hierarchical wall-clock profile phases.
    ///
    /// Each phase is timed by one guard ([`phase`] or [`stage`]) that
    /// feeds the registry, the trace's `phase_span` events and the request
    /// timeline under this name, so the three views agree by construction.
    Phase {
        /// Circuit/library loading (binary-level).
        Load => "load",
        /// Unsized baseline SSTA and its reporting (binary-level).
        Baseline => "baseline",
        /// One sizing solve: a `Resolver` cold solve (which is what
        /// `Sizer::solve` runs) or warm re-solve. Its seconds are the
        /// `SizingResult::seconds` of the solves it timed.
        Solve => "solve",
        /// The reduced-space seed inside a solve: the answer under the
        /// default `SolverChoice::ReducedSpace`, the full-space solver's
        /// warm start under `SolverChoice::FullSpace`.
        ReducedSpace => "reduced_space",
        /// Building a `Resolver`: its incremental SSTA engine.
        BuildProblem => "build_problem",
        /// The augmented-Lagrangian optimisation of
        /// `SolverChoice::FullSpace`, building its problem included.
        Auglag => "auglag",
        /// Inner trust-region solves inside `auglag`.
        InnerTr => "inner_tr",
        /// Scoring a solve's candidates on the incremental engine.
        Evaluate => "evaluate",
        /// One static-analyzer run, standalone or as `Sizer::solve`'s
        /// pre-solve gate.
        Analyze => "analyze",
        /// Analyzer stage 1: structural netlist lints.
        AnalyzeLints => "analyze_lints",
        /// Analyzer stage 2: interval safety proofs.
        AnalyzeIntervals => "analyze_intervals",
        /// Analyzer stage 3: derivative-structure verification.
        AnalyzeDerivatives => "analyze_derivatives",
        /// Output emission: tables, reports, snapshot files (binary-level).
        Emit => "emit",
    }
}

impl Phase {
    /// Parent phase in the profile tree (`None` for roots).
    #[must_use]
    pub const fn parent(self) -> Option<Phase> {
        match self {
            Phase::Load
            | Phase::Baseline
            | Phase::BuildProblem
            | Phase::Solve
            | Phase::Analyze
            | Phase::Emit => None,
            Phase::ReducedSpace | Phase::Auglag | Phase::Evaluate => Some(Phase::Solve),
            Phase::InnerTr => Some(Phase::Auglag),
            Phase::AnalyzeLints | Phase::AnalyzeIntervals | Phase::AnalyzeDerivatives => {
                Some(Phase::Analyze)
            }
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTERS: [AtomicU64; Counter::COUNT] = [const { AtomicU64::new(0) }; Counter::COUNT];
/// Gauge slots hold `f64` bit patterns (initialised to `0.0`).
static GAUGES: [AtomicU64; Gauge::COUNT] = [const { AtomicU64::new(0) }; Gauge::COUNT];
static HISTS: [Histogram; HistId::COUNT] = [const { Histogram::new() }; HistId::COUNT];
static PHASE_NANOS: [AtomicU64; Phase::COUNT] = [const { AtomicU64::new(0) }; Phase::COUNT];
static PHASE_COUNTS: [AtomicU64; Phase::COUNT] = [const { AtomicU64::new(0) }; Phase::COUNT];

/// Whether the registry is recording. One relaxed load — this is the
/// entire cost of every instrumentation site while disabled.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off (process-wide).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Zeroes every counter, gauge, histogram and phase accumulator.
///
/// Tests that enable the registry call this under their shared lock;
/// binaries never need it.
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for g in &GAUGES {
        g.store(0, Ordering::Relaxed);
    }
    for h in &HISTS {
        h.reset();
    }
    for p in &PHASE_NANOS {
        p.store(0, Ordering::Relaxed);
    }
    for p in &PHASE_COUNTS {
        p.store(0, Ordering::Relaxed);
    }
    window::reset_windows();
}

/// Adds `n` to a counter (no-op while disabled).
#[inline]
pub fn add(c: Counter, n: u64) {
    if enabled() {
        COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Adds 1 to a counter (no-op while disabled).
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Current counter value (0 while never enabled).
#[must_use]
pub fn counter_value(c: Counter) -> u64 {
    COUNTERS[c as usize].load(Ordering::Relaxed)
}

/// Stores a gauge value (no-op while disabled).
#[inline]
pub fn set_gauge(g: Gauge, v: f64) {
    if enabled() {
        GAUGES[g as usize].store(v.to_bits(), Ordering::Relaxed);
    }
}

/// Current gauge value.
#[must_use]
pub fn gauge_value(g: Gauge) -> f64 {
    f64::from_bits(GAUGES[g as usize].load(Ordering::Relaxed))
}

/// Records one histogram observation (no-op while disabled).
#[inline]
pub fn observe(h: HistId, v: f64) {
    if enabled() {
        HISTS[h as usize].observe(v);
    }
}

/// Snapshot of one registry histogram (mainly for tests).
#[must_use]
pub fn hist_snapshot(h: HistId) -> HistSnapshot {
    HISTS[h as usize].snapshot(h.name())
}

/// RAII guard timing one [`Phase`] into every view that is on.
///
/// Created by [`phase`] or [`stage`]. From one pair of clock readings it
/// adds to the registry when that is enabled and emits a
/// [`TraceEvent::PhaseSpan`] when the tracer's sink is; it also opens and
/// closes the phase's span in the tracer's request context, if any. With
/// all three off it reads no clock, and neither it nor its drop
/// allocates.
#[must_use = "a phase guard records time only when it is dropped"]
pub struct PhaseGuard<'a> {
    id: Phase,
    tracer: Tracer<'a>,
    metered: bool,
    start: Option<Instant>,
    open: Option<(&'a RequestContext, OpenSpan)>,
}

impl<'a> PhaseGuard<'a> {
    fn begin(tracer: Tracer<'a>, id: Phase, start: impl FnOnce() -> Instant) -> Self {
        let metered = enabled();
        let open = tracer.request().map(|ctx| (ctx, ctx.open(id.name())));
        PhaseGuard {
            id,
            tracer,
            metered,
            start: (metered || tracer.enabled()).then(start),
            open,
        }
    }

    /// Records the phase as ending at `end` (once).
    fn end(&mut self, end: impl FnOnce() -> Instant) {
        if let Some(start) = self.start.take() {
            let elapsed = end().duration_since(start);
            if self.metered {
                let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
                PHASE_NANOS[self.id as usize].fetch_add(nanos, Ordering::Relaxed);
                PHASE_COUNTS[self.id as usize].fetch_add(1, Ordering::Relaxed);
            }
            let (phase, seconds) = (self.id.name(), elapsed.as_secs_f64());
            self.tracer
                .emit(|| TraceEvent::PhaseSpan { phase, seconds });
        }
        if let Some((ctx, open)) = self.open.take() {
            ctx.close(open);
        }
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.end(Instant::now);
    }
}

/// Starts timing a profile phase into the registry, `tracer`'s sink and
/// its request context (see [`PhaseGuard`]); the phase ends when the
/// guard drops. Free while all three are off.
#[inline]
pub fn phase(tracer: Tracer<'_>, id: Phase) -> PhaseGuard<'_> {
    PhaseGuard::begin(tracer, id, Instant::now)
}

/// Runs `f` as phase `id` starting at `*clock` rather than now, then moves
/// `*clock` to the reading the phase ended at. Stages run through one
/// clock this way tile its wall clock with no gap between them. The clock
/// is read even when nothing records the phase.
pub fn stage<T>(tracer: Tracer<'_>, id: Phase, clock: &mut Instant, f: impl FnOnce() -> T) -> T {
    let mut guard = PhaseGuard::begin(tracer, id, || *clock);
    let out = f();
    let end = Instant::now();
    guard.end(|| end);
    *clock = end;
    out
}

/// RAII guard recording an elapsed-seconds observation into a histogram.
#[must_use = "a histogram timer records its observation only when dropped"]
pub struct HistTimer {
    id: HistId,
    start: Option<Instant>,
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            HISTS[self.id as usize].observe(start.elapsed().as_secs_f64());
        }
    }
}

/// Starts timing one histogram observation (seconds on drop). Free while
/// disabled.
#[inline]
pub fn time_hist(id: HistId) -> HistTimer {
    HistTimer {
        id,
        start: enabled().then(Instant::now),
    }
}

/// Accumulated seconds in a phase so far (mainly for tests).
#[must_use]
pub fn phase_seconds(id: Phase) -> f64 {
    PHASE_NANOS[id as usize].load(Ordering::Relaxed) as f64 * 1e-9
}

/// Number of completed phase spans recorded for `id`.
#[must_use]
pub fn phase_count(id: Phase) -> u64 {
    PHASE_COUNTS[id as usize].load(Ordering::Relaxed)
}

/// Captures the entire registry as a versioned [`Snapshot`].
///
/// `meta` is caller-supplied — git sha, thread count, circuit and
/// timestamp are *inputs*, never sampled by the library.
#[must_use]
pub fn snapshot(meta: Metadata) -> Snapshot {
    let mut counters = std::collections::BTreeMap::new();
    for c in Counter::ALL {
        counters.insert(c.name().to_string(), counter_value(c));
    }
    counters.insert("alloc_calls".to_string(), alloc::allocation_calls());
    counters.insert("alloc_bytes".to_string(), alloc::allocation_bytes());
    let mut gauges = std::collections::BTreeMap::new();
    for g in Gauge::ALL {
        gauges.insert(g.name().to_string(), gauge_value(g));
    }
    // Sliding-window SLO quantiles: injected like the allocator counters
    // above — only for routes that saw traffic, so non-serve snapshots
    // are byte-identical to the pre-window schema.
    for r in window::Route::ALL {
        if let Some(q) = window::route_quantiles(r) {
            let n = r.name();
            gauges.insert(format!("serve_window_{n}_p50_seconds"), q.p50);
            gauges.insert(format!("serve_window_{n}_p95_seconds"), q.p95);
            gauges.insert(format!("serve_window_{n}_p99_seconds"), q.p99);
            counters.insert(format!("serve_window_{n}_requests"), q.count as u64);
        }
    }
    let mut hists = std::collections::BTreeMap::new();
    for h in HistId::ALL {
        hists.insert(h.name().to_string(), hist_snapshot(h));
    }
    let mut phases = std::collections::BTreeMap::new();
    for p in Phase::ALL {
        phases.insert(
            p.name().to_string(),
            PhaseSnap {
                name: p.name().to_string(),
                parent: p.parent().map(|q| q.name().to_string()),
                seconds: phase_seconds(p),
                count: phase_count(p),
            },
        );
    }
    Snapshot {
        schema_version: SCHEMA_VERSION,
        meta,
        counters,
        gauges,
        hists,
        phases,
    }
}

/// The registry is process-global; unit tests that enable, reset, or
/// read it must not interleave (also used by `window::tests`).
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_LOCK as LOCK;
    use sgs_trace::MemorySink;

    #[test]
    fn disabled_path_records_nothing() {
        let _g = LOCK.lock().unwrap();
        disable();
        reset();
        add(Counter::NlpSolves, 3);
        set_gauge(Gauge::RunSeconds, 1.5);
        observe(HistId::NlpOuterSeconds, 0.25);
        drop(phase(Tracer::none(), Phase::Solve));
        drop(time_hist(HistId::WhatIfSeconds));
        assert_eq!(counter_value(Counter::NlpSolves), 0);
        assert_eq!(gauge_value(Gauge::RunSeconds), 0.0);
        assert_eq!(hist_snapshot(HistId::NlpOuterSeconds).count, 0);
        assert_eq!(phase_count(Phase::Solve), 0);
    }

    #[test]
    fn enabled_path_records_and_resets() {
        let _g = LOCK.lock().unwrap();
        enable();
        reset();
        add(Counter::NlpSolves, 2);
        incr(Counter::NlpSolves);
        set_gauge(Gauge::NlpLastCNorm, 1e-9);
        observe(HistId::SstaIncrementalGates, 7.0);
        {
            let _p = phase(Tracer::none(), Phase::Auglag);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(counter_value(Counter::NlpSolves), 3);
        assert_eq!(gauge_value(Gauge::NlpLastCNorm), 1e-9);
        assert_eq!(hist_snapshot(HistId::SstaIncrementalGates).count, 1);
        assert_eq!(phase_count(Phase::Auglag), 1);
        assert!(phase_seconds(Phase::Auglag) > 0.0);
        disable();
        reset();
        assert_eq!(counter_value(Counter::NlpSolves), 0);
        assert_eq!(phase_count(Phase::Auglag), 0);
    }

    #[test]
    fn span_records_elapsed_time() {
        let _g = LOCK.lock().unwrap();
        enable();
        reset();
        let sink = MemorySink::new();
        let ctx = RequestContext::new(1);
        {
            let _p = phase(Tracer::new(&sink).attach(Some(&ctx)), Phase::Analyze);
            let _c = phase(Tracer::new(&sink).attach(Some(&ctx)), Phase::AnalyzeLints);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        disable();
        // One reading pair feeds the registry and the sink.
        for p in [Phase::Analyze, Phase::AnalyzeLints] {
            assert_eq!(phase_count(p), 1);
            assert!(sink.span_seconds(p.name()) >= 0.002);
            assert!((phase_seconds(p) - sink.span_seconds(p.name())).abs() < 1e-9);
        }
        // The request context nests the inner phase under the outer one.
        let t = ctx.finish("/x", 200, "", "", false);
        let outer = t.spans.iter().find(|s| s.name == "analyze").unwrap();
        let inner = t.spans.iter().find(|s| s.name == "analyze_lints").unwrap();
        assert_eq!((outer.parent, inner.parent), (0, outer.id));
        reset();
    }

    #[test]
    fn stages_tile_their_clock() {
        let _g = LOCK.lock().unwrap();
        enable();
        reset();
        let sink = MemorySink::new();
        let t = Tracer::new(&sink);
        let start = Instant::now();
        let mut clock = start;
        assert_eq!(stage(t, Phase::ReducedSpace, &mut clock, || 7), 7);
        // Time between stages is charged to the next one.
        std::thread::sleep(std::time::Duration::from_millis(2));
        stage(t, Phase::Evaluate, &mut clock, || ());
        disable();
        let total = clock.duration_since(start).as_secs_f64();
        let spans = sink.span_seconds("reduced_space") + sink.span_seconds("evaluate");
        let metered = phase_seconds(Phase::ReducedSpace) + phase_seconds(Phase::Evaluate);
        assert!((spans - total).abs() <= 1e-9, "{spans} of {total}");
        assert!((metered - total).abs() <= 1e-8, "{metered} of {total}");
        assert!(sink.span_seconds("evaluate") >= 0.002);
        reset();
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = LOCK.lock().unwrap();
        disable();
        reset();
        // A sink alone records the span without touching the registry.
        let sink = MemorySink::new();
        drop(phase(Tracer::new(&sink), Phase::Solve));
        assert_eq!(sink.len(), 1);
        assert_eq!(phase_count(Phase::Solve), 0);
        // With everything off the clock still moves for stages; the
        // allocation-freeness is proven in tests/alloc_disabled.rs.
        let mut clock = Instant::now();
        let before = clock;
        stage(Tracer::none(), Phase::Solve, &mut clock, || ());
        assert!(clock >= before);
        assert_eq!(phase_count(Phase::Solve), 0);
    }

    #[test]
    fn window_quantiles_gate_on_enabled_and_inject_into_snapshot() {
        let _g = LOCK.lock().unwrap();
        disable();
        reset();
        // Disabled: nothing recorded, nothing injected.
        window::observe_route(window::Route::Resolve, 0.25);
        assert!(window::route_quantiles(window::Route::Resolve).is_none());
        enable();
        for i in 1..=5 {
            window::observe_route(window::Route::Resolve, f64::from(i) * 0.1);
        }
        let s = snapshot(Metadata::default());
        assert_eq!(s.counters["serve_window_resolve_requests"], 5);
        assert!((s.gauges["serve_window_resolve_p50_seconds"] - 0.3).abs() < 1e-12);
        assert!(s.gauges.contains_key("serve_window_resolve_p99_seconds"));
        // Routes without traffic inject nothing.
        assert!(!s.gauges.contains_key("serve_window_analyze_p50_seconds"));
        disable();
        reset();
        assert!(window::route_quantiles(window::Route::Resolve).is_none());
    }

    #[test]
    fn snapshot_covers_every_declared_metric() {
        let _g = LOCK.lock().unwrap();
        disable();
        reset();
        let s = snapshot(Metadata::default());
        for c in Counter::ALL {
            assert!(s.counters.contains_key(c.name()), "missing {}", c.name());
        }
        assert!(s.counters.contains_key("alloc_calls"));
        assert!(s.counters.contains_key("alloc_bytes"));
        for g in Gauge::ALL {
            assert!(s.gauges.contains_key(g.name()));
        }
        for h in HistId::ALL {
            assert!(s.hists.contains_key(h.name()));
        }
        for p in Phase::ALL {
            let snap = &s.phases[p.name()];
            assert_eq!(snap.parent.as_deref(), p.parent().map(Phase::name));
        }
    }

    #[test]
    fn phase_parents_form_a_tree_rooted_at_none() {
        for p in Phase::ALL {
            let mut cur = p;
            let mut depth = 0;
            while let Some(parent) = cur.parent() {
                cur = parent;
                depth += 1;
                assert!(depth < 10, "cycle in phase parent chain at {}", p.name());
            }
        }
    }
}
