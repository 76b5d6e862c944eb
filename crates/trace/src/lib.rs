//! Structured solver observability with pluggable sinks.
//!
//! The optimisation stack (`sgs-nlp::auglag`, `sgs-core::reduced`,
//! `sgs-core::resolve`, `sgs-analyze`) reports its progress as typed
//! [`TraceEvent`]s — one convergence record per outer iteration (an
//! augmented-Lagrangian outer iteration or a reduced-space multiplier
//! round), one [`TraceEvent::PhaseSpan`] per instrumented wall-clock
//! phase, counters, divergence records, and a final machine-readable run
//! report —
//! delivered to a caller-supplied [`TraceSink`]:
//!
//! - [`NopSink`]: the default. Reports itself as disabled, so every event
//!   constructor is skipped entirely — the hot path performs **no
//!   allocation and no formatting** (see `tests/alloc_noop.rs`, which
//!   proves it with a counting global allocator).
//! - [`MemorySink`]: a bounded in-memory ring buffer, for tests and
//!   programmatic inspection.
//! - [`JsonlSink`]: one JSON object per line to a file, the
//!   machine-readable format the bench binaries emit under `--trace=FILE`
//!   and CI validates with [`json::validate_jsonl`].
//!
//! Producers never talk to a sink directly; they hold a cheap, `Copy`
//! [`Tracer`] handle and call [`Tracer::emit`] with a closure, which is
//! only invoked when the sink is enabled:
//!
//! ```
//! use sgs_trace::{MemorySink, TraceEvent, Tracer};
//! let sink = MemorySink::new();
//! let tracer = Tracer::new(&sink);
//! tracer.emit(|| TraceEvent::Counter { name: "gates", value: 7 });
//! assert_eq!(sink.len(), 1);
//! ```
//!
//! Phase spans come from `sgs_metrics::phase`, whose one guard feeds the
//! metrics registry, the sink and the attached request context alike.

pub mod chrome;
pub mod json;
pub mod request;
pub mod ring;

pub use request::{RequestContext, RequestTrace};
pub use ring::RingSink;

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Underlying problem-evaluation counts attached to solve-level events.
///
/// Mirrors `sgs-nlp`'s `EvalCounts` without depending on it (this crate is
/// a leaf; the solver crates depend on *it*).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalReport {
    /// Objective evaluations.
    pub objective: u64,
    /// Objective-gradient evaluations.
    pub gradient: u64,
    /// Constraint-vector evaluations.
    pub constraints: u64,
    /// Jacobian-value evaluations.
    pub jacobian: u64,
    /// Lagrangian-Hessian evaluations.
    pub hessian: u64,
}

/// One augmented-Lagrangian outer-iteration convergence record.
#[derive(Debug, Clone, PartialEq)]
pub struct OuterRecord {
    /// Outer (multiplier/penalty) iteration index, 0-based.
    pub outer: usize,
    /// Merit (augmented-Lagrangian) value at the iterate.
    pub merit: f64,
    /// Constraint infinity norm (KKT feasibility residual).
    pub c_norm: f64,
    /// Projected-gradient infinity norm of the augmented Lagrangian
    /// (KKT stationarity residual at the current multipliers).
    pub pg_norm: f64,
    /// Penalty parameter in force for this iteration.
    pub rho: f64,
    /// Infinity norm of the multiplier estimates.
    pub lambda_norm: f64,
    /// Inner trust-region iterations spent in this outer iteration.
    pub inner_iterations: usize,
    /// Inner CG iterations spent in this outer iteration.
    pub cg_iterations: usize,
    /// Whether the inner solve moved the iterate (step acceptance).
    pub step_accepted: bool,
    /// Whether the inner solve reached its own tolerance.
    pub inner_converged: bool,
}

/// Final record of one solver invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRecord {
    /// Terminal status (`"converged"`, `"max_iterations"`,
    /// `"penalty_cap"`, `"diverged"`, `"time_budget"`, `"stalled"`).
    pub status: String,
    /// Final objective value.
    pub objective: f64,
    /// Final constraint infinity norm.
    pub c_norm: f64,
    /// Outer iterations used.
    pub outer_iterations: usize,
    /// Total inner iterations used.
    pub inner_iterations: usize,
    /// Underlying problem evaluations performed.
    pub evals: EvalReport,
}

/// Machine-readable summary of one bench-binary run (the `--trace=FILE`
/// run report).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Producing binary (e.g. `"size_blif"`).
    pub bin: String,
    /// Circuit or workload identifier.
    pub circuit: String,
    /// Outcome status (`"ok"`, solver status, or an error string).
    pub status: String,
    /// Final objective value (NaN when not applicable).
    pub objective: f64,
    /// `mu_Tmax` at the solution (NaN when not applicable).
    pub mu: f64,
    /// `sigma_Tmax` at the solution (NaN when not applicable).
    pub sigma: f64,
    /// Area `sum S_i` at the solution (NaN when not applicable).
    pub area: f64,
    /// Wall-clock seconds of the run.
    pub seconds: f64,
    /// Underlying problem evaluations, when a solver ran.
    pub evals: EvalReport,
    /// Clark variance clamps that fired during the run (the
    /// `clark_var_clamped` counter; 0 when no solver ran or none fired).
    pub clark_var_clamps: u64,
}

/// A structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One outer-iteration convergence record.
    Outer(OuterRecord),
    /// A named wall-clock phase, recorded when its guard drops.
    PhaseSpan {
        /// Phase name (an `sgs_metrics::Phase` name, e.g. `"solve"`,
        /// `"inner_tr"`, `"auglag"`).
        phase: &'static str,
        /// Span duration in seconds.
        seconds: f64,
    },
    /// A named counter sample.
    Counter {
        /// Counter name.
        name: &'static str,
        /// Counter value.
        value: u64,
    },
    /// Divergence detected (non-finite objective/constraints/iterate):
    /// the structured replacement for silent garbage.
    Diverged {
        /// Outer iteration at which divergence was detected.
        outer: usize,
        /// Human-readable description of which quantity went non-finite.
        detail: String,
        /// The offending iterate.
        x: Vec<f64>,
    },
    /// Final record of a solver invocation.
    SolveDone(SolveRecord),
    /// One incremental what-if query served by the `what_if` bench bin.
    WhatIfQuery {
        /// Query index within the session (0-based).
        query: usize,
        /// Gates whose arrival the incremental engine recomputed (the
        /// whole circuit on the `--full` path).
        gates_recomputed: u64,
        /// Whether the full from-scratch path served the query.
        full: bool,
        /// Wall-clock seconds of the query.
        seconds: f64,
    },
    /// One HTTP request served (or rejected at admission) by the
    /// `sgs-serve` daemon: the per-request trace id plus its routing and
    /// session outcome.
    ServeRequest {
        /// Monotonic per-server request id (also echoed to the client as
        /// the response's `"request_id"` field).
        id: u64,
        /// Route name (`"solve"`, `"health"`, ...; `"admission"` for
        /// connections rejected before parsing).
        route: String,
        /// HTTP status code of the response.
        status: u16,
        /// Stable error code for non-2xx responses, empty otherwise.
        code: String,
        /// Session key (hex) the request resolved to, empty for
        /// sessionless routes.
        session: String,
        /// Whether an existing warm session served the request.
        session_hit: bool,
        /// Wall-clock seconds from parsed request to rendered response.
        seconds: f64,
    },
    /// Final machine-readable report of a bench-binary run.
    Run(RunReport),
}

impl TraceEvent {
    /// Stable kind tag used as the `"event"` field of the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Outer(_) => "outer_iteration",
            TraceEvent::PhaseSpan { .. } => "phase_span",
            TraceEvent::Counter { .. } => "counter",
            TraceEvent::Diverged { .. } => "diverged",
            TraceEvent::SolveDone(_) => "solve_done",
            TraceEvent::WhatIfQuery { .. } => "what_if_query",
            TraceEvent::ServeRequest { .. } => "serve_request",
            TraceEvent::Run(_) => "run_report",
        }
    }
}

/// Receiver of [`TraceEvent`]s.
///
/// Implementations must tolerate events from any producer in any order.
/// `enabled` is the *contract with the hot path*: when it returns `false`,
/// producers skip event construction entirely, so `record` is never
/// called.
pub trait TraceSink: Sync {
    /// Whether events should be constructed and delivered at all.
    fn enabled(&self) -> bool {
        true
    }
    /// Delivers one event.
    fn record(&self, event: &TraceEvent);
    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// The disabled sink: [`TraceSink::enabled`] is `false` and `record` is
/// unreachable in practice. This is the default everywhere tracing is
/// optional.
#[derive(Debug, Clone, Copy, Default)]
pub struct NopSink;

impl TraceSink for NopSink {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&self, _event: &TraceEvent) {}
}

/// The shared no-op sink [`Tracer::none`] points at.
pub static NOP_SINK: NopSink = NopSink;

/// A bounded in-memory ring buffer of events, for tests and programmatic
/// inspection. When full, the oldest event is dropped.
#[derive(Debug)]
pub struct MemorySink {
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
}

impl Default for MemorySink {
    fn default() -> Self {
        Self::new()
    }
}

impl MemorySink {
    /// A ring holding up to 65 536 events.
    pub fn new() -> Self {
        Self::with_capacity(65_536)
    }

    /// A ring holding up to `capacity` events (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        MemorySink {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether no event has been recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().iter().cloned().collect()
    }

    /// Number of buffered events satisfying `pred`.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| pred(e))
            .count()
    }

    /// Total seconds recorded by `PhaseSpan` events named `phase`.
    pub fn span_seconds(&self, phase: &str) -> f64 {
        self.events
            .lock()
            .unwrap()
            .iter()
            .map(|e| match e {
                TraceEvent::PhaseSpan { phase: p, seconds } if *p == phase => *seconds,
                _ => 0.0,
            })
            .sum()
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: &TraceEvent) {
        let mut q = self.events.lock().unwrap();
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(event.clone());
    }
}

/// Writes one JSON object per event to a file (JSON Lines). Best-effort:
/// I/O errors after creation are swallowed — observability must never
/// fail the solve it observes.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncates) `path` for writing.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        let mut line = json::to_json(event);
        line.push('\n');
        let mut w = self.writer.lock().unwrap();
        let _ = w.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.writer.lock().unwrap().flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.flush();
        }
    }
}

/// Cheap, copyable handle producers thread through their call stacks.
///
/// The closure passed to [`Tracer::emit`] runs only when the tracer is
/// active, so event payloads (strings, iterate vectors) are never built
/// on the disabled path.
///
/// Besides the sink, a tracer may carry a borrowed
/// [`request::RequestContext`] (see [`Tracer::attach`]): phase guards
/// then also open spans in the request's span tree, and counter events
/// become request notes — this is how the daemon attributes solver phases to the HTTP
/// request that triggered them. A tracer with a context is active even
/// when its sink is [`NopSink`].
#[derive(Clone, Copy)]
pub struct Tracer<'a> {
    sink: &'a dyn TraceSink,
    ctx: Option<&'a request::RequestContext>,
}

impl std::fmt::Debug for Tracer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field(
                "request",
                &self.ctx.map(request::RequestContext::request_id),
            )
            .finish()
    }
}

impl<'a> Tracer<'a> {
    /// A tracer delivering to `sink`.
    pub fn new(sink: &'a dyn TraceSink) -> Self {
        Tracer { sink, ctx: None }
    }

    /// The disabled tracer (delivers to [`NOP_SINK`]).
    pub fn none() -> Tracer<'static> {
        Tracer {
            sink: &NOP_SINK,
            ctx: None,
        }
    }

    /// This tracer, additionally delivering spans and counters to the
    /// given request context (`None` leaves the tracer unchanged). The
    /// result's lifetime shrinks to the context borrow.
    pub fn attach<'b>(self, ctx: Option<&'b request::RequestContext>) -> Tracer<'b>
    where
        'a: 'b,
    {
        Tracer {
            sink: self.sink,
            ctx: ctx.or(self.ctx),
        }
    }

    /// The attached request context, if any.
    pub fn request(&self) -> Option<&'a request::RequestContext> {
        self.ctx
    }

    /// Whether events will actually be delivered to the *sink* (the
    /// hot-path construction gate; a request context alone also
    /// activates [`Tracer::emit`]).
    pub fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Builds (only if the sink is enabled or a request context is
    /// attached) and delivers one event: to the sink when enabled, and —
    /// for [`TraceEvent::Counter`] — as a note on the request context.
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        let sink_on = self.sink.enabled();
        if !sink_on && self.ctx.is_none() {
            return;
        }
        let event = make();
        if sink_on {
            self.sink.record(&event);
        }
        if let (Some(ctx), TraceEvent::Counter { name, value }) = (self.ctx, &event) {
            ctx.note(name, *value);
        }
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        self.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(v: u64) -> TraceEvent {
        TraceEvent::Counter {
            name: "n",
            value: v,
        }
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let sink = MemorySink::new();
        let t = Tracer::new(&sink);
        for i in 0..5 {
            t.emit(|| counter(i));
        }
        let ev = sink.events();
        assert_eq!(ev.len(), 5);
        assert_eq!(ev[0], counter(0));
        assert_eq!(ev[4], counter(4));
    }

    #[test]
    fn memory_sink_ring_evicts_oldest() {
        let sink = MemorySink::with_capacity(3);
        let t = Tracer::new(&sink);
        for i in 0..10 {
            t.emit(|| counter(i));
        }
        let ev = sink.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0], counter(7));
        assert_eq!(ev[2], counter(9));
    }

    #[test]
    fn nop_tracer_never_invokes_closure() {
        let t = Tracer::none();
        let mut called = false;
        t.emit(|| {
            called = true;
            counter(0)
        });
        assert!(!called);
        assert!(!t.enabled());
    }

    #[test]
    fn event_kinds_are_stable() {
        assert_eq!(counter(0).kind(), "counter");
        assert_eq!(
            TraceEvent::PhaseSpan {
                phase: "p",
                seconds: 0.0
            }
            .kind(),
            "phase_span"
        );
        assert_eq!(
            TraceEvent::Diverged {
                outer: 0,
                detail: String::new(),
                x: vec![]
            }
            .kind(),
            "diverged"
        );
    }
}
