//! Warm-session store: one dedicated worker thread per live circuit.
//!
//! [`sgs_core::Resolver`] borrows its `Circuit` and `Library`, so a
//! long-lived warm session cannot be boxed into a shared struct without
//! self-references. Instead each session is a **worker thread** that owns
//! circuit, library and resolver on its stack and serves jobs from an
//! `mpsc` channel. The channel doubles as the session lock: concurrent
//! clients of the *same* circuit serialise naturally in queue order,
//! while distinct circuits run on distinct threads in parallel.
//!
//! Eviction is equally channel-shaped: the store drops its `Sender`, the
//! worker drains whatever jobs were already queued and exits. A later
//! request for the same key re-creates the session cold — a correct
//! (fresh-solve) answer, just slower. A worker that died (a panic in a
//! solve drops its receiver) is retired the same way by the first send
//! that fails, see [`SessionStore::submit`].

use crate::error::{self, ServeError};
use crate::proto::{self, SessionSpec};
use sgs_core::{Resolver, SizeError, Sizer};
use sgs_netlist::{GateId, Library};
use sgs_trace::request::{RequestContext, SPAN_SESSION_WAIT};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, SendError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

/// One operation a session worker can perform.
#[derive(Debug, Clone)]
pub enum Op {
    /// Solve (cold) or warm-verify; when `deadline` differs from the
    /// session's current deadline this becomes a warm deadline move.
    Solve {
        /// Deadline carried by the request's spec, if any.
        deadline: Option<f64>,
    },
    /// Warm deadline what-if: move the cap to `d`, re-solve warm.
    ResolveSpec {
        /// The new deadline.
        d: f64,
    },
    /// Warm size what-if: pin the listed gates, re-solve the rest warm.
    ResolveSizes {
        /// `(gate, size)` pins.
        changes: Vec<(GateId, f64)>,
    },
    /// Evaluation-only probe: apply sizes, report delay/objective without
    /// re-optimising. Note this **moves the session's working point**
    /// (the paper's incremental-SSTA usage): a later `ResolveSizes`
    /// starts from the probed sizes, while `Solve` and `ResolveSpec`
    /// start from the last answer's.
    WhatIf {
        /// `(gate, size)` perturbations.
        changes: Vec<(GateId, f64)>,
    },
}

/// One unit of work sent to a session worker.
pub struct Job {
    /// Server-assigned request id, echoed in the response body.
    pub request_id: u64,
    /// What to do.
    pub op: Op,
    /// Whether this request found the session warm (echoed in the body).
    pub session_hit: bool,
    /// Where the rendered response body (or error) goes. Rendezvous
    /// channel: the server thread blocks here until the worker answers.
    pub reply: SyncSender<Result<String, ServeError>>,
    /// The originating request's trace context, when request tracing is
    /// on. The worker records its queue wait and op span into it; the
    /// rendezvous reply means all recording finishes before the server
    /// thread completes the trace.
    pub ctx: Option<Arc<RequestContext>>,
    /// When the server thread enqueued this job (session-queue wait
    /// starts here).
    pub queued_at: Instant,
}

struct Entry {
    tx: Sender<Job>,
    canonical: String,
    last_used: u64,
    /// Tick at which the worker was spawned: tells a dead session apart
    /// from the fresh one that may already have replaced it.
    born: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
}

/// LRU store of live sessions, keyed by [`SessionSpec::key`].
pub struct SessionStore {
    capacity: usize,
    inner: Mutex<Inner>,
}

/// What a checkout learned: the session's job channel and whether it was
/// already warm.
pub struct Checkout {
    /// Clone of the session's job channel.
    pub tx: Sender<Job>,
    /// `false` when this request created (or re-created) the session.
    pub session_hit: bool,
    /// The session key (hex-rendered into trace records).
    pub key: u64,
    born: u64,
}

impl SessionStore {
    /// Creates a store evicting least-recently-used sessions beyond
    /// `capacity` (which must be at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SessionStore {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
        }
    }

    /// Number of live sessions.
    #[must_use]
    pub fn live(&self) -> usize {
        self.inner.lock().expect("session store poisoned").map.len()
    }

    /// Finds the warm session for `spec` or spawns a cold one, evicting
    /// the least-recently-used session when at capacity.
    pub fn checkout(&self, spec: &SessionSpec) -> Checkout {
        let key = spec.key();
        let canonical = spec.canonical();
        let mut inner = self.inner.lock().expect("session store poisoned");
        inner.tick += 1;
        let tick = inner.tick;

        if let Some(entry) = inner.map.get_mut(&key) {
            if entry.canonical == canonical {
                entry.last_used = tick;
                sgs_metrics::incr(sgs_metrics::Counter::ServeSessionHits);
                return Checkout {
                    tx: entry.tx.clone(),
                    session_hit: true,
                    key,
                    born: entry.born,
                };
            }
            // FNV collision between distinct formulations: the newcomer
            // wins the slot (dropping the Sender retires the old worker).
            inner.map.remove(&key);
            sgs_metrics::incr(sgs_metrics::Counter::ServeSessionEvictions);
        }

        while inner.map.len() >= self.capacity {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty map has an LRU entry");
            inner.map.remove(&lru);
            sgs_metrics::incr(sgs_metrics::Counter::ServeSessionEvictions);
        }

        let (tx, rx) = std::sync::mpsc::channel::<Job>();
        let worker_spec = spec.clone();
        thread::Builder::new()
            .name(format!("sgs-session-{key:016x}"))
            .spawn(move || run_session(&worker_spec, &rx))
            .expect("spawning a session worker");
        inner.map.insert(
            key,
            Entry {
                tx: tx.clone(),
                canonical,
                last_used: tick,
                born: tick,
            },
        );
        sgs_metrics::incr(sgs_metrics::Counter::ServeSessionMisses);
        set_live_gauge(&inner);
        Checkout {
            tx,
            session_hit: false,
            key,
            born: tick,
        }
    }

    /// Checks out the session for `spec` and queues `job` on it, with
    /// `job.session_hit` set from the checkout and `job.queued_at` from
    /// the send.
    ///
    /// A session whose worker has died (a panic dropped its job
    /// receiver) is retired on the spot and the job, handed back by the
    /// failed send, goes to a fresh cold session. A worker panic then
    /// costs only the requests already queued on that worker, not every
    /// later request for the circuit.
    ///
    /// # Errors
    ///
    /// `500 internal` when the fresh worker is gone too.
    pub fn submit(&self, spec: &SessionSpec, mut job: Job) -> Result<Checkout, ServeError> {
        let checkout = self.checkout(spec);
        job.session_hit = checkout.session_hit;
        job.queued_at = Instant::now();
        let Err(SendError(mut job)) = checkout.tx.send(job) else {
            return Ok(checkout);
        };
        self.retire(&checkout);
        let checkout = self.checkout(spec);
        job.session_hit = checkout.session_hit;
        job.queued_at = Instant::now();
        checkout
            .tx
            .send(job)
            .map_err(|_| ServeError::new(500, error::E_INTERNAL, "session worker is gone"))?;
        Ok(checkout)
    }

    /// Drops the store's entry for a dead session, unless a concurrent
    /// request has already replaced it with a fresh one.
    fn retire(&self, dead: &Checkout) {
        let mut inner = self.inner.lock().expect("session store poisoned");
        if inner
            .map
            .get(&dead.key)
            .is_some_and(|e| e.born == dead.born)
        {
            inner.map.remove(&dead.key);
            set_live_gauge(&inner);
        }
    }
}

fn set_live_gauge(inner: &Inner) {
    #[allow(clippy::cast_precision_loss)]
    sgs_metrics::set_gauge(
        sgs_metrics::Gauge::ServeSessionsLive,
        inner.map.len() as f64,
    );
}

fn solver_error(e: &SizeError) -> ServeError {
    ServeError::new(422, error::E_SOLVER, e.to_string())
}

fn check_range(changes: &[(GateId, f64)], num_gates: usize) -> Result<(), ServeError> {
    for (g, _) in changes {
        if g.index() >= num_gates {
            return Err(ServeError::bad_request(
                error::E_BAD_FIELD,
                format!(
                    "gate {} out of range (circuit has {num_gates} gates)",
                    g.index()
                ),
            ));
        }
    }
    Ok(())
}

/// The session worker body: builds the circuit once, then serves jobs
/// until every `Sender` clone is dropped (eviction or server shutdown).
fn run_session(spec: &SessionSpec, rx: &Receiver<Job>) {
    let lib = Library::paper_default();
    let circuit = match spec.build_circuit() {
        Ok(c) => c,
        Err(e) => {
            // The payload validated at parse time but failed to
            // elaborate (e.g. BLIF text referencing undefined nets):
            // answer every queued job with the error, then retire.
            while let Ok(job) = rx.recv() {
                let _ = job.reply.send(Err(e.clone()));
            }
            return;
        }
    };
    let num_gates = circuit.num_gates();
    let mut resolver: Resolver<'_> = Sizer::new(&circuit, &lib)
        .objective(spec.objective.clone())
        .delay_spec(spec.spec.clone())
        .resolver();
    let mut current_deadline = spec.deadline();
    let has_deadline_spec = current_deadline.is_some();

    while let Ok(job) = rx.recv() {
        let picked_up = Instant::now();
        let wait = picked_up
            .checked_duration_since(job.queued_at)
            .unwrap_or_default()
            .as_secs_f64();
        sgs_metrics::observe(sgs_metrics::HistId::ServeSessionWaitSeconds, wait);
        let req = job.ctx.as_deref();
        if let Some(c) = req {
            c.record_span(SPAN_SESSION_WAIT, job.queued_at, picked_up);
        }
        let op_open = req.map(|c| (c, c.open(op_name(&job.op))));
        let reply = match &job.op {
            Op::Solve { deadline } => {
                let moved = deadline.is_some() && *deadline != current_deadline;
                let out = if moved {
                    let d = deadline.expect("moved implies a deadline");
                    // The engine's deadline moves even when the re-solve
                    // fails (the warm start keeps the last *accepted*
                    // solution); track what the engine has, or a retry at
                    // the old deadline would wrongly skip the move back.
                    current_deadline = Some(d);
                    resolver.resolve_spec_traced(d, req)
                } else {
                    resolver.solve_traced(req)
                };
                out.map(|o| proto::solve_result_json(job.request_id, &o, job.session_hit))
                    .map_err(|e| solver_error(&e))
            }
            Op::ResolveSpec { d } => {
                if !has_deadline_spec {
                    Err(ServeError::bad_request(
                        error::E_BAD_FIELD,
                        "resolve with \"deadline\" needs a session whose spec has a deadline",
                    ))
                } else {
                    // As above: the engine's deadline moves even on failure.
                    current_deadline = Some(*d);
                    resolver
                        .resolve_spec_traced(*d, req)
                        .map(|o| proto::solve_result_json(job.request_id, &o, job.session_hit))
                        .map_err(|e| solver_error(&e))
                }
            }
            Op::ResolveSizes { changes } => check_range(changes, num_gates).and_then(|()| {
                resolver
                    .resolve_sizes_traced(changes, req)
                    .map(|o| proto::solve_result_json(job.request_id, &o, job.session_hit))
                    .map_err(|e| solver_error(&e))
            }),
            Op::WhatIf { changes } => check_range(changes, num_gates).map(|()| {
                let report = resolver.what_if_traced(changes, req);
                proto::what_if_result_json(job.request_id, &report, job.session_hit)
            }),
        };
        if let Some((c, open)) = op_open {
            c.close(open);
        }
        // A vanished client (dropped reply receiver) is not the session's
        // problem; keep serving the queue.
        let _ = job.reply.send(reply);
    }
}

/// The op's span name in the request trace. The `op_` prefix keeps it
/// apart from the solver's phase spans nested inside it, so a served
/// solve reads `op_solve > solve > reduced_space`. No `build_problem`
/// span appears under it: that phase times building a resolver, which
/// the worker does once when the session starts, before any request's
/// context attaches, and a default (`ReducedSpace`) solve builds no
/// `SizingProblem` either.
fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Solve { .. } => "op_solve",
        Op::ResolveSpec { .. } => "op_resolve_spec",
        Op::ResolveSizes { .. } => "op_resolve_sizes",
        Op::WhatIf { .. } => "op_what_if",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_trace::json::parse_json;
    use std::sync::mpsc::sync_channel;

    fn spec(body: &str) -> SessionSpec {
        SessionSpec::parse(&parse_json(body).unwrap()).unwrap()
    }

    fn ask(tx: &Sender<Job>, op: Op, hit: bool) -> Result<String, ServeError> {
        let (reply, rx) = sync_channel(0);
        tx.send(Job {
            request_id: 1,
            op,
            session_hit: hit,
            reply,
            ctx: None,
            queued_at: Instant::now(),
        })
        .expect("worker alive");
        rx.recv().expect("worker answers")
    }

    #[test]
    fn checkout_hits_warm_sessions_and_ignores_deadline() {
        let store = SessionStore::new(4);
        let a = spec(r#"{"circuit":{"builtin":"tree7"},"spec":{"max_mean":9.0}}"#);
        let b = spec(r#"{"circuit":{"builtin":"tree7"},"spec":{"max_mean":6.5}}"#);
        let c1 = store.checkout(&a);
        assert!(!c1.session_hit);
        let c2 = store.checkout(&b);
        assert!(c2.session_hit, "deadline-only change must stay warm");
        assert_eq!(c1.key, c2.key);
        assert_eq!(store.live(), 1);
    }

    #[test]
    fn lru_eviction_keeps_capacity() {
        let store = SessionStore::new(2);
        let mk = |n: u64| {
            spec(&format!(
                r#"{{"circuit":{{"generate":{{"cells":10,"inputs":4,"depth":3,"seed":{n}}}}}}}"#
            ))
        };
        store.checkout(&mk(1));
        store.checkout(&mk(2));
        store.checkout(&mk(1)); // refresh 1 → 2 is now LRU
        store.checkout(&mk(3)); // evicts 2
        assert_eq!(store.live(), 2);
        assert!(store.checkout(&mk(1)).session_hit);
        assert!(!store.checkout(&mk(2)).session_hit, "2 was evicted");
    }

    #[test]
    fn worker_solves_and_stays_warm() {
        let store = SessionStore::new(2);
        let s =
            spec(r#"{"circuit":{"builtin":"tree7"},"objective":"area","spec":{"max_mean":9.0}}"#);
        let co = store.checkout(&s);
        let body = ask(
            &co.tx,
            Op::Solve {
                deadline: Some(9.0),
            },
            co.session_hit,
        )
        .unwrap();
        let v = parse_json(body.trim()).unwrap();
        assert_eq!(
            v.get("event").and_then(sgs_trace::json::Json::as_str),
            Some("solve_result")
        );
        // Deadline move through the same worker: warm re-solve.
        let body2 = ask(&co.tx, Op::ResolveSpec { d: 8.0 }, true).unwrap();
        let v2 = parse_json(body2.trim()).unwrap();
        assert_eq!(
            v2.get("warm_start_hit")
                .map(|b| *b == sgs_trace::json::Json::Bool(true)),
            Some(true)
        );
    }

    #[test]
    fn dead_worker_is_retired_and_the_job_resent_cold() {
        let store = SessionStore::new(2);
        let s =
            spec(r#"{"circuit":{"builtin":"tree7"},"objective":"area","spec":{"max_mean":9.0}}"#);
        // A session whose worker died: its receiver is gone.
        let (dead_tx, dead_rx) = std::sync::mpsc::channel::<Job>();
        drop(dead_rx);
        store.inner.lock().unwrap().map.insert(
            s.key(),
            Entry {
                tx: dead_tx,
                canonical: s.canonical(),
                last_used: 0,
                born: 0,
            },
        );
        let (reply, rx) = sync_channel(0);
        let job = Job {
            request_id: 7,
            op: Op::Solve {
                deadline: Some(9.0),
            },
            session_hit: true,
            reply,
            ctx: None,
            queued_at: Instant::now(),
        };
        let co = store
            .submit(&s, job)
            .expect("the job reaches a live worker");
        assert!(!co.session_hit, "the replacement session starts cold");
        let body = rx.recv().expect("worker answers").expect("solve succeeds");
        let v = parse_json(body.trim()).unwrap();
        assert_eq!(
            v.get("session_hit"),
            Some(&sgs_trace::json::Json::Bool(false))
        );
        assert_eq!(store.live(), 1);
        // The fresh session stays warm for the next request.
        assert!(store.checkout(&s).session_hit);
    }

    #[test]
    fn out_of_range_gates_answer_bad_field_not_panic() {
        let store = SessionStore::new(2);
        let s = spec(r#"{"circuit":{"builtin":"tree7"}}"#);
        let co = store.checkout(&s);
        let err = ask(
            &co.tx,
            Op::WhatIf {
                changes: vec![(GateId(999), 2.0)],
            },
            false,
        )
        .unwrap_err();
        assert_eq!(err.code, error::E_BAD_FIELD);
        // The worker survived: a valid probe still answers.
        let ok = ask(
            &co.tx,
            Op::WhatIf {
                changes: vec![(GateId(0), 2.0)],
            },
            true,
        );
        assert!(ok.is_ok());
    }
}
