//! The daemon: acceptor, bounded admission queue, worker pool, routing.
//!
//! Concurrency model — three thread kinds:
//!
//! 1. the **acceptor** pulls connections off the listener. When the
//!    admission queue is full it answers `429` + `Retry-After` inline
//!    and closes — backpressure, not unbounded buffering;
//! 2. a fixed pool of **connection workers** pops queued connections and
//!    runs the keep-alive request loop (parse → route → respond).
//!    Connection workers never size; they forward to
//! 3. **session workers** ([`crate::session`]), one per live circuit,
//!    which own the warm [`sgs_core::Resolver`] state.
//!
//! Every request gets a monotonically increasing id, echoed in the
//! response body, recorded as a `serve_request` trace event and timed
//! into the per-route `serve_*_seconds` histograms.

use crate::error::{self, ServeError};
use crate::http::{self, Limits, ReadOutcome, Request};
use crate::proto::{self, SessionSpec};
use crate::session::{Job, Op, SessionStore};
use sgs_trace::json::{push_json_f64, push_json_string};
use sgs_trace::request::{RequestContext, RequestTrace, SPAN_ADMISSION_WAIT};
use sgs_trace::{chrome, RingSink, TraceEvent, TraceSink, Tracer};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Connection-worker pool size.
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it get `429`.
    pub queue_capacity: usize,
    /// Maximum live warm sessions before LRU eviction.
    pub session_capacity: usize,
    /// HTTP framing limits.
    pub limits: Limits,
    /// Per-read socket timeout. Doubles as the keep-alive idle timeout:
    /// an idle connection is dropped after one quiet interval.
    pub read_timeout: Duration,
    /// Completed request traces retained for `GET /debug/traces` (the
    /// ring's drop-oldest capacity). `0` disables request tracing.
    pub trace_capacity: usize,
    /// JSONL access log (one `"access"` event per completed request);
    /// `None` disables it.
    pub access_log: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            session_capacity: 8,
            limits: Limits::default(),
            read_timeout: Duration::from_secs(5),
            trace_capacity: 256,
            access_log: None,
        }
    }
}

struct Shared {
    cfg: ServerConfig,
    store: SessionStore,
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    ready: Condvar,
    shutdown: AtomicBool,
    next_request_id: AtomicU64,
    trace: Option<Arc<dyn TraceSink + Send + Sync>>,
    ring: Option<RingSink>,
    access: Option<Mutex<std::fs::File>>,
}

impl Shared {
    /// The single request-id allocator: every response path — routed
    /// requests, framing errors, inline 429 rejections — mints its
    /// daemon-unique id here.
    fn next_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether per-request contexts should be built at all.
    fn wants_request_trace(&self) -> bool {
        self.ring.is_some() || self.access.is_some()
    }

    /// Completes a request's trace: one access-log line, then retention
    /// in the ring (both best-effort — observability never fails the
    /// request it observes).
    fn finish_request(
        &self,
        ctx: &RequestContext,
        route: &str,
        status: u16,
        code: &str,
        session: &str,
        session_hit: bool,
    ) {
        let trace = ctx.finish(route, status, code, session, session_hit);
        if let Some(file) = &self.access {
            let mut line = String::with_capacity(192);
            line.push_str("{\"event\":\"access\",");
            line.push_str(&trace_fields(&trace));
            line.push_str("}\n");
            let mut f = file.lock().expect("access log poisoned");
            let _ = f.write_all(line.as_bytes());
        }
        if let Some(ring) = &self.ring {
            ring.push(trace);
        }
    }
}

/// The shared field set of access-log lines and `/debug/traces` summary
/// entries (an object body without the surrounding braces).
fn trace_fields(t: &RequestTrace) -> String {
    let mut s = String::with_capacity(160);
    let _ = write!(s, "\"request_id\":{},\"route\":", t.request_id);
    push_json_string(&mut s, &t.route);
    let _ = write!(s, ",\"status\":{},\"code\":", t.status);
    push_json_string(&mut s, &t.code);
    s.push_str(",\"session\":");
    push_json_string(&mut s, &t.session);
    let _ = write!(s, ",\"session_hit\":{},\"seconds\":", t.session_hit);
    push_json_f64(&mut s, t.total_seconds);
    s.push_str(",\"admission_wait_seconds\":");
    push_json_f64(&mut s, t.admission_wait_seconds);
    s.push_str(",\"session_wait_seconds\":");
    push_json_f64(&mut s, t.session_wait_seconds);
    let _ = write!(s, ",\"spans\":{}", t.spans.len());
    s
}

/// A running daemon. Dropping it without [`Server::shutdown`] leaves the
/// threads running for the life of the process.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor + worker pool and returns immediately.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener or creating the access log.
    pub fn start(
        cfg: ServerConfig,
        trace: Option<Arc<dyn TraceSink + Send + Sync>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let ring = (cfg.trace_capacity > 0).then(|| RingSink::new(cfg.trace_capacity));
        let access = match &cfg.access_log {
            Some(path) => Some(Mutex::new(std::fs::File::create(path)?)),
            None => None,
        };
        let shared = Arc::new(Shared {
            store: SessionStore::new(cfg.session_capacity),
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_request_id: AtomicU64::new(1),
            trace,
            ring,
            access,
            cfg,
        });

        let mut workers = Vec::with_capacity(shared.cfg.workers);
        for i in 0..shared.cfg.workers.max(1) {
            let s = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sgs-serve-worker-{i}"))
                    .spawn(move || worker_loop(&s))
                    .expect("spawning a connection worker"),
            );
        }
        let s = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("sgs-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &s))
            .expect("spawning the acceptor");

        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Number of live warm sessions.
    #[must_use]
    pub fn sessions_live(&self) -> usize {
        self.shared.store.live()
    }

    /// Stops accepting, drains the queue, joins every thread.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Poke the blocking accept() loose.
        let _ = TcpStream::connect(self.local_addr);
        self.shared.ready.notify_all();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // The acceptor is gone; wake workers until each one observes
        // shutdown with an empty queue and exits.
        for w in self.workers.drain(..) {
            self.shared.ready.notify_all();
            let _ = w.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let depth = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            if q.len() >= shared.cfg.queue_capacity {
                drop(q);
                reject_saturated(stream, shared);
                continue;
            }
            q.push_back((stream, Instant::now()));
            q.len()
        };
        #[allow(clippy::cast_precision_loss)]
        sgs_metrics::set_gauge(sgs_metrics::Gauge::ServeQueueDepth, depth as f64);
        shared.ready.notify_one();
    }
}

/// Answers `429 Too Many Requests` inline on the acceptor thread (cheap:
/// one write, no parsing) and closes.
fn reject_saturated(mut stream: TcpStream, shared: &Shared) {
    sgs_metrics::incr(sgs_metrics::Counter::ServeRejectedSaturated);
    sgs_metrics::incr(sgs_metrics::Counter::ServeRequests);
    sgs_metrics::incr(sgs_metrics::Counter::ServeErrors);
    let id = shared.next_id();
    let err = ServeError::new(
        429,
        error::E_SATURATED,
        "admission queue full; retry after the Retry-After interval",
    );
    let body = err.to_json(id);
    let _ = http::write_response(
        &mut stream,
        429,
        "application/json",
        &body,
        false,
        &[("Retry-After", "1".to_string())],
    );
    emit_trace(shared, id, "-", 429, error::E_SATURATED, "-", false, 0.0);
    if shared.wants_request_trace() {
        // A minimal trace: rejected before admission, so the whole
        // request is one empty-bodied span tree rooted at "now".
        let ctx = RequestContext::with_epoch(id, Instant::now());
        shared.finish_request(&ctx, "admission", 429, error::E_SATURATED, "-", false);
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(s) = q.pop_front() {
                    #[allow(clippy::cast_precision_loss)]
                    sgs_metrics::set_gauge(sgs_metrics::Gauge::ServeQueueDepth, q.len() as f64);
                    break Some(s);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.ready.wait(q).expect("queue poisoned");
            }
        };
        let Some((stream, enqueued)) = stream else {
            return;
        };
        handle_connection(stream, enqueued, shared);
    }
}

/// The keep-alive loop of one connection.
///
/// `enqueued` is the instant the acceptor queued the connection; the gap
/// between it and the first read is the **admission wait**, observed into
/// `serve_queue_wait_seconds` and recorded as the `admission_wait` span of
/// the connection's first request. Follow-on keep-alive requests have no
/// admission wait — their epoch is the instant their read began.
fn handle_connection(stream: TcpStream, enqueued: Instant, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    let mut admission: Option<Instant> = Some(enqueued);
    loop {
        let read_begin = Instant::now();
        let outcome = http::read_request(&mut reader, &shared.cfg.limits);
        if matches!(outcome, Ok(ReadOutcome::Closed)) {
            // The peer hung up between requests: nothing was asked, so no
            // request id is minted and nothing is traced.
            return;
        }
        // There is an actual request (or a broken frame that gets an
        // answer): mint its id and settle its epoch.
        let id = shared.next_id();
        let read_end = Instant::now();
        let epoch = admission.take().unwrap_or(read_begin);
        let queue_wait = read_begin
            .checked_duration_since(epoch)
            .unwrap_or_default()
            .as_secs_f64();
        sgs_metrics::observe(sgs_metrics::HistId::ServeQueueWaitSeconds, queue_wait);
        let ctx = shared
            .wants_request_trace()
            .then(|| Arc::new(RequestContext::with_epoch(id, epoch)));
        if let Some(c) = &ctx {
            c.record_span(SPAN_ADMISSION_WAIT, epoch, read_begin);
            c.record_span("read", read_begin, read_end);
        }
        match outcome {
            Ok(ReadOutcome::Closed) => unreachable!("handled above"),
            Err(e) => {
                // Framing is broken; answer if the peer still listens,
                // then drop the connection.
                sgs_metrics::incr(sgs_metrics::Counter::ServeRequests);
                sgs_metrics::incr(sgs_metrics::Counter::ServeErrors);
                let body = e.to_json(id);
                let write_begin = Instant::now();
                let _ = http::write_response(
                    &mut stream,
                    e.status,
                    "application/json",
                    &body,
                    false,
                    &[],
                );
                emit_trace(shared, id, "-", e.status, e.code, "-", false, 0.0);
                if let Some(c) = &ctx {
                    c.record_span("write", write_begin, Instant::now());
                    shared.finish_request(c, "-", e.status, e.code, "-", false);
                }
                return;
            }
            Ok(ReadOutcome::Request(req)) => {
                let started = Instant::now();
                let handle_open = ctx.as_ref().map(|c| c.open("handle"));
                let answer = route_request(&req, id, shared, ctx.as_ref());
                if let (Some(c), Some(open)) = (&ctx, handle_open) {
                    c.close(open);
                }
                let seconds = started.elapsed().as_secs_f64();
                sgs_metrics::incr(sgs_metrics::Counter::ServeRequests);
                if answer.status >= 400 {
                    sgs_metrics::incr(sgs_metrics::Counter::ServeErrors);
                }
                if let Some(h) = answer.hist {
                    sgs_metrics::observe(h, seconds);
                }
                if let Some(route) = sgs_metrics::window::Route::for_path(&req.path) {
                    sgs_metrics::window::observe_route(route, seconds);
                }
                let keep_alive = !req.wants_close();
                let write_begin = Instant::now();
                let write_ok = http::write_response(
                    &mut stream,
                    answer.status,
                    "application/json",
                    &answer.body,
                    keep_alive,
                    &answer.extra_headers,
                )
                .is_ok();
                emit_trace(
                    shared,
                    id,
                    &req.path,
                    answer.status,
                    answer.code,
                    &answer.session,
                    answer.session_hit,
                    seconds,
                );
                if let Some(c) = &ctx {
                    c.record_span("write", write_begin, Instant::now());
                    shared.finish_request(
                        c,
                        &req.path,
                        answer.status,
                        answer.code,
                        &answer.session,
                        answer.session_hit,
                    );
                }
                if !keep_alive || !write_ok {
                    return;
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_trace(
    shared: &Shared,
    id: u64,
    route: &str,
    status: u16,
    code: &str,
    session: &str,
    session_hit: bool,
    seconds: f64,
) {
    if let Some(sink) = &shared.trace {
        sink.record(&TraceEvent::ServeRequest {
            id,
            route: route.to_string(),
            status,
            code: code.to_string(),
            session: session.to_string(),
            session_hit,
            seconds,
        });
    }
}

/// Everything needed to answer one routed request.
struct Answer {
    status: u16,
    body: String,
    code: &'static str,
    session: String,
    session_hit: bool,
    hist: Option<sgs_metrics::HistId>,
    extra_headers: Vec<(&'static str, String)>,
}

impl Answer {
    fn ok(body: String, session: String, session_hit: bool, hist: sgs_metrics::HistId) -> Answer {
        Answer {
            status: 200,
            body,
            code: "-",
            session,
            session_hit,
            hist: Some(hist),
            extra_headers: Vec::new(),
        }
    }

    fn err(id: u64, e: &ServeError) -> Answer {
        Answer {
            status: e.status,
            body: e.to_json(id),
            code: e.code,
            session: "-".to_string(),
            session_hit: false,
            hist: None,
            extra_headers: Vec::new(),
        }
    }
}

fn route_request(
    req: &Request,
    id: u64,
    shared: &Shared,
    ctx: Option<&Arc<RequestContext>>,
) -> Answer {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => Answer {
            status: 200,
            body: proto::health_json(id, shared.store.live()),
            code: "-",
            session: "-".to_string(),
            session_hit: false,
            hist: None,
            extra_headers: Vec::new(),
        },
        ("GET", "/metrics") => Answer {
            status: 200,
            body: metrics_exposition(shared),
            code: "-",
            session: "-".to_string(),
            session_hit: false,
            hist: None,
            extra_headers: Vec::new(),
        },
        ("GET", "/debug/traces") => traces_summary(id, shared),
        ("GET", p) if p.starts_with("/debug/traces/") => trace_export(id, p, shared),
        ("POST", "/solve" | "/resolve" | "/what_if" | "/analyze") => {
            match sizing_request(req, id, shared, ctx) {
                Ok(a) => a,
                Err(e) => Answer::err(id, &e),
            }
        }
        (_, "/health" | "/metrics") => method_not_allowed(id, "GET"),
        (_, p) if p == "/debug/traces" || p.starts_with("/debug/traces/") => {
            method_not_allowed(id, "GET")
        }
        (_, "/solve" | "/resolve" | "/what_if" | "/analyze") => method_not_allowed(id, "POST"),
        _ => Answer::err(
            id,
            &ServeError::new(
                404,
                error::E_NOT_FOUND,
                format!(
                    "no route {:?}; known: /health /metrics /debug/traces /solve /resolve /what_if /analyze",
                    req.path
                ),
            ),
        ),
    }
}

/// `GET /debug/traces`: one single-line JSON object summarising the
/// retained request traces, newest first. Works (with an empty list and
/// capacity 0) when tracing is disabled.
fn traces_summary(id: u64, shared: &Shared) -> Answer {
    let (capacity, entries) = match &shared.ring {
        Some(r) => (r.capacity(), r.recent()),
        None => (0, Vec::new()),
    };
    let mut body = format!(
        "{{\"event\":\"trace_summary\",\"request_id\":{id},\"capacity\":{capacity},\"count\":{},\"traces\":[",
        entries.len()
    );
    for (i, t) in entries.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('{');
        body.push_str(&trace_fields(t));
        body.push('}');
    }
    body.push_str("]}\n");
    Answer {
        status: 200,
        body,
        code: "-",
        session: "-".to_string(),
        session_hit: false,
        hist: None,
        extra_headers: Vec::new(),
    }
}

/// `GET /debug/traces/<id>`: the retained trace as a Chrome trace-event
/// JSON document, loadable in Perfetto / `chrome://tracing`.
fn trace_export(id: u64, path: &str, shared: &Shared) -> Answer {
    let suffix = &path["/debug/traces/".len()..];
    let Ok(rid) = suffix.parse::<u64>() else {
        return Answer::err(
            id,
            &ServeError::bad_request(
                error::E_BAD_FIELD,
                format!("trace id {suffix:?} is not an unsigned integer"),
            ),
        );
    };
    match shared.ring.as_ref().and_then(|r| r.get(rid)) {
        Some(t) => {
            let mut body = chrome::request_to_chrome(&t);
            body.push('\n');
            Answer {
                status: 200,
                body,
                code: "-",
                session: "-".to_string(),
                session_hit: false,
                hist: None,
                extra_headers: Vec::new(),
            }
        }
        None => Answer::err(
            id,
            &ServeError::new(
                404,
                error::E_NOT_FOUND,
                format!("no retained trace for request {rid}; the ring keeps the most recent completed requests"),
            ),
        ),
    }
}

fn method_not_allowed(id: u64, allow: &'static str) -> Answer {
    let e = ServeError::new(
        405,
        error::E_METHOD_NOT_ALLOWED,
        format!("method not allowed; use {allow}"),
    );
    let mut a = Answer::err(id, &e);
    a.extra_headers.push(("Allow", allow.to_string()));
    a
}

fn metrics_exposition(shared: &Shared) -> String {
    let snap = sgs_metrics::snapshot(sgs_metrics::Metadata {
        bin: "sgs_serve".to_string(),
        circuit: "-".to_string(),
        git_sha: "unknown".to_string(),
        threads: shared.cfg.workers,
        timestamp: String::new(),
    });
    sgs_metrics::prom::to_prometheus(&snap)
}

/// The shared body of `/solve`, `/resolve`, `/what_if` and `/analyze`.
fn sizing_request(
    req: &Request,
    id: u64,
    shared: &Shared,
    ctx: Option<&Arc<RequestContext>>,
) -> Result<Answer, ServeError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ServeError::bad_request(error::E_BAD_JSON, "request body is not UTF-8"))?;
    let body = sgs_trace::json::parse_json(text)
        .map_err(|e| ServeError::bad_request(error::E_BAD_JSON, format!("bad JSON: {e}")))?;
    let spec = SessionSpec::parse(&body)?;

    if req.path == "/analyze" {
        // Analysis is stateless: no session, no warm state to protect.
        let circuit = spec.build_circuit()?;
        let report = sgs_analyze::analyze(
            &circuit,
            &sgs_netlist::Library::paper_default(),
            &spec.objective,
            &spec.spec,
            &sgs_analyze::AnalyzerOptions::default(),
            Tracer::none().attach(ctx.map(Arc::as_ref)),
        );
        return Ok(Answer::ok(
            proto::analyze_result_json(id, &report),
            "-".to_string(),
            false,
            sgs_metrics::HistId::ServeAnalyzeSeconds,
        ));
    }

    let (op, hist) = match req.path.as_str() {
        "/solve" => (
            Op::Solve {
                deadline: spec.deadline(),
            },
            sgs_metrics::HistId::ServeSolveSeconds,
        ),
        "/resolve" => {
            let op = if body.get("deadline").is_some() {
                let d = match body.get("deadline").and_then(sgs_trace::json::Json::as_f64) {
                    Some(d) if d.is_finite() && d > 0.0 => d,
                    _ => {
                        return Err(ServeError::bad_request(
                            error::E_BAD_FIELD,
                            "\"deadline\" must be a positive finite number",
                        ))
                    }
                };
                Op::ResolveSpec { d }
            } else if body.get("sizes").is_some() {
                Op::ResolveSizes {
                    changes: proto::parse_changes(&body, "sizes")?,
                }
            } else {
                return Err(ServeError::bad_request(
                    error::E_BAD_FIELD,
                    "resolve needs either a \"deadline\" number or a \"sizes\" array",
                ));
            };
            (op, sgs_metrics::HistId::ServeResolveSeconds)
        }
        "/what_if" => (
            Op::WhatIf {
                changes: proto::parse_changes(&body, "changes")?,
            },
            sgs_metrics::HistId::ServeWhatIfSeconds,
        ),
        other => unreachable!("sizing_request only sees sizing routes, got {other}"),
    };

    let (reply_tx, reply_rx) = sync_channel(0);
    // `submit` stamps the session-hit flag and the enqueue time.
    let job = Job {
        request_id: id,
        op,
        session_hit: false,
        reply: reply_tx,
        ctx: ctx.cloned(),
        queued_at: Instant::now(),
    };
    let checkout = shared.store.submit(&spec, job)?;
    let session = format!("{:016x}", checkout.key);
    let reply = reply_rx
        .recv()
        .map_err(|_| ServeError::new(500, error::E_INTERNAL, "session worker dropped the reply"))?;
    match reply {
        Ok(body) => Ok(Answer {
            status: 200,
            body,
            code: "-",
            session,
            session_hit: checkout.session_hit,
            hist: Some(hist),
            extra_headers: Vec::new(),
        }),
        Err(e) => {
            // Session-level failures still belong to this session in the
            // trace; rebuild the answer with the session id attached.
            let mut a = Answer::err(id, &e);
            a.session = session;
            a.session_hit = checkout.session_hit;
            Ok(a)
        }
    }
}
