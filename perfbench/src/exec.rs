//! Running one script: repeated set-up, the timed operations, and the
//! answer checks made as they complete.

use crate::script::{
    cold_circuits, cold_key, stream_circuits, Script, SessionPlan, Step, StreamOp, Workload,
    COLD_CASES, COLD_WARMUP, STREAM_GATES,
};
use sgs_core::{DelaySpec, Objective, ResolveOutcome, Resolver, Sizer, SizingResult, WhatIfReport};
use sgs_netlist::{Circuit, GateId, Library};
use sgs_serve::{Client, Server, ServerConfig};
use sgs_ssta::ssta;
use sgs_statmath::Normal;
use sgs_trace::json::{parse_json, Json};
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Untimed full passes per circuit in the `whatif_stream` set-up.
const WARMUP_PASSES: usize = 10;

/// Operation kinds, each with its own latency metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cold solve (`Sizer::solve`, a session's first `Resolver::solve`,
    /// `POST /solve`).
    Solve,
    /// Warm deadline re-solve (`Resolver::resolve_spec`, `POST /resolve`).
    Resolve,
    /// Evaluation-only probe (`Resolver::what_if`, `POST /what_if`).
    WhatIf,
    /// Full SSTA pass (`sgs_ssta::ssta`).
    FullPass,
}

/// The answer of one operation, floats as bit patterns so that equality
/// is bit-identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A solve or re-solve.
    Sized {
        /// Objective value.
        objective: u64,
        /// Sum of speed factors.
        area: u64,
        /// Mean circuit delay.
        mu: u64,
        /// Circuit delay sigma.
        sigma: u64,
        /// Outer (augmented-Lagrangian) iterations.
        outer: usize,
        /// Inner iterations.
        inner: usize,
        /// Whether a warm start was accepted.
        warm: bool,
        /// Gates the incremental engine recomputed.
        recomputed: usize,
        /// Speed factors.
        sizes: Vec<u64>,
    },
    /// A what-if probe.
    Probe {
        /// Mean circuit delay.
        mu: u64,
        /// Circuit delay sigma.
        sigma: u64,
        /// Objective at the probed sizes.
        objective: u64,
        /// Spec violation at the probed sizes.
        violation: u64,
        /// Gates the incremental engine recomputed.
        recomputed: usize,
    },
    /// A `SizeError` or a non-200 response.
    Failed(String),
}

impl Answer {
    fn from_result(r: &SizingResult, warm: bool, recomputed: usize) -> Answer {
        Answer::Sized {
            objective: r.objective.to_bits(),
            area: r.area.to_bits(),
            mu: r.delay.mean().to_bits(),
            sigma: r.delay.sigma().to_bits(),
            outer: r.outer_iterations,
            inner: r.inner_iterations,
            warm,
            recomputed,
            sizes: r.s.iter().map(|v| v.to_bits()).collect(),
        }
    }

    fn from_outcome(o: &ResolveOutcome) -> Answer {
        Answer::from_result(&o.result, o.warm_start_hit, o.gates_recomputed)
    }

    fn from_report(r: &WhatIfReport) -> Answer {
        Answer::Probe {
            mu: r.delay.mean().to_bits(),
            sigma: r.delay.sigma().to_bits(),
            objective: r.objective.to_bits(),
            violation: r.spec_violation.to_bits(),
            recomputed: r.stats.gates_recomputed,
        }
    }

    /// Parses a served `solve_result` or `what_if_result` body.
    fn from_body(body: &str) -> Result<Answer, String> {
        let v = parse_json(body.trim()).map_err(|e| format!("bad body {body:?}: {e}"))?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("no number {key:?} in {body:?}"))
        };
        let int = |key: &str| num(key).map(|x| x as usize);
        let flag = |key: &str| matches!(v.get(key), Some(Json::Bool(true)));
        match v.get("event").and_then(Json::as_str) {
            Some("solve_result") => {
                let Some(Json::Arr(sizes)) = v.get("sizes") else {
                    return Err(format!("no sizes in {body:?}"));
                };
                Ok(Answer::Sized {
                    objective: num("objective")?.to_bits(),
                    area: num("area")?.to_bits(),
                    mu: num("mu")?.to_bits(),
                    sigma: num("sigma")?.to_bits(),
                    outer: int("outer_iterations")?,
                    inner: int("inner_iterations")?,
                    warm: flag("warm_start_hit"),
                    recomputed: int("gates_recomputed")?,
                    sizes: sizes
                        .iter()
                        .map(|s| s.as_f64().map(f64::to_bits).ok_or("non-numeric size"))
                        .collect::<Result<_, _>>()?,
                })
            }
            Some("what_if_result") => Ok(Answer::Probe {
                mu: num("mu")?.to_bits(),
                sigma: num("sigma")?.to_bits(),
                objective: num("objective")?.to_bits(),
                violation: num("spec_violation")?.to_bits(),
                recomputed: int("gates_recomputed")?,
            }),
            _ => Err(format!("unexpected body {body:?}")),
        }
    }
}

/// What-if probes applied to one circuit from one starting point, kept so
/// the traced run can replay them on a bare `IncrementalSsta`.
pub struct ProbeRun {
    /// The circuit.
    pub circuit: Circuit,
    /// Sizes before the first probe.
    pub start: Vec<f64>,
    /// The probes in order.
    pub changes: Vec<(GateId, f64)>,
}

/// Everything one pass measured and checked of one group of operations
/// (the workload's own, or its canary sessions').
pub struct Recorder {
    /// Latency of every operation, in run order.
    pub latencies: Vec<(Kind, f64)>,
    /// Operations that failed (`SizeError`, missed spec, non-200).
    pub failed: usize,
    /// Failed answer checks.
    pub bad: Vec<String>,
    /// FNV-1a digest of every answer's bits, in run order.
    pub digest: u64,
    /// Achieved objective of every successful solve and re-solve.
    pub objectives: Vec<(String, f64)>,
    /// Outer iterations of every successful solve and re-solve.
    pub outer: Vec<usize>,
    /// Gates recomputed by every successful re-solve.
    pub resolve_recomputed: Vec<usize>,
    /// Session operations in run order (for the served/in-process replay).
    pub session_ops: Vec<(Kind, f64, Answer)>,
    /// Probe streams (for the incremental-SSTA replay).
    pub probe_runs: Vec<ProbeRun>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder {
            latencies: Vec::new(),
            failed: 0,
            bad: Vec::new(),
            digest: 0xcbf2_9ce4_8422_2325,
            objectives: Vec::new(),
            outer: Vec::new(),
            resolve_recomputed: Vec::new(),
            session_ops: Vec::new(),
            probe_runs: Vec::new(),
        }
    }

    fn time(&mut self, kind: Kind, secs: f64) {
        self.latencies.push((kind, secs));
    }

    /// Operations attempted.
    pub fn attempted(&self) -> usize {
        self.latencies.len()
    }

    /// Operations of `kind` attempted.
    pub fn count(&self, kind: Kind) -> usize {
        self.latencies.iter().filter(|(k, _)| *k == kind).count()
    }

    fn hash(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn hash_answer(&mut self, key: &str, answer: &Answer) {
        self.hash(key.as_bytes());
        match answer {
            Answer::Sized {
                objective,
                mu,
                sigma,
                ..
            } => {
                for v in [objective, mu, sigma] {
                    self.hash(&v.to_le_bytes());
                }
            }
            Answer::Probe {
                mu,
                sigma,
                objective,
                violation,
                ..
            } => {
                for v in [mu, sigma, objective, violation] {
                    self.hash(&v.to_le_bytes());
                }
            }
            Answer::Failed(_) => self.hash(b"failed"),
        }
    }

    /// Records a solve or re-solve and checks it under clean SSTA: the
    /// reported delay must be the clean delay at the returned sizes, bit
    /// for bit, and must meet the spec within the sizer's own tolerance.
    /// A failed operation fails the check too.
    #[allow(clippy::too_many_arguments)]
    fn sized(
        &mut self,
        kind: Kind,
        key: String,
        secs: f64,
        answer: Answer,
        circuit: &Circuit,
        lib: &Library,
        objective: &Objective,
        spec: &DelaySpec,
    ) {
        self.time(kind, secs);
        self.hash_answer(&key, &answer);
        if let Answer::Sized {
            objective: obj,
            mu,
            sigma,
            outer,
            recomputed,
            sizes,
            ..
        } = &answer
        {
            let s: Vec<f64> = sizes.iter().map(|&b| f64::from_bits(b)).collect();
            let clean = ssta(circuit, lib, &s).delay;
            let (mu, sigma, obj) = (
                f64::from_bits(*mu),
                f64::from_bits(*sigma),
                f64::from_bits(*obj),
            );
            if clean.mean().to_bits() != mu.to_bits() || clean.sigma().to_bits() != sigma.to_bits()
            {
                self.bad.push(format!(
                    "{key}: reported delay ({mu}, {sigma}) is not the clean SSTA delay ({}, {})",
                    clean.mean(),
                    clean.sigma()
                ));
            }
            let want = match objective {
                Objective::Area => s.iter().sum(),
                Objective::MeanDelay => clean.mean(),
                Objective::MeanPlusKSigma(k) => clean.mean_plus_k_sigma(*k),
                other => unreachable!("no workload uses {other}"),
            };
            if want.to_bits() != obj.to_bits() {
                self.bad
                    .push(format!("{key}: objective {obj} is not {want} at its sizes"));
            }
            if let Some(excess) = spec_excess(spec, clean) {
                self.failed += 1;
                self.bad.push(format!("{key}: misses its spec by {excess}"));
            } else {
                self.objectives.push((key, obj));
                self.outer.push(*outer);
                if kind == Kind::Resolve {
                    self.resolve_recomputed.push(*recomputed);
                }
            }
        } else if let Answer::Failed(why) = &answer {
            self.failed += 1;
            self.bad.push(format!("{key}: failed: {why}"));
        } else {
            unreachable!("a solve answers Sized or Failed");
        }
    }

    fn probe(&mut self, key: &str, secs: f64, answer: &Answer) {
        self.time(Kind::WhatIf, secs);
        self.hash_answer(key, answer);
        if let Answer::Failed(why) = answer {
            self.failed += 1;
            self.bad.push(format!("{key}: probe failed: {why}"));
        }
    }
}

/// How far `delay` misses `spec` beyond the tolerance `Sizer` accepts
/// (`1e-3 (1 + D)`), or `None` when it meets it.
fn spec_excess(spec: &DelaySpec, delay: Normal) -> Option<f64> {
    let (value, d) = match spec {
        DelaySpec::None => return None,
        DelaySpec::MaxMean(d) => (delay.mean(), *d),
        DelaySpec::MaxMeanPlusKSigma { k, d } => (delay.mean_plus_k_sigma(*k), *d),
        other => unreachable!("no workload uses {other}"),
    };
    (value - d > 1e-3 * (1.0 + d.abs())).then_some(value - d)
}

/// One pass over a script.
pub struct Run {
    /// What it measured and checked of the workload's own operations.
    pub rec: Recorder,
    /// The same of its canary sessions (empty on `serve_session`).
    pub canary: Recorder,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Wall seconds of the workload's own timed operations (the canary
    /// sessions' seconds left out).
    pub wall_s: f64,
    /// Clark variance clamps counted during the workload's own timed
    /// operations.
    pub clamps: u64,
}

impl Run {
    /// Digest of every answer of the pass: the workload's own, then the
    /// canaries'.
    pub fn digest(&self) -> u64 {
        let mut both = Recorder::new();
        both.hash(&self.rec.digest.to_le_bytes());
        both.hash(&self.canary.digest.to_le_bytes());
        both.digest
    }
}

/// A session's circuit and unsized mean delay (its deadlines are
/// fractions of it).
pub struct PreparedSession {
    /// The session's circuit, generated from its spec.
    pub circuit: Circuit,
    /// Unsized mean delay.
    pub mu0: f64,
}

/// Generates each session's circuit and its unsized mean delay.
pub fn prepare_sessions(plans: &[SessionPlan], lib: &Library) -> Vec<PreparedSession> {
    plans
        .iter()
        .map(|p| {
            let circuit = sgs_netlist::generate::random_dag(&p.dag);
            let mu0 = ssta(&circuit, lib, &vec![1.0; circuit.num_gates()])
                .delay
                .mean();
            PreparedSession { circuit, mu0 }
        })
        .collect()
}

/// A session's operations, in process or over HTTP.
pub trait Backend {
    /// Cold solve at the session deadline.
    fn solve(&mut self) -> Answer;
    /// Evaluation-only probe.
    fn what_if(&mut self, change: (GateId, f64)) -> Answer;
    /// Warm re-solve at deadline `d`.
    fn resolve(&mut self, d: f64) -> Answer;
}

/// In-process backend: one `Resolver`, built by the cold solve.
pub struct Local<'a> {
    circuit: &'a Circuit,
    lib: &'a Library,
    d0: f64,
    resolver: Option<Resolver<'a>>,
}

impl<'a> Local<'a> {
    /// A backend for one session on `circuit` with deadline `d0`.
    pub fn new(circuit: &'a Circuit, lib: &'a Library, d0: f64) -> Self {
        Local {
            circuit,
            lib,
            d0,
            resolver: None,
        }
    }
}

impl Backend for Local<'_> {
    fn solve(&mut self) -> Answer {
        let resolver = self.resolver.insert(
            Sizer::new(self.circuit, self.lib)
                .objective(Objective::Area)
                .delay_spec(DelaySpec::MaxMean(self.d0))
                .resolver(),
        );
        match resolver.solve() {
            Ok(o) => Answer::from_outcome(&o),
            Err(e) => Answer::Failed(e.to_string()),
        }
    }

    fn what_if(&mut self, change: (GateId, f64)) -> Answer {
        let resolver = self
            .resolver
            .as_mut()
            .expect("a session starts with a solve");
        Answer::from_report(&resolver.what_if(&[change]))
    }

    fn resolve(&mut self, d: f64) -> Answer {
        let resolver = self
            .resolver
            .as_mut()
            .expect("a session starts with a solve");
        match resolver.resolve_spec(d) {
            Ok(o) => Answer::from_outcome(&o),
            Err(e) => Answer::Failed(e.to_string()),
        }
    }
}

/// HTTP backend: one keep-alive client of `sgs-serve`.
pub struct Remote<'c> {
    client: &'c mut Client,
    base: String,
}

/// The session-defining request fields of `plan` at deadline `d0`.
fn session_json(plan: &SessionPlan, d0: f64) -> String {
    let g = &plan.dag;
    format!(
        "\"circuit\":{{\"generate\":{{\"name\":\"{}\",\"cells\":{},\"inputs\":{},\"depth\":{},\"seed\":{},\"back_jump_pct\":{},\"spine_extra_load\":{}}}}},\"objective\":\"area\",\"spec\":{{\"max_mean\":{d0}}}",
        g.name, g.cells, g.inputs, g.depth, g.seed, g.back_jump_pct, g.spine_extra_load
    )
}

impl<'c> Remote<'c> {
    /// A backend for `plan`'s session with deadline `d0`.
    pub fn new(client: &'c mut Client, plan: &SessionPlan, d0: f64) -> Self {
        Remote {
            client,
            base: session_json(plan, d0),
        }
    }

    fn post(&mut self, path: &str, extra: &str) -> Answer {
        let body = format!("{{{}{extra}}}", self.base);
        match self.client.post(path, &body) {
            Ok(r) if r.status == 200 => Answer::from_body(&r.body).unwrap_or_else(Answer::Failed),
            Ok(r) => Answer::Failed(format!("{path}: {} {}", r.status, r.body.trim())),
            Err(e) => Answer::Failed(format!("{path}: {e}")),
        }
    }
}

impl Backend for Remote<'_> {
    fn solve(&mut self) -> Answer {
        self.post("/solve", "")
    }

    fn what_if(&mut self, (gate, size): (GateId, f64)) -> Answer {
        self.post(
            "/what_if",
            &format!(
                ",\"changes\":[{{\"gate\":{},\"size\":{size}}}]",
                gate.index()
            ),
        )
    }

    fn resolve(&mut self, d: f64) -> Answer {
        self.post("/resolve", &format!(",\"deadline\":{d}"))
    }
}

/// Runs one session: cold solve, probes, re-solve chain.
pub fn run_session(
    plan: &SessionPlan,
    prep: &PreparedSession,
    lib: &Library,
    backend: &mut dyn Backend,
    rec: &mut Recorder,
) {
    let key = plan.key();
    let objective = Objective::Area;
    let d0 = plan.d0 * prep.mu0;
    let t = Instant::now();
    let answer = backend.solve();
    let secs = t.elapsed().as_secs_f64();
    if let Answer::Sized { sizes, .. } = &answer {
        rec.probe_runs.push(ProbeRun {
            circuit: prep.circuit.clone(),
            start: sizes.iter().map(|&b| f64::from_bits(b)).collect(),
            changes: plan.probes.clone(),
        });
    }
    rec.session_ops.push((Kind::Solve, secs, answer.clone()));
    let spec = DelaySpec::MaxMean(d0);
    rec.sized(
        Kind::Solve,
        plan.solve_key(),
        secs,
        answer,
        &prep.circuit,
        lib,
        &objective,
        &spec,
    );
    for &change in &plan.probes {
        let t = Instant::now();
        let answer = backend.what_if(change);
        let secs = t.elapsed().as_secs_f64();
        rec.probe(&key, secs, &answer);
        rec.session_ops.push((Kind::WhatIf, secs, answer));
    }
    for &f in &plan.chain {
        let d = f * prep.mu0;
        let t = Instant::now();
        let answer = backend.resolve(d);
        let secs = t.elapsed().as_secs_f64();
        rec.session_ops.push((Kind::Resolve, secs, answer.clone()));
        let spec = DelaySpec::MaxMean(d);
        rec.sized(
            Kind::Resolve,
            plan.resolve_key(f),
            secs,
            answer,
            &prep.circuit,
            lib,
            &objective,
            &spec,
        );
    }
}

/// Runs one session on an in-process `Resolver`.
fn run_local(plan: &SessionPlan, prep: &PreparedSession, lib: &Library, rec: &mut Recorder) {
    let mut local = Local::new(&prep.circuit, lib, plan.d0 * prep.mu0);
    run_session(plan, prep, lib, &mut local, rec);
}

/// Runs `sessions` on in-process `Resolver`s.
pub fn run_local_sessions(
    plans: &[SessionPlan],
    preps: &[PreparedSession],
    lib: &Library,
    rec: &mut Recorder,
) {
    for (plan, prep) in plans.iter().zip(preps) {
        run_local(plan, prep, lib, rec);
    }
}

/// Starts a daemon whose session capacity covers `sessions` and one
/// warm-up session (so no eviction makes answers depend on order), with
/// the tracing ring off.
pub fn start_server(sessions: usize) -> Server {
    let cfg = ServerConfig {
        session_capacity: sessions + 1,
        trace_capacity: 0,
        ..ServerConfig::default()
    };
    Server::start(cfg, None).expect("binding a loopback port")
}

/// Runs `sessions` through one keep-alive client of a fresh daemon. The
/// client is closed before `Server::shutdown`, which otherwise waits out
/// the daemon's read timeout on the open connection.
pub fn run_served_sessions(
    plans: &[SessionPlan],
    preps: &[PreparedSession],
    lib: &Library,
    rec: &mut Recorder,
) {
    let server = start_server(plans.len());
    let mut client = Client::connect(server.addr()).expect("connecting to the daemon");
    for (plan, prep) in plans.iter().zip(preps) {
        let mut remote = Remote::new(&mut client, plan, plan.d0 * prep.mu0);
        run_session(plan, prep, lib, &mut remote, rec);
    }
    drop(client);
    server.shutdown();
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with the
/// median time. Each earlier result goes through `teardown`, untimed,
/// before the next set-up starts.
fn timed_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), median(times))
}

/// Starts the registry for a traced pass: counters cover the timed
/// operations only.
fn start_tracing(traced: bool) -> u64 {
    if traced {
        sgs_metrics::reset();
        sgs_metrics::enable();
    }
    sgs_statmath::clark::var_clamp_count()
}

/// The canary sessions of one pass, kept apart from the workload's own
/// operations: their answers, wall seconds and Clark variance clamps.
struct Canaries {
    /// Each session's first run, with every latency lowered to the
    /// fastest of the session's runs.
    rec: Recorder,
    /// Where each session's first run starts in `rec`.
    start: Vec<Option<usize>>,
    secs: f64,
    clamps: u64,
    /// Turn the metrics registry off while a canary runs, so that its
    /// counters cover the workload's own operations only.
    pause: bool,
}

impl Canaries {
    fn new(script: &Script) -> Self {
        Canaries {
            rec: Recorder::new(),
            start: vec![None; script.sessions.len()],
            secs: 0.0,
            clamps: 0,
            pause: script.optimizes(),
        }
    }

    /// Runs canary session `i` in process, twice. The first run is an
    /// unrecorded warm-up, with the registry off: a canary follows the
    /// workload's own, larger operations, and without it its latencies
    /// measure the cold caches and fresh pages those leave behind. On the
    /// session's first call the second run is recorded, with the
    /// registry as the pass has it; on later calls it runs with the
    /// registry off and only lowers the recorded latencies to its own
    /// where faster (see [`crate::script::CANARY_RUNS`]). Every run must
    /// give the answers of the recorded one.
    fn run(&mut self, script: &Script, i: usize, preps: &[PreparedSession], lib: &Library) {
        let (plan, prep) = (&script.sessions[i], &preps[i]);
        let enabled = sgs_metrics::enabled();
        let clamps0 = sgs_statmath::clark::var_clamp_count();
        let t = Instant::now();
        sgs_metrics::disable();
        let mut warm = Recorder::new();
        run_local(plan, prep, lib, &mut warm);
        let mut again = Recorder::new();
        let first = match self.start[i] {
            Some(first) => {
                run_local(plan, prep, lib, &mut again);
                first
            }
            None => {
                if enabled && !self.pause {
                    sgs_metrics::enable();
                }
                let first = self.rec.session_ops.len();
                self.start[i] = Some(first);
                run_local(plan, prep, lib, &mut self.rec);
                first
            }
        };
        if enabled {
            sgs_metrics::enable();
        }
        self.secs += t.elapsed().as_secs_f64();
        self.clamps += sgs_statmath::clark::var_clamp_count() - clamps0;
        let n = warm.session_ops.len();
        let answers =
            |ops: &[(Kind, f64, Answer)]| ops.iter().map(|o| o.2.clone()).collect::<Vec<_>>();
        let recorded = answers(&self.rec.session_ops[first..first + n]);
        for run in [&warm, &again] {
            if !run.session_ops.is_empty() && answers(&run.session_ops) != recorded {
                self.rec.bad.push(format!(
                    "{}: canary answers differ between two runs",
                    plan.key()
                ));
            }
        }
        for (j, op) in again.session_ops.iter().enumerate() {
            let ours = &mut self.rec.session_ops[first + j].1;
            *ours = ours.min(op.1);
            let ours = &mut self.rec.latencies[first + j].1;
            *ours = ours.min(op.1);
        }
    }
}

/// One pass over `script`: set-up ([`SETUP_REPS`] times), then the timed
/// operations. With `traced`, the metrics registry records the timed part.
pub fn execute(script: &Script, lib: &Library, traced: bool) -> Run {
    let mut rec = Recorder::new();
    let mut canaries = Canaries::new(script);
    let (setup_s, wall_s, clamps0) = match script.workload {
        Workload::SizeCold => {
            let ((circuits, unsized_delay, preps), setup_s) = timed_setup(
                || {
                    let circuits = cold_circuits();
                    let unsized_delay: Vec<Normal> = circuits
                        .iter()
                        .map(|c| ssta(c, lib, &vec![1.0; c.num_gates()]).delay)
                        .collect();
                    let (c, form) = COLD_WARMUP;
                    let (objective, spec) = form.formulation(unsized_delay[c]);
                    let warm = Sizer::new(&circuits[c], lib)
                        .objective(objective)
                        .delay_spec(spec)
                        .solve();
                    black_box(warm.is_ok());
                    let preps = prepare_sessions(&script.sessions, lib);
                    (circuits, unsized_delay, preps)
                },
                drop,
            );
            let clamps0 = start_tracing(traced);
            let t0 = Instant::now();
            for step in &script.steps {
                match *step {
                    Step::Cold(case) => {
                        let (c, form) = COLD_CASES[case];
                        let circuit = &circuits[c];
                        let (objective, spec) = form.formulation(unsized_delay[c]);
                        let t = Instant::now();
                        let result = Sizer::new(circuit, lib)
                            .objective(objective.clone())
                            .delay_spec(spec.clone())
                            .solve();
                        let secs = t.elapsed().as_secs_f64();
                        let answer = match &result {
                            Ok(r) => Answer::from_result(r, false, 0),
                            Err(e) => Answer::Failed(e.to_string()),
                        };
                        let key = cold_key(circuit.name(), form);
                        rec.sized(
                            Kind::Solve,
                            key,
                            secs,
                            answer,
                            circuit,
                            lib,
                            &objective,
                            &spec,
                        );
                    }
                    Step::Session(i) => canaries.run(script, i, &preps, lib),
                    Step::Stream(_) => unreachable!("size_cold has no stream ops"),
                }
            }
            (setup_s, t0.elapsed().as_secs_f64(), clamps0)
        }
        Workload::WhatifStream => {
            // Resolvers borrow their circuits, so the set-up is timed in
            // two steps: circuits, then resolvers and a first full pass
            // over each circuit against the kept circuits.
            let (circuits, circuits_s) = timed_setup(stream_circuits, drop);
            let ((mut resolvers, preps), resolvers_s) = timed_setup(
                || {
                    let resolvers: Vec<Resolver<'_>> =
                        circuits.iter().map(|c| Resolver::new(c, lib)).collect();
                    // Warm-up: a few full passes over each circuit.
                    for (c, r) in circuits.iter().zip(&resolvers) {
                        for _ in 0..WARMUP_PASSES {
                            black_box(ssta(c, lib, r.sizes()));
                        }
                    }
                    (resolvers, prepare_sessions(&script.sessions, lib))
                },
                drop,
            );
            for (c, gates) in circuits.iter().zip(STREAM_GATES) {
                assert_eq!(
                    c.num_gates(),
                    gates,
                    "the script drew probes for other circuits"
                );
                rec.probe_runs.push(ProbeRun {
                    circuit: c.clone(),
                    start: vec![1.0; c.num_gates()],
                    changes: Vec::new(),
                });
            }
            let clamps0 = start_tracing(traced);
            let t0 = Instant::now();
            for step in &script.steps {
                match *step {
                    Step::Stream(StreamOp::Probe { circuit, change }) => {
                        let t = Instant::now();
                        let report = resolvers[circuit].what_if(&[change]);
                        let secs = t.elapsed().as_secs_f64();
                        rec.probe(
                            circuits[circuit].name(),
                            secs,
                            &Answer::from_report(&report),
                        );
                        rec.probe_runs[circuit].changes.push(change);
                    }
                    Step::Stream(StreamOp::FullPass { circuit }) => {
                        let r = &resolvers[circuit];
                        let t = Instant::now();
                        let full = ssta(&circuits[circuit], lib, r.sizes());
                        let secs = t.elapsed().as_secs_f64();
                        rec.time(Kind::FullPass, secs);
                        let name = circuits[circuit].name();
                        rec.hash(name.as_bytes());
                        rec.hash(&full.delay.mean().to_bits().to_le_bytes());
                        rec.hash(&full.delay.var().to_bits().to_le_bytes());
                        if let Some(why) = incremental_mismatch(r, &full) {
                            rec.bad.push(format!(
                                "{name}: incremental state differs from a full pass: {why}"
                            ));
                        }
                    }
                    Step::Session(i) => canaries.run(script, i, &preps, lib),
                    Step::Cold(_) => unreachable!("whatif_stream has no cold cases"),
                }
            }
            (
                circuits_s + resolvers_s,
                t0.elapsed().as_secs_f64(),
                clamps0,
            )
        }
        Workload::ServeSession => {
            let ((server, mut client, preps), setup_s) = timed_setup(
                || {
                    let server = start_server(script.sessions.len());
                    let mut client =
                        Client::connect(server.addr()).expect("connecting to the daemon");
                    let preps = prepare_sessions(&script.sessions, lib);
                    // Warm-up: one cold /solve of the lowest-seed circuit
                    // (the same in every run) under another name, so no
                    // scripted session is warm.
                    let (plan, prep) = script
                        .sessions
                        .iter()
                        .zip(&preps)
                        .min_by_key(|(p, _)| p.dag.seed)
                        .expect("serve_session has sessions");
                    let mut warm = plan.clone();
                    warm.dag.name = "warmup".into();
                    let body = format!("{{{}}}", session_json(&warm, warm.d0 * prep.mu0));
                    let r = client.post("/solve", &body).expect("warm-up POST /solve");
                    assert_eq!(r.status, 200, "warm-up /solve failed: {}", r.body);
                    (server, client, preps)
                },
                |(server, client, _)| {
                    drop(client);
                    server.shutdown();
                },
            );
            let clamps0 = start_tracing(traced);
            let t0 = Instant::now();
            for step in &script.steps {
                let Step::Session(i) = *step else {
                    unreachable!("serve_session runs sessions only");
                };
                let (plan, prep) = (&script.sessions[i], &preps[i]);
                let mut remote = Remote::new(&mut client, plan, plan.d0 * prep.mu0);
                run_session(plan, prep, lib, &mut remote, &mut rec);
            }
            let wall_s = t0.elapsed().as_secs_f64();
            drop(client);
            server.shutdown();
            (setup_s, wall_s, clamps0)
        }
    };
    let clamps = sgs_statmath::clark::var_clamp_count() - clamps0 - canaries.clamps;
    sgs_metrics::disable();
    Run {
        rec,
        canary: canaries.rec,
        setup_s,
        wall_s: wall_s - canaries.secs,
        clamps,
    }
}

/// Where the incremental engine's state differs from a full pass, if it
/// does (bit-identity of every gate arrival and of the circuit delay).
fn incremental_mismatch(r: &Resolver<'_>, full: &sgs_ssta::SstaReport) -> Option<String> {
    let same = |a: Normal, b: Normal| {
        a.mean().to_bits() == b.mean().to_bits() && a.var().to_bits() == b.var().to_bits()
    };
    if !same(r.delay(), full.delay) {
        return Some(format!("delay {:?} vs {:?}", r.delay(), full.delay));
    }
    let arrivals = r.engine().arrivals();
    (0..full.arrivals.len())
        .find(|&g| !same(arrivals.get(g), full.arrivals[g]))
        .map(|g| format!("gate {g}: {:?} vs {:?}", arrivals.get(g), full.arrivals[g]))
}
