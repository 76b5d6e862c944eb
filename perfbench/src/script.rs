//! The fixed-work scripts of the three workloads.
//!
//! Every list of cases, circuits and deadlines here is fixed, so a run
//! always executes the same operations. The seed only draws the what-if
//! probes (gate and size) and the order in which cases and sessions run.
//! Cold solves and warm re-solves do not depend on either (a re-solve
//! carries the previous optimum, not the probed sizes), so their answers
//! are the same for every seed and can be checked against one committed
//! reference.

use sgs_core::{DelaySpec, Objective};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::{blif, Circuit, GateId};
use sgs_statmath::Normal;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential cold `Sizer::solve` over Table 1 row forms.
    SizeCold,
    /// Single-gate `Resolver::what_if` probes with interleaved full SSTA.
    WhatifStream,
    /// One keep-alive client driving an in-process `sgs-serve`.
    ServeSession,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "size_cold" => Some(Workload::SizeCold),
            "whatif_stream" => Some(Workload::WhatifStream),
            "serve_session" => Some(Workload::ServeSession),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SizeCold => "size_cold",
            Workload::WhatifStream => "whatif_stream",
            Workload::ServeSession => "serve_session",
        }
    }
}

/// SplitMix64: a small seeded generator, so the scripts depend on no
/// crate outside the repository.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` single-gate probes on a circuit of `gates` gates: the gates
    /// run through successive shuffles of all gates, so every gate is
    /// probed equally often (to within one) and the cone sizes, which set
    /// the latency distribution, are the same for every seed; each size
    /// is drawn from the 0.25 grid of the library's `[1, 3]` range.
    pub fn probes(&mut self, gates: usize, n: usize) -> Vec<(GateId, f64)> {
        let mut order: Vec<usize> = Vec::with_capacity(n + gates);
        while order.len() < n {
            let mut round: Vec<usize> = (0..gates).collect();
            self.shuffle(&mut round);
            order.extend(round);
        }
        order
            .into_iter()
            .take(n)
            .map(|g| (GateId(g), 1.0 + 0.25 * self.below(9) as f64))
            .collect()
    }
}

/// Deadline of the constrained rows, as a fraction of the unsized delay.
pub const DEADLINE_FRAC: f64 = 0.9;

/// The four Table 1 row forms.
#[derive(Debug, Clone, Copy)]
pub enum Form {
    /// min mu.
    MinMu,
    /// min mu + 3 sigma.
    MinMu3s,
    /// min sum S s.t. mu <= D.
    AreaMu,
    /// min sum S s.t. mu + 3 sigma <= D.
    AreaMu3s,
}

impl Form {
    /// Short label used in case keys.
    pub fn label(self) -> &'static str {
        match self {
            Form::MinMu => "min_mu",
            Form::MinMu3s => "min_mu3s",
            Form::AreaMu => "area_mu",
            Form::AreaMu3s => "area_mu3s",
        }
    }

    /// Objective and spec of this row, with `D` taken from the unsized
    /// delay.
    pub fn formulation(self, unsized_delay: Normal) -> (Objective, DelaySpec) {
        match self {
            Form::MinMu => (Objective::MeanDelay, DelaySpec::None),
            Form::MinMu3s => (Objective::MeanPlusKSigma(3.0), DelaySpec::None),
            Form::AreaMu => (
                Objective::Area,
                DelaySpec::MaxMean(DEADLINE_FRAC * unsized_delay.mean()),
            ),
            Form::AreaMu3s => (
                Objective::Area,
                DelaySpec::MaxMeanPlusKSigma {
                    k: 3.0,
                    d: DEADLINE_FRAC * unsized_delay.mean_plus_k_sigma(3.0),
                },
            ),
        }
    }
}

fn dag(name: &str, cells: usize, seed: u64) -> RandomDagSpec {
    RandomDagSpec {
        name: name.into(),
        cells,
        inputs: 8 + cells / 8,
        depth: 6 + cells / 20,
        seed,
        ..Default::default()
    }
}

/// The `size_cold` circuits: `rdag40` (a copy of the repository's
/// `benchmarks/rdag40.blif`, pinned so the input cannot drift), `apex2`
/// and generated DAGs of 40-120 gates.
pub fn cold_circuits() -> Vec<Circuit> {
    let mut circuits =
        vec![blif::parse(include_str!("../rdag40.blif")).expect("rdag40.blif parses")];
    circuits.push(
        generate::benchmark_suite()
            .into_iter()
            .find(|c| c.name() == "apex2")
            .expect("the suite has apex2"),
    );
    for (i, cells) in [40, 60, 80, 100, 120].into_iter().enumerate() {
        circuits.push(generate::random_dag(&dag(
            &format!("dag{cells}"),
            cells,
            1000 + i as u64,
        )));
    }
    circuits
}

/// The `size_cold` cases as (index into [`cold_circuits`], form), about
/// 11 s of solves at 2 threads.
///
/// `rdag40` min mu+3sigma hits the 40-iteration outer cap; both `apex2`
/// rows are above the 512-constraint threshold of parallel evaluation;
/// the area rows converge in 7-9 outer iterations. `apex2` min mu (6 s at
/// 2 threads), `dag40` min mu+3sigma (a second cap row) and the
/// mu+3sigma area rows of `dag80`-`dag120` are left out to keep a run
/// near 10 s, so that ten runs span little of the host's drift.
pub const COLD_CASES: [(usize, Form); 14] = [
    (0, Form::MinMu),
    (0, Form::MinMu3s),
    (0, Form::AreaMu),
    (0, Form::AreaMu3s),
    (1, Form::AreaMu),
    (1, Form::AreaMu3s),
    (2, Form::MinMu),
    (2, Form::AreaMu),
    (2, Form::AreaMu3s),
    (3, Form::AreaMu),
    (3, Form::AreaMu3s),
    (4, Form::AreaMu),
    (5, Form::AreaMu),
    (6, Form::AreaMu),
];

/// The `size_cold` case the set-up solves once, untimed, as warm-up
/// (`rdag40` area s.t. mu <= D, the cheapest row).
pub const COLD_WARMUP: (usize, Form) = (0, Form::AreaMu);

/// The `whatif_stream` circuits: `apex1`, `k2` and a generated DAG above
/// `sgs_ssta::analysis::PAR_GATE_THRESHOLD`, so full passes take the
/// levelized path.
pub fn stream_circuits() -> Vec<Circuit> {
    let mut circuits: Vec<Circuit> = generate::benchmark_suite()
        .into_iter()
        .filter(|c| c.name() != "apex2")
        .collect();
    circuits.push(generate::random_dag(&RandomDagSpec {
        name: "dag2600".into(),
        cells: 2600,
        inputs: 64,
        depth: 40,
        seed: 0xB16,
        back_jump_pct: 92,
        spine_extra_load: 0.25,
    }));
    circuits
}

/// Gate counts of [`stream_circuits`] (the script draws probes before
/// the set-up generates the circuits).
pub const STREAM_GATES: [usize; 3] = [982, 1692, 2600];

/// One op of the `whatif_stream` script on circuit `circuit`.
#[derive(Debug, Clone, Copy)]
pub enum StreamOp {
    /// A single-gate what-if probe.
    Probe {
        /// Index into [`stream_circuits`].
        circuit: usize,
        /// The size change.
        change: (GateId, f64),
    },
    /// A full SSTA pass at the engine's current sizes, checked bit for bit
    /// against the incremental state.
    FullPass {
        /// Index into [`stream_circuits`].
        circuit: usize,
    },
}

/// Probes per second of `--seconds` in `whatif_stream`. At 10 seconds
/// that is 5,000 probes, ten blocks of 500, which puts `what_if_tail_s`
/// at each block's p95 (25 probes beyond it).
const PROBES_PER_SECOND: usize = 500;
/// Probes on one circuit between two of its full passes.
const PROBES_PER_PASS: usize = 4;

/// A sizing session: cold solve, a run of single-gate what-if probes,
/// then a warm re-solve chain that tightens the deadline.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// The session's generated circuit.
    pub dag: RandomDagSpec,
    /// Session deadline, as a fraction of the unsized mean delay.
    pub d0: f64,
    /// Re-solve deadlines, as fractions of the unsized mean delay.
    pub chain: Vec<f64>,
    /// The probes, applied in order (each moves the working point).
    pub probes: Vec<(GateId, f64)>,
}

impl SessionPlan {
    /// Key of the session in the reference file: the circuit's size and
    /// generator seed, the same in every pass.
    pub fn key(&self) -> String {
        format!("dag{}s{}", self.dag.cells, self.dag.seed)
    }

    /// Reference key of the session's cold solve.
    pub fn solve_key(&self) -> String {
        format!("{}/solve", self.key())
    }

    /// Reference key of the session's re-solve at deadline fraction `f`.
    pub fn resolve_key(&self, f: f64) -> String {
        format!("{}/resolve{f}", self.key())
    }
}

/// Reference key of a `size_cold` case on the circuit named `circuit`.
pub fn cold_key(circuit: &str, form: Form) -> String {
    format!("{circuit}/{}", form.label())
}

/// `serve_session` circuit seeds: `apex2`-class DAGs (117 cells, 39
/// inputs, depth 10) whose re-solve chain converges without hitting the
/// outer cap even when continued down to 0.88 (seeds 7000, 7003, 7011 and
/// 7015 hit it; deadlines below about 0.9 cost seconds per re-solve).
/// One pass over them takes about 20 s.
const SERVE_SEEDS: [u64; 16] = [
    7001, 7002, 7004, 7005, 7006, 7007, 7008, 7009, 7010, 7012, 7013, 7014, 7016, 7017, 7018, 7019,
];
const SERVE_CHAIN: [f64; 5] = [0.97, 0.96, 0.95, 0.94, 0.93];
/// 1,008 served probes per pass, so each of the ten blocks that
/// `what_if_tail_s` takes the median over has at least 100 and its tail
/// is p90: the p95 and p99 of a served probe are the host's thread
/// wake-up latency and move by a third to a half from run to run.
const SERVE_PROBES: usize = 63;

/// Canary seeds: 20-gate sessions that give `size_cold` and
/// `whatif_stream` every operation kind, so each workload reports every
/// end-to-end metric.
const CANARY_SEEDS: [u64; 20] = [
    11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30,
];
const CANARY_CHAIN: [f64; 4] = [0.95, 0.92, 0.90, 0.88];
const CANARY_PROBES: usize = 100;
/// Times each canary session runs in a script, its runs spread evenly
/// through it; an operation's latency is its fastest run. The host
/// switches between a fast and a slow state that last seconds to
/// minutes, and the canaries' small solves and re-solves take about 1.6
/// times as long in the slow one, so one run each gave medians that
/// read whichever state held most of the run.
pub const CANARY_RUNS: usize = 5;

fn serve_dag(seed: u64, pass: usize) -> RandomDagSpec {
    RandomDagSpec {
        // The pass number keeps every session distinct on the server.
        name: format!("apex2c{seed}p{pass}"),
        cells: 117,
        inputs: 39,
        depth: 10,
        seed,
        back_jump_pct: 92,
        spine_extra_load: 0.15,
    }
}

fn canary_dag(seed: u64) -> RandomDagSpec {
    RandomDagSpec {
        name: format!("canary{seed}"),
        cells: 20,
        inputs: 5,
        depth: 4,
        seed,
        ..Default::default()
    }
}

fn sessions(
    rng: &mut Rng,
    dags: Vec<RandomDagSpec>,
    d0: f64,
    chain: &[f64],
    probes: usize,
) -> Vec<SessionPlan> {
    let mut plans: Vec<SessionPlan> = dags
        .into_iter()
        .map(|dag| SessionPlan {
            probes: rng.probes(dag.cells, probes),
            dag,
            d0,
            chain: chain.to_vec(),
        })
        .collect();
    rng.shuffle(&mut plans);
    plans
}

/// One step of a script.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// A `size_cold` case (index into [`COLD_CASES`]).
    Cold(usize),
    /// A `whatif_stream` op.
    Stream(StreamOp),
    /// A session (index into [`Script::sessions`]).
    Session(usize),
}

/// Spreads [`CANARY_RUNS`] runs of each of `sessions` canary sessions
/// evenly through `main` (all sessions in turn, then all again), so that
/// samples of every kind cover the whole run rather than one stretch of
/// it, and the runs of one session lie a [`CANARY_RUNS`]th of the run
/// apart.
fn interleave(main: Vec<Step>, sessions: usize) -> Vec<Step> {
    let n = sessions * CANARY_RUNS;
    let len = main.len();
    let mut out = Vec::with_capacity(len + n);
    let mut next = 0;
    for (i, step) in main.into_iter().enumerate() {
        out.push(step);
        while next < n && (next + 1) * len <= (i + 1) * (n + 1) {
            out.push(Step::Session(next % sessions));
            next += 1;
        }
    }
    out.extend((next..n).map(|k| Step::Session(k % sessions)));
    out
}

/// One workload's script.
pub struct Script {
    /// Which workload.
    pub workload: Workload,
    /// The steps in run order.
    pub steps: Vec<Step>,
    /// Sessions: served on `serve_session`, in-process canaries elsewhere.
    pub sessions: Vec<SessionPlan>,
}

/// Reference keys of every solve and re-solve a script runs, in run order.
pub struct AnswerKeys {
    /// The workload's own.
    pub own: Vec<String>,
    /// The canary sessions'.
    pub canary: Vec<String>,
}

impl Script {
    /// Whether the workload runs solves of its own (every workload but
    /// `whatif_stream`, whose optimizer figures come from its canaries).
    pub fn optimizes(&self) -> bool {
        self.workload != Workload::WhatifStream
    }

    /// Whether [`Script::sessions`] are canaries rather than the
    /// workload's own operations.
    pub fn sessions_are_canaries(&self) -> bool {
        self.workload != Workload::ServeSession
    }

    /// Reference keys of every solve and re-solve the script runs (a
    /// canary session's once: its later runs are checked against its
    /// first); `cold_names` are the names of [`cold_circuits`].
    pub fn answer_keys(&self, cold_names: &[String]) -> AnswerKeys {
        let mut keys = AnswerKeys {
            own: Vec::new(),
            canary: Vec::new(),
        };
        let mut seen = vec![false; self.sessions.len()];
        for step in &self.steps {
            match *step {
                Step::Cold(case) => {
                    let (c, form) = COLD_CASES[case];
                    keys.own.push(cold_key(&cold_names[c], form));
                }
                Step::Session(i) => {
                    if std::mem::replace(&mut seen[i], true) {
                        continue;
                    }
                    let plan = &self.sessions[i];
                    let into = if self.sessions_are_canaries() {
                        &mut keys.canary
                    } else {
                        &mut keys.own
                    };
                    into.push(plan.solve_key());
                    into.extend(plan.chain.iter().map(|&f| plan.resolve_key(f)));
                }
                Step::Stream(_) => {}
            }
        }
        keys
    }

    /// The script of `workload` for `seed`. Every 10 `seconds` add one
    /// pass over the `size_cold` cases and every 20 one pass over the
    /// `serve_session` sessions (at least one of either); the
    /// `whatif_stream` probe count is `PROBES_PER_SECOND * seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Script {
        let mut rng = Rng::new(seed);
        let passes = |per: u64| ((seconds + per / 2) / per).max(1) as usize;
        // The canaries are the same in every run: they exist to give
        // every workload every operation kind, not to vary its input.
        let canaries = || {
            let dags = CANARY_SEEDS.map(canary_dag).to_vec();
            sessions(&mut Rng::new(0), dags, 0.97, &CANARY_CHAIN, CANARY_PROBES)
        };
        let (steps, sessions) = match workload {
            Workload::SizeCold => {
                let mut main = Vec::new();
                for _ in 0..passes(10) {
                    let mut order: Vec<usize> = (0..COLD_CASES.len()).collect();
                    rng.shuffle(&mut order);
                    main.extend(order.into_iter().map(Step::Cold));
                }
                let canaries = canaries();
                (interleave(main, canaries.len()), canaries)
            }
            Workload::WhatifStream => {
                let gates = STREAM_GATES;
                let n = PROBES_PER_SECOND * seconds.max(1) as usize;
                let mut streams: Vec<_> = gates
                    .iter()
                    .map(|&g| rng.probes(g, n.div_ceil(gates.len())).into_iter())
                    .collect();
                let mut main = Vec::new();
                for i in 0..n {
                    let circuit = i % gates.len();
                    let change = streams[circuit].next().expect("enough probes per circuit");
                    main.push(Step::Stream(StreamOp::Probe { circuit, change }));
                    if (i / gates.len() + 1).is_multiple_of(PROBES_PER_PASS) {
                        main.push(Step::Stream(StreamOp::FullPass { circuit }));
                    }
                }
                let canaries = canaries();
                (interleave(main, canaries.len()), canaries)
            }
            Workload::ServeSession => {
                let mut plans = Vec::new();
                for pass in 0..passes(20) {
                    let dags = SERVE_SEEDS.iter().map(|&s| serve_dag(s, pass)).collect();
                    plans.extend(sessions(&mut rng, dags, 0.98, &SERVE_CHAIN, SERVE_PROBES));
                }
                ((0..plans.len()).map(Step::Session).collect(), plans)
            }
        };
        Script {
            workload,
            steps,
            sessions,
        }
    }
}
