//! The traced run's per-layer metrics.
//!
//! They come from three sources, all outside the program: counters and
//! phase timers that `sgs_metrics` already keeps (read over the traced
//! pass), timed calls into each crate's public functions, and replays of
//! the pass's own operations (probes on a bare `IncrementalSsta`, sessions
//! on the other side of the served/in-process divide).

use crate::exec::{
    prepare_sessions, run_local_sessions, run_served_sessions, Answer, Kind, Recorder, Run,
};
use crate::script::{cold_circuits, stream_circuits, Script, Workload, COLD_CASES};
use sgs_core::{DelaySpec, Objective, SizingProblem};
use sgs_metrics::{Counter, HistId, Phase};
use sgs_netlist::{generate, Circuit, Library, Signal};
use sgs_nlp::auglag::AugLagOptions;
use sgs_nlp::NlpProblem;
use sgs_ssta::{ssta, IncrementalSsta};
use sgs_statmath::{clark, Normal};
use std::hint::black_box;
use std::time::Instant;

/// Probes per stream replayed on a bare `IncrementalSsta`.
const APPLY_REPLAY_CAP: usize = 2000;

/// One per-layer metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// Median nanoseconds per item of `f`, which processes `items` items per
/// call: five blocks, each calling `f` until `block_ms` have passed.
fn ns_per_item(items: usize, block_ms: f64, mut f: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        let mut calls = 0usize;
        while calls == 0 || t.elapsed().as_secs_f64() * 1e3 < block_ms {
            f();
            calls += 1;
        }
        per.push(t.elapsed().as_secs_f64() * 1e9 / (calls * items) as f64);
    }
    per.sort_by(f64::total_cmp);
    per[2]
}

fn mean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (n, s) = v
        .into_iter()
        .fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    if n == 0 {
        0.0
    } else {
        s / n as f64
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// `clark::max_batch` ns per lane and `clark::max_hess` ns per call, on
/// the (first two fan-in) operand pairs of every multi-input gate of an
/// unsized `apex1` full pass.
fn clark_ns(lib: &Library) -> (f64, f64) {
    let apex1 = generate::benchmark_suite()
        .into_iter()
        .find(|c| c.name() == "apex1")
        .expect("the suite has apex1");
    let full = ssta(&apex1, lib, &vec![1.0; apex1.num_gates()]);
    let arrival = |s: Signal| match s {
        Signal::Pi(_) => Normal::default(),
        Signal::Gate(g) => full.arrivals[g.index()],
    };
    let (mut mu_a, mut var_a, mut mu_b, mut var_b) = (vec![], vec![], vec![], vec![]);
    for (_, gate) in apex1.gates() {
        if let [a, b, ..] = gate.inputs[..] {
            let (a, b) = (arrival(a), arrival(b));
            mu_a.push(a.mean());
            var_a.push(a.var());
            mu_b.push(b.mean());
            var_b.push(b.var());
        }
    }
    let n = mu_a.len();
    let (mut out_mu, mut out_var) = (vec![0.0; n], vec![0.0; n]);
    let eps = clark::DEFAULT_EPS;
    let batch = ns_per_item(n, 20.0, || {
        clark::max_batch(
            black_box(&mu_a),
            black_box(&var_a),
            black_box(&mu_b),
            black_box(&var_b),
            eps,
            &mut out_mu,
            &mut out_var,
        );
        black_box(&out_mu);
    });
    let hess = ns_per_item(n, 20.0, || {
        for i in 0..n {
            black_box(clark::max_hess(
                black_box(mu_a[i]),
                black_box(var_a[i]),
                black_box(mu_b[i]),
                black_box(var_b[i]),
                eps,
            ));
        }
    });
    (batch, hess)
}

/// The circuits of `ssta.analysis.full_pass_us`, one metric each: the
/// named circuits of `size_cold` and `whatif_stream` (`apex2` stands for
/// the `apex2`-class DAGs of `serve_session`).
const FULL_PASS_METRICS: [(&str, &str); 5] = [
    ("rdag40", "ssta.analysis.full_pass_us.rdag40"),
    ("apex2", "ssta.analysis.full_pass_us.apex2"),
    ("apex1", "ssta.analysis.full_pass_us.apex1"),
    ("k2", "ssta.analysis.full_pass_us.k2"),
    ("dag2600", "ssta.analysis.full_pass_us.dag2600"),
];

/// µs per unsized full SSTA pass of each circuit of [`FULL_PASS_METRICS`].
fn full_pass_us(lib: &Library) -> Vec<Metric> {
    let circuits: Vec<Circuit> = cold_circuits()
        .into_iter()
        .chain(stream_circuits())
        .collect();
    FULL_PASS_METRICS
        .iter()
        .map(|&(name, metric)| {
            let c = circuits
                .iter()
                .find(|c| c.name() == name)
                .expect("every full-pass circuit is a workload circuit");
            let ones = vec![1.0; c.num_gates()];
            let ns = ns_per_item(1, 10.0, || {
                black_box(ssta(c, lib, black_box(&ones)));
            });
            (metric, "us", ns * 1e-3)
        })
        .collect()
}

/// µs per `NlpProblem` constraints / Jacobian / Hessian call on the
/// `SizingProblem` of each case, at the all-ones start point.
fn problem_us(cases: &[(&Circuit, Objective, DelaySpec)], lib: &Library) -> [f64; 3] {
    let mut sums = [0.0; 3];
    for (circuit, objective, spec) in cases {
        let p = SizingProblem::build(circuit, lib, objective.clone(), spec.clone());
        let x = p.initial_point(&vec![1.0; circuit.num_gates()]);
        let m = p.num_constraints();
        let mut c = vec![0.0; m];
        let mut jac = vec![0.0; p.jacobian_structure().len()];
        let mut hess = vec![0.0; p.hessian_structure().len()];
        let lambda = vec![1.0; m];
        sums[0] += ns_per_item(1, 2.0, || p.constraints(black_box(&x), &mut c)) * 1e-3;
        sums[1] += ns_per_item(1, 2.0, || p.jacobian_values(black_box(&x), &mut jac)) * 1e-3;
        sums[2] += ns_per_item(1, 2.0, || {
            p.hessian_values(black_box(&x), 1.0, &lambda, &mut hess);
        }) * 1e-3;
    }
    sums.map(|s| s / cases.len() as f64)
}

/// The registry's counters and phase timers after the traced pass.
struct Registry {
    solves: u64,
    outer: u64,
    inner: u64,
    cg: u64,
    evals: [u64; 3],
    warm_offered: u64,
    warm_accepted: u64,
    restarts: u64,
    greedy: u64,
    reduced_s: f64,
    solve_s: f64,
    inner_tr_s: f64,
}

impl Registry {
    fn read() -> Self {
        let c = sgs_metrics::counter_value;
        Registry {
            solves: c(Counter::NlpSolves),
            outer: c(Counter::NlpOuterIterations),
            inner: c(Counter::NlpInnerIterations),
            cg: c(Counter::NlpCgIterations),
            evals: [
                c(Counter::NlpEvalsConstraints),
                c(Counter::NlpEvalsJacobian),
                c(Counter::NlpEvalsHessian),
            ],
            warm_offered: c(Counter::NlpWarmOffered),
            warm_accepted: c(Counter::NlpWarmAccepted),
            restarts: c(Counter::SizerRestarts),
            greedy: c(Counter::SizerGreedyFallbacks),
            reduced_s: sgs_metrics::phase_seconds(Phase::ReducedSpace),
            solve_s: sgs_metrics::phase_seconds(Phase::Solve),
            inner_tr_s: sgs_metrics::phase_seconds(Phase::InnerTr),
        }
    }
}

/// Mean µs per request of a registry histogram (0 when empty).
fn hist_mean_us(h: HistId) -> f64 {
    let s = sgs_metrics::hist_snapshot(h);
    if s.count == 0 {
        0.0
    } else {
        s.sum / s.count as f64 * 1e6
    }
}

/// Admission-queue wait, session-queue wait (µs per request) and session
/// hit fraction, from the registry.
fn serve_registry() -> [f64; 3] {
    let hits = sgs_metrics::counter_value(Counter::ServeSessionHits);
    let misses = sgs_metrics::counter_value(Counter::ServeSessionMisses);
    [
        hist_mean_us(HistId::ServeQueueWaitSeconds),
        hist_mean_us(HistId::ServeSessionWaitSeconds),
        ratio(hits, hits + misses),
    ]
}

/// Served minus in-process latency (µs), median over paired operations
/// of each kind; appends a finding for every answer that differs.
fn serve_overhead(
    served: &[(Kind, f64, Answer)],
    local: &[(Kind, f64, Answer)],
    bad: &mut Vec<String>,
) -> [f64; 3] {
    if served.len() != local.len() {
        bad.push(format!(
            "served replay ran {} ops, in-process {}",
            served.len(),
            local.len()
        ));
    }
    let mut diffs: [Vec<f64>; 3] = Default::default();
    for (i, (s, l)) in served.iter().zip(local).enumerate() {
        if s.2 != l.2 {
            bad.push(format!(
                "op {i} ({:?}): served answer {:?} differs from in-process {:?}",
                s.0, s.2, l.2
            ));
        }
        let slot = match s.0 {
            Kind::Solve => 0,
            Kind::Resolve => 1,
            Kind::WhatIf => 2,
            Kind::FullPass => continue,
        };
        diffs[slot].push((s.1 - l.1) * 1e6);
    }
    diffs.map(median)
}

/// The per-layer metrics of `script`, from its untraced pass `plain` and
/// its traced pass `traced` (run just before, registry still holding the
/// traced counters: the workload's own operations, or on `whatif_stream`,
/// which runs no solves of its own, its canaries'). Findings of the
/// replays' answer checks go to `bad`; lines worth printing go to
/// `notes`.
pub fn measure(
    script: &Script,
    lib: &Library,
    plain: &Run,
    traced: &Run,
    bad: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let reg = Registry::read();
    let covered = if script.optimizes() {
        &traced.rec
    } else {
        &traced.canary
    };
    let served_main = script.workload == Workload::ServeSession;
    let serve_from_pass = served_main.then(serve_registry);

    let (batch_ns, hess_ns) = clark_ns(lib);

    let preps = prepare_sessions(&script.sessions, lib);
    // Each distinct session once (later passes repeat them).
    let mut seen = std::collections::HashSet::new();
    let session_cases: Vec<(&Circuit, Objective, DelaySpec)> = script
        .sessions
        .iter()
        .zip(&preps)
        .filter(|(plan, _)| seen.insert(plan.key()))
        .map(|(plan, prep)| {
            let spec = DelaySpec::MaxMean(plan.d0 * prep.mu0);
            (&prep.circuit, Objective::Area, spec)
        })
        .collect();
    // The workload's own optimizer cases; `whatif_stream` has none of its
    // own and takes its canaries'.
    let cold = cold_circuits();
    let problem_cases = match script.workload {
        Workload::SizeCold => COLD_CASES
            .iter()
            .map(|&(c, form)| {
                let ones = vec![1.0; cold[c].num_gates()];
                let (o, s) = form.formulation(ssta(&cold[c], lib, &ones).delay);
                (&cold[c], o, s)
            })
            .collect(),
        Workload::WhatifStream | Workload::ServeSession => session_cases,
    };
    let passes = full_pass_us(lib);

    let pus = problem_us(&problem_cases, lib);

    let (mut apply_s, mut applied, mut recomputed) = (0.0, 0usize, 0usize);
    // The workload's own probe streams, or its canaries' where it has none.
    let runs = if traced.rec.probe_runs.is_empty() {
        &traced.canary.probe_runs
    } else {
        &traced.rec.probe_runs
    };
    for run in runs {
        let mut inc = IncrementalSsta::new(&run.circuit, lib, &run.start);
        let changes = &run.changes[..run.changes.len().min(APPLY_REPLAY_CAP)];
        let t = Instant::now();
        for change in changes {
            recomputed += inc.apply(std::slice::from_ref(change)).gates_recomputed;
        }
        apply_s += t.elapsed().as_secs_f64();
        applied += changes.len();
    }

    // The other side of the served/in-process divide: sessions replayed
    // in process on `serve_session`, canaries replayed through a daemon
    // elsewhere. Answers must agree bit for bit.
    sgs_metrics::reset();
    sgs_metrics::enable();
    let mut replay = Recorder::new();
    let (overhead, serve) = if served_main {
        run_local_sessions(&script.sessions, &preps, lib, &mut replay);
        let o = serve_overhead(&traced.rec.session_ops, &replay.session_ops, bad);
        (o, serve_from_pass.expect("read after the served pass"))
    } else {
        run_served_sessions(&script.sessions, &preps, lib, &mut replay);
        let o = serve_overhead(&replay.session_ops, &traced.canary.session_ops, bad);
        (o, serve_registry())
    };
    sgs_metrics::disable();

    let max_outer = AugLagOptions::default().max_outer;
    // Per solve or re-solve of the operations the registry covered.
    let sized = covered.count(Kind::Solve) + covered.count(Kind::Resolve);
    let solves = sized.max(1) as f64;
    let est_eval_s = (0..3)
        .map(|k| reg.evals[k] as f64 * pus[k] * 1e-6)
        .sum::<f64>();
    let ops_untraced = plain.rec.attempted() as f64 / plain.wall_s;
    let ops_traced = traced.rec.attempted() as f64 / traced.wall_s;
    notes.push(format!(
        "registry over {sized} solves and re-solves ({} augmented-Lagrangian solves)",
        reg.solves
    ));
    notes.push(format!(
        "nlp.tr.self_s = (inner_tr phase {:.3} s - estimated evaluation {:.3} s) / {sized}",
        reg.inner_tr_s, est_eval_s
    ));
    let resolves = if traced.rec.resolve_recomputed.is_empty() {
        &traced.canary.resolve_recomputed
    } else {
        &traced.rec.resolve_recomputed
    };

    let mut metrics = vec![
        ("statmath.clark.max_batch_ns", "ns", batch_ns),
        ("statmath.clark.max_hess_ns", "ns", hess_ns),
        ("statmath.clark.var_clamps", "count", plain.clamps as f64),
    ];
    metrics.extend(passes);
    metrics.extend([
        (
            "ssta.incremental.apply_us",
            "us",
            apply_s * 1e6 / applied.max(1) as f64,
        ),
        (
            "ssta.incremental.gates_recomputed_per_op",
            "count",
            recomputed as f64 / applied.max(1) as f64,
        ),
        ("core.problem.constraints_us", "us", pus[0]),
        ("core.problem.jacobian_us", "us", pus[1]),
        ("core.problem.hessian_us", "us", pus[2]),
        (
            "nlp.evals.constraints",
            "count",
            reg.evals[0] as f64 / solves,
        ),
        ("nlp.evals.jacobian", "count", reg.evals[1] as f64 / solves),
        ("nlp.evals.hessian", "count", reg.evals[2] as f64 / solves),
        ("nlp.tr.cg_per_step", "ratio", ratio(reg.cg, reg.inner)),
        (
            "nlp.tr.steps_per_outer",
            "ratio",
            ratio(reg.inner, reg.outer),
        ),
        (
            "nlp.tr.self_s",
            "s",
            ((reg.inner_tr_s - est_eval_s) / solves).max(0.0),
        ),
        (
            "nlp.auglag.outer_iterations",
            "count",
            reg.outer as f64 / solves,
        ),
        (
            "nlp.auglag.cap_hits",
            "count",
            covered.outer.iter().filter(|&&o| o >= max_outer).count() as f64,
        ),
        (
            "nlp.auglag.warm_accepted_frac",
            "ratio",
            ratio(reg.warm_accepted, reg.warm_offered),
        ),
        (
            "core.reduced.share",
            "ratio",
            if reg.solve_s > 0.0 {
                reg.reduced_s / reg.solve_s
            } else {
                0.0
            },
        ),
        ("core.sizer.restarts", "count", reg.restarts as f64),
        ("core.sizer.greedy_fallbacks", "count", reg.greedy as f64),
        (
            "core.resolve.gates_recomputed_per_resolve",
            "count",
            mean(resolves.iter().map(|&g| g as f64)),
        ),
        ("serve.overhead_us.solve", "us", overhead[0]),
        ("serve.overhead_us.resolve", "us", overhead[1]),
        ("serve.overhead_us.what_if", "us", overhead[2]),
        ("serve.queue_wait_us", "us", serve[0]),
        ("serve.session_wait_us", "us", serve[1]),
        ("serve.session_hit_frac", "ratio", serve[2]),
        ("bench.ops_per_s_untraced", "1/s", ops_untraced),
        ("bench.ops_per_s_traced", "1/s", ops_traced),
        (
            "bench.tracing_overhead_frac",
            "ratio",
            1.0 - ops_traced / ops_untraced,
        ),
    ]);
    metrics
}
