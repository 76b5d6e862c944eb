//! Integration: the metrics registry end-to-end through the sizer.
//!
//! The contract under test (the acceptance criteria of the metrics
//! layer):
//!
//! * metrics are observation only — a solve with the registry enabled is
//!   bit-identical (iterates, objective, eval counts) to one with it
//!   disabled, which is the default state of every run without
//!   `--metrics`;
//! * the counters a solve leaves behind agree with the corresponding
//!   `SizingResult` fields — the snapshot is the result, not an estimate
//!   of it;
//! * the phase profile of an enabled run covers at least 95% of the
//!   measured wall clock and never more than all of it, and the snapshot
//!   it produces passes the same `Snapshot::lint` gate CI applies to
//!   `--metrics` files, round-tripping through JSON byte-identically;
//! * the registry, the trace sink and the request timeline see the same
//!   phases, as often and for the same time.
//!
//! The registry is process-global, so every test here serialises on one
//! mutex (the same discipline as the `sgs-metrics` unit tests).

use sgs_analyze::AnalyzerGate;
use sgs_core::{DelaySpec, Objective, Preflight, SizeError, Sizer, SolverChoice, SweepEngine};
use sgs_metrics::{Counter, Gauge, Metadata, Phase, Snapshot};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::{blif, Circuit, Library};
use sgs_trace::{MemorySink, RequestContext, RequestTrace, TraceEvent, Tracer};
use std::sync::Mutex;
use std::time::Instant;

static LOCK: Mutex<()> = Mutex::new(());

fn lib() -> Library {
    Library::paper_default()
}

fn rdag40() -> Circuit {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/rdag40.blif");
    let text = std::fs::read_to_string(path).expect("benchmarks/rdag40.blif exists");
    blif::parse(&text).expect("rdag40.blif parses")
}

fn dag(cells: usize, seed: u64) -> Circuit {
    generate::random_dag(&RandomDagSpec {
        name: format!("metrics{cells}"),
        cells,
        inputs: 4,
        depth: 4,
        seed,
        ..Default::default()
    })
}

#[test]
fn enabled_metrics_solve_is_bit_identical_to_disabled() {
    let _g = LOCK.lock().unwrap();
    let lb = lib();
    for (c, solver) in [
        (generate::tree7(), SolverChoice::FullSpace),
        (dag(14, 99), SolverChoice::FullSpace),
        (generate::tree7(), SolverChoice::ReducedSpace),
    ] {
        let base = Sizer::new(&c, &lb)
            .objective(Objective::MeanPlusKSigma(3.0))
            .solver(solver);

        sgs_metrics::disable();
        let plain = base.clone().solve().expect("metrics-off solve");

        sgs_metrics::reset();
        sgs_metrics::enable();
        let metered = base.solve().expect("metrics-on solve");
        sgs_metrics::disable();

        let pb: Vec<u64> = plain.s.iter().map(|v| v.to_bits()).collect();
        let mb: Vec<u64> = metered.s.iter().map(|v| v.to_bits()).collect();
        assert_eq!(pb, mb, "iterates must be bit-identical");
        assert_eq!(plain.objective.to_bits(), metered.objective.to_bits());
        assert_eq!(plain.outer_iterations, metered.outer_iterations);
        assert_eq!(plain.inner_iterations, metered.inner_iterations);
        assert_eq!(plain.evals, metered.evals, "evaluation counts unchanged");
    }
}

#[test]
fn counters_agree_with_the_sizing_result() {
    let _g = LOCK.lock().unwrap();
    sgs_metrics::reset();
    sgs_metrics::enable();
    let c = dag(20, 7);
    let r = Sizer::new(&c, &lib())
        .objective(Objective::MeanPlusKSigma(3.0))
        .solver(SolverChoice::FullSpace)
        .solve()
        .expect("metered sizing converges");
    let get = sgs_metrics::counter_value;
    let restarts = get(Counter::SizerRestarts);
    let fallbacks = get(Counter::SizerGreedyFallbacks);
    sgs_metrics::disable();

    assert_eq!(get(Counter::SizerSolves), 1);
    assert_eq!(get(Counter::ClarkVarClamps), r.clark_var_clamps);

    // Counters accumulate over every attempt of the recovery ladder; the
    // result reports the successful one. With no restart or fallback the
    // two views must agree exactly.
    assert!(get(Counter::NlpSolves) >= 1);
    assert!(get(Counter::NlpOuterIterations) >= r.outer_iterations as u64);
    assert!(get(Counter::NlpEvalsObjective) >= r.evals.objective as u64);
    if restarts == 0 && fallbacks == 0 {
        assert_eq!(get(Counter::NlpOuterIterations), r.outer_iterations as u64);
        assert_eq!(get(Counter::NlpInnerIterations), r.inner_iterations as u64);
        assert_eq!(get(Counter::NlpEvalsObjective), r.evals.objective as u64);
        assert_eq!(get(Counter::NlpEvalsGradient), r.evals.gradient as u64);
        assert_eq!(
            get(Counter::NlpEvalsConstraints),
            r.evals.constraints as u64
        );
        assert_eq!(get(Counter::NlpEvalsJacobian), r.evals.jacobian as u64);
        assert_eq!(get(Counter::NlpEvalsHessian), r.evals.hessian as u64);
    }

    // Each outer iteration is timed exactly once.
    let outer_hist = sgs_metrics::hist_snapshot(sgs_metrics::HistId::NlpOuterSeconds);
    assert_eq!(outer_hist.count, get(Counter::NlpOuterIterations));
}

#[test]
fn reduced_iterations_count_every_multiplier_round() {
    // rdag40 area s.t. mu <= 0.9 x unsized takes several multiplier
    // rounds, one truncated-Newton run each; the reported iteration count
    // must sum them, as the registry counter does.
    let _g = LOCK.lock().unwrap();
    let c = rdag40();
    let lb = lib();
    let unsized_mu = sgs_ssta::ssta(&c, &lb, &vec![1.0; c.num_gates()])
        .delay
        .mean();
    sgs_metrics::reset();
    sgs_metrics::enable();
    let r = Sizer::new(&c, &lb)
        .objective(Objective::Area)
        .delay_spec(DelaySpec::MaxMean(0.9 * unsized_mu))
        .solver(SolverChoice::ReducedSpace)
        .solve()
        .expect("reduced-space sizing succeeds");
    let counted = sgs_metrics::counter_value(Counter::ReducedNewtonIterations);
    let rounds = sgs_metrics::counter_value(Counter::ReducedRounds);
    sgs_metrics::disable();
    assert!(rounds > 1, "{rounds} round(s)");
    assert_eq!(r.inner_iterations as u64, counted);
}

/// Value, gradient and Hessian-vector calls of the reduced seed summed
/// over the fourteen cold Table 1 rows the `size_cold` benchmark solves
/// (rdag40, apex2 and generated DAGs of 40-120 gates; deadlines at 0.9x
/// the unsized delay). Projected L-BFGS took 5,793 calls here; the
/// truncated-Newton seed must take at most half.
#[test]
fn cold_rows_take_at_most_half_the_seed_calls_of_lbfgs() {
    #[derive(Clone, Copy)]
    enum Form {
        MinMu,
        MinMu3s,
        AreaMu,
        AreaMu3s,
    }
    use Form::*;
    let _g = LOCK.lock().unwrap();
    let mut circuits = vec![rdag40()];
    circuits.extend(
        generate::benchmark_suite()
            .into_iter()
            .filter(|c| c.name() == "apex2"),
    );
    for (i, cells) in [40, 60, 80, 100, 120].into_iter().enumerate() {
        circuits.push(generate::random_dag(&RandomDagSpec {
            name: format!("dag{cells}"),
            cells,
            inputs: 8 + cells / 8,
            depth: 6 + cells / 20,
            seed: 1000 + i as u64,
            ..Default::default()
        }));
    }
    let cases = [
        (0, MinMu),
        (0, MinMu3s),
        (0, AreaMu),
        (0, AreaMu3s),
        (1, AreaMu),
        (1, AreaMu3s),
        (2, MinMu),
        (2, AreaMu),
        (2, AreaMu3s),
        (3, AreaMu),
        (3, AreaMu3s),
        (4, AreaMu),
        (5, AreaMu),
        (6, AreaMu),
    ];
    let lb = lib();
    sgs_metrics::reset();
    sgs_metrics::enable();
    for (ci, form) in cases {
        let c = &circuits[ci];
        let unsized_delay = sgs_ssta::ssta(c, &lb, &vec![1.0; c.num_gates()]).delay;
        let (objective, spec) = match form {
            MinMu => (Objective::MeanDelay, DelaySpec::None),
            MinMu3s => (Objective::MeanPlusKSigma(3.0), DelaySpec::None),
            AreaMu => (
                Objective::Area,
                DelaySpec::MaxMean(0.9 * unsized_delay.mean()),
            ),
            AreaMu3s => (
                Objective::Area,
                DelaySpec::MaxMeanPlusKSigma {
                    k: 3.0,
                    d: 0.9 * unsized_delay.mean_plus_k_sigma(3.0),
                },
            ),
        };
        Sizer::new(c, &lb)
            .objective(objective)
            .delay_spec(spec)
            .solve()
            .expect("cold row solves");
    }
    let get = sgs_metrics::counter_value;
    let calls = get(Counter::ReducedEvalsValue)
        + get(Counter::ReducedEvalsGrad)
        + get(Counter::ReducedHessVecs);
    let iterations = get(Counter::ReducedNewtonIterations);
    sgs_metrics::disable();
    eprintln!(
        "CALLS {calls} value {} grad {} hv {} iters {iterations}",
        get(Counter::ReducedEvalsValue),
        get(Counter::ReducedEvalsGrad),
        get(Counter::ReducedHessVecs)
    );
    assert!(
        calls <= 5_793 / 2,
        "{calls} seed calls, {iterations} Newton iterations"
    );
}

/// The sweep's probe below rdag40's minimum delay: a warm re-solve at
/// d = 15.74 fails on the seed alone, with no full-space work, and leaves
/// the warm state to the last accepted answer.
#[test]
fn infeasible_warm_resolve_fails_without_full_space_work() {
    let _g = LOCK.lock().unwrap();
    let c = rdag40();
    let lb = lib();
    let mut r = Sizer::new(&c, &lb)
        .objective(Objective::Area)
        .delay_spec(DelaySpec::MaxMean(17.0))
        .resolver();
    let held = r.solve().expect("17.0 is feasible").result;
    sgs_metrics::reset();
    sgs_metrics::enable();
    let err = r.resolve_spec(15.74);
    let get = sgs_metrics::counter_value;
    let (cg, solves) = (get(Counter::NlpCgIterations), get(Counter::NlpSolves));
    sgs_metrics::disable();
    assert!(
        matches!(err, Err(SizeError::SolverFailed { .. })),
        "{err:?}"
    );
    assert_eq!((cg, solves), (0, 0), "CG iterations and NLP solves");
    let again = r.resolve_spec(17.0).expect("17.0 is feasible").result;
    assert!(
        (again.area - held.area).abs() <= 1e-6 * held.area,
        "{} against {}",
        again.area,
        held.area
    );
}

#[test]
fn profile_covers_the_wall_clock_and_snapshot_survives_the_lint_gate() {
    let _g = LOCK.lock().unwrap();
    let lb = lib();
    let small = dag(40, 11);
    let rdag40 = rdag40();
    let gate = AnalyzerGate::denying();
    let solve = || {
        Sizer::new(&small, &lb)
            .objective(Objective::MeanPlusKSigma(3.0))
            .solve()
            .expect("metered sizing converges");
    };
    let preflighted = || {
        Sizer::new(&rdag40, &lb)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 20.0 })
            .preflight(&gate)
            .solve()
            .expect("the gate passes rdag40 and the solve converges");
    };
    let sweep = || {
        SweepEngine::new(&rdag40, &lb)
            .deadline_frontier()
            .expect("the rdag40 sweep anchors");
    };
    // (label, the run, whether root phases must cover >= 95% of it).
    let runs: [(&str, &dyn Fn(), bool); 3] = [
        ("solve", &solve, true),
        ("preflighted solve", &preflighted, true),
        ("deadline sweep", &sweep, false),
    ];
    for (label, run, covers) in runs {
        sgs_metrics::reset();
        sgs_metrics::enable();
        let t0 = Instant::now();
        run();
        sgs_metrics::set_gauge(Gauge::RunSeconds, t0.elapsed().as_secs_f64());
        let snap = sgs_metrics::snapshot(Metadata {
            bin: "integration_metrics".into(),
            circuit: label.into(),
            git_sha: "test".into(),
            threads: 1,
            timestamp: "0".into(),
        });
        sgs_metrics::disable();

        let coverage = snap.coverage().expect("run_seconds gauge is set");
        assert!(
            !covers || coverage >= 0.95,
            "{label}: root phases cover {:.1}% of the wall clock",
            coverage * 100.0
        );
        assert!(
            coverage <= 1.0 + 1e-6,
            "{label}: coverage {:.1}% over 100%",
            coverage * 100.0
        );

        // The in-process snapshot passes the same structural gate as
        // files. (Struct equality is no use here: untouched histograms
        // have NaN quantiles, and NaN != NaN — byte-identity of the
        // serialised form is the stronger, NaN-proof statement.)
        let text = snap.to_json();
        let relinted = Snapshot::lint(&text).expect("snapshot passes lint");
        assert_eq!(relinted.to_json(), text, "round trip is byte-identical");
    }
}

/// Per-phase span counts of the registry, in [`Phase::ALL`] order.
fn registry_counts() -> Vec<u64> {
    Phase::ALL
        .iter()
        .map(|&p| sgs_metrics::phase_count(p))
        .collect()
}

/// Checks that the registry (reset before the run) and the sink's
/// `phase_span` events saw the same phases, as often and for the same
/// seconds.
fn assert_sink_agrees(label: &str, sink: &MemorySink) {
    for p in Phase::ALL {
        let spans =
            sink.count(|e| matches!(e, TraceEvent::PhaseSpan { phase, .. } if *phase == p.name()));
        let name = p.name();
        assert_eq!(
            sgs_metrics::phase_count(p),
            spans as u64,
            "{label}: {name} spans"
        );
        let (metered, traced) = (sgs_metrics::phase_seconds(p), sink.span_seconds(name));
        assert!(
            (metered - traced).abs() <= 1e-6,
            "{label}: {name} {metered} s against {traced} s"
        );
    }
}

/// Checks a request trace against the registry's counts since `before`:
/// the same phases, as often, each nested under its profile parent (the
/// nearest enclosing span that is a phase; other spans are transport).
fn assert_request_agrees(label: &str, trace: &RequestTrace, before: &[u64]) {
    let phase_of = |name: &str| Phase::ALL.into_iter().find(|p| p.name() == name);
    for (i, p) in Phase::ALL.into_iter().enumerate() {
        let spans = trace.spans.iter().filter(|s| s.name == p.name()).count();
        let metered = sgs_metrics::phase_count(p) - before[i];
        assert_eq!(metered, spans as u64, "{label}: {} request spans", p.name());
    }
    for span in &trace.spans {
        let Some(p) = phase_of(span.name) else {
            continue;
        };
        let mut parent = span.parent;
        let ancestor = loop {
            let Some(up) = trace.spans.iter().find(|s| s.id == parent) else {
                break None;
            };
            if let Some(q) = phase_of(up.name) {
                break Some(q);
            }
            parent = up.parent;
        };
        assert_eq!(
            ancestor,
            p.parent(),
            "{label}: {} nests under {ancestor:?}",
            p.name()
        );
    }
    assert!(!trace.spans.is_empty(), "{label}: empty request trace");
}

/// One guard times each phase into the registry, the trace sink and the
/// request timeline, so all three agree on every run: the same phases,
/// the same span counts, the same seconds (registry and sink read the
/// same two instants), and the request timeline nests each phase under
/// its profile parent. `Sizer::solve` and `SweepEngine` take no request
/// context, so the request timeline is checked on the resolver's traced
/// entry points: a solve, the preflight gate, each point of a deadline
/// walk over the sweep's grid, and one re-solve.
#[test]
fn one_guard_feeds_the_registry_the_trace_and_the_request_timeline() {
    let _g = LOCK.lock().unwrap();
    let lb = lib();
    let c = rdag40();
    let spec = DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 20.0 };
    fn area<'a>(c: &'a Circuit, lb: &'a Library, sink: &'a MemorySink) -> Sizer<'a> {
        Sizer::new(c, lb)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 20.0 })
            .trace(sink)
    }
    let request = |id, op: &mut dyn FnMut(&RequestContext)| {
        let ctx = RequestContext::new(id);
        op(&ctx);
        ctx.finish("/test", 200, "", "", false)
    };
    let metered = |label: &str, run: &mut dyn FnMut(&MemorySink)| {
        let sink = MemorySink::new();
        sgs_metrics::reset();
        sgs_metrics::enable();
        run(&sink);
        sgs_metrics::disable();
        assert_sink_agrees(label, &sink);
    };

    for solver in [SolverChoice::ReducedSpace, SolverChoice::FullSpace] {
        let label = format!("{solver:?} solve");
        metered(&label, &mut |sink| {
            let mut r = area(&c, &lb, sink).solver(solver).resolver();
            let before = registry_counts();
            let trace = request(1, &mut |ctx| {
                r.solve_traced(Some(ctx)).expect("rdag40 sizes");
            });
            assert_request_agrees(&label, &trace, &before);
        });
    }

    let gate = AnalyzerGate::denying();
    metered("preflighted solve", &mut |sink| {
        area(&c, &lb, sink)
            .preflight(&gate)
            .solve()
            .expect("rdag40 passes and sizes");
        let before = registry_counts();
        let trace = request(2, &mut |ctx| {
            let tracer = Tracer::new(sink).attach(Some(ctx));
            gate.check(&c, &lb, &Objective::Area, &spec, tracer)
                .expect("rdag40 passes");
        });
        assert_request_agrees("preflight gate", &trace, &before);
    });

    let grid = SweepEngine::new(&c, &lb)
        .objective(Objective::Area)
        .grid()
        .expect("the rdag40 grid anchors");
    metered("deadline sweep", &mut |sink| {
        let mut r = Sizer::new(&c, &lb)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(grid[0]))
            .trace(sink)
            .resolver();
        for (i, &d) in grid.iter().enumerate() {
            let before = registry_counts();
            let trace = request(10 + i as u64, &mut |ctx| {
                // Points below the minimum delay fail; they still trace.
                let _ = r.resolve_spec_traced(d, Some(ctx));
            });
            assert_request_agrees(&format!("sweep point {d}"), &trace, &before);
        }
    });

    metered("re-solve", &mut |sink| {
        let mut r = area(&c, &lb, sink).resolver();
        r.solve().expect("rdag40 sizes");
        let before = registry_counts();
        let trace = request(3, &mut |ctx| {
            r.resolve_spec_traced(22.0, Some(ctx))
                .expect("a looser deadline sizes");
        });
        assert_request_agrees("re-solve", &trace, &before);
    });
}
