//! Integration: the observability layer end-to-end through the sizer.
//!
//! The contract under test (the acceptance criteria of the trace layer):
//!
//! * a `MemorySink` run captures one convergence record per outer
//!   iteration, and the recorded phase spans account for at least 95% of
//!   the solve's wall clock — the trace tells the whole story, not a
//!   sample of it;
//! * tracing is observation only: a solve with a `NopSink` attached is
//!   bit-identical (iterates, objective, eval counts) to an untraced one;
//! * a solve whose objective turns NaN mid-run is reported as diverged in
//!   the trace and recovered by the multi-start policy;
//! * the JSONL sink round-trips through `validate_jsonl`, the same check
//!   the `trace_lint` CI gate applies to bench-binary traces.

use sgs_core::{DelaySpec, Objective, Sizer, SolverChoice};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::{Circuit, Library};
use sgs_trace::{json::validate_jsonl, JsonlSink, MemorySink, TraceEvent, NOP_SINK};

fn lib() -> Library {
    Library::paper_default()
}

fn dag(cells: usize, seed: u64) -> Circuit {
    generate::random_dag(&RandomDagSpec {
        name: format!("trace{cells}"),
        cells,
        inputs: 4,
        depth: 4,
        seed,
        ..Default::default()
    })
}

#[test]
fn memory_sink_records_every_outer_iteration_and_full_wall_clock() {
    let c = dag(20, 7);
    let sink = MemorySink::new();
    let r = Sizer::new(&c, &lib())
        .objective(Objective::Area)
        .delay_spec(DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 18.0 })
        .solver(SolverChoice::FullSpace)
        .trace(&sink)
        .solve()
        .expect("traced sizing converges");

    let outer = sink.count(|e| matches!(e, TraceEvent::Outer(_)));
    assert!(r.outer_iterations >= 1);
    assert_eq!(
        outer, r.outer_iterations,
        "one convergence record per outer iteration"
    );

    // Outer indices are contiguous from 0 and carry finite diagnostics.
    let mut indices = Vec::new();
    for e in sink.events() {
        if let TraceEvent::Outer(rec) = e {
            assert!(rec.merit.is_finite());
            assert!(rec.c_norm.is_finite() && rec.c_norm >= 0.0);
            indices.push(rec.outer);
        }
    }
    let expect: Vec<usize> = (0..outer).collect();
    assert_eq!(indices, expect, "outer records in order, no gaps");

    // Top-level sizer phases cover >= 95% of the reported wall clock.
    let covered: f64 = [
        "reduced_space",
        "build_problem",
        "auglag",
        "evaluate",
        "report",
    ]
    .iter()
    .map(|p| sink.span_seconds(p))
    .sum();
    assert!(
        covered >= 0.95 * r.seconds,
        "phase spans cover {covered:.6}s of {:.6}s wall clock",
        r.seconds
    );
}

#[test]
fn nop_sink_solve_is_bit_identical_to_untraced() {
    // The pipeline circuits: the tree and a random DAG, both solver paths.
    let lb = lib();
    for (c, solver) in [
        (generate::tree7(), SolverChoice::FullSpace),
        (dag(14, 99), SolverChoice::FullSpace),
        (generate::tree7(), SolverChoice::ReducedSpace),
    ] {
        let base = Sizer::new(&c, &lb)
            .objective(Objective::MeanPlusKSigma(3.0))
            .solver(solver);
        let plain = base.clone().solve().expect("untraced solve");
        let traced = base.trace(&NOP_SINK).solve().expect("nop-traced solve");

        let pb: Vec<u64> = plain.s.iter().map(|v| v.to_bits()).collect();
        let tb: Vec<u64> = traced.s.iter().map(|v| v.to_bits()).collect();
        assert_eq!(pb, tb, "iterates must be bit-identical");
        assert_eq!(plain.objective.to_bits(), traced.objective.to_bits());
        assert_eq!(plain.outer_iterations, traced.outer_iterations);
        assert_eq!(plain.inner_iterations, traced.inner_iterations);
        assert_eq!(plain.evals, traced.evals, "evaluation counts unchanged");
    }
}

#[test]
fn poisoned_solve_reports_divergence_and_recovers() {
    let c = generate::tree7();
    let sink = MemorySink::new();
    let r = Sizer::new(&c, &lib())
        .objective(Objective::Area)
        .delay_spec(DelaySpec::MaxMean(6.5))
        .solver(SolverChoice::FullSpace)
        .poison_nan_after(0)
        .trace(&sink)
        .solve()
        .expect("multi-start recovers from a poisoned objective");

    assert!(r.s.iter().all(|v| v.is_finite()));
    assert!(r.delay.mean() <= 6.5 + 1e-4, "recovered point is feasible");

    let diverged: Vec<_> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Diverged { outer, detail, x } => Some((outer, detail, x)),
            _ => None,
        })
        .collect();
    assert!(!diverged.is_empty(), "divergence must be recorded");
    // The offending iterate travels with the event for post-mortems.
    assert!(diverged.iter().any(|(_, _, x)| !x.is_empty()));
    assert!(
        sink.count(|e| matches!(e, TraceEvent::Restart { .. })) >= 1,
        "recovery attempts must be recorded"
    );
}

#[test]
fn jsonl_sink_round_trips_through_the_lint_gate() {
    let path = std::env::temp_dir().join("sgs_integration_trace.jsonl");
    let _ = std::fs::remove_file(&path);
    {
        let sink = JsonlSink::create(&path).expect("create jsonl sink");
        let c = dag(16, 3);
        Sizer::new(&c, &lib())
            .objective(Objective::MeanDelay)
            .solver(SolverChoice::FullSpace)
            .trace(&sink)
            .solve()
            .expect("traced sizing converges");
    } // drop flushes
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let summary = validate_jsonl(&text).expect("every line is a valid record");
    assert!(summary.count("outer_iteration") >= 1);
    assert!(summary.count("phase_span") >= 1);
    assert!(
        summary.has_final_status(),
        "solve_done must close the stream"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn clark_clamp_counter_event_matches_result_field() {
    // The solver samples the process-global clamp counter around the
    // solve and reports the delta both on the result and as a
    // `clark_var_clamped` counter event; the two must agree.
    let c = dag(20, 11);
    let sink = MemorySink::new();
    let r = Sizer::new(&c, &lib())
        .objective(Objective::MeanPlusKSigma(3.0))
        .trace(&sink)
        .solve()
        .expect("traced sizing converges");

    let counters: Vec<u64> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Counter {
                name: "clark_var_clamped",
                value,
            } => Some(*value),
            _ => None,
        })
        .collect();
    assert_eq!(
        counters,
        vec![r.clark_var_clamps],
        "exactly one clamp-counter event, equal to the result field"
    );
}
