//! Ring-sink solves must be bit-identical to NopSink solves.
//!
//! The zero-cost-when-observed contract of the request-tracing layer:
//! attaching a `RingSink` (and a `RequestContext`) to a solve changes
//! *what is recorded*, never *what is computed*. Objective, every sized
//! iterate, and the evaluation counts are compared bit-for-bit via
//! `f64::to_bits`, on both solver paths.

use sgs_core::{DelaySpec, Objective, Sizer, SolverChoice};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::Library;
use sgs_trace::{RequestContext, RingSink};

struct SolveFingerprint {
    objective: u64,
    s: Vec<u64>,
    delay_mean: u64,
    delay_var: u64,
    outer: usize,
    inner: usize,
    evals: (usize, usize, usize, usize, usize),
}

fn run(solver: SolverChoice, trace: Option<(&RingSink, &RequestContext)>) -> SolveFingerprint {
    let c = generate::random_dag(&RandomDagSpec {
        cells: 40,
        inputs: 8,
        depth: 5,
        seed: 7,
        ..RandomDagSpec::default()
    });
    let l = Library::paper_default();
    let mut sizer = Sizer::new(&c, &l)
        .objective(Objective::Area)
        .delay_spec(DelaySpec::MaxMean(20.0))
        .solver(solver);
    if let Some((ring, _)) = trace {
        sizer = sizer.trace(ring);
    }
    let mut r = sizer.resolver();
    let out = match trace {
        Some((_, ctx)) => r.solve_traced(Some(ctx)).unwrap(),
        None => r.solve().unwrap(),
    };
    // A warm re-solve at a moved deadline exercises the traced path too.
    let warm = match trace {
        Some((_, ctx)) => r.resolve_spec_traced(19.5, Some(ctx)).unwrap(),
        None => r.resolve_spec(19.5).unwrap(),
    };
    let e = warm.result.evals;
    SolveFingerprint {
        objective: out.result.objective.to_bits(),
        s: warm.result.s.iter().map(|v| v.to_bits()).collect(),
        delay_mean: warm.result.delay.mean().to_bits(),
        delay_var: warm.result.delay.var().to_bits(),
        outer: out.result.outer_iterations + warm.result.outer_iterations,
        inner: out.result.inner_iterations + warm.result.inner_iterations,
        evals: (
            e.objective,
            e.gradient,
            e.constraints,
            e.jacobian,
            e.hessian,
        ),
    }
}

#[test]
fn ring_sink_solve_is_bit_identical_to_nop() {
    // Each path's solver spans: the seed's stage and the scoring on the
    // default path, the AL's outer and inner solves on the full-space one.
    for (solver, spans) in [
        (SolverChoice::ReducedSpace, ["reduced_space", "evaluate"]),
        (SolverChoice::FullSpace, ["auglag", "inner_tr"]),
    ] {
        let plain = run(solver, None);

        let ring = RingSink::new(16);
        let ctx = RequestContext::new(1);
        let traced = run(solver, Some((&ring, &ctx)));

        assert_eq!(plain.objective, traced.objective, "objective bits differ");
        assert_eq!(plain.s, traced.s, "sized iterate bits differ");
        assert_eq!(plain.delay_mean, traced.delay_mean);
        assert_eq!(plain.delay_var, traced.delay_var);
        assert_eq!(plain.outer, traced.outer, "outer iteration counts differ");
        assert_eq!(plain.inner, traced.inner, "inner iteration counts differ");
        assert_eq!(plain.evals, traced.evals, "evaluation counts differ");

        // The traced run actually observed something: solver events in
        // the ring's event buffer and solver spans in the request tree.
        assert!(!ring.events().is_empty(), "ring sink recorded no events");
        let t = ctx.finish("/solve", 200, "", "", true);
        for span in spans {
            assert!(
                t.spans.iter().any(|s| s.name == span),
                "{solver:?}: request context missed the {span} span: {:?}",
                t.spans.iter().map(|s| s.name).collect::<Vec<_>>()
            );
        }
    }
}
