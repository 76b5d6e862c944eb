//! End-to-end wiring of [`AnalyzerGate`] into [`Sizer`]: a denying gate
//! must refuse a provably broken task with
//! [`SizeError::PreflightFailed`] before any solver iteration, must let a
//! clean task solve, and a non-denying gate must never block.

use sgs_analyze::AnalyzerGate;
use sgs_core::{DelaySpec, Objective, Preflight, SizeError, Sizer};
use sgs_netlist::{generate, Library};
use sgs_trace::Tracer;

#[test]
fn denying_gate_blocks_broken_library() {
    let circuit = generate::tree7();
    let mut lib = Library::paper_default();
    lib.c = -1.0; // SGS-S009: the delay model loses positivity.
    let gate = AnalyzerGate::denying();
    let err = Sizer::new(&circuit, &lib)
        .objective(Objective::MeanPlusKSigma(3.0))
        .preflight(&gate)
        .solve()
        .unwrap_err();
    match err {
        SizeError::PreflightFailed { summary } => {
            assert!(summary.contains("SGS-S009"), "{summary}");
        }
        other => panic!("expected PreflightFailed, got {other:?}"),
    }
}

#[test]
fn non_denying_gate_reports_but_solves() {
    let circuit = generate::tree7();
    let lib = Library::paper_default();
    let gate = AnalyzerGate::default();
    let result = Sizer::new(&circuit, &lib)
        .objective(Objective::MeanPlusKSigma(3.0))
        .preflight(&gate)
        .solve()
        .expect("clean circuit must pass a non-denying gate and solve");
    assert!(result.delay.mean() > 0.0);
}

#[test]
fn denying_gate_passes_clean_circuit() {
    let circuit = generate::fig2();
    let lib = Library::paper_default();
    let gate = AnalyzerGate::denying();
    let result = Sizer::new(&circuit, &lib)
        .objective(Objective::MeanPlusKSigma(3.0))
        .delay_spec(DelaySpec::None)
        .preflight(&gate)
        .solve()
        .expect("paper circuit is clean; the gate must not block it");
    assert!(result.area >= circuit.num_gates() as f64);
}

#[test]
fn gate_check_surfaces_error_summary_directly() {
    // The Preflight trait itself, without a Sizer: the summary line names
    // the first finding so `size_blif --analyze=deny` users see the cause.
    let circuit = generate::tree7();
    let mut lib = Library::paper_default();
    lib.c = 0.0;
    let gate = AnalyzerGate::denying();
    let err = gate
        .check(
            &circuit,
            &lib,
            &Objective::Area,
            &DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 10.0 },
            Tracer::none(),
        )
        .unwrap_err();
    assert!(err.contains("error"), "{err}");
}
