//! Mutation battery for the derivative stage: dropping any single
//! declared Jacobian or Hessian entry of the real assembly kernels
//! (through the `corrupt_drop_*` hooks) must be caught with the right
//! D-code, while the uncorrupted kernels certify clean in a full
//! analyzer run on a real circuit. Entries the uncorrupted run reports as
//! identically zero at every probe (`SGS-D001` / `SGS-D004`) are left out
//! of the sweep: probing cannot tell a dropped zero from a declared one.
//! So are triplets sharing their position with another declared triplet
//! (their values are summed): dropping one leaves the pattern intact, and
//! the stage checks the pattern, not the values.

use sgs_analyze::stage3::verify_derivatives;
use sgs_analyze::{analyze, AnalyzerOptions, Diagnostic, Severity};
use sgs_core::{DelaySpec, Objective, SizingProblem};
use sgs_netlist::{generate, Library};
use sgs_nlp::NlpProblem;
use sgs_trace::Tracer;

fn lib() -> Library {
    Library::paper_default()
}

fn problem() -> SizingProblem {
    SizingProblem::build(
        &generate::tree7(),
        &lib(),
        Objective::MeanPlusKSigma(3.0),
        DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 12.0 },
    )
}

fn caught(diags: &[Diagnostic], code: &str) -> bool {
    diags
        .iter()
        .any(|d| d.code == code && d.severity == Severity::Error)
}

/// Entry indices the uncorrupted run reports under `code`.
fn zero_entries(code: &str) -> Vec<usize> {
    verify_derivatives(&problem(), &AnalyzerOptions::default())
        .iter()
        .filter(|d| d.code == code)
        .map(|d| {
            let (_, v) = d.data.iter().find(|(k, _)| *k == "entry").unwrap();
            v.parse().unwrap()
        })
        .collect()
}

/// The entries the sweep drops: every declared triplet that is neither
/// identically zero nor sharing its position (asserted to be some).
fn swept(structure: &[(usize, usize)], zero_code: &str) -> Vec<usize> {
    let n = structure.len();
    let zero = zero_entries(zero_code);
    let shared = |k: usize| structure.iter().filter(|&&e| e == structure[k]).count() > 1;
    let ks: Vec<usize> = (0..n)
        .filter(|&k| !zero.contains(&k) && !shared(k))
        .collect();
    assert!(!ks.is_empty(), "none of {n} entries swept");
    ks
}

#[test]
fn every_dropped_jacobian_entry_is_caught_as_d002() {
    let structure = problem().jacobian_structure();
    let n = structure.len();
    for k in swept(&structure, "SGS-D001") {
        let mut p = problem();
        p.corrupt_drop_jacobian_entry(k);
        let d = verify_derivatives(&p, &AnalyzerOptions::default());
        assert!(caught(&d, "SGS-D002"), "entry {k} of {n}: {d:?}");
    }
}

#[test]
fn every_dropped_hessian_entry_is_caught_as_d003() {
    let structure = problem().hessian_structure();
    let n = structure.len();
    for k in swept(&structure, "SGS-D004") {
        let mut p = problem();
        p.corrupt_drop_hessian_entry(k);
        let d = verify_derivatives(&p, &AnalyzerOptions::default());
        assert!(caught(&d, "SGS-D003"), "entry {k} of {n}: {d:?}");
    }
}

#[test]
fn uncorrupted_kernels_certify_clean_end_to_end() {
    let c = generate::ripple_carry_adder(16);
    let report = analyze(
        &c,
        &lib(),
        &Objective::MeanPlusKSigma(3.0),
        &DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 60.0 },
        &AnalyzerOptions::default(),
        Tracer::none(),
    );
    assert!(report.is_clean(), "{report}");
    for d in &report.diagnostics {
        if d.code.starts_with("SGS-D") {
            assert!(
                d.code == "SGS-D001" || d.code == "SGS-D004",
                "derivative finding on uncorrupted kernels: {d:?}"
            );
        }
    }
}
