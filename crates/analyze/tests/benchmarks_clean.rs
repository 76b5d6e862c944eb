//! Every committed BLIF benchmark and every generated paper circuit must
//! pass the full analyzer with zero Error-severity findings — the
//! guarantee behind the CI gate (`analyze_blif` exits 1 on Errors).

use sgs_analyze::{analyze, analyze_blif_text, AnalyzerOptions};
use sgs_core::{DelaySpec, Objective};
use sgs_netlist::{generate, Library};
use sgs_trace::Tracer;

fn opts() -> AnalyzerOptions {
    AnalyzerOptions::default()
}

#[test]
fn committed_blif_benchmarks_are_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("benchmarks/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("blif") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let report = analyze_blif_text(
            &text,
            &Library::paper_default(),
            &Objective::MeanPlusKSigma(3.0),
            &DelaySpec::None,
            &opts(),
            Tracer::none(),
        );
        assert!(
            report.is_clean(),
            "{}: {}",
            path.display(),
            report.summary()
        );
    }
    assert!(seen >= 2, "expected at least rdag40 + tree7, saw {seen}");
}

#[test]
fn generated_paper_circuits_are_clean() {
    let lib = Library::paper_default();
    for circuit in [generate::tree7(), generate::fig2()]
        .into_iter()
        .chain(generate::benchmark_suite())
    {
        // Under both an unconstrained and a deadline formulation: the
        // constraint layout (and hence stages 2/3) differs between them.
        for spec in [
            DelaySpec::None,
            DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 50.0 },
        ] {
            let report = analyze(
                &circuit,
                &lib,
                &Objective::MeanPlusKSigma(3.0),
                &spec,
                &opts(),
                Tracer::none(),
            );
            assert!(
                report.is_clean(),
                "{} ({spec:?}): {}",
                circuit.name(),
                report.summary()
            );
        }
    }
}
