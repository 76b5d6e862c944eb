//! Property-based tests of the sizing formulation: exact derivatives and
//! exactly feasible initial points on arbitrary circuits and speed
//! vectors, plus consistency between the NLP view and the SSTA view.

use proptest::prelude::*;
use sgs_core::problem::SizingProblem;
use sgs_core::reduced::ReducedObjective;
use sgs_core::{DelaySpec, Objective};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::Library;
use sgs_nlp::problem::check_derivatives;
use sgs_nlp::tr::SmoothFn;
use sgs_nlp::NlpProblem;

fn small_circuit() -> impl Strategy<Value = sgs_netlist::Circuit> {
    (2usize..7, 2usize..8, any::<u64>()).prop_flat_map(|(depth, inputs, seed)| {
        (depth..depth + 30).prop_map(move |cells| {
            generate::random_dag(&RandomDagSpec {
                name: "prop".into(),
                cells,
                inputs,
                depth,
                seed,
                ..Default::default()
            })
        })
    })
}

fn objective() -> impl Strategy<Value = Objective> {
    prop_oneof![
        Just(Objective::Area),
        Just(Objective::MeanDelay),
        Just(Objective::MeanPlusKSigma(1.0)),
        Just(Objective::MeanPlusKSigma(3.0)),
        Just(Objective::Sigma),
        Just(Objective::NegSigma),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn initial_point_exactly_feasible(
        circuit in small_circuit(),
        obj in objective(),
        raw_s in prop::collection::vec(1.0..3.0f64, 40),
    ) {
        let lib = Library::paper_default();
        let p = SizingProblem::build(&circuit, &lib, obj, DelaySpec::None);
        let s: Vec<f64> = (0..circuit.num_gates()).map(|i| raw_s[i % raw_s.len()]).collect();
        let x = p.initial_point(&s);
        let mut c = vec![0.0; p.num_constraints()];
        p.constraints(&x, &mut c);
        let worst = c.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        prop_assert!(worst < 1e-8, "infeasibility {worst}");
    }

    #[test]
    fn nlp_derivatives_exact_on_random_circuits(
        circuit in small_circuit(),
        obj in objective(),
        raw_s in prop::collection::vec(1.05..2.95f64, 40),
    ) {
        let lib = Library::paper_default();
        let p = SizingProblem::build(&circuit, &lib, obj, DelaySpec::None);
        let s: Vec<f64> = (0..circuit.num_gates()).map(|i| raw_s[i % raw_s.len()]).collect();
        let x = p.initial_point(&s);
        let lambda: Vec<f64> = (0..p.num_constraints())
            .map(|i| 0.4 * ((i as f64) * 0.37).sin())
            .collect();
        let r = check_derivatives(&p, &x, &lambda, 1e-6);
        prop_assert!(r.within(2e-4), "{r:?}");
    }

    #[test]
    fn reduced_gradient_matches_finite_differences(
        circuit in small_circuit(),
        obj in objective(),
        raw_s in prop::collection::vec(1.05..2.95f64, 40),
    ) {
        let lib = Library::paper_default();
        let n = circuit.num_gates();
        let mut red = ReducedObjective::new(&circuit, &lib, obj, DelaySpec::None);
        let s: Vec<f64> = (0..n).map(|i| raw_s[i % raw_s.len()]).collect();
        let mut g = vec![0.0; n];
        red.grad(&s, &mut g);
        // Spot-check a handful of coordinates (full FD would be slow).
        for i in (0..n).step_by((n / 5).max(1)) {
            let h = 1e-6;
            let mut sp = s.clone();
            let mut sm = s.clone();
            sp[i] += h;
            sm[i] -= h;
            let num = (red.value(&sp) - red.value(&sm)) / (2.0 * h);
            prop_assert!(
                (g[i] - num).abs() < 1e-4 * (1.0 + num.abs()),
                "dS[{i}]: {} vs {num}", g[i]
            );
        }
    }

    #[test]
    fn nlp_objective_agrees_with_ssta_at_feasible_points(
        circuit in small_circuit(),
        raw_s in prop::collection::vec(1.0..3.0f64, 40),
    ) {
        let lib = Library::paper_default();
        let p = SizingProblem::build(
            &circuit,
            &lib,
            Objective::MeanPlusKSigma(3.0),
            DelaySpec::None,
        );
        let s: Vec<f64> = (0..circuit.num_gates()).map(|i| raw_s[i % raw_s.len()]).collect();
        let x = p.initial_point(&s);
        let report = sgs_ssta::ssta(&circuit, &lib, &s);
        prop_assert!(
            (p.objective(&x) - report.mean_plus_k_sigma(3.0)).abs() < 1e-8,
            "NLP {} vs SSTA {}",
            p.objective(&x),
            report.mean_plus_k_sigma(3.0)
        );
    }
}
