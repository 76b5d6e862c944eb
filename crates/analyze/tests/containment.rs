//! Property-based proof of the analyzer's core soundness claim: every
//! concrete evaluation at any size vector inside the analyzed box lies
//! inside the corresponding stage-2 interval enclosure.
//!
//! Random DAGs and random size vectors are drawn; for each gate the
//! concrete gate-delay mean, arrival mean/variance and the two
//! constraint residual forms are checked against [`IntervalSsta`], and
//! the circuit delay distribution against the top-level enclosure.

use proptest::prelude::*;
use sgs_analyze::stage2::{interval_ssta, IntervalSsta};
use sgs_analyze::AnalyzerOptions;
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::{Circuit, GateId, Library};
use sgs_ssta::DelayModel;

fn small_circuit() -> impl Strategy<Value = Circuit> {
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

/// Concrete size vector inside `[1, s_limit]` from per-gate unit draws.
fn sizes(circuit: &Circuit, lib: &Library, u: &[f64]) -> Vec<f64> {
    (0..circuit.num_gates())
        .map(|g| 1.0 + u[g % u.len()] * (lib.s_limit - 1.0))
        .collect()
}

fn check_containment(circuit: &Circuit, lib: &Library, s: &[f64], enc: &IntervalSsta) {
    let model = DelayModel::new(circuit, lib);
    let report = sgs_ssta::ssta(circuit, lib, s);
    let kappa2 = lib.sigma_factor * lib.sigma_factor;
    for g in 0..circuit.num_gates() {
        let id = GateId(g);
        let mu_t = model.mu_t(id, s);
        let var_t = (lib.sigma_factor * mu_t).powi(2);
        assert!(
            enc.load[g].contains(model.load_cap(id, s)),
            "load[{g}] {:?} !~ {}",
            enc.load[g],
            model.load_cap(id, s)
        );
        assert!(enc.mu_t[g].contains(mu_t), "mu_t[{g}]");
        assert!(enc.var_t[g].contains(var_t), "var_t[{g}]");
        let a = report.arrivals[g];
        assert!(
            enc.arr_mu[g].contains(a.mean()),
            "arr_mu[{g}] {:?} !~ {}",
            enc.arr_mu[g],
            a.mean()
        );
        assert!(
            enc.arr_var[g].contains(a.var()),
            "arr_var[{g}] {:?} !~ {}",
            enc.arr_var[g],
            a.var()
        );
        // Constraint residuals at the model-consistent mu_t are exactly
        // zero (Eq. 15 multiplied through) and must be enclosed; so must
        // residuals at a perturbed mu_t drawn from inside the enclosure.
        let zero_res = enc.delay_residual(&model, g, enc.mu_t[g]);
        assert!(zero_res.contains(0.0), "delay residual[{g}]");
        let mid =
            sgs_statmath::interval::Interval::point(enc.mu_t[g].lo() + 0.5 * enc.mu_t[g].width());
        let concrete_mid = {
            let mut r =
                mid.lo() * s[g] - model.t_int(id) * s[g] - model.c() * model.static_load(id);
            for j in circuit.fanout(id) {
                r -= model.c() * model.c_in(j) * s[j.index()];
            }
            r
        };
        assert!(
            enc.delay_residual(&model, g, mid).contains(concrete_mid),
            "perturbed delay residual[{g}]"
        );
        assert!(
            enc.var_t_residual(kappa2, g, enc.mu_t[g]).contains(0.0),
            "var_t residual[{g}]"
        );
    }
    assert!(
        enc.delay_mu.contains(report.delay.mean()),
        "delay mu {:?} !~ {}",
        enc.delay_mu,
        report.delay.mean()
    );
    assert!(
        enc.delay_var.contains(report.delay.var()),
        "delay var {:?} !~ {}",
        enc.delay_var,
        report.delay.var()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn concrete_evaluations_lie_inside_enclosures(
        circuit in small_circuit(),
        u in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        let lib = Library::paper_default();
        let enc = interval_ssta(&circuit, &lib, &AnalyzerOptions::default());
        let s = sizes(&circuit, &lib, &u);
        check_containment(&circuit, &lib, &s, &enc);
    }

    #[test]
    fn containment_holds_at_box_corners_and_edges(
        circuit in small_circuit(),
        corner in 0.0f64..1.0,
    ) {
        let lib = Library::paper_default();
        let enc = interval_ssta(&circuit, &lib, &AnalyzerOptions::default());
        // All-min, all-max and a uniform interior slice — the extreme
        // points where outward rounding is most likely to be off by an ulp.
        for s_val in [1.0, lib.s_limit, 1.0 + corner * (lib.s_limit - 1.0)] {
            let s = vec![s_val; circuit.num_gates()];
            check_containment(&circuit, &lib, &s, &enc);
        }
    }
}

#[test]
fn containment_on_paper_circuits() {
    let lib = Library::paper_default();
    for circuit in [generate::tree7(), generate::fig2()]
        .into_iter()
        .chain(generate::benchmark_suite())
    {
        let enc = interval_ssta(&circuit, &lib, &AnalyzerOptions::default());
        for s_val in [1.0, 1.61803398875, 3.0] {
            let s = vec![s_val; circuit.num_gates()];
            check_containment(&circuit, &lib, &s, &enc);
        }
    }
}
