//! Central-difference derivative battery for the sizing NLP.
//!
//! Two layers of checks on seeded random DAGs from 5 to 50 gates:
//!
//! 1. Full dense checks via `sgs_nlp::problem::check_derivatives`
//!    (every gradient entry, every Jacobian entry, every Lagrangian
//!    Hessian entry against central differences).
//! 2. Directional checks: `J v` against `(c(x + h v) - c(x - h v)) / 2h`
//!    and `H v` against central differences of the exact Lagrangian
//!    gradient along a pseudo-random direction `v` — cheap enough to run
//!    at the larger sizes.
//!
//! Every checked problem exercises both evaluation paths of the grouped
//! assembly: a `max_mu`/`max_var` pair sharing one Clark evaluation, and a
//! singleton constraint evaluated on its own.

use sgs_core::{DelaySpec, Objective, SizingProblem};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::{Circuit, Library};
use sgs_nlp::problem::check_derivatives;
use sgs_nlp::NlpProblem;

fn lib() -> Library {
    Library::paper_default()
}

fn dag(cells: usize, inputs: usize, depth: usize, seed: u64) -> Circuit {
    generate::random_dag(&RandomDagSpec {
        name: format!("fd{cells}"),
        cells,
        inputs,
        depth,
        seed,
        ..Default::default()
    })
}

/// splitmix64: deterministic stream for evaluation points and directions.
fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A strictly interior evaluation point: speeds in (1.2, 2.2) mapped
/// through the exact-feasibility initial point, then auxiliary variables
/// nudged off the constraint surface so Jacobian rows are generic.
fn interior_point(p: &SizingProblem, seed: u64) -> Vec<f64> {
    let mut st = seed;
    let s: Vec<f64> = (0..p.num_gates())
        .map(|_| 1.2 + splitmix(&mut st))
        .collect();
    let mut x = p.initial_point(&s);
    let (lo, hi) = p.bounds();
    for i in p.num_gates()..x.len() {
        let bump = 1.0 + 0.05 * (splitmix(&mut st) - 0.5);
        x[i] = (x[i] * bump).clamp(lo[i], hi[i].min(1e12));
    }
    x
}

fn multipliers(m: usize, seed: u64) -> Vec<f64> {
    let mut st = seed ^ 0xABCD_EF01;
    (0..m).map(|_| 2.0 * splitmix(&mut st) - 1.0).collect()
}

fn direction(n: usize, seed: u64) -> Vec<f64> {
    let mut st = seed ^ 0x1357_9BDF;
    let v: Vec<f64> = (0..n).map(|_| 2.0 * splitmix(&mut st) - 1.0).collect();
    let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
    v.into_iter().map(|a| a / norm).collect()
}

/// Worst relative errors `(jac, hess)` of the directional derivatives
/// `J v` and `H v` against central differences along `v`.
fn directional_errors(
    p: &SizingProblem,
    x: &[f64],
    lambda: &[f64],
    v: &[f64],
    h: f64,
) -> (f64, f64) {
    let n = p.num_vars();
    let m = p.num_constraints();
    let structure = p.jacobian_structure();
    let mut vals = vec![0.0; structure.len()];
    p.jacobian_values(x, &mut vals);
    let mut jv = vec![0.0; m];
    for (k, &(ci, vi)) in structure.iter().enumerate() {
        jv[ci] += vals[k] * v[vi];
    }
    let xp: Vec<f64> = x.iter().zip(v).map(|(a, d)| a + h * d).collect();
    let xm: Vec<f64> = x.iter().zip(v).map(|(a, d)| a - h * d).collect();
    let mut cp = vec![0.0; m];
    let mut cm = vec![0.0; m];
    p.constraints(&xp, &mut cp);
    p.constraints(&xm, &mut cm);
    let mut worst_j: f64 = 0.0;
    for ci in 0..m {
        let num = (cp[ci] - cm[ci]) / (2.0 * h);
        worst_j = worst_j.max((jv[ci] - num).abs() / (1.0 + num.abs()));
    }

    // H v with sigma = 1, from the symmetric lower-triangle structure.
    let hstructure = p.hessian_structure();
    let mut hvals = vec![0.0; hstructure.len()];
    p.hessian_values(x, 1.0, lambda, &mut hvals);
    let mut hv = vec![0.0; n];
    for (k, &(r, c)) in hstructure.iter().enumerate() {
        hv[r] += hvals[k] * v[c];
        if r != c {
            hv[c] += hvals[k] * v[r];
        }
    }
    // Exact Lagrangian gradient grad f + J' lambda, differenced along v.
    let lag_grad = |x: &[f64]| {
        let mut g = vec![0.0; n];
        p.gradient(x, &mut g);
        let mut jvals = vec![0.0; structure.len()];
        p.jacobian_values(x, &mut jvals);
        for (k, &(ci, vi)) in structure.iter().enumerate() {
            g[vi] += lambda[ci] * jvals[k];
        }
        g
    };
    let gp = lag_grad(&xp);
    let gm = lag_grad(&xm);
    let mut worst_h: f64 = 0.0;
    for r in 0..n {
        let num = (gp[r] - gm[r]) / (2.0 * h);
        worst_h = worst_h.max((hv[r] - num).abs() / (1.0 + num.abs()));
    }
    (worst_j, worst_h)
}

/// Builds the problem and asserts it has both kinds of evaluation group:
/// a shared-Clark `max_mu`/`max_var` pair and a singleton constraint.
fn build(circuit: &Circuit, obj: Objective, spec: DelaySpec) -> SizingProblem {
    let p = SizingProblem::build(circuit, &lib(), obj, spec);
    let kinds: Vec<&str> = (0..p.num_constraints())
        .map(|ci| p.constraint_kind(ci))
        .collect();
    let paired = kinds
        .windows(2)
        .any(|w| w[0] == "max_mu" && w[1] == "max_var");
    let single = kinds.iter().any(|k| !k.starts_with("max_"));
    assert!(
        paired && single,
        "{}: group kinds {kinds:?}",
        circuit.name()
    );
    p
}

fn objectives() -> Vec<(Objective, DelaySpec)> {
    vec![
        (Objective::Area, DelaySpec::MaxMean(40.0)),
        (Objective::MeanDelay, DelaySpec::None),
        (
            Objective::MeanPlusKSigma(3.0),
            DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 50.0 },
        ),
    ]
}

#[test]
fn dense_fd_check_small_circuits_both_paths() {
    // Full dense FD sweep is O(n) evaluations per entry — keep it small.
    for (cells, inputs, depth, seed) in [(5, 2, 2, 11), (9, 3, 3, 23), (16, 4, 4, 37)] {
        let c = dag(cells, inputs, depth, seed);
        for (obj, spec) in objectives() {
            let p = build(&c, obj.clone(), spec.clone());
            let x = interior_point(&p, seed);
            let lambda = multipliers(p.num_constraints(), seed);
            let r = check_derivatives(&p, &x, &lambda, 1e-6);
            assert!(r.within(5e-6), "{cells} cells, {obj:?}/{spec:?}: {r:?}");
        }
    }
}

#[test]
fn directional_fd_check_up_to_fifty_gates_both_paths() {
    for (cells, inputs, depth, seed) in [
        (5, 2, 2, 101),
        (12, 4, 3, 202),
        (27, 6, 5, 303),
        (50, 8, 7, 404),
    ] {
        let c = dag(cells, inputs, depth, seed);
        for (obj, spec) in objectives() {
            let p = build(&c, obj.clone(), spec.clone());
            let x = interior_point(&p, seed);
            let lambda = multipliers(p.num_constraints(), seed);
            let v = direction(p.num_vars(), seed);
            let (ej, eh) = directional_errors(&p, &x, &lambda, &v, 1e-6);
            assert!(
                ej < 5e-6 && eh < 5e-6,
                "{cells} cells, {obj:?}/{spec:?}: jac {ej:.2e} hess {eh:.2e}"
            );
        }
    }
}

/// Values of every assembly entry point at one point, as bit patterns.
fn assemble(p: &SizingProblem, x: &[f64], lambda: &[f64]) -> Vec<Vec<u64>> {
    let mut g = vec![0.0; p.num_vars()];
    p.gradient(x, &mut g);
    let mut c = vec![0.0; p.num_constraints()];
    p.constraints(x, &mut c);
    let mut j = vec![0.0; p.jacobian_structure().len()];
    p.jacobian_values(x, &mut j);
    let mut h = vec![0.0; p.hessian_structure().len()];
    p.hessian_values(x, 0.7, lambda, &mut h);
    [vec![p.objective(x)], g, c, j, h]
        .iter()
        .map(|v| v.iter().map(|a| a.to_bits()).collect())
        .collect()
}

/// The assembly keeps no mutable state of its own: one problem evaluated
/// from several threads at once (as the corner sweep's parallel solves do)
/// yields the serial values bit for bit.
#[test]
fn serial_and_parallel_assembly_bit_identical() {
    let c = dag(50, 8, 7, 505);
    for (obj, spec) in objectives() {
        let p = build(&c, obj.clone(), spec.clone());
        let x = interior_point(&p, 505);
        let lambda = multipliers(p.num_constraints(), 505);
        let serial = assemble(&p, &x, &lambda);
        let parallel: Vec<Vec<Vec<u64>>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| assemble(&p, &x, &lambda)))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (t, got) in parallel.iter().enumerate() {
            for (part, (a, b)) in [
                "objective",
                "gradient",
                "constraints",
                "jacobian",
                "hessian",
            ]
            .iter()
            .zip(serial.iter().zip(got))
            {
                assert_eq!(a, b, "{obj:?}: {part} differs on thread {t}");
            }
        }
    }
}
