//! Property-based solver tests on problems with known closed-form
//! solutions: separable box-constrained quadratics (solution = clamped
//! unconstrained minimiser) and randomly rotated equality-constrained
//! quadratics (solution via KKT).

use proptest::prelude::*;
use sgs_nlp::newton::{self, NewtonOptions};
use sgs_nlp::tr::{self, SmoothFn, TrOptions};
use sgs_nlp::NlpProblem;

/// Separable quadratic `sum_i w_i (x_i - c_i)^2` over a box.
#[derive(Debug, Clone)]
struct SepQuad {
    w: Vec<f64>,
    c: Vec<f64>,
}

impl SmoothFn for SepQuad {
    fn n(&self) -> usize {
        self.w.len()
    }
    fn value(&mut self, x: &[f64]) -> f64 {
        x.iter()
            .zip(&self.w)
            .zip(&self.c)
            .map(|((xi, wi), ci)| wi * (xi - ci) * (xi - ci))
            .sum()
    }
    fn grad(&mut self, x: &[f64], g: &mut [f64]) {
        for i in 0..x.len() {
            g[i] = 2.0 * self.w[i] * (x[i] - self.c[i]);
        }
    }
    fn prepare_hess(&mut self, _x: &[f64]) {}
    fn hess_vec(&mut self, v: &[f64], out: &mut [f64]) {
        for i in 0..v.len() {
            out[i] = 2.0 * self.w[i] * v[i];
        }
    }
}

fn quad_instance() -> impl Strategy<Value = (SepQuad, Vec<f64>, Vec<f64>, Vec<f64>)> {
    (1usize..8).prop_flat_map(|n| {
        (
            prop::collection::vec(0.1..10.0f64, n),   // weights
            prop::collection::vec(-10.0..10.0f64, n), // centers
            prop::collection::vec(-5.0..0.0f64, n),   // lower
            prop::collection::vec(0.0..5.0f64, n),    // upper
            prop::collection::vec(-3.0..3.0f64, n),   // start
        )
            .prop_map(|(w, c, l, u, x0)| (SepQuad { w, c }, l, u, x0))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    #[test]
    fn tr_solves_separable_box_quadratics((q, l, u, x0) in quad_instance()) {
        let mut f = q.clone();
        // tol is bounded by the model-reduction noise floor: near the
        // optimum the achievable decrease is ~pg^2 / w, which hits machine
        // epsilon around pg ~ 1e-7 for O(1) function values.
        let r = tr::minimize(&mut f, &x0, &l, &u, &TrOptions { tol: 1e-7, ..Default::default() });
        prop_assert!(r.converged || r.pg_norm < 1e-6, "{r:?}");
        for i in 0..q.c.len() {
            let want = q.c[i].max(l[i]).min(u[i]); // clamped minimiser
            prop_assert!((r.x[i] - want).abs() < 1e-6, "x[{i}] = {} want {want}", r.x[i]);
        }
    }

    #[test]
    fn newton_solves_separable_box_quadratics((q, l, u, x0) in quad_instance()) {
        let mut f = q.clone();
        let r = newton::minimize(&mut f, &x0, &l, &u, &NewtonOptions { tol: 1e-9, max_iter: 2000, ..Default::default() });
        prop_assert!(r.converged, "{r:?}");
        for i in 0..q.c.len() {
            let want = q.c[i].max(l[i]).min(u[i]);
            prop_assert!((r.x[i] - want).abs() < 1e-5, "x[{i}] = {} want {want}", r.x[i]);
        }
    }
}

/// `min (x - c)' (x - c) s.t. a' x = b`, solution `x* = c + a (b - a'c) /
/// (a'a)`, free bounds.
#[derive(Debug, Clone)]
struct EqQuad {
    c: Vec<f64>,
    a: Vec<f64>,
    b: f64,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl NlpProblem for EqQuad {
    fn num_vars(&self) -> usize {
        self.c.len()
    }
    fn num_constraints(&self) -> usize {
        1
    }
    fn bounds(&self) -> (&[f64], &[f64]) {
        (&self.lo, &self.hi)
    }
    fn objective(&self, x: &[f64]) -> f64 {
        x.iter()
            .zip(&self.c)
            .map(|(xi, ci)| (xi - ci) * (xi - ci))
            .sum()
    }
    fn gradient(&self, x: &[f64], g: &mut [f64]) {
        for i in 0..x.len() {
            g[i] = 2.0 * (x[i] - self.c[i]);
        }
    }
    fn constraints(&self, x: &[f64], c: &mut [f64]) {
        c[0] = x.iter().zip(&self.a).map(|(xi, ai)| xi * ai).sum::<f64>() - self.b;
    }
    fn jacobian_structure(&self) -> Vec<(usize, usize)> {
        (0..self.c.len()).map(|i| (0, i)).collect()
    }
    fn jacobian_values(&self, _x: &[f64], vals: &mut [f64]) {
        vals.copy_from_slice(&self.a);
    }
    fn hessian_structure(&self) -> Vec<(usize, usize)> {
        (0..self.c.len()).map(|i| (i, i)).collect()
    }
    fn hessian_values(&self, _x: &[f64], sigma: f64, _l: &[f64], vals: &mut [f64]) {
        for v in vals.iter_mut() {
            *v = 2.0 * sigma;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn auglag_solves_projection_onto_hyperplane(
        n in 1usize..7,
        seed in any::<u64>(),
    ) {
        // Deterministic pseudo-random instance from the seed.
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0 // ~[-1, 1)
        };
        let c: Vec<f64> = (0..n).map(|_| 5.0 * next()).collect();
        let mut a: Vec<f64> = (0..n).map(|_| next()).collect();
        // Keep the constraint well-conditioned.
        let norm = a.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 0.3 {
            a[0] += 1.0;
        }
        let b = 3.0 * next();
        let p = EqQuad {
            c: c.clone(),
            a: a.clone(),
            b,
            lo: vec![f64::NEG_INFINITY; n],
            hi: vec![f64::INFINITY; n],
        };
        let r = sgs_nlp::solve(&p, &vec![0.0; n], &sgs_nlp::AugLagOptions::default());
        prop_assert!(r.status.is_success(), "{:?}", r.status);
        let aa: f64 = a.iter().map(|v| v * v).sum();
        let ac: f64 = a.iter().zip(&c).map(|(ai, ci)| ai * ci).sum();
        let t = (b - ac) / aa;
        for i in 0..n {
            let want = c[i] + a[i] * t;
            prop_assert!((r.x[i] - want).abs() < 1e-4, "x[{i}] = {} want {want}", r.x[i]);
        }
    }
}
