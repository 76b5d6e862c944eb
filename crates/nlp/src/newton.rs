//! Projected truncated Newton for bound-constrained minimisation.
//!
//! Used for reduced-space gate sizing (the objective as a function of the
//! speed factors only, with adjoint gradients and second-order adjoint
//! Hessian-vector products). Each iteration solves the Newton system over
//! the free variables inexactly by conjugate gradients, with the forcing
//! term `η = min(0.5, √‖g_F‖)` of Eisenstat and Walker and a stop at the
//! first direction of negative curvature. As in Bertsekas's projected
//! Newton method, a variable at or near a bound that its gradient pushes
//! towards is left out of the system and takes a steepest-descent step
//! instead. Steps are projected onto the box and accepted under an Armijo
//! condition on the projected path.
//!
//! Unlike [`crate::tr`], which solves the trust-region subproblem to a
//! fixed 1 % residual and re-solves it after every rejected step, this
//! loop asks for little accuracy far from a solution and never repeats
//! a CG solve: a rejected step is shortened by backtracking.

use crate::tr::{project, projected_gradient_norm, SmoothFn};

/// Bertsekas's `ε` of the active-set test: a variable within
/// `min(ε, ‖x − P(x − g)‖∞)` of a bound its gradient pushes towards is
/// stepped onto the bound rather than into the Newton system, so that the
/// projection does not cut Newton steps short one variable at a time.
const ACTIVE_EPS: f64 = 1e-3;

/// Options for [`minimize`].
#[derive(Debug, Clone)]
pub struct NewtonOptions {
    /// Convergence tolerance on the projected-gradient infinity norm.
    pub tol: f64,
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Maximum CG iterations (Hessian-vector products) per Newton step.
    pub max_cg: usize,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            tol: 1e-7,
            max_iter: 500,
            max_cg: 50,
        }
    }
}

/// Result of [`minimize`].
#[derive(Debug, Clone)]
pub struct NewtonResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Final value.
    pub f: f64,
    /// Final projected-gradient infinity norm.
    pub pg_norm: f64,
    /// Newton iterations used (accepted steps).
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Calls of [`SmoothFn::value`].
    pub evals_value: usize,
    /// Calls of [`SmoothFn::grad`].
    pub evals_grad: usize,
    /// Calls of [`SmoothFn::hess_vec`].
    pub hess_vecs: usize,
}

/// Minimises `f` over the box `[l, u]` from `x0` (projected into the box
/// first). Convergence is tested before any step, so a start that already
/// meets the tolerance is returned bit for bit.
///
/// # Panics
///
/// Panics if slice lengths disagree or bounds are inverted.
pub fn minimize<F: SmoothFn>(
    f: &mut F,
    x0: &[f64],
    l: &[f64],
    u: &[f64],
    opts: &NewtonOptions,
) -> NewtonResult {
    let n = f.n();
    assert_eq!(x0.len(), n);
    assert_eq!(l.len(), n);
    assert_eq!(u.len(), n);
    for i in 0..n {
        assert!(l[i] <= u[i], "bound {i} inverted");
    }

    let mut x = x0.to_vec();
    project(&mut x, l, u);
    let mut fx = f.value(&x);
    let mut g = vec![0.0; n];
    f.grad(&x, &mut g);
    let mut evals_value = 1usize;
    let mut evals_grad = 1usize;
    let mut hess_vecs = 0usize;

    // Per-iteration scratch, hoisted: the loop below allocates nothing.
    let mut free = vec![true; n];
    let mut p = vec![0.0; n];
    let mut r = vec![0.0; n];
    let mut d = vec![0.0; n];
    let mut hd = vec![0.0; n];
    let mut xn = vec![0.0; n];
    let mut gn = vec![0.0; n];
    let mut pg = projected_gradient_norm(&x, &g, l, u);

    let mut iterations = opts.max_iter;
    for iter in 0..opts.max_iter {
        if pg <= opts.tol {
            iterations = iter;
            break;
        }

        // A variable at (or within eps of) a bound that its gradient pushes
        // towards takes a steepest-descent step onto it; the Newton system
        // is solved over the other, free, variables only.
        let eps = pg.min(ACTIVE_EPS);
        let mut gg = 0.0;
        for i in 0..n {
            free[i] = !((x[i] - l[i] <= eps && g[i] > 0.0) || (u[i] - x[i] <= eps && g[i] < 0.0));
            r[i] = if free[i] { -g[i] } else { 0.0 };
            gg += r[i] * r[i];
        }
        let newton = gg > 0.0;
        for i in 0..n {
            p[i] = if free[i] { 0.0 } else { -g[i] };
        }
        if newton {
            f.prepare_hess(&x);
            let gnorm = gg.sqrt();
            let eta = gnorm.sqrt().min(0.5);
            d.copy_from_slice(&r);
            let mut rr = gg;
            for k in 0..opts.max_cg {
                f.hess_vec(&d, &mut hd);
                hess_vecs += 1;
                let mut curv = 0.0;
                let mut dd = 0.0;
                for i in 0..n {
                    if !free[i] {
                        hd[i] = 0.0;
                    }
                    curv += d[i] * hd[i];
                    dd += d[i] * d[i];
                }
                if curv <= 1e-16 * dd {
                    // Negative (or no) curvature along d: keep the step
                    // built so far, or the steepest-descent direction if
                    // there is none.
                    if k == 0 {
                        for i in 0..n {
                            if free[i] {
                                p[i] = r[i];
                            }
                        }
                    }
                    break;
                }
                let alpha = rr / curv;
                let mut rr_new = 0.0;
                for i in 0..n {
                    p[i] += alpha * d[i];
                    r[i] -= alpha * hd[i];
                    rr_new += r[i] * r[i];
                }
                if rr_new.sqrt() <= eta * gnorm {
                    break;
                }
                let beta = rr_new / rr;
                for i in 0..n {
                    d[i] = r[i] + beta * d[i];
                }
                rr = rr_new;
            }
        }
        // Safeguard: ensure descent, else fall back to projected steepest
        // descent over the variables no bound holds.
        let steepest = |p: &mut [f64]| {
            for i in 0..n {
                let held = (x[i] <= l[i] && g[i] > 0.0) || (x[i] >= u[i] && g[i] < 0.0);
                p[i] = if held { 0.0 } else { -g[i] };
            }
        };
        if dot(&p, &g) >= 0.0 {
            steepest(&mut p);
        }

        let mut accepted = armijo(f, &x, fx, &g, &p, l, u, &mut xn, &mut evals_value);
        if accepted.is_none() && newton {
            // A poor Newton model can defeat the line search far from
            // convergence; retry once from steepest descent.
            steepest(&mut p);
            accepted = armijo(f, &x, fx, &g, &p, l, u, &mut xn, &mut evals_value);
        }
        let Some(fn_) = accepted else {
            iterations = iter;
            break;
        };

        f.grad(&xn, &mut gn);
        evals_grad += 1;
        std::mem::swap(&mut x, &mut xn);
        fx = fn_;
        std::mem::swap(&mut g, &mut gn);
        pg = projected_gradient_norm(&x, &g, l, u);
    }

    NewtonResult {
        x,
        f: fx,
        pg_norm: pg,
        iterations,
        converged: pg <= opts.tol,
        evals_value,
        evals_grad,
        hess_vecs,
    }
}

/// Backtracking Armijo search on the projected path `x(t) = P(x + t p)`
/// from `t = 1`, writing the accepted point into `xn`. Returns its value,
/// or `None` once a trial's change in value is within rounding of `fx`
/// (no shorter step can show a decrease) or after 60 halvings.
#[allow(clippy::too_many_arguments)]
fn armijo<F: SmoothFn>(
    f: &mut F,
    x: &[f64],
    fx: f64,
    g: &[f64],
    p: &[f64],
    l: &[f64],
    u: &[f64],
    xn: &mut [f64],
    evals_value: &mut usize,
) -> Option<f64> {
    let floor = 1e-14 * fx.abs().max(1.0);
    let mut t = 1.0;
    for _ in 0..60 {
        for i in 0..x.len() {
            xn[i] = (x[i] + t * p[i]).max(l[i]).min(u[i]);
        }
        let fn_ = f.value(xn);
        *evals_value += 1;
        // Armijo with the projected step as the reference direction.
        let gs: f64 = (0..x.len()).map(|i| g[i] * (xn[i] - x[i])).sum();
        if fn_ <= fx + 1e-4 * gs && gs < 0.0 {
            return Some(fn_);
        }
        // Also accept a plain decrease when the directional term
        // degenerates (fully active set).
        if gs >= 0.0 && fn_ < fx {
            return Some(fn_);
        }
        if (fn_ - fx).abs() <= floor {
            return None;
        }
        t *= 0.5;
    }
    None
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Rosen {
        hx: [f64; 2],
    }
    impl SmoothFn for Rosen {
        fn n(&self) -> usize {
            2
        }
        fn value(&mut self, x: &[f64]) -> f64 {
            (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
        }
        fn grad(&mut self, x: &[f64], g: &mut [f64]) {
            g[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]);
            g[1] = 200.0 * (x[1] - x[0] * x[0]);
        }
        fn prepare_hess(&mut self, x: &[f64]) {
            self.hx = [x[0], x[1]];
        }
        fn hess_vec(&mut self, v: &[f64], out: &mut [f64]) {
            let [x0, x1] = self.hx;
            let h00 = 2.0 - 400.0 * (x1 - 3.0 * x0 * x0);
            let h01 = -400.0 * x0;
            out[0] = h00 * v[0] + h01 * v[1];
            out[1] = h01 * v[0] + 200.0 * v[1];
        }
    }

    /// `0.5 x'Ax - b'x` with a tridiagonal, diagonally dominant `A`
    /// (diagonal `4 + i/4`, off-diagonals `-1.5`), counting its calls.
    struct CoupledQuad {
        b: Vec<f64>,
        values: usize,
    }
    impl CoupledQuad {
        fn ax(&self, x: &[f64], i: usize) -> f64 {
            let n = x.len();
            let mut v = (4.0 + 0.25 * i as f64) * x[i];
            if i > 0 {
                v -= 1.5 * x[i - 1];
            }
            if i + 1 < n {
                v -= 1.5 * x[i + 1];
            }
            v
        }
    }
    impl SmoothFn for CoupledQuad {
        fn n(&self) -> usize {
            self.b.len()
        }
        fn value(&mut self, x: &[f64]) -> f64 {
            self.values += 1;
            (0..x.len())
                .map(|i| 0.5 * x[i] * self.ax(x, i) - self.b[i] * x[i])
                .sum()
        }
        fn grad(&mut self, x: &[f64], g: &mut [f64]) {
            for (i, gi) in g.iter_mut().enumerate() {
                *gi = self.ax(x, i) - self.b[i];
            }
        }
        fn prepare_hess(&mut self, _x: &[f64]) {}
        fn hess_vec(&mut self, v: &[f64], out: &mut [f64]) {
            for (i, o) in out.iter_mut().enumerate() {
                *o = self.ax(v, i);
            }
        }
    }

    /// `sum (x - c)²`.
    struct Sep {
        c: Vec<f64>,
    }
    impl SmoothFn for Sep {
        fn n(&self) -> usize {
            self.c.len()
        }
        fn value(&mut self, x: &[f64]) -> f64 {
            x.iter().zip(&self.c).map(|(a, c)| (a - c) * (a - c)).sum()
        }
        fn grad(&mut self, x: &[f64], g: &mut [f64]) {
            for i in 0..x.len() {
                g[i] = 2.0 * (x[i] - self.c[i]);
            }
        }
        fn prepare_hess(&mut self, _x: &[f64]) {}
        fn hess_vec(&mut self, v: &[f64], out: &mut [f64]) {
            for i in 0..v.len() {
                out[i] = 2.0 * v[i];
            }
        }
    }

    const INF: f64 = f64::INFINITY;

    #[test]
    fn coupled_quadratic_with_active_bounds_steps_in_the_free_variables() {
        // Every third variable is pushed below its lower bound, every
        // third above its upper bound; the rest settle inside the box,
        // coupled to their bound-held neighbours.
        let n = 30;
        let b: Vec<f64> = (0..n)
            .map(|i| match i % 3 {
                0 => -20.0,
                1 => 25.0,
                _ => 2.0 + 0.1 * i as f64,
            })
            .collect();
        let mut q = CoupledQuad { b, values: 0 };
        let (l, u) = (vec![0.0; n], vec![1.0; n]);
        let r = minimize(&mut q, &vec![0.5; n], &l, &u, &NewtonOptions::default());
        assert!(r.converged, "{r:?}");
        assert_eq!(r.evals_value, q.values);
        for i in 0..n {
            match i % 3 {
                0 => assert_eq!(r.x[i], 0.0, "x[{i}]"),
                1 => assert_eq!(r.x[i], 1.0, "x[{i}]"),
                _ => assert!(r.x[i] > 0.0 && r.x[i] < 1.0, "x[{i}] = {}", r.x[i]),
            }
        }
        assert!(r.iterations <= 10, "{} Newton iterations", r.iterations);
        assert!(
            q.values <= 2 * r.iterations.max(1),
            "{} value calls over {} iterations",
            q.values,
            r.iterations
        );
    }

    #[test]
    fn rosenbrock_unbounded() {
        let r = minimize(
            &mut Rosen { hx: [0.0; 2] },
            &[-1.2, 1.0],
            &[-INF; 2],
            &[INF; 2],
            &NewtonOptions {
                tol: 1e-9,
                ..Default::default()
            },
        );
        assert!(r.converged, "{r:?}");
        assert!((r.x[0] - 1.0).abs() < 1e-5);
        assert!(r.iterations < 100, "{} Newton iterations", r.iterations);
    }

    #[test]
    fn quadratic_with_active_bounds() {
        // sum (x - c)² over [0, 1]³ with c = (5, -5, 0.5).
        let mut f = Sep {
            c: vec![5.0, -5.0, 0.5],
        };
        let r = minimize(
            &mut f,
            &[0.0; 3],
            &[0.0; 3],
            &[1.0; 3],
            &NewtonOptions::default(),
        );
        assert!(r.converged, "{r:?}");
        assert_eq!(r.x[0], 1.0);
        assert_eq!(r.x[1], 0.0);
        assert!((r.x[2] - 0.5).abs() < 1e-12, "{:?}", r.x);
    }

    #[test]
    fn rosenbrock_with_box_excluding_optimum() {
        // Optimum (1, 1) cut off by x0 <= 0.8: the solution is on the
        // bound, x = (0.8, 0.64).
        let r = minimize(
            &mut Rosen { hx: [0.0; 2] },
            &[0.0, 0.0],
            &[-INF; 2],
            &[0.8, INF],
            &NewtonOptions {
                tol: 1e-10,
                ..Default::default()
            },
        );
        assert!(r.converged, "{r:?}");
        assert_eq!(r.x[0], 0.8);
        assert!((r.x[1] - 0.64).abs() < 1e-7, "{:?}", r.x);
    }

    #[test]
    fn negative_curvature_start_still_descends() {
        // At (0, 1) the Rosenbrock Hessian has h00 = -398: CG stops at
        // once and the step falls back to steepest descent.
        let mut f = Rosen { hx: [0.0; 2] };
        let x0 = [0.0, 1.0];
        let f0 = f.value(&x0);
        let r = minimize(
            &mut f,
            &x0,
            &[-INF; 2],
            &[INF; 2],
            &NewtonOptions {
                max_iter: 1,
                ..Default::default()
            },
        );
        assert_eq!(r.iterations, 1);
        assert!(r.f < f0, "{} vs {f0}", r.f);
    }

    #[test]
    fn already_optimal() {
        // Returned bit for bit, with no step and no Hessian product.
        let mut q = CoupledQuad {
            b: vec![0.0; 3],
            values: 0,
        };
        let x0 = [0.0, 0.0, 0.0];
        let r = minimize(
            &mut q,
            &x0,
            &[-1.0; 3],
            &[1.0; 3],
            &NewtonOptions::default(),
        );
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.hess_vecs, 0);
        assert_eq!(r.x, x0);
    }
}
