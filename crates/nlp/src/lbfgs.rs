//! Projected L-BFGS for bound-constrained minimisation.
//!
//! Used for reduced-space gate sizing (the objective as a function of the
//! speed factors only, with adjoint gradients) and to warm-start the
//! full-space augmented-Lagrangian solves. Search directions come from the
//! standard two-loop recursion over the free variables only (a variable
//! held at a bound by its gradient is left out of the step, as in
//! Bertsekas's projected quasi-Newton method and L-BFGS-B); steps are
//! projected onto the box and accepted under an Armijo condition on the
//! projected path.

use crate::tr::project;
use std::collections::VecDeque;

/// A function with gradient only (no Hessian), for quasi-Newton methods.
pub trait GradFn {
    /// Dimension.
    fn n(&self) -> usize;
    /// Value at `x`.
    fn value(&mut self, x: &[f64]) -> f64;
    /// Gradient at `x`.
    fn grad(&mut self, x: &[f64], g: &mut [f64]);
}

/// Options for [`minimize`].
#[derive(Debug, Clone)]
pub struct LbfgsOptions {
    /// Convergence tolerance on the projected-gradient infinity norm.
    pub tol: f64,
    /// Maximum iterations.
    pub max_iter: usize,
    /// History length.
    pub memory: usize,
}

impl Default for LbfgsOptions {
    fn default() -> Self {
        LbfgsOptions {
            tol: 1e-7,
            max_iter: 500,
            memory: 10,
        }
    }
}

/// Result of [`minimize`].
#[derive(Debug, Clone)]
pub struct LbfgsResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Final value.
    pub f: f64,
    /// Final projected-gradient infinity norm.
    pub pg_norm: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Calls of [`GradFn::value`].
    pub evals_value: usize,
    /// Calls of [`GradFn::grad`].
    pub evals_grad: usize,
}

/// Minimises `f` over the box `[l, u]` from `x0`.
///
/// # Panics
///
/// Panics if slice lengths disagree or bounds are inverted.
pub fn minimize<F: GradFn>(
    f: &mut F,
    x0: &[f64],
    l: &[f64],
    u: &[f64],
    opts: &LbfgsOptions,
) -> LbfgsResult {
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

    // (s, y, 1/y's) history plus hoisted per-iteration scratch: the loop
    // below allocates only when a new history pair is retained.
    let mut hist: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::new();
    let mut d = vec![0.0; n];
    let mut binding = vec![false; n];
    let mut alphas: Vec<f64> = Vec::with_capacity(opts.memory);
    let mut xn = vec![0.0; n];
    let mut gn = vec![0.0; n];
    let mut sbuf = vec![0.0; n];
    let mut ybuf = vec![0.0; n];
    let mut pg = pg_norm(&x, &g, l, u);
    let mut resets = 0u32;

    let mut iterations = opts.max_iter;
    for iter in 0..opts.max_iter {
        if pg <= opts.tol {
            iterations = iter;
            break;
        }

        // A variable held at a bound by its gradient cannot move: the
        // two-loop recursion runs on the free part of the gradient, and
        // the direction is zeroed on the binding set again afterwards, so
        // projection never cuts the step back to nothing.
        for i in 0..n {
            binding[i] = (x[i] <= l[i] && g[i] > 0.0) || (x[i] >= u[i] && g[i] < 0.0);
            d[i] = if binding[i] { 0.0 } else { -g[i] };
        }
        alphas.clear();
        for (s, y, rho) in hist.iter().rev() {
            let a = rho * dot(s, &d);
            alphas.push(a);
            axpy(&mut d, -a, y);
        }
        if let Some((s, y, _)) = hist.back() {
            let gamma = dot(s, y) / dot(y, y).max(1e-300);
            for e in d.iter_mut() {
                *e *= gamma.max(1e-12);
            }
        }
        for ((s, y, rho), &a) in hist.iter().zip(alphas.iter().rev()) {
            let b = rho * dot(y, &d);
            axpy(&mut d, a - b, s);
        }
        for (e, &b) in d.iter_mut().zip(&binding) {
            if b {
                *e = 0.0;
            }
        }
        // Safeguard: ensure descent, else fall back to projected steepest
        // descent over the free variables.
        if dot(&d, &g) >= 0.0 {
            for i in 0..n {
                d[i] = if binding[i] { 0.0 } else { -g[i] };
            }
        }

        // Backtracking Armijo on the projected path x(t) = P(x + t d).
        // Once a trial's change in value is within rounding of f, no
        // shorter step can show a decrease: the search fails at once.
        let floor = 1e-14 * fx.abs().max(1.0);
        let mut t = 1.0;
        let mut accepted = false;
        let mut fn_ = fx;
        for _ in 0..60 {
            for i in 0..n {
                xn[i] = (x[i] + t * d[i]).max(l[i]).min(u[i]);
            }
            fn_ = f.value(&xn);
            evals_value += 1;
            // Armijo with the projected step as the reference direction.
            let gs: f64 = (0..n).map(|i| g[i] * (xn[i] - x[i])).sum();
            if fn_ <= fx + 1e-4 * gs && gs < 0.0 {
                accepted = true;
                break;
            }
            // Also accept a plain decrease when the directional term
            // degenerates (fully active set).
            if gs >= 0.0 && fn_ < fx {
                accepted = true;
                break;
            }
            if (fn_ - fx).abs() <= floor {
                break;
            }
            t *= 0.5;
        }
        if !accepted {
            // A stale quasi-Newton model can defeat the line search far
            // from convergence; drop the history and retry from steepest
            // descent before giving up.
            if !hist.is_empty() && resets < 8 {
                hist.clear();
                resets += 1;
                continue;
            }
            iterations = iter;
            break;
        }

        f.grad(&xn, &mut gn);
        evals_grad += 1;
        for i in 0..n {
            sbuf[i] = xn[i] - x[i];
            ybuf[i] = gn[i] - g[i];
        }
        let ys = dot(&ybuf, &sbuf);
        if ys > 1e-12 * dot(&ybuf, &ybuf).sqrt() * dot(&sbuf, &sbuf).sqrt() {
            if hist.len() == opts.memory {
                // Recycle the evicted pair's buffers instead of
                // allocating a fresh one per retained step.
                let (mut so, mut yo, _) = hist.pop_front().expect("history non-empty");
                so.copy_from_slice(&sbuf);
                yo.copy_from_slice(&ybuf);
                hist.push_back((so, yo, 1.0 / ys));
            } else {
                hist.push_back((sbuf.clone(), ybuf.clone(), 1.0 / ys));
            }
        }
        std::mem::swap(&mut x, &mut xn);
        fx = fn_;
        std::mem::swap(&mut g, &mut gn);
        pg = pg_norm(&x, &g, l, u);
    }

    LbfgsResult {
        x,
        f: fx,
        pg_norm: pg,
        iterations,
        converged: pg <= opts.tol,
        evals_value,
        evals_grad,
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    for i in 0..y.len() {
        y[i] += a * x[i];
    }
}

fn pg_norm(x: &[f64], g: &[f64], l: &[f64], u: &[f64]) -> f64 {
    let mut worst: f64 = 0.0;
    for i in 0..x.len() {
        let t = (x[i] - g[i]).max(l[i]).min(u[i]);
        worst = worst.max((x[i] - t).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Rosen;
    impl GradFn for Rosen {
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
    }

    struct Quad {
        center: Vec<f64>,
    }
    impl GradFn for Quad {
        fn n(&self) -> usize {
            self.center.len()
        }
        fn value(&mut self, x: &[f64]) -> f64 {
            x.iter()
                .zip(&self.center)
                .map(|(a, c)| (a - c) * (a - c))
                .sum()
        }
        fn grad(&mut self, x: &[f64], g: &mut [f64]) {
            for i in 0..x.len() {
                g[i] = 2.0 * (x[i] - self.center[i]);
            }
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
    impl GradFn for CoupledQuad {
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
        let r = minimize(&mut q, &vec![0.5; n], &l, &u, &LbfgsOptions::default());
        assert!(r.converged, "{r:?}");
        assert_eq!(r.evals_value, q.values);
        for i in 0..n {
            match i % 3 {
                0 => assert_eq!(r.x[i], 0.0, "x[{i}]"),
                1 => assert_eq!(r.x[i], 1.0, "x[{i}]"),
                _ => assert!(r.x[i] > 0.0 && r.x[i] < 1.0, "x[{i}] = {}", r.x[i]),
            }
        }
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
            &mut Rosen,
            &[-1.2, 1.0],
            &[-INF; 2],
            &[INF; 2],
            &LbfgsOptions {
                tol: 1e-9,
                max_iter: 2000,
                memory: 10,
            },
        );
        assert!(r.converged, "{r:?}");
        assert!((r.x[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn quadratic_with_active_bounds() {
        let mut q = Quad {
            center: vec![5.0, -5.0, 0.5],
        };
        let r = minimize(
            &mut q,
            &[0.0; 3],
            &[0.0, 0.0, 0.0],
            &[1.0, 1.0, 1.0],
            &LbfgsOptions::default(),
        );
        assert!(r.converged, "{r:?}");
        assert!((r.x[0] - 1.0).abs() < 1e-8);
        assert!(r.x[1].abs() < 1e-8);
        assert!((r.x[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn already_optimal() {
        let mut q = Quad { center: vec![0.3] };
        let r = minimize(&mut q, &[0.3], &[0.0], &[1.0], &LbfgsOptions::default());
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
    }
}
