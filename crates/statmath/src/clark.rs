//! The analytical stochastic maximum of two independent normals.
//!
//! Implements the paper's Eqs. 10, 12 and 13 (the moment formulas first
//! derived by Clark, 1961, and re-derived in the paper's Appendix A) and —
//! the paper's key enabling contribution — their **exact first and second
//! derivatives** with respect to the four inputs `(mu_a, var_a, mu_b,
//! var_b)`. These derivatives are what allow gate sizing under a statistical
//! delay model to be posed as a smooth nonlinear program and solved by a
//! LANCELOT-class solver.
//!
//! With `theta^2 = var_a + var_b + eps^2` and `alpha = (mu_a - mu_b) / theta`:
//!
//! ```text
//! mu_c    = mu_a Phi(alpha) + mu_b Phi(-alpha) + theta phi(alpha)        (Eq. 10)
//! E[C^2]  = (var_a + mu_a^2) Phi(alpha) + (var_b + mu_b^2) Phi(-alpha)
//!           + (mu_a + mu_b) theta phi(alpha)                             (Eq. 12)
//! var_c   = E[C^2] - mu_c^2                                              (Eq. 13)
//! ```
//!
//! The smoothing floor `eps` (default [`DEFAULT_EPS`]) regularises the
//! degenerate case `var_a + var_b -> 0` (e.g. the max over deterministic
//! primary-input arrivals), where the exact formulas have a kink. The paper
//! does not discuss this case; any tiny floor reproduces its results because
//! every gate delay carries `sigma = 0.25 mu > 0`.

use crate::dual::{Dual2, Real};
use crate::normal::Normal;
use crate::special::{
    normal_cdf_given_pdf, normal_cdf_pair, normal_pdf, normal_pdf_cdf, tail_bracket, TAIL_START,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default variance-smoothing floor added inside `theta^2`.
pub const DEFAULT_EPS: f64 = 1e-9;

/// Process-wide count of variance clamps that actually fired (see
/// [`var_clamp_count`]).
static VAR_CLAMP_COUNT: AtomicU64 = AtomicU64::new(0);

/// How many times a Clark evaluation produced a (slightly) negative
/// `var_C = E[C²] − μ_C²` and clamped it to zero, process-wide since
/// start.
///
/// The clamp is numerically benign — the true variance is non-negative
/// and the negative excursion is catastrophic-cancellation noise when one
/// operand dominates — but it silently discards information, so every
/// firing is counted. The sizing driver samples this counter around a
/// solve and reports the delta (`clark_var_clamped` trace counter), which
/// corroborates the static analyzer's interval findings with runtime data.
///
/// Each firing is also pushed into the metrics registry
/// (`clark_var_clamps`) at the clamp site itself, so the registry total
/// stays exact even when several solves run concurrently — per-solve
/// deltas of this process-global counter would overlap and double-count.
pub fn var_clamp_count() -> u64 {
    VAR_CLAMP_COUNT.load(Ordering::Relaxed)
}

/// `var.max(0.0)`, and whether that was a clamp. Matches `f64::max`
/// exactly, including the NaN-to-floor mapping (which is not a clamp: it is
/// a divergence).
#[inline]
fn clamped(var: f64) -> (f64, bool) {
    if var >= 0.0 {
        (var, false)
    } else {
        (0.0, var < 0.0)
    }
}

/// Publishes `n` clamps to the process-wide counter and the registry.
fn count_clamps(n: u64) {
    VAR_CLAMP_COUNT.fetch_add(n, Ordering::Relaxed);
    sgs_metrics::add(sgs_metrics::Counter::ClarkVarClamps, n);
}

/// [`clamped`] that counts the clamp.
fn clamp_var(var: f64) -> f64 {
    let (var, clamp) = clamped(var);
    if clamp {
        count_clamps(1);
    }
    var
}

/// Index of `mu_a` in gradient/Hessian arrays.
pub const I_MU_A: usize = 0;
/// Index of `var_a` in gradient/Hessian arrays.
pub const I_VAR_A: usize = 1;
/// Index of `mu_b` in gradient/Hessian arrays.
pub const I_MU_B: usize = 2;
/// Index of `var_b` in gradient/Hessian arrays.
pub const I_VAR_B: usize = 3;

/// Clark moments written against the generic scalar [`Real`], so the same
/// formula text yields plain values (`f64`) and machine-precision derivative
/// cross-checks ([`Dual2`]). Returns `(mu_c, var_c)`.
pub fn moments_generic<T: Real>(mu_a: T, var_a: T, mu_b: T, var_b: T, eps: f64) -> (T, T) {
    let theta2 = var_a + var_b + T::constant(eps * eps);
    let theta = theta2.sqrt();
    let alpha = (mu_a - mu_b) / theta;
    let phi = alpha.norm_pdf();
    let cdf_p = alpha.norm_cdf();
    let cdf_m = (-alpha).norm_cdf();
    let mu_c = mu_a * cdf_p + mu_b * cdf_m + theta * phi;
    let e2 =
        (var_a + mu_a * mu_a) * cdf_p + (var_b + mu_b * mu_b) * cdf_m + (mu_a + mu_b) * theta * phi;
    (mu_c, e2 - mu_c * mu_c)
}

/// The stochastic maximum `C = max(A, B)` with the default smoothing floor.
///
/// ```
/// use sgs_statmath::{clark, Normal};
/// let c = clark::max(Normal::new(1.0, 0.5), Normal::new(1.0, 0.5));
/// // Equal operands: the max has a strictly larger mean and smaller sigma.
/// assert!(c.mean() > 1.0);
/// assert!(c.sigma() < 0.5);
/// ```
pub fn max(a: Normal, b: Normal) -> Normal {
    max_eps(a, b, DEFAULT_EPS)
}

/// [`moments_generic::<f64>`] with one fused `phi`/`Phi` evaluation in
/// place of three: bit for bit the same `(mu_c, var_c)`, because the fused
/// values are bitwise the separate ones and the formula text is the same.
/// When one operand dominates, [`dominated`] certifies the result without
/// evaluating `Phi` at all; elsewhere in the tail, [`tail_certified`]
/// certifies it from a short bracket around `Phi`.
#[inline]
fn moments(mu_a: f64, var_a: f64, mu_b: f64, var_b: f64, eps: f64) -> (f64, f64) {
    let theta2 = var_a + var_b + eps * eps;
    let theta = theta2.sqrt();
    let alpha = (mu_a - mu_b) / theta;
    let phi = normal_pdf(alpha);
    if alpha.abs() >= DOMINANT_ALPHA {
        if let Some(m) = dominated(mu_a, var_a, mu_b, var_b, theta, alpha, phi) {
            return m;
        }
    }
    if alpha.abs() >= TAIL_START && phi != 0.0 {
        if let Some(m) = tail_certified(mu_a, var_a, mu_b, var_b, theta, alpha, phi) {
            return m;
        }
    }
    let (cdf_p, cdf_m) = normal_cdf_pair(alpha, phi);
    formula(mu_a, var_a, mu_b, var_b, theta, phi, cdf_p, cdf_m)
}

/// The last lines of [`moments_generic`] for `f64`, given `theta`,
/// `phi(alpha)`, `Phi(alpha)` and `Phi(-alpha)`: `(mu_c, var_c)`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn formula(
    mu_a: f64,
    var_a: f64,
    mu_b: f64,
    var_b: f64,
    theta: f64,
    phi: f64,
    cdf_p: f64,
    cdf_m: f64,
) -> (f64, f64) {
    let mu_c = mu_a * cdf_p + mu_b * cdf_m + theta * phi;
    let e2 =
        (var_a + mu_a * mu_a) * cdf_p + (var_b + mu_b * mu_b) * cdf_m + (mu_a + mu_b) * theta * phi;
    (mu_c, e2 - mu_c * mu_c)
}

/// [`moments`]' result for `|alpha| >= 4`, certified from the two ends of
/// [`tail_bracket`] instead of the tail value `q` itself: `Some` when it
/// is certain, bit for bit, and `None` otherwise. `phi` is `phi(alpha)`.
///
/// For `|alpha| >= 4` the formula reads `Phi(+-alpha)` as `p = fl(1 - q)`
/// and `q`, and the reference `q` lies between the bracket's ends `q_1`
/// and `q_2`. The certificate is:
///
/// 1. `fl(1 - q_1) = fl(1 - q_2)`. Rounding is monotone, so the reference
///    gives the same `p`.
/// 2. [`formula`] with that `p` gives the same `(mu_c, var_c)` bits at
///    `q_1` and `q_2`, and `var_c` is not NaN.
///
/// With `p` fixed, `mu_c` is `fl(fl(fl(mu_D p) + fl(mu_S q)) + fl(theta
/// phi))`, with `D` the operand `p` weighs and `S` the other (the sum's
/// order follows the operands, and floating-point addition commutes). Each
/// rounded product, sum and difference is monotone in its one varying
/// operand, so `mu_c` is monotone in `q`, and equal at the ends means
/// equal at every `q` between them. Likewise `E[C^2]` is monotone in `q`,
/// and `var_c = fl(E[C^2] - fl(mu_c mu_c))` with `mu_c` fixed. Without a
/// NaN at either end this holds over the extended reals too: every
/// intermediate at a `q` between the ends lies between its values at the
/// ends, so an infinity that would meet a zero or the opposite infinity
/// there meets it at an end as well. So the reference `q` gives the same
/// result.
#[inline]
fn tail_certified(
    mu_a: f64,
    var_a: f64,
    mu_b: f64,
    var_b: f64,
    theta: f64,
    alpha: f64,
    phi: f64,
) -> Option<(f64, f64)> {
    debug_assert!(alpha.abs() >= TAIL_START && phi != 0.0);
    let (q_1, q_2) = tail_bracket(alpha.abs(), phi);
    let p = 1.0 - q_1;
    if p != 1.0 - q_2 {
        return None;
    }
    let at = |q: f64| {
        let (cdf_p, cdf_m) = if alpha > 0.0 { (p, q) } else { (q, p) };
        formula(mu_a, var_a, mu_b, var_b, theta, phi, cdf_p, cdf_m)
    };
    let (m_1, m_2) = (at(q_1), at(q_2));
    let certain =
        m_1.0.to_bits() == m_2.0.to_bits() && m_1.1.to_bits() == m_2.1.to_bits() && !m_1.1.is_nan();
    certain.then_some(m_1)
}

/// Below this `|alpha|`, `phi(alpha) / |alpha| >= 2^-54` (they cross at
/// about 8.294), so the first condition of [`dominated`] cannot hold and
/// [`moments`] does not try it. Its proof needs the tail branch of `Phi`,
/// which starts at `|alpha| = 4`; above that, only speed depends on this
/// value.
const DOMINANT_ALPHA: f64 = 8.25;

/// A quarter of the spacing of doubles in the binade of `|x|`: for any
/// `|t|` below it, `x + t` rounds to `x` (a quarter, not a half, because
/// the spacing halves below a power of two). Zero for zero, subnormal,
/// tiny (`|x| < 2^-968`) and non-finite `x`, so that no addend passes.
#[inline]
fn quarter_ulp(x: f64) -> f64 {
    let biased_exp = (x.to_bits() >> 52) & 0x7ff;
    // The spacing is 2^(e - 52) for the unbiased exponent e, so its quarter
    // is the power of two with biased exponent `biased_exp - 54`.
    if biased_exp > 54 && biased_exp < 0x7ff {
        f64::from_bits((biased_exp - 54) << 52)
    } else {
        0.0
    }
}

/// The moments of [`moments`]' formula when one operand `D` dominates so
/// strongly that the formula returns `(mu_D, fl(fl(var_D + mu_D mu_D) -
/// mu_D mu_D))`: that pair when it is certain, bit for bit, and `None`
/// otherwise. `phi` is `phi(alpha)` and `|alpha| >= 4`.
///
/// For `|alpha| >= 4` the formula reads `Phi(+-alpha)` as `1 - q` and `q`,
/// with `q` the continued-fraction tail value, and `q <= q_max =
/// fl(phi / |alpha|)` (see `special::tail_q`). Let `S` be the other
/// operand. The certificate is:
///
/// 1. `q_max < 2^-54`, so `fl(1 - q) = 1` and `D`'s terms enter the sums
///    unscaled: `mu_D` and `E_D = fl(var_D + mu_D mu_D)`.
/// 2. Each other addend is below [`quarter_ulp`] of the running sum, so
///    adding it leaves the sum unchanged. In `mu_c` these are `fl(mu_S q)
///    <= fl(|mu_S| q_max)` and `fl(theta phi)`; in `E[C^2]` they are
///    `fl(E_S q) <= fl(|E_S| q_max)` and `fl(fl(fl(mu_a + mu_b) theta)
///    phi)`, each computed as the formula computes it.
///
/// Then `mu_c = mu_D` and `E[C^2] = E_D` exactly, whichever operand is
/// `D` (floating-point addition commutes), and `var_c` is the formula's
/// last line. A NaN anywhere fails a comparison and returns `None`.
#[inline]
fn dominated(
    mu_a: f64,
    var_a: f64,
    mu_b: f64,
    var_b: f64,
    theta: f64,
    alpha: f64,
    phi: f64,
) -> Option<(f64, f64)> {
    debug_assert!(alpha.abs() >= 4.0, "the certificate needs the tail branch");
    let q_max = phi / alpha.abs();
    let (mu_d, var_d, mu_s, var_s) = if alpha > 0.0 {
        (mu_a, var_a, mu_b, var_b)
    } else {
        (mu_b, var_b, mu_a, var_a)
    };
    let e_d = var_d + mu_d * mu_d;
    let (room_mu, room_e2) = (quarter_ulp(mu_d), quarter_ulp(e_d));
    let certain = q_max < f64::EPSILON / 4.0
        && mu_s.abs() * q_max < room_mu
        && (theta * phi).abs() < room_mu
        && (var_s + mu_s * mu_s).abs() * q_max < room_e2
        && ((mu_a + mu_b) * theta * phi).abs() < room_e2;
    certain.then_some((mu_d, e_d - mu_d * mu_d))
}

/// [`max`] with an explicit smoothing floor.
pub fn max_eps(a: Normal, b: Normal, eps: f64) -> Normal {
    let (mu, var) = moments(a.mean(), a.var(), b.mean(), b.var(), eps);
    // Tiny negative variance can appear from rounding when one operand
    // dominates; clamp to zero (counted, see `var_clamp_count`).
    Normal::from_mean_var(mu, clamp_var(var))
}

/// Left fold of [`max`] over any number of operands, exactly as the paper
/// applies the two-operand max repeatedly over a gate's fan-ins (Eq. 18b).
///
/// Returns `None` for an empty iterator.
pub fn max_n<I: IntoIterator<Item = Normal>>(operands: I) -> Option<Normal> {
    let mut it = operands.into_iter();
    let first = it.next()?;
    Some(it.fold(first, max))
}

/// The stochastic minimum `min(A, B) = -max(-A, -B)` — the dual operator
/// needed for earliest-arrival (hold-style) analysis.
///
/// ```
/// use sgs_statmath::{clark, Normal};
/// let c = clark::min(Normal::new(1.0, 0.5), Normal::new(1.0, 0.5));
/// // Equal operands: the min has a strictly smaller mean.
/// assert!(c.mean() < 1.0);
/// ```
pub fn min(a: Normal, b: Normal) -> Normal {
    let neg = |n: Normal| Normal::from_mean_var(-n.mean(), n.var());
    let m = max(neg(a), neg(b));
    Normal::from_mean_var(-m.mean(), m.var())
}

/// Left fold of [`min`] over any number of operands; `None` when empty.
pub fn min_n<I: IntoIterator<Item = Normal>>(operands: I) -> Option<Normal> {
    let mut it = operands.into_iter();
    let first = it.next()?;
    Some(it.fold(first, min))
}

/// First derivatives of the Clark moments. Layout: `[mu_a, var_a, mu_b,
/// var_b]` (see [`I_MU_A`] etc.).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClarkGrad {
    /// `mu_c`.
    pub mu: f64,
    /// `var_c`.
    pub var: f64,
    /// Gradient of `mu_c`.
    pub dmu: [f64; 4],
    /// Gradient of `var_c`.
    pub dvar: [f64; 4],
}

/// First and second derivatives of the Clark moments. Layout as in
/// [`ClarkGrad`]; Hessians are symmetric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClarkHess {
    /// `mu_c`.
    pub mu: f64,
    /// `var_c`.
    pub var: f64,
    /// Gradient of `mu_c`.
    pub dmu: [f64; 4],
    /// Gradient of `var_c`.
    pub dvar: [f64; 4],
    /// Hessian of `mu_c`.
    pub hmu: [[f64; 4]; 4],
    /// Hessian of `var_c`.
    pub hvar: [[f64; 4]; 4],
}

/// One max's operands and the intermediates its closed-form derivatives
/// read: `theta`, `alpha`, `phi(alpha)`, `Phi(alpha)`, `1 - Phi(alpha)`,
/// `mu_c` and `E[C^2]`. [`max_grad_frame`] returns it beside the gradient,
/// so a caller that records it can form the Hessian later with
/// [`hess_from_frame`] and no special-function call. The operands travel
/// with the intermediates, so a frame cannot be paired with the wrong ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClarkFrame {
    mu_a: f64,
    var_a: f64,
    mu_b: f64,
    var_b: f64,
    theta: f64,
    alpha: f64,
    phi: f64,
    cdf_p: f64,
    cdf_m: f64,
    mu_c: f64,
    e2: f64,
}

fn frame(mu_a: f64, var_a: f64, mu_b: f64, var_b: f64, eps: f64) -> ClarkFrame {
    let theta = (var_a + var_b + eps * eps).sqrt();
    let alpha = (mu_a - mu_b) / theta;
    let phi = normal_pdf(alpha);
    let cdf_p = normal_cdf_given_pdf(alpha, phi);
    // The complement, not the fused Phi(-alpha): the derivative formulas
    // were pinned (golden transcripts) with `1 - Phi(alpha)`.
    let cdf_m = 1.0 - cdf_p;
    let mu_c = mu_a * cdf_p + mu_b * cdf_m + theta * phi;
    let e2 =
        (var_a + mu_a * mu_a) * cdf_p + (var_b + mu_b * mu_b) * cdf_m + (mu_a + mu_b) * theta * phi;
    ClarkFrame {
        mu_a,
        var_a,
        mu_b,
        var_b,
        theta,
        alpha,
        phi,
        cdf_p,
        cdf_m,
        mu_c,
        e2,
    }
}

/// Clark moments plus exact gradient, in closed form.
///
/// Cheaper than [`max_hess`]; used on hot paths (adjoint/reduced-space
/// gradients) where second derivatives are not needed.
pub fn max_grad(mu_a: f64, var_a: f64, mu_b: f64, var_b: f64, eps: f64) -> ClarkGrad {
    max_grad_frame(mu_a, var_a, mu_b, var_b, eps).0
}

/// [`max_grad`] and the frame it was computed from, for a caller that
/// wants the Hessian at the same operands later ([`hess_from_frame`]).
pub fn max_grad_frame(
    mu_a: f64,
    var_a: f64,
    mu_b: f64,
    var_b: f64,
    eps: f64,
) -> (ClarkGrad, ClarkFrame) {
    let f = frame(mu_a, var_a, mu_b, var_b, eps);
    let ClarkFrame {
        theta,
        alpha,
        phi,
        cdf_p,
        cdf_m,
        mu_c,
        e2,
        ..
    } = f;
    let w = var_a - var_b;
    let s = mu_a + mu_b;

    // d mu_c / d x.
    let dmu = [cdf_p, phi / (2.0 * theta), cdf_m, phi / (2.0 * theta)];

    // d E[C^2] / d x.
    let k_a = theta + w / theta;
    let k_b = theta - w / theta;
    let m = s / (2.0 * theta) - w * alpha / (2.0 * theta * theta);
    let de2 = [
        2.0 * mu_a * cdf_p + phi * k_a,
        cdf_p + phi * m,
        2.0 * mu_b * cdf_m + phi * k_b,
        cdf_m + phi * m,
    ];

    // var_c = E[C^2] - mu_c^2.
    let mut dvar = [0.0; 4];
    for i in 0..4 {
        dvar[i] = de2[i] - 2.0 * mu_c * dmu[i];
    }
    let grad = ClarkGrad {
        mu: mu_c,
        var: clamp_var(e2 - mu_c * mu_c),
        dmu,
        dvar,
    };
    (grad, f)
}

/// Clark moments plus exact gradient and Hessian, in closed form.
///
/// This is the workhorse used by the gate-sizing NLP assembly: both the
/// `max`-equality constraints and the Lagrangian Hessian are built from it.
/// Every entry is validated in tests against hyper-dual evaluation of
/// [`moments_generic`] and against finite differences. It computes the
/// frame [`max_grad_frame`] records and then calls [`hess_from_frame`],
/// so the Hessian formula is written once.
pub fn max_hess(mu_a: f64, var_a: f64, mu_b: f64, var_b: f64, eps: f64) -> ClarkHess {
    hess_from_frame(&frame(mu_a, var_a, mu_b, var_b, eps))
}

/// [`max_hess`] at the operands of a frame recorded by
/// [`max_grad_frame`]: bit for bit the same result, with no
/// special-function call. Like [`max_hess`], it counts its variance clamp.
pub fn hess_from_frame(f: &ClarkFrame) -> ClarkHess {
    let ClarkFrame {
        mu_a,
        var_a,
        mu_b,
        var_b,
        theta,
        alpha,
        phi,
        cdf_p,
        cdf_m,
        mu_c,
        e2,
    } = *f;
    let w = var_a - var_b;
    let s = mu_a + mu_b;
    let d = mu_a - mu_b;
    let t2 = theta * theta;
    let t3 = t2 * theta;
    let t5 = t3 * t2;

    let dmu = [cdf_p, phi / (2.0 * theta), cdf_m, phi / (2.0 * theta)];
    let k_a = theta + w / theta;
    let k_b = theta - w / theta;
    let m = s / (2.0 * theta) - w * d / (2.0 * t3);
    let de2 = [
        2.0 * mu_a * cdf_p + phi * k_a,
        cdf_p + phi * m,
        2.0 * mu_b * cdf_m + phi * k_b,
        cdf_m + phi * m,
    ];

    // Writes a symmetric pair of Hessian entries.
    fn set(h: &mut [[f64; 4]; 4], i: usize, j: usize, v: f64) {
        h[i][j] = v;
        h[j][i] = v;
    }

    // ---- Hessian of mu_c ------------------------------------------------
    let mut hmu = [[0.0; 4]; 4];
    let pot = phi / theta; // phi / theta
    let apot2 = alpha * phi / (2.0 * t2); // alpha phi / (2 theta^2)
    let vv = phi * (alpha * alpha - 1.0) / (4.0 * t3);
    set(&mut hmu, I_MU_A, I_MU_A, pot);
    set(&mut hmu, I_MU_A, I_MU_B, -pot);
    set(&mut hmu, I_MU_B, I_MU_B, pot);
    set(&mut hmu, I_MU_A, I_VAR_A, -apot2);
    set(&mut hmu, I_MU_A, I_VAR_B, -apot2);
    set(&mut hmu, I_MU_B, I_VAR_A, apot2);
    set(&mut hmu, I_MU_B, I_VAR_B, apot2);
    set(&mut hmu, I_VAR_A, I_VAR_A, vv);
    set(&mut hmu, I_VAR_A, I_VAR_B, vv);
    set(&mut hmu, I_VAR_B, I_VAR_B, vv);

    // ---- Hessian of E[C^2] ----------------------------------------------
    let mut he2 = [[0.0; 4]; 4];
    // Derivatives of K_a, K_b, M with respect to the variances.
    let dka_dva = 3.0 / (2.0 * theta) - w / (2.0 * t3);
    let dka_dvb = -1.0 / (2.0 * theta) - w / (2.0 * t3);
    let dkb_dva = -1.0 / (2.0 * theta) + w / (2.0 * t3);
    let dkb_dvb = 3.0 / (2.0 * theta) + w / (2.0 * t3);
    let dm_dva = -s / (4.0 * t3) - d / (2.0 * t3) + 3.0 * w * d / (4.0 * t5);
    let dm_dvb = -s / (4.0 * t3) + d / (2.0 * t3) + 3.0 * w * d / (4.0 * t5);
    let a2p2t2 = alpha * alpha * phi / (2.0 * t2);

    set(
        &mut he2,
        I_MU_A,
        I_MU_A,
        2.0 * cdf_p + 2.0 * mu_a * pot - alpha * phi * k_a / theta,
    );
    set(
        &mut he2,
        I_MU_A,
        I_MU_B,
        -2.0 * mu_a * pot + alpha * phi * k_a / theta,
    );
    set(
        &mut he2,
        I_MU_B,
        I_MU_B,
        2.0 * cdf_m + 2.0 * mu_b * pot + alpha * phi * k_b / theta,
    );
    set(
        &mut he2,
        I_MU_A,
        I_VAR_A,
        -mu_a * alpha * phi / t2 + a2p2t2 * k_a + phi * dka_dva,
    );
    set(
        &mut he2,
        I_MU_A,
        I_VAR_B,
        -mu_a * alpha * phi / t2 + a2p2t2 * k_a + phi * dka_dvb,
    );
    set(
        &mut he2,
        I_MU_B,
        I_VAR_A,
        mu_b * alpha * phi / t2 + a2p2t2 * k_b + phi * dkb_dva,
    );
    set(
        &mut he2,
        I_MU_B,
        I_VAR_B,
        mu_b * alpha * phi / t2 + a2p2t2 * k_b + phi * dkb_dvb,
    );
    // From gv = dE2/dva = Phi(alpha) + phi M:
    //   d/dva Phi(alpha) = -alpha phi / (2 theta^2) = -apot2, and
    //   d/dvb Phi(-alpha) = +apot2 for the gw = dE2/dvb row.
    set(
        &mut he2,
        I_VAR_A,
        I_VAR_A,
        -apot2 + a2p2t2 * m + phi * dm_dva,
    );
    set(
        &mut he2,
        I_VAR_A,
        I_VAR_B,
        -apot2 + a2p2t2 * m + phi * dm_dvb,
    );
    set(
        &mut he2,
        I_VAR_B,
        I_VAR_B,
        apot2 + a2p2t2 * m + phi * dm_dvb,
    );

    // ---- Chain to var_c = E2 - mu_c^2 -------------------------------------
    let mut dvar = [0.0; 4];
    for i in 0..4 {
        dvar[i] = de2[i] - 2.0 * mu_c * dmu[i];
    }
    let mut hvar = [[0.0; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            hvar[i][j] = he2[i][j] - 2.0 * (dmu[i] * dmu[j] + mu_c * hmu[i][j]);
        }
    }

    ClarkHess {
        mu: mu_c,
        var: clamp_var(e2 - mu_c * mu_c),
        dmu,
        dvar,
        hmu,
        hvar,
    }
}

/// Evaluates moments, gradient and Hessian through hyper-dual numbers.
///
/// This is the independent "second implementation" used to validate
/// [`max_hess`]; it is exact but several times slower.
pub fn max_hess_dual(mu_a: f64, var_a: f64, mu_b: f64, var_b: f64, eps: f64) -> ClarkHess {
    let a = Dual2::<4>::var(mu_a, I_MU_A);
    let va = Dual2::<4>::var(var_a, I_VAR_A);
    let b = Dual2::<4>::var(mu_b, I_MU_B);
    let vb = Dual2::<4>::var(var_b, I_VAR_B);
    let (mu, var) = moments_generic(a, va, b, vb, eps);
    ClarkHess {
        mu: mu.val,
        var: clamp_var(var.val),
        dmu: mu.grad,
        dvar: var.grad,
        hmu: mu.hess,
        hvar: var.hess,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CASES: &[[f64; 4]] = &[
        [0.0, 1.0, 0.0, 1.0],
        [1.0, 1.0, 0.0, 1.0],
        [5.0, 2.0, 4.5, 0.5],
        [-3.0, 0.1, -2.9, 0.4],
        [10.0, 4.0, 2.0, 0.01],
        [2.0, 0.01, 10.0, 4.0],
        [7.4, 3.4225, 7.4, 3.4225], // tree-circuit-like values
        [100.0, 25.0, 99.0, 36.0],
        [0.3, 1e-4, 0.30001, 1e-4],
        [-1.0, 9.0, 4.0, 1e-6],
    ];

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn matches_dual_everywhere() {
        for &[ma, va, mb, vb] in CASES {
            let h = max_hess(ma, va, mb, vb, DEFAULT_EPS);
            let d = max_hess_dual(ma, va, mb, vb, DEFAULT_EPS);
            assert!(
                close(h.mu, d.mu, 1e-12),
                "mu mismatch at {ma},{va},{mb},{vb}"
            );
            assert!(
                close(h.var, d.var, 1e-10),
                "var mismatch at {ma},{va},{mb},{vb}"
            );
            for i in 0..4 {
                assert!(
                    close(h.dmu[i], d.dmu[i], 1e-10),
                    "dmu[{i}] {} vs {} at {ma},{va},{mb},{vb}",
                    h.dmu[i],
                    d.dmu[i]
                );
                assert!(
                    close(h.dvar[i], d.dvar[i], 1e-9),
                    "dvar[{i}] {} vs {} at {ma},{va},{mb},{vb}",
                    h.dvar[i],
                    d.dvar[i]
                );
                for j in 0..4 {
                    assert!(
                        close(h.hmu[i][j], d.hmu[i][j], 1e-8),
                        "hmu[{i}][{j}] {} vs {} at {ma},{va},{mb},{vb}",
                        h.hmu[i][j],
                        d.hmu[i][j]
                    );
                    assert!(
                        close(h.hvar[i][j], d.hvar[i][j], 1e-7),
                        "hvar[{i}][{j}] {} vs {} at {ma},{va},{mb},{vb}",
                        h.hvar[i][j],
                        d.hvar[i][j]
                    );
                }
            }
        }
    }

    /// Every field of a [`ClarkHess`], as bits.
    fn hess_bits(h: &ClarkHess) -> Vec<u64> {
        let rows = h.hmu.iter().chain(&h.hvar).flatten();
        [h.mu, h.var]
            .iter()
            .chain(&h.dmu)
            .chain(&h.dvar)
            .chain(rows)
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn recorded_frame_hessian_is_bitwise_max_hess() {
        // The hyper-dual battery's operands, plus the tail on both sides
        // (the certified and the full Phi) and a clamp-prone dominated pair.
        let extra = [
            [12.45, 2.0, 4.5, 1.5],
            [4.5, 1.5, 12.45, 2.0],
            [27.0, 2.0, 4.5, 1.5],
            [2.0, 1e-12, 30.0, 1e-12],
        ];
        for &[ma, va, mb, vb] in CASES.iter().chain(&extra) {
            let want = max_hess(ma, va, mb, vb, DEFAULT_EPS);
            let (g, f) = max_grad_frame(ma, va, mb, vb, DEFAULT_EPS);
            let got = hess_from_frame(&f);
            let at = format!("({ma}, {va}, {mb}, {vb})");
            assert_eq!(hess_bits(&got), hess_bits(&want), "at {at}");
            assert_eq!(g.mu.to_bits(), want.mu.to_bits(), "mu at {at}");
            assert_eq!(g.var.to_bits(), want.var.to_bits(), "var at {at}");
        }
    }

    #[test]
    fn grad_matches_hess_paths() {
        for &[ma, va, mb, vb] in CASES {
            let g = max_grad(ma, va, mb, vb, DEFAULT_EPS);
            let h = max_hess(ma, va, mb, vb, DEFAULT_EPS);
            assert_eq!(g.mu, h.mu);
            assert_eq!(g.var, h.var);
            assert_eq!(g.dmu, h.dmu);
            assert_eq!(g.dvar, h.dvar);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let eps = DEFAULT_EPS;
        for &[ma, va, mb, vb] in CASES {
            let g = max_grad(ma, va, mb, vb, eps);
            let h = 1e-6;
            let num = |i: usize| -> (f64, f64) {
                let mut p = [ma, va, mb, vb];
                let mut m = [ma, va, mb, vb];
                let step = h * (1.0 + p[i].abs());
                p[i] += step;
                m[i] -= step;
                let fp = moments_generic(p[0], p[1], p[2], p[3], eps);
                let fm = moments_generic(m[0], m[1], m[2], m[3], eps);
                ((fp.0 - fm.0) / (2.0 * step), (fp.1 - fm.1) / (2.0 * step))
            };
            for i in 0..4 {
                let (dmu_n, dvar_n) = num(i);
                assert!(close(g.dmu[i], dmu_n, 1e-5), "dmu[{i}] fd mismatch");
                assert!(close(g.dvar[i], dvar_n, 1e-4), "dvar[{i}] fd mismatch");
            }
        }
    }

    #[test]
    fn hessians_symmetric() {
        for &[ma, va, mb, vb] in CASES {
            let h = max_hess(ma, va, mb, vb, DEFAULT_EPS);
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(h.hmu[i][j], h.hmu[j][i]);
                    assert_eq!(h.hvar[i][j], h.hvar[j][i]);
                }
            }
        }
    }

    #[test]
    fn commutative() {
        for &[ma, va, mb, vb] in CASES {
            let ab = max(Normal::from_mean_var(ma, va), Normal::from_mean_var(mb, vb));
            let ba = max(Normal::from_mean_var(mb, vb), Normal::from_mean_var(ma, va));
            assert!(close(ab.mean(), ba.mean(), 1e-12));
            assert!(close(ab.var(), ba.var(), 1e-10));
        }
    }

    #[test]
    fn dominant_operand_limit() {
        // When A is far above B, max(A, B) ~ A.
        let a = Normal::new(100.0, 1.0);
        let b = Normal::new(0.0, 1.0);
        let c = max(a, b);
        assert!(close(c.mean(), 100.0, 1e-12));
        assert!(close(c.var(), 1.0, 1e-12));
    }

    #[test]
    fn degenerate_deterministic_max() {
        let a = Normal::certain(3.0);
        let b = Normal::certain(5.0);
        let c = max(a, b);
        assert!((c.mean() - 5.0).abs() < 1e-8);
        assert!(c.sigma() < 1e-8);
    }

    #[test]
    fn mean_dominates_operands() {
        for &[ma, va, mb, vb] in CASES {
            let c = max(Normal::from_mean_var(ma, va), Normal::from_mean_var(mb, vb));
            assert!(c.mean() >= ma.max(mb) - 1e-12, "max mean below operands");
        }
    }

    #[test]
    fn equal_operands_reduce_sigma() {
        // Known closed form: max of two iid N(mu, s^2) has mean
        // mu + s/sqrt(pi) and variance s^2 (1 - 1/pi).
        let mu = 2.0;
        let s = 1.5;
        let c = max(Normal::new(mu, s), Normal::new(mu, s));
        let want_mean = mu + s / std::f64::consts::PI.sqrt();
        let want_var = s * s * (1.0 - 1.0 / std::f64::consts::PI);
        assert!(close(c.mean(), want_mean, 1e-9));
        assert!(close(c.var(), want_var, 1e-9));
    }

    #[test]
    fn min_is_dual_of_max() {
        for &[ma, va, mb, vb] in CASES {
            let a = Normal::from_mean_var(ma, va);
            let b = Normal::from_mean_var(mb, vb);
            let mn = min(a, b);
            // E[min] + E[max] = E[A] + E[B] for any pair.
            let mx = max(a, b);
            assert!(
                close(mn.mean() + mx.mean(), ma + mb, 1e-9),
                "identity broken at {ma},{va},{mb},{vb}"
            );
            assert!(mn.mean() <= ma.min(mb) + 1e-12);
        }
    }

    #[test]
    fn min_matches_monte_carlo() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let a = Normal::new(4.0, 1.0);
        let b = Normal::new(4.5, 0.8);
        let exact = min(a, b);
        let mut rng = StdRng::seed_from_u64(99);
        let (m, v) = crate::mc::moments(
            (0..200_000)
                .map(|_| crate::mc::sample(a, &mut rng).min(crate::mc::sample(b, &mut rng))),
        );
        assert!(close(exact.mean(), m, 0.01));
        assert!(close(exact.var(), v, 0.05));
    }

    #[test]
    fn max_n_folds_left() {
        let xs = [
            Normal::new(1.0, 0.3),
            Normal::new(2.0, 0.4),
            Normal::new(1.5, 0.2),
        ];
        let folded = max_n(xs).unwrap();
        let manual = max(max(xs[0], xs[1]), xs[2]);
        assert_eq!(folded, manual);
        assert!(max_n(std::iter::empty()).is_none());
        assert_eq!(max_n([xs[0]]).unwrap(), xs[0]);
    }
}

/// Batched Clark maximum over structure-of-arrays operands: lane `i`
/// computes `max(N(mu_a[i], var_a[i]), N(mu_b[i], var_b[i]))` into
/// `(out_mu[i], out_var[i])`.
///
/// Every lane is **bit-identical** to [`max_eps`] on the same operands,
/// for any batch size and any position within the batch: both run the same
/// scalar moment routine (one fused `phi`/`Phi` evaluation per lane), with
/// the same smoothing floor and the same counted variance clamp. Operands
/// stream from contiguous arrays, and clamp firings are accumulated
/// locally and published to the process-wide counter (see
/// [`var_clamp_count`]) with a single atomic add per call.
///
/// # Panics
///
/// Panics if the six slices do not all have the same length.
pub fn max_batch(
    mu_a: &[f64],
    var_a: &[f64],
    mu_b: &[f64],
    var_b: &[f64],
    eps: f64,
    out_mu: &mut [f64],
    out_var: &mut [f64],
) {
    let n = mu_a.len();
    assert_eq!(var_a.len(), n, "batch length mismatch");
    assert_eq!(mu_b.len(), n, "batch length mismatch");
    assert_eq!(var_b.len(), n, "batch length mismatch");
    assert_eq!(out_mu.len(), n, "batch length mismatch");
    assert_eq!(out_var.len(), n, "batch length mismatch");
    let mut clamps = 0u64;
    for i in 0..n {
        let (mu, var) = moments(mu_a[i], var_a[i], mu_b[i], var_b[i], eps);
        let (var, clamp) = clamped(var);
        out_mu[i] = mu;
        out_var[i] = var;
        clamps += u64::from(clamp);
    }
    if clamps > 0 {
        count_clamps(clamps);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    /// Operand sets exercising dominance, near-ties and clamp-prone
    /// cancellation, tiled to arbitrary batch lengths.
    fn operands(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let base: &[[f64; 4]] = &[
            [0.0, 1.0, 0.0, 1.0],
            [5.0, 2.0, 4.5, 0.5],
            [-3.0, 0.1, -2.9, 0.4],
            [10.0, 4.0, 2.0, 0.01],
            [0.3, 1e-4, 0.30001, 1e-4],
            [-1.0, 9.0, 4.0, 1e-6],
            [100.0, 25.0, 99.0, 36.0],
            [2.0, 1e-12, 30.0, 1e-12], // dominant: clamp-prone
        ];
        let pick = |i: usize, j: usize| base[i % base.len()][j];
        (
            (0..n).map(|i| pick(i, 0)).collect(),
            (0..n).map(|i| pick(i, 1)).collect(),
            (0..n).map(|i| pick(i, 2)).collect(),
            (0..n).map(|i| pick(i, 3)).collect(),
        )
    }

    #[test]
    fn moments_bitwise_match_scalar_at_every_length() {
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
            let (ma, va, mb, vb) = operands(n);
            let mut om = vec![0.0; n];
            let mut ov = vec![0.0; n];
            max_batch(&ma, &va, &mb, &vb, DEFAULT_EPS, &mut om, &mut ov);
            for i in 0..n {
                let want = max_eps(
                    Normal::from_mean_var(ma[i], va[i]),
                    Normal::from_mean_var(mb[i], vb[i]),
                    DEFAULT_EPS,
                );
                assert_eq!(om[i].to_bits(), want.mean().to_bits(), "mu lane {i} of {n}");
                assert_eq!(ov[i].to_bits(), want.var().to_bits(), "var lane {i} of {n}");
            }
        }
    }

    #[test]
    fn clamp_counter_advances_exactly_as_scalar() {
        let (ma, va, mb, vb) = operands(64);
        // Scalar pass: count clamps the one-pair way.
        let before = var_clamp_count();
        for i in 0..64 {
            let _ = max_eps(
                Normal::from_mean_var(ma[i], va[i]),
                Normal::from_mean_var(mb[i], vb[i]),
                DEFAULT_EPS,
            );
        }
        let scalar_clamps = var_clamp_count() - before;
        // Batched pass must advance the counter by the same amount.
        let mut om = vec![0.0; 64];
        let mut ov = vec![0.0; 64];
        let before = var_clamp_count();
        max_batch(&ma, &va, &mb, &vb, DEFAULT_EPS, &mut om, &mut ov);
        assert_eq!(var_clamp_count() - before, scalar_clamps);
    }

    #[test]
    #[should_panic(expected = "batch length mismatch")]
    fn length_mismatch_rejected() {
        let mut om = [0.0; 2];
        let mut ov = [0.0; 2];
        max_batch(
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[0.0],
            &[1.0, 1.0],
            DEFAULT_EPS,
            &mut om,
            &mut ov,
        );
    }
}

#[cfg(test)]
mod dominated_tests {
    use super::*;

    /// [`dominated`] on raw operands, behind the prefix and the gate of
    /// [`moments`].
    fn try_dominated(mu_a: f64, var_a: f64, mu_b: f64, var_b: f64) -> Option<(f64, f64)> {
        let theta = (var_a + var_b + DEFAULT_EPS * DEFAULT_EPS).sqrt();
        let alpha = (mu_a - mu_b) / theta;
        if alpha.abs() >= DOMINANT_ALPHA {
            dominated(mu_a, var_a, mu_b, var_b, theta, alpha, normal_pdf(alpha))
        } else {
            None
        }
    }

    fn assert_matches_generic(mu_a: f64, var_a: f64, mu_b: f64, var_b: f64) {
        let got = moments(mu_a, var_a, mu_b, var_b, DEFAULT_EPS);
        let want = moments_generic(mu_a, var_a, mu_b, var_b, DEFAULT_EPS);
        let at = format!("({mu_a:e}, {var_a:e}, {mu_b:e}, {var_b:e})");
        assert_eq!(got.0.to_bits(), want.0.to_bits(), "mu at {at}");
        assert_eq!(got.1.to_bits(), want.1.to_bits(), "var at {at}");
    }

    /// Arrival-like operand pairs at `alpha ~ a`: a non-dominant arrival
    /// `N(mu, sigma_s^2)` and a dominant one `N(mu + a theta, sigma_d^2)`,
    /// in both orientations. The shapes span early and late arrivals, and
    /// sigmas from a tenth of a percent to a quarter of the mean (gate
    /// delays carry `sigma = 0.25 mu`; arrivals are sums and maxes of them).
    fn arrival_pairs(a: f64) -> impl Iterator<Item = [f64; 4]> {
        let shapes = [
            (0.9, 0.2, 0.05),
            (1.3, 0.3, 0.1),
            (4.7, 0.5, 0.9),
            (12.5, 1.6, 1.2),
            (37.0, 2.0, 3.5),
            (180.0, 9.0, 4.0),
            (2.0, 1e-3, 1e-6),
        ];
        shapes.into_iter().flat_map(move |(mu, sigma_s, sigma_d)| {
            let (var_s, var_d) = (sigma_s * sigma_s, sigma_d * sigma_d);
            let mu_d = mu + a * (var_d + var_s + DEFAULT_EPS * DEFAULT_EPS).sqrt();
            [[mu_d, var_d, mu, var_s], [mu, var_s, mu_d, var_d]]
        })
    }

    #[test]
    fn dense_grid_is_bitwise_the_generic_formula_and_the_shortcut_fires() {
        let (mut far, mut far_hits, mut near_hits) = (0usize, 0usize, 0usize);
        let n = 20_000;
        for i in 0..=n {
            let a = DOMINANT_ALPHA + (45.0 - DOMINANT_ALPHA) * f64::from(i) / f64::from(n);
            for [ma, va, mb, vb] in arrival_pairs(a) {
                assert_matches_generic(ma, va, mb, vb);
                let alpha = (ma - mb) / (va + vb + DEFAULT_EPS * DEFAULT_EPS).sqrt();
                let hit = try_dominated(ma, va, mb, vb).is_some();
                if alpha.abs() >= 10.0 {
                    far += 1;
                    far_hits += usize::from(hit);
                } else {
                    near_hits += usize::from(hit);
                }
            }
        }
        assert!(
            far_hits * 10 >= far * 9,
            "shortcut fired on {far_hits} of {far} points at |alpha| >= 10"
        );
        assert!(near_hits > 0, "shortcut never fired below |alpha| = 10");
    }

    #[test]
    fn threshold_neighbourhood_is_bitwise_the_generic_formula() {
        // theta = 1 exactly and mu_b = 0, so alpha is mu_a to the ulp.
        let walk = |x: f64| {
            let up = std::iter::successors(Some(x), |v| Some(v.next_up())).take(64);
            let down = std::iter::successors(Some(x.next_down()), |v| Some(v.next_down()));
            up.chain(down.take(64))
        };
        // The gate, and the crossing of phi(alpha) / alpha with 2^-54.
        for edge in [DOMINANT_ALPHA, 8.294_030_762_685_44] {
            for x in walk(edge) {
                assert_matches_generic(x, 0.5, 0.0, 0.5);
                assert_matches_generic(0.0, 0.5, x, 0.5);
                // Larger means: alpha moves by 64 (base 1e3) or 512 (base
                // 5e3) of its ulps per step of mu_a.
                for base in [1e3, 5e3] {
                    let ma = base + x;
                    for k in 0..32 {
                        let ma = f64::from_bits(ma.to_bits() + k);
                        assert_matches_generic(ma, 0.5, base, 0.5);
                        assert_matches_generic(base, 0.5, ma, 0.5);
                    }
                }
            }
        }
    }

    #[test]
    fn gate_loses_no_certificate() {
        // Below DOMINANT_ALPHA the first condition of `dominated` fails, so
        // skipping the certificate there changes nothing; just above the
        // crossing it holds.
        let n = 100_000;
        for i in 0..n {
            let x = 4.0 + (DOMINANT_ALPHA - 4.0) * f64::from(i) / f64::from(n);
            assert!(normal_pdf(x) / x >= f64::EPSILON / 4.0, "at {x}");
        }
        let below = DOMINANT_ALPHA.next_down();
        assert!(normal_pdf(below) / below >= f64::EPSILON / 4.0);
        assert!(normal_pdf(8.3) / 8.3 < f64::EPSILON / 4.0);
    }

    /// Operands, found by random search, where some addend does move the
    /// result off the dominant operand, so the certificate must refuse.
    /// Each needs a particular check: `theta phi` (the mean rounds up to
    /// 512), `mu_S q` or `E_S q` (the mean rounds to -256), and `E_S q` or
    /// the `(mu_a + mu_b) theta phi` term (the variance goes negative).
    const MOVED_BY_AN_ADDEND: [[f64; 4]; 3] = [
        [
            511.999_999_999_999_94,
            2_636.784_483_067_839_6,
            -253.445_784_850_950_28,
            5_808.915_061_785_125_5,
        ],
        [
            -255.999_999_999_999_97,
            70.930_133_450_341_27,
            -366.948_683_948_050_9,
            106.951_067_219_704_8,
        ],
        [-2.966_632_483_014_525_4, 0.217_548_049_873_620_4, 1.0, 0.0],
    ];

    #[test]
    fn certificate_refuses_when_an_addend_moves_the_result() {
        for [ma, va, mb, vb] in MOVED_BY_AN_ADDEND {
            for (ma, va, mb, vb) in [(ma, va, mb, vb), (mb, vb, ma, va)] {
                let (mu_d, var_d) = if ma > mb { (ma, va) } else { (mb, vb) };
                let naive = (mu_d, (var_d + mu_d * mu_d) - mu_d * mu_d);
                let want = moments_generic(ma, va, mb, vb, DEFAULT_EPS);
                assert!(
                    want.0 != naive.0 || want.1 != naive.1,
                    "{ma} {va} {mb} {vb}: no addend moves the result"
                );
                assert_eq!(try_dominated(ma, va, mb, vb), None);
                assert_matches_generic(ma, va, mb, vb);
            }
        }
    }

    #[test]
    fn zero_subnormal_and_infinite_dominant_means_fail_the_certificate() {
        let tiny = f64::from_bits(1); // the smallest subnormal
        for mu_d in [0.0, -0.0, tiny, -tiny, f64::MIN_POSITIVE] {
            // alpha = mu_d / theta would be tiny; use a negative
            // non-dominant mean far below to reach the tail.
            assert_eq!(try_dominated(mu_d, 1e-6, -1e3, 1e-6), None, "mu_d {mu_d:e}");
            assert_eq!(try_dominated(-1e3, 1e-6, mu_d, 1e-6), None, "mu_d {mu_d:e}");
            assert_matches_generic(mu_d, 1e-6, -1e3, 1e-6);
            assert_matches_generic(-1e3, 1e-6, mu_d, 1e-6);
        }
        assert_eq!(try_dominated(f64::INFINITY, 1.0, 0.0, 1.0), None);
        assert_eq!(try_dominated(f64::NAN, 1.0, 0.0, 1.0), None);
        // A plain dominant operand passes.
        assert_eq!(
            try_dominated(100.0, 1.0, 1.0, 1.0),
            Some((100.0, (1.0 + 100.0 * 100.0) - 100.0 * 100.0))
        );
    }

    #[test]
    fn quarter_ulp_edges() {
        assert_eq!(quarter_ulp(1.0), f64::EPSILON / 4.0);
        assert_eq!(quarter_ulp(-1.5), f64::EPSILON / 4.0);
        assert_eq!(quarter_ulp(8.0), 2.0 * f64::EPSILON);
        for x in [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NAN,
        ] {
            assert_eq!(quarter_ulp(x), 0.0, "{x:e}");
        }
        // Anything below the quarter leaves x unchanged, either side of a
        // power of two, at the top of the range too.
        for x in [1.0, 3.0, 1024.0, 1e300, f64::MAX, 2f64.powi(-900)] {
            let t = quarter_ulp(x).next_down();
            for x in [x, -x] {
                assert_eq!(x + t, x, "{x:e} + {t:e}");
                assert_eq!(x - t, x, "{x:e} - {t:e}");
            }
        }
        // ... and the bound is tight at a power of two from below.
        assert_ne!(1.0 - 2.0 * quarter_ulp(1.0), 1.0);
    }
}

#[cfg(test)]
mod tail_bracket_tests {
    use super::*;
    use crate::special::BRACKET_DEPTHS;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// [`tail_certified`] on raw operands, behind the prefix and the gate
    /// of [`moments`] (and after [`dominated`] refuses).
    fn try_certified(mu_a: f64, var_a: f64, mu_b: f64, var_b: f64) -> Option<(f64, f64)> {
        let theta = (var_a + var_b + DEFAULT_EPS * DEFAULT_EPS).sqrt();
        let alpha = (mu_a - mu_b) / theta;
        let phi = normal_pdf(alpha);
        let gated = alpha.abs() >= TAIL_START
            && phi != 0.0
            && (alpha.abs() < DOMINANT_ALPHA
                || dominated(mu_a, var_a, mu_b, var_b, theta, alpha, phi).is_none());
        gated
            .then(|| tail_certified(mu_a, var_a, mu_b, var_b, theta, alpha, phi))
            .flatten()
    }

    /// `clark::max` against the textual formula plus the clamp, bit for bit.
    fn assert_max_matches_generic(mu_a: f64, var_a: f64, mu_b: f64, var_b: f64) {
        let got = max(
            Normal::from_mean_var(mu_a, var_a),
            Normal::from_mean_var(mu_b, var_b),
        );
        let want = moments_generic(mu_a, var_a, mu_b, var_b, DEFAULT_EPS);
        let at = format!("({mu_a:e}, {var_a:e}, {mu_b:e}, {var_b:e})");
        assert_eq!(got.mean().to_bits(), want.0.to_bits(), "mu at {at}");
        assert_eq!(
            got.var().to_bits(),
            want.1.max(0.0).to_bits(),
            "var at {at}"
        );
    }

    /// Arrival-like operand pairs at `alpha ~ a`: an arrival `N(mu, v_s)`
    /// and a later one `N(mu + a theta, v_d)`, in both orientations, with
    /// means from 20 to 150 and variances from 1e-2 to 10.
    fn arrival_pairs(a: f64) -> impl Iterator<Item = [f64; 4]> {
        let shapes = [
            (20.0, 1e-2, 0.04),
            (23.5, 0.6, 0.2),
            (41.0, 2.3, 1e-2),
            (64.0, 0.15, 3.1),
            (88.8, 7.5, 10.0),
            (117.0, 10.0, 0.9),
            (150.0, 4.4, 6.2),
        ];
        shapes.into_iter().flat_map(move |(mu, var_s, var_d)| {
            let mu_d = mu + a * (var_d + var_s + DEFAULT_EPS * DEFAULT_EPS).sqrt();
            [[mu_d, var_d, mu, var_s], [mu, var_s, mu_d, var_d]]
        })
    }

    #[test]
    fn dense_grid_is_bitwise_the_generic_formula_and_the_bracket_certifies() {
        let (mut points, mut certified) = (0usize, 0usize);
        let n = 20_000;
        for i in 0..=n {
            let a = TAIL_START + (DOMINANT_ALPHA - TAIL_START) * f64::from(i) / f64::from(n);
            for [ma, va, mb, vb] in arrival_pairs(a) {
                assert_max_matches_generic(ma, va, mb, vb);
                points += 1;
                certified += usize::from(try_certified(ma, va, mb, vb).is_some());
            }
        }
        // Only speed depends on the bracket depths; a table too shallow to
        // certify would fall back to the full tail on every max. Near 4 some
        // maxes do fall back, so the grid checks the fallback too.
        assert!(
            certified * 100 >= points * 99 && certified < points,
            "the bracket certified {certified} of {points} points"
        );
    }

    #[test]
    fn ulp_walks_at_the_tail_start_and_every_bracket_edge_are_bitwise() {
        // theta = 1 exactly and mu_b = 0, so alpha is mu_a to the ulp.
        let walk = |x: f64| {
            let up = std::iter::successors(Some(x), |v| Some(v.next_up())).take(64);
            let down = std::iter::successors(Some(x.next_down()), |v| Some(v.next_down()));
            up.chain(down.take(64))
        };
        let edges = std::iter::once(TAIL_START).chain(BRACKET_DEPTHS.iter().map(|&(b, _)| b));
        for edge in edges {
            for x in walk(edge) {
                assert_max_matches_generic(x, 0.5, 0.0, 0.5);
                assert_max_matches_generic(0.0, 0.5, x, 0.5);
                // Arrival-like means: alpha moves by 4 (base 20) or 32
                // (base 150) of its ulps per step of mu_a near 4.
                for base in [20.0, 150.0] {
                    let ma = base + x;
                    for k in 0..16 {
                        let ma = f64::from_bits(ma.to_bits() + k);
                        assert_max_matches_generic(ma, 0.5, base, 0.5);
                        assert_max_matches_generic(base, 0.5, ma, 0.5);
                    }
                }
            }
        }
    }

    /// `10^u` for `u` uniform in `[lo, hi)`.
    fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
        10f64.powf(rng.gen_range(lo..hi))
    }

    #[test]
    fn random_pairs_are_bitwise_the_generic_formula() {
        let mut rng = StdRng::seed_from_u64(0x7a11_b7ac);
        for i in 0..1_000_000u32 {
            let (va, vb) = (
                log_uniform(&mut rng, -4.0, 2.0),
                log_uniform(&mut rng, -4.0, 2.0),
            );
            let mb = rng.gen_range(-50.0..300.0);
            // Three in four draws aim alpha at the tail below the dominance
            // gate, in either sign; the rest pair two unrelated means.
            let ma = if i % 4 == 3 {
                rng.gen_range(-50.0..300.0)
            } else {
                let a = rng.gen_range(TAIL_START..DOMINANT_ALPHA);
                let a = if rng.gen_bool(0.5) { a } else { -a };
                mb + a * (va + vb + DEFAULT_EPS * DEFAULT_EPS).sqrt()
            };
            assert_max_matches_generic(ma, va, mb, vb);
        }
    }
}

/// Moments of `max(A, B)` for **correlated** jointly normal operands with
/// correlation coefficient `rho` — Clark's general case, which the paper
/// lists as future work ("dealing with correlations between stochastic
/// variables in the circuit, as a result of reconverging paths").
///
/// The formulas are the independent ones with
/// `theta^2 = var_a + var_b - 2 rho sigma_a sigma_b`:
///
/// ```
/// use sgs_statmath::{clark, Normal};
/// let a = Normal::new(5.0, 1.0);
/// // Perfectly correlated identical operands: max(A, A) = A.
/// let c = clark::max_correlated(a, a, 1.0);
/// assert!((c.mean() - 5.0).abs() < 1e-6);
/// assert!((c.sigma() - 1.0).abs() < 1e-3);
/// ```
///
/// # Panics
///
/// Panics if `rho` is outside `[-1, 1]`.
pub fn max_correlated(a: Normal, b: Normal, rho: f64) -> Normal {
    assert!(
        (-1.0..=1.0).contains(&rho),
        "correlation out of range: {rho}"
    );
    let (sa, sb) = (a.sigma(), b.sigma());
    let theta2 = (a.var() + b.var() - 2.0 * rho * sa * sb).max(0.0) + DEFAULT_EPS * DEFAULT_EPS;
    let theta = theta2.sqrt();
    let alpha = (a.mean() - b.mean()) / theta;
    let (phi, cdf_p, _) = normal_pdf_cdf(alpha);
    let cdf_m = 1.0 - cdf_p;
    let mu = a.mean() * cdf_p + b.mean() * cdf_m + theta * phi;
    let e2 = (a.var() + a.mean() * a.mean()) * cdf_p
        + (b.var() + b.mean() * b.mean()) * cdf_m
        + (a.mean() + b.mean()) * theta * phi;
    Normal::from_mean_var(mu, clamp_var(e2 - mu * mu))
}

/// Clark's covariance propagation: for `C = max(A, B)` and any variable
/// `X` jointly normal with both, `cov(C, X) = cov(A, X) Phi(alpha) +
/// cov(B, X) Phi(-alpha)`. This returns the *tightness probability*
/// `Phi(alpha)` (the weight of operand A), which is all a canonical-form
/// SSTA needs to propagate sensitivities through a max.
pub fn tightness(a: Normal, b: Normal, rho: f64) -> f64 {
    assert!(
        (-1.0..=1.0).contains(&rho),
        "correlation out of range: {rho}"
    );
    let (sa, sb) = (a.sigma(), b.sigma());
    let theta2 = (a.var() + b.var() - 2.0 * rho * sa * sb).max(0.0) + DEFAULT_EPS * DEFAULT_EPS;
    let alpha = (a.mean() - b.mean()) / theta2.sqrt();
    crate::special::normal_cdf(alpha)
}

#[cfg(test)]
mod correlated_tests {
    use super::*;
    use crate::mc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn rho_zero_matches_independent() {
        let a = Normal::new(3.0, 1.0);
        let b = Normal::new(2.5, 0.7);
        let ind = max(a, b);
        let cor = max_correlated(a, b, 0.0);
        assert!(close(ind.mean(), cor.mean(), 1e-12));
        assert!(close(ind.var(), cor.var(), 1e-10));
    }

    #[test]
    fn full_correlation_identical_operands_is_identity() {
        let a = Normal::new(-2.0, 1.5);
        let c = max_correlated(a, a, 1.0);
        assert!(close(c.mean(), a.mean(), 1e-6));
        assert!(close(c.var(), a.var(), 1e-4));
    }

    #[test]
    fn correlation_shrinks_max_mean_bump() {
        // For equal operands, the mean bump theta phi(0) shrinks as rho
        // grows: correlated paths do not "help each other up".
        let a = Normal::new(5.0, 1.0);
        let bump = |rho: f64| max_correlated(a, a, rho).mean() - 5.0;
        assert!(bump(0.0) > bump(0.5));
        assert!(bump(0.5) > bump(0.9));
        assert!(bump(0.9) > -1e-12);
    }

    #[test]
    fn correlated_max_matches_monte_carlo() {
        // Sample correlated pairs via a shared component.
        for &rho in &[-0.6, -0.2, 0.3, 0.8] {
            let a = Normal::new(4.0, 1.2);
            let b = Normal::new(4.4, 0.9);
            let exact = max_correlated(a, b, rho);
            let mut rng = StdRng::seed_from_u64(777);
            let n = 300_000;
            let (rho_abs, sign) = (rho.abs(), rho.signum());
            let (mean, var) = mc::moments((0..n).map(|_| {
                let shared = mc::standard_normal(&mut rng);
                let za = (rho_abs).sqrt() * shared
                    + (1.0 - rho_abs).sqrt() * mc::standard_normal(&mut rng);
                let zb = sign * rho_abs.sqrt() * shared
                    + (1.0 - rho_abs).sqrt() * mc::standard_normal(&mut rng);
                let xa = a.mean() + a.sigma() * za;
                let xb = b.mean() + b.sigma() * zb;
                xa.max(xb)
            }));
            assert!(
                close(exact.mean(), mean, 0.01),
                "rho {rho}: mean {} vs MC {mean}",
                exact.mean()
            );
            assert!(
                close(exact.var(), var, 0.05),
                "rho {rho}: var {} vs MC {var}",
                exact.var()
            );
        }
    }

    #[test]
    fn tightness_is_probability_and_monotone() {
        let b = Normal::new(5.0, 1.0);
        let mut prev = 0.0;
        for i in 0..20 {
            let mu = 2.0 + 0.3 * f64::from(i);
            let t = tightness(Normal::new(mu, 1.0), b, 0.2);
            assert!((0.0..=1.0).contains(&t));
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    #[should_panic(expected = "correlation out of range")]
    fn rho_checked() {
        let _ = max_correlated(Normal::certain(0.0), Normal::certain(0.0), 1.5);
    }
}
