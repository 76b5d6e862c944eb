//! Special functions: standard-normal density, distribution and quantile.
//!
//! The cumulative distribution is computed without an external `erf`:
//! Marsaglia's Taylor expansion is used in the central region `|x| < 4`
//! (all terms share a sign, so there is no internal cancellation) and a
//! backward continued fraction is used in the tails. Absolute accuracy is at
//! the level of machine epsilon everywhere, which is what the Clark-moment
//! formulas and their derivatives require.
//!
//! The Clark kernels take `phi(x)`, `Phi(x)` and `Phi(-x)` together from one
//! `exp` and one series or continued-fraction pass (`normal_pdf_cdf`, or
//! `normal_pdf` and then `normal_cdf_pair` for a caller that may not need
//! the distribution); [`normal_cdf`] is the middle component of that
//! evaluation.
//!
//! In the tails every value is bitwise the 120-level continued fraction,
//! reached through a bracket: the fractions cut at depth `d` and `d + 1`
//! enclose it. `tail_q` cuts at the depths of `TAIL_DEPTHS` and needs the
//! two ends to give the same `Q`. `tail_bracket` cuts at about half those
//! depths (`BRACKET_DEPTHS`) and hands both ends to the Clark moments,
//! which need only that their own results agree at both ends (see
//! `clark::tail_certified`). That holds for about 99 % of the tail maxes
//! of the `whatif_stream` benchmark; the rest fall back to `tail_q`.

/// `1 / sqrt(2 * pi)`.
pub const FRAC_1_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// Where the central series hands over to the continued-fraction tail.
pub(crate) const TAIL_START: f64 = 4.0;

/// Levels of the reference continued fraction. Every tail value is bitwise
/// the one this many levels give; the shorter depths of [`TAIL_DEPTHS`] are
/// only a faster way to reach it (see [`tail_q`]).
const TAIL_LEVELS: u32 = 120;

/// Continued-fraction depth by `|x|`: the first `(bound, depth)` entry with
/// `|x| < bound` gives the depth, and `|x|` past the last bound uses
/// [`TAIL_DEPTH_FAR`]. The fraction converges faster as `|x|`
/// grows, so the depth falls. Each depth is close to the smallest that
/// reproduced the reference on a 20,000-point grid over its interval. A
/// point where it falls short is caught by the certificate in [`tail_q`],
/// which then evaluates the reference: fewer than 1 in 2,000 of 200,000
/// random points per interval did. Only speed depends on this table, never
/// the value.
const TAIL_DEPTHS: [(f64, u32); 11] = [
    (4.5, 44),
    (5.0, 39),
    (5.5, 35),
    (6.0, 28),
    (7.0, 26),
    (8.0, 23),
    (10.0, 20),
    (12.0, 17),
    (16.0, 13),
    (20.0, 10),
    (30.0, 9),
];

/// Continued-fraction depth for `|x| >= 30`.
const TAIL_DEPTH_FAR: u32 = 8;

/// The depths of [`tail_bracket`], by `|x|` as in [`TAIL_DEPTHS`]: half of
/// each of those depths, rounded up. At these depths the two ends of the
/// bracket practically never give the same `Q`, but a Clark max needs
/// less: in the `whatif_stream` benchmark its moments agree at both ends
/// for about 96 % of the tail maxes with `|x| < 4.5` and all but fewer than
/// 1 in 10,000 beyond, and it evaluates [`tail_q`] for the rest. Only speed
/// depends on this table, never the value.
pub(crate) const BRACKET_DEPTHS: [(f64, u32); 11] = [
    (4.5, 22),
    (5.0, 20),
    (5.5, 18),
    (6.0, 14),
    (7.0, 13),
    (8.0, 12),
    (10.0, 10),
    (12.0, 9),
    (16.0, 7),
    (20.0, 5),
    (30.0, 5),
];

/// Bracket depth for `|x| >= 30`.
const BRACKET_DEPTH_FAR: u32 = 4;

/// The depth a `(bound, depth)` table gives `x`: that of the first entry
/// with `x < bound`, else `far`.
#[inline]
fn table_depth(table: &[(f64, u32)], far: u32, x: f64) -> u32 {
    table
        .iter()
        .find(|&&(bound, _)| x < bound)
        .map_or(far, |&(_, d)| d)
}

/// The standard normal probability density `phi(x) = exp(-x^2/2)/sqrt(2 pi)`.
///
/// ```
/// use sgs_statmath::special::normal_pdf;
/// assert!((normal_pdf(0.0) - 0.3989422804014327).abs() < 1e-15);
/// ```
#[inline]
pub fn normal_pdf(x: f64) -> f64 {
    FRAC_1_SQRT_2PI * (-0.5 * x * x).exp()
}

/// The standard normal cumulative distribution `Phi(x)`.
///
/// Uses Marsaglia's series for `|x| < 4` and a backward continued fraction
/// for the tails, giving full double-precision absolute accuracy and high
/// relative accuracy in the tails.
///
/// ```
/// use sgs_statmath::special::normal_cdf;
/// assert!((normal_cdf(0.0) - 0.5).abs() < 1e-15);
/// assert!((normal_cdf(1.0) - 0.8413447460685429).abs() < 1e-13);
/// ```
#[inline]
pub fn normal_cdf(x: f64) -> f64 {
    normal_pdf_cdf(x).1
}

/// `(phi(x), Phi(x), Phi(-x))` from one `exp` and one series or
/// continued-fraction pass.
///
/// Each component is bitwise equal to the separate evaluation:
/// [`normal_pdf`]`(x)`, [`normal_cdf`]`(x)` and [`normal_cdf`]`(-x)`. In the
/// central region the series sum is odd in `x`, so `Phi(-x) = 1/2 - phi(x)
/// sum` exactly; in the tails both orientations share one upper-tail value
/// `Q(|x|)`, and `phi` is even, so one `exp` serves all three.
#[inline]
pub(crate) fn normal_pdf_cdf(x: f64) -> (f64, f64, f64) {
    let pdf = normal_pdf(x);
    let (cdf, cdf_neg) = normal_cdf_pair(x, pdf);
    (pdf, cdf, cdf_neg)
}

/// `(Phi(x), Phi(-x))` given `pdf = phi(x)`: the last two components of
/// [`normal_pdf_cdf`], for a caller that needs `phi(x)` before it knows
/// whether it needs the distribution.
///
/// For `|x| >= 4` the pair is `(1 - q, q)` or `(q, 1 - q)` with `q` the
/// tail value [`tail_q`] computes, and that `q` never exceeds the rounded
/// Mills bound `phi(x) / |x|` (see [`tail_q`]).
#[inline]
pub(crate) fn normal_cdf_pair(x: f64, pdf: f64) -> (f64, f64) {
    if x.is_nan() {
        return (f64::NAN, f64::NAN);
    }
    // The continued fraction is essentially exact for |x| >= 4 and avoids
    // the cancellation the central series suffers on the negative side.
    if x >= TAIL_START {
        let q = tail_q(x, pdf);
        return (1.0 - q, q);
    }
    if x <= -TAIL_START {
        let q = tail_q(-x, pdf);
        return (q, 1.0 - q);
    }
    // Marsaglia (2004): Phi(x) = 1/2 + phi(x) * (x + x^3/3 + x^5/(3*5) + ...)
    let mut sum = x;
    let mut term = x;
    let x2 = x * x;
    let mut denom = 1.0;
    loop {
        denom += 2.0;
        term *= x2 / denom;
        let prev = sum;
        sum += term;
        if sum == prev {
            break;
        }
    }
    let s = pdf * sum;
    (0.5 + s, 0.5 - s)
}

/// Upper-tail probability `Q(x) = 1 - Phi(x)` for `x >= 4`, given
/// `pdf = phi(x)`, via the continued fraction
/// `Q(x) = phi(x) / (x + 1/(x + 2/(x + 3/(x + ...))))` evaluated backward.
///
/// The value is bitwise the [`TAIL_LEVELS`]-level fraction, reached through
/// a certificate instead of all those levels. One backward step
/// `f -> x + k/f` (both operations correctly rounded) is non-increasing in
/// `f`, and every level of the reference lies in `[x, x + k/x]`. The
/// fractions cut at depth `d` (started from `x` below level `d`) and at
/// `d + 1` (started from `x + (d+1)/x`) therefore bracket the reference at
/// level `d + 1`, and every later step keeps it between them. When the two
/// cut fractions give the same `Q`, so does the reference; when they do
/// not, the reference is evaluated. Both cut fractions run in one loop as
/// two independent division chains, which costs little more than one.
///
/// Every denominator the fraction can end on is `x + k/f` with `k >= 1`
/// and `f > 0`, so it is at least `x`; rounding is monotone, so the value
/// returned never exceeds `fl(pdf / x)`, the rounded Mills bound.
fn tail_q(x: f64, pdf: f64) -> f64 {
    debug_assert!(x >= TAIL_START);
    // Past x ~ 38.6 phi underflows to zero and so does Q, whatever the
    // fraction's value (it is finite and positive, or +inf at x = +inf).
    if pdf == 0.0 {
        return 0.0;
    }
    let (q, q_long) = bracket_at(x, pdf, table_depth(&TAIL_DEPTHS, TAIL_DEPTH_FAR, x));
    if q == q_long {
        q
    } else {
        // The longer fraction of the pair cut at `TAIL_LEVELS - 1` is the
        // reference itself.
        pdf / cut_fractions(x, TAIL_LEVELS - 1).1
    }
}

/// Two values that enclose the tail value [`tail_q`] returns for `x >= 4`
/// and `pdf = phi(x)`: `Q` through the fractions cut at the depth
/// [`BRACKET_DEPTHS`] gives and one level deeper, in no particular order.
/// The proof is [`tail_q`]'s: the reference fraction lies between the two
/// cut fractions, and dividing `pdf` by it rounds monotonically, so the
/// reference `Q` lies between the two values returned. Each is at most the
/// rounded Mills bound `fl(pdf / x)`, as the reference is.
#[inline]
pub(crate) fn tail_bracket(x: f64, pdf: f64) -> (f64, f64) {
    debug_assert!(x >= TAIL_START);
    bracket_at(x, pdf, table_depth(&BRACKET_DEPTHS, BRACKET_DEPTH_FAR, x))
}

/// `(fl(pdf / short), fl(pdf / long))` for the pair of [`cut_fractions`]
/// at `depth`.
#[inline]
fn bracket_at(x: f64, pdf: f64, depth: u32) -> (f64, f64) {
    let (short, long) = cut_fractions(x, depth);
    (pdf / short, pdf / long)
}

/// The continued-fraction denominators `x + 1/(x + 2/(... x + k/x))` cut at
/// `k = depth` and at `k = depth + 1`, evaluated backward side by side.
fn cut_fractions(x: f64, depth: u32) -> (f64, f64) {
    let mut short = x;
    let mut long = x + f64::from(depth + 1) / x;
    for k in (1..=depth).rev() {
        let k = f64::from(k);
        short = x + k / short;
        long = x + k / long;
    }
    (short, long)
}

/// The standard normal quantile (inverse of [`normal_cdf`]).
///
/// Starts from a logistic-style rough inverse and polishes with Halley
/// iterations on `normal_cdf`, converging to machine precision for
/// `p` in `(0, 1)`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`. Returns `-inf`/`+inf` for `p = 0`/`1`.
///
/// ```
/// use sgs_statmath::special::{normal_cdf, normal_quantile};
/// let x = normal_quantile(0.975);
/// assert!((normal_cdf(x) - 0.975).abs() < 1e-14);
/// ```
pub fn normal_quantile(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    // Rough start: inverse via the tail bound |x| ~ sqrt(-2 ln(min(p,1-p))).
    let q = p.min(1.0 - p);
    let mut x = (-2.0 * q.ln()).sqrt();
    // Refine the magnitude so normal_cdf(-x) ~ q, then fix the sign.
    if x < 0.2 {
        x = 0.0;
    }
    let mut t = if p < 0.5 { -x } else { x };
    for _ in 0..60 {
        let f = normal_cdf(t) - p;
        let d = normal_pdf(t);
        if d <= 0.0 {
            break;
        }
        // Halley step: f'' = -t * phi(t).
        let u = f / d;
        let step = u / (1.0 + 0.5 * t * u).max(0.5);
        t -= step;
        if step.abs() < 1e-15 * (1.0 + t.abs()) {
            break;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath at 30 digits.
    const REF: &[(f64, f64)] = &[
        (-8.0, 6.220960574271786e-16),
        (-6.0, 9.865_876_450_376_98e-10),
        (-4.0, 3.167124183311992e-5),
        (-2.0, 0.022750131948179195),
        (-1.0, 0.15865525393145707),
        (-0.5, 0.3085375387259869),
        (0.0, 0.5),
        (0.5, 0.6914624612740131),
        (1.0, 0.8413447460685429),
        (2.0, 0.9772498680518208),
        (3.0, 0.9986501019683699),
        (4.0, 0.9999683287581669),
    ];

    #[test]
    fn cdf_matches_reference() {
        for &(x, want) in REF {
            let got = normal_cdf(x);
            // Relative accuracy: near-exact in the tails (continued
            // fraction), ~1e-12 in the central region where the series sum
            // is added to 0.5.
            let tol = if x.abs() >= 4.0 { 1e-14 } else { 5e-12 };
            assert!(
                (got - want).abs() <= tol * want.max(1e-300),
                "Phi({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn cdf_symmetry() {
        for i in 0..200 {
            let x = -5.0 + 0.05 * f64::from(i);
            let s = normal_cdf(x) + normal_cdf(-x);
            assert!((s - 1.0).abs() < 1e-14, "symmetry broken at {x}: {s}");
        }
    }

    #[test]
    fn cdf_monotone() {
        let mut prev = normal_cdf(-10.0);
        for i in 1..=400 {
            let x = -10.0 + 0.05 * f64::from(i);
            let v = normal_cdf(x);
            assert!(v >= prev, "non-monotone at {x}");
            prev = v;
        }
    }

    #[test]
    fn pdf_is_derivative_of_cdf() {
        let h = 1e-6;
        for i in 0..100 {
            let x = -4.0 + 0.08 * f64::from(i);
            let num = (normal_cdf(x + h) - normal_cdf(x - h)) / (2.0 * h);
            assert!((num - normal_pdf(x)).abs() < 1e-9, "at {x}");
        }
    }

    #[test]
    fn quantile_roundtrip() {
        for &p in &[
            1e-9,
            1e-6,
            0.001,
            0.01,
            0.1,
            0.5,
            0.841,
            0.99,
            0.9999,
            1.0 - 1e-9,
        ] {
            let x = normal_quantile(p);
            assert!(
                (normal_cdf(x) - p).abs() < 1e-12 * p.max(1e-3),
                "roundtrip failed at p={p}: x={x}, cdf={}",
                normal_cdf(x)
            );
        }
    }

    #[test]
    fn quantile_known_points() {
        assert!((normal_quantile(0.5)).abs() < 1e-12);
        assert!((normal_quantile(0.8413447460685429) - 1.0).abs() < 1e-10);
        assert!((normal_quantile(0.9986501019683699) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn extreme_tails() {
        assert_eq!(normal_cdf(40.0), 1.0);
        assert!(normal_cdf(-40.0) >= 0.0);
        assert!(normal_cdf(-40.0) < 1e-300);
        assert_eq!(normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_quantile(1.0), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn quantile_rejects_out_of_range() {
        let _ = normal_quantile(1.5);
    }

    /// The distribution function as it stood before the fused kernel:
    /// central series, and a continued fraction always evaluated to the
    /// full [`TAIL_LEVELS`] levels. The oracle the fused kernel must match
    /// bit for bit.
    fn reference_cdf(x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        if x >= 4.0 {
            return 1.0 - reference_tail_q(x);
        }
        if x <= -4.0 {
            return reference_tail_q(-x);
        }
        let mut sum = x;
        let mut term = x;
        let x2 = x * x;
        let mut denom = 1.0;
        loop {
            denom += 2.0;
            term *= x2 / denom;
            let prev = sum;
            sum += term;
            if sum == prev {
                break;
            }
        }
        0.5 + normal_pdf(x) * sum
    }

    fn reference_tail_q(x: f64) -> f64 {
        let mut f = x;
        for k in (1..=120u32).rev() {
            f = x + f64::from(k) / f;
        }
        normal_pdf(x) / f
    }

    fn assert_fused_matches_reference(x: f64) {
        let (pdf, cdf, cdf_neg) = normal_pdf_cdf(x);
        assert_eq!(pdf.to_bits(), normal_pdf(x).to_bits(), "phi({x:e})");
        assert_eq!(cdf.to_bits(), reference_cdf(x).to_bits(), "Phi({x:e})");
        assert_eq!(
            cdf_neg.to_bits(),
            reference_cdf(-x).to_bits(),
            "Phi(-({x:e}))"
        );
        assert_eq!(normal_cdf(x).to_bits(), cdf.to_bits(), "normal_cdf({x:e})");
    }

    /// `x` and the `n` doubles on either side of it.
    fn ulp_neighbourhood(x: f64, n: usize) -> impl Iterator<Item = f64> {
        let up = std::iter::successors(Some(x), |v| Some(v.next_up())).take(n + 1);
        let down = std::iter::successors(Some(x.next_down()), |v| Some(v.next_down())).take(n);
        up.chain(down)
    }

    #[test]
    fn fused_kernel_is_bitwise_the_reference_on_a_dense_grid() {
        // 2,000,000 evenly spaced points over [-40, 40], offset by an
        // irrational fraction of the step so no point is a round number.
        let n = 2_000_000;
        let step = 80.0 / f64::from(n);
        for i in 0..n {
            assert_fused_matches_reference(-40.0 + step * (f64::from(i) + 0.381_966_011));
        }
        // The series/fraction hand-over, every depth breakpoint and the
        // region where phi underflows, from both sides.
        let edges = std::iter::once(TAIL_START).chain(TAIL_DEPTHS.iter().map(|&(b, _)| b));
        for edge in edges.chain([37.5, 38.5, 38.6, 38.7, 40.0]) {
            for x in ulp_neighbourhood(edge, 256) {
                assert_fused_matches_reference(x);
                assert_fused_matches_reference(-x);
            }
        }
        for i in 0..20_000 {
            let x = 37.0 + 0.0002 * f64::from(i);
            assert_fused_matches_reference(x);
            assert_fused_matches_reference(-x);
        }
        for x in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            1e3,
            1e10,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ] {
            assert_fused_matches_reference(x);
            assert_fused_matches_reference(-x);
        }
        assert_eq!(normal_cdf(-39.0), 0.0);
        assert_eq!(normal_cdf(f64::NEG_INFINITY), 0.0);
        assert_eq!(normal_cdf(f64::INFINITY), 1.0);
    }

    /// The ends of [`tail_bracket`] enclose the reference `Q` and never
    /// exceed the rounded Mills bound, on a dense grid and at every edge of
    /// its depth table.
    #[test]
    fn tail_bracket_encloses_the_reference() {
        let grid = (0..200_000).map(|i| 4.0 + 0.000_173 * f64::from(i));
        let edges = std::iter::once(TAIL_START)
            .chain(BRACKET_DEPTHS.iter().map(|&(b, _)| b))
            .flat_map(|edge| ulp_neighbourhood(edge, 64))
            .filter(|&x| x >= TAIL_START);
        for x in grid.chain(edges) {
            let pdf = normal_pdf(x);
            let (q_1, q_2) = tail_bracket(x, pdf);
            let want = reference_tail_q(x);
            assert!(
                q_1.min(q_2) <= want && want <= q_1.max(q_2),
                "x {x}: {q_1:e} {want:e} {q_2:e}"
            );
            assert!(q_1.max(q_2) <= pdf / x, "x {x}");
        }
    }

    /// The tail certificate on its own: at depths far too shallow for the
    /// table, whenever the two cut fractions agree on `Q`, the reference
    /// agrees too — and at those depths they often disagree, which is the
    /// fallback's case.
    #[test]
    fn agreeing_cut_fractions_certify_the_reference() {
        let (mut agreed, mut disagreed) = (0, 0);
        for i in 0..20_000 {
            let x = 4.0 + 0.0017 * f64::from(i);
            let pdf = normal_pdf(x);
            let want = reference_tail_q(x).to_bits();
            for depth in [2, 5, 9, 14, 20, 30] {
                let (short, long) = cut_fractions(x, depth);
                if (pdf / short).to_bits() == (pdf / long).to_bits() {
                    assert_eq!((pdf / short).to_bits(), want, "x {x}, depth {depth}");
                    agreed += 1;
                } else {
                    disagreed += 1;
                }
            }
            assert_eq!(tail_q(x, pdf).to_bits(), want, "x {x}");
        }
        assert!(
            agreed > 10_000 && disagreed > 10_000,
            "{agreed} / {disagreed}"
        );
    }
}
