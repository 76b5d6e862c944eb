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
//! In the tails every value is bitwise the 120-level continued fraction.
//! `tail_q` reaches it through a bracket: the fractions cut at depth `d`
//! and `d + 1` (`TAIL_DEPTHS`) enclose it, and it needs the two ends to
//! give the same `Q`. `tail_bracket` hands the Clark moments two values
//! that enclose it too, which need only that their own results agree at
//! both ends (see `clark::tail_certified`). Below 8.5 it reads them off a
//! Taylor table of the Mills ratio `Q(x) / phi(x)`, proven to lie within
//! `MILLS_DELTA` of the reference; from 8.5 on it cuts the fraction at
//! short depths (`BRACKET_DEPTHS`). When the certificate fails, the
//! caller falls back to `tail_q`. The derivative kernels read `Phi(x)`
//! itself through `normal_cdf_given_pdf`, which for `x >= 4` pins
//! `fl(1 - q)` from the same enclosure (or from the Mills bound, far out)
//! and calls `tail_q` only when that fails.

mod mills_table;

use mills_table::MILLS_TAYLOR;

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

/// The depths of [`tail_bracket`] from [`MILLS_END`] on, by `|x|` as in
/// [`TAIL_DEPTHS`]: half of each of those depths, rounded up. At these
/// depths the two ends of the bracket practically never give the same `Q`,
/// but a Clark max needs less: its moments agree at both ends for all but
/// fewer than 1 in 10,000 of the tail maxes of the `whatif_stream`
/// benchmark, and it evaluates [`tail_q`] for the rest. Only speed depends
/// on this table, never the value.
const BRACKET_DEPTHS: [(f64, u32); 5] = [(10.0, 10), (12.0, 9), (16.0, 7), (20.0, 5), (30.0, 5)];

/// Bracket depth for `|x| >= 30`.
const BRACKET_DEPTH_FAR: u32 = 4;

/// Where the Mills-ratio table of [`tail_bracket`] ends and the cut
/// fractions of [`BRACKET_DEPTHS`] take over.
const MILLS_END: f64 = 8.5;

/// Cells of [`MILLS_TAYLOR`] per unit of `x`: row `i` covers
/// `[4 + i/8, 4 + (i + 1)/8)` and is expanded about the cell's centre.
const MILLS_CELLS_PER_UNIT: f64 = 8.0;

/// The relative half-width of [`tail_bracket`]'s enclosure below
/// [`MILLS_END`]: the reference `q` lies within `q~ (1 -+ MILLS_DELTA)`
/// of the table's value `q~`. The proven error bound it covers is
/// `4.44e-15`, or `4.66e-15` with the rounding of the ends (DESIGN.md §14,
/// "Tail operands"); a wider enclosure certifies fewer maxes.
const MILLS_DELTA: f64 = 1e-14;

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

/// `Phi(x)` given `pdf = phi(x)`: bitwise the middle component of
/// [`normal_pdf_cdf`], reached without the full tail fraction where that
/// is certain (see [`upper_cdf_certified`]). Only `x <= -4`, where
/// `Phi(x)` is the tail value `q` itself, still needs [`tail_q`] whole.
#[inline]
pub(crate) fn normal_cdf_given_pdf(x: f64, pdf: f64) -> f64 {
    if x >= TAIL_START {
        upper_cdf_certified(x, pdf).unwrap_or_else(|| 1.0 - tail_q(x, pdf))
    } else {
        normal_cdf_pair(x, pdf).0
    }
}

/// `Phi(x) = fl(1 - q)` for `x >= 4` and `pdf = phi(x)`, with `q` the
/// tail value [`tail_q`] returns: `Some` when it is certain without `q`,
/// bit for bit, and `None` otherwise. The certificate is:
///
/// 1. `fl(pdf / x) < 2^-54`, which covers `pdf = 0`. Then `q < 2^-54`,
///    because `q` never exceeds that rounded Mills bound, so the exact
///    `1 - q` lies above `1 - 2^-54`, the midpoint between 1 and the
///    double below it, and rounds to 1.
/// 2. Else `fl(1 - q_1) = fl(1 - q_2)` for the two ends of
///    [`tail_bracket`]. The reference `q` lies between them and rounding
///    is monotone, so `fl(1 - q)` equals both.
#[inline]
pub(crate) fn upper_cdf_certified(x: f64, pdf: f64) -> Option<f64> {
    debug_assert!(x >= TAIL_START);
    if pdf / x < f64::EPSILON / 4.0 {
        return Some(1.0);
    }
    let (q_1, q_2) = tail_bracket(x, pdf);
    let p = 1.0 - q_1;
    (p == 1.0 - q_2).then_some(p)
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
/// and `pdf = phi(x)`, in no particular order, each at most the rounded
/// Mills bound `fl(pdf / x)`, as the reference is.
///
/// Below [`MILLS_END`] they are `fl(q~ fl(1 -+ MILLS_DELTA))` with `q~ =
/// fl(pdf m)` and `m` the Mills ratio `Q(x) / phi(x)` from its Taylor
/// table ([`mills_ratio`]). Truncation, the table's rounding, Horner's
/// rounding, the product and the reference's own error (it divides the
/// same `pdf` by a rounded 120-level fraction) keep the reference within
/// `4.44e-15` of `q~`, relative; [`MILLS_DELTA`] covers that and the
/// rounding of the ends (the proof is DESIGN.md §14, "Tail operands").
/// The upper end stays under the Mills bound by a wide margin, since
/// `x M(x) < 1 - 1/(x^2 + 3)`.
/// From [`MILLS_END`] on they are `Q` through the fractions cut at the
/// depth [`BRACKET_DEPTHS`] gives and one level deeper, as in [`tail_q`],
/// whose proof covers them.
#[inline]
pub(crate) fn tail_bracket(x: f64, pdf: f64) -> (f64, f64) {
    debug_assert!(x >= TAIL_START);
    // Written as a range test so that NaN and the infinities never reach
    // the table.
    if (TAIL_START..MILLS_END).contains(&x) {
        let q = pdf * mills_ratio(x);
        (q * (1.0 - MILLS_DELTA), q * (1.0 + MILLS_DELTA))
    } else {
        bracket_at(x, pdf, table_depth(&BRACKET_DEPTHS, BRACKET_DEPTH_FAR, x))
    }
}

/// The Mills ratio `Q(x) / phi(x)` for `4 <= x < 8.5`, from the degree-7
/// Taylor polynomial of [`MILLS_TAYLOR`] about the centre of `x`'s cell.
/// `(x - 4) * 8` and `h = x - centre` are exact (the latter by Sterbenz's
/// lemma), so the only rounding is Horner's.
#[inline]
fn mills_ratio(x: f64) -> f64 {
    debug_assert!((TAIL_START..MILLS_END).contains(&x));
    let cell = ((x - TAIL_START) * MILLS_CELLS_PER_UNIT) as usize;
    let h = x - cell_centre(cell);
    MILLS_TAYLOR[cell].iter().rev().fold(0.0, |m, &c| c + h * m)
}

/// The centre `4 + (2 cell + 1) / 16` of a cell of [`MILLS_TAYLOR`],
/// the point its row is expanded about.
#[inline]
fn cell_centre(cell: usize) -> f64 {
    TAIL_START + (cell as f64 + 0.5) / MILLS_CELLS_PER_UNIT
}

/// Every `x` at which [`tail_bracket`] changes how it encloses the tail:
/// the cell edges of its table, from 4 to [`MILLS_END`], then the depth
/// edges of [`BRACKET_DEPTHS`].
#[cfg(test)]
pub(crate) fn bracket_edges() -> impl Iterator<Item = f64> {
    let cells = MILLS_TAYLOR.len() as u32;
    (0..=cells)
        .map(|i| TAIL_START + f64::from(i) / MILLS_CELLS_PER_UNIT)
        .chain(BRACKET_DEPTHS.iter().map(|&(b, _)| b))
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
    /// exceed the rounded Mills bound, on a dense grid and at every edge
    /// where it changes how it encloses it.
    #[test]
    fn tail_bracket_encloses_the_reference() {
        let grid = (0..200_000).map(|i| 4.0 + 0.000_173 * f64::from(i));
        let edges = bracket_edges()
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

    /// The Mills table against its definition, without mpmath: every row
    /// obeys `c_1 = x_0 c_0 - 1` and `(k + 1) c_(k+1) = x_0 c_k + c_(k-1)`
    /// to within `4 EPSILON` of the terms on the right, and `c_0` is the
    /// reference `Q / phi` at the centre `x_0` to within `8 EPSILON`,
    /// relative. The rounded coefficients, the rounded reference and these
    /// few operations stay well inside that; an edited coefficient does not.
    #[test]
    fn mills_table_obeys_the_recurrence() {
        let tol = 4.0 * f64::EPSILON;
        for (i, c) in MILLS_TAYLOR.iter().enumerate() {
            let x0 = cell_centre(i);
            let m = reference_tail_q(x0) / normal_pdf(x0);
            assert!(
                (c[0] - m).abs() <= 2.0 * tol * m,
                "row {i}: c_0 {} vs {m}",
                c[0]
            );
            let c1 = x0 * c[0] - 1.0;
            assert!((c[1] - c1).abs() <= tol * (x0 * c[0] + 1.0), "row {i}: c_1");
            for k in 1..c.len() - 1 {
                let rhs = x0 * c[k] + c[k - 1];
                let scale = (x0 * c[k]).abs() + c[k - 1].abs();
                let lhs = (k + 1) as f64 * c[k + 1];
                assert!((lhs - rhs).abs() <= tol * scale, "row {i}: c_{}", k + 1);
            }
        }
    }

    /// Below [`MILLS_END`] the ends of [`tail_bracket`] enclose the
    /// reference `Q` and span at most `2 MILLS_DELTA` of it, plus the
    /// rounding of the ends: in ulp walks at every cell edge of the table
    /// and at the hand-over to the cut fractions (which must enclose it
    /// too), and at 1 M seeded random points.
    #[test]
    fn mills_enclosure_contains_the_reference_and_is_narrow() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let check = |x: f64| {
            let (q_1, q_2) = tail_bracket(x, normal_pdf(x));
            let (lo, hi) = (q_1.min(q_2), q_1.max(q_2));
            let want = reference_tail_q(x);
            assert!(lo <= want && want <= hi, "x {x}: {lo:e} {want:e} {hi:e}");
            if x < MILLS_END {
                assert_eq!((lo, hi), (q_1, q_2), "x {x}: ends out of order");
                let width = (hi - lo) / want;
                assert!(
                    width <= 2.0 * (MILLS_DELTA + f64::EPSILON),
                    "x {x}: width {width:e}"
                );
            }
        };
        let cells = MILLS_TAYLOR.len() as u32;
        let edges = (0..=cells).map(|i| TAIL_START + f64::from(i) / MILLS_CELLS_PER_UNIT);
        for x in edges.flat_map(|edge| ulp_neighbourhood(edge, 1024)) {
            if x >= TAIL_START {
                check(x);
            }
        }
        let mut rng = StdRng::seed_from_u64(0x3111_5a7e);
        for _ in 0..1_000_000 {
            check(rng.gen_range(TAIL_START..MILLS_END));
        }
    }

    /// `Phi(x)` through [`normal_cdf_given_pdf`] against the fused kernel,
    /// bit for bit; returns whether the certificate answered.
    fn assert_certified_cdf_matches(x: f64) -> bool {
        let pdf = normal_pdf(x);
        let want = normal_pdf_cdf(x).1;
        let got = normal_cdf_given_pdf(x, pdf);
        assert_eq!(got.to_bits(), want.to_bits(), "Phi({x:e})");
        x >= TAIL_START && upper_cdf_certified(x, pdf).is_some()
    }

    #[test]
    fn certified_cdf_is_bitwise_the_fused_kernel_and_certifies() {
        // A dense grid over [4, 40], offset off round numbers, counting the
        // certificate's answers in the deepest band and beyond it.
        let n = 1_000_000;
        let step = 36.0 / f64::from(n);
        let (mut near, mut near_ok, mut far, mut far_ok) = (0u32, 0u32, 0u32, 0u32);
        for i in 0..n {
            let x = 4.0 + step * (f64::from(i) + 0.381_966_011);
            let ok = u32::from(assert_certified_cdf_matches(x));
            if x < 4.5 {
                (near, near_ok) = (near + 1, near_ok + ok);
            } else {
                (far, far_ok) = (far + 1, far_ok + ok);
            }
        }
        // Only speed depends on the bracket depths, so a mistuned table
        // shows only here: it would fall back to the full tail.
        assert!(
            f64::from(near_ok) >= 0.98 * f64::from(near),
            "certified {near_ok} of {near} in [4, 4.5)"
        );
        assert!(
            f64::from(far_ok) >= 0.999 * f64::from(far),
            "certified {far_ok} of {far} in [4.5, 40)"
        );
        // The hand-over, every bracket edge and the 2^-54 crossing,
        // from both sides and in both signs.
        let edges = bracket_edges().chain([8.294_030_762_685_44, 38.6, 40.0]);
        for edge in edges {
            for x in ulp_neighbourhood(edge, 256) {
                assert_certified_cdf_matches(x);
                assert_certified_cdf_matches(-x);
            }
        }
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300, -1e300] {
            assert_certified_cdf_matches(x);
        }
    }

    #[test]
    fn certified_cdf_matches_the_fused_kernel_at_random_points() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0c0f_fee5);
        for _ in 0..1_000_000 {
            let x: f64 = rng.gen_range(0.0..40.0);
            assert_certified_cdf_matches(if rng.gen_bool(0.5) { x } else { -x });
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
