//! Property-based tests for the statistical algebra: the Clark max must
//! behave like a maximum, and every hand-derived derivative must agree
//! with the independent hyper-dual evaluation on arbitrary inputs.

use proptest::prelude::*;
use sgs_statmath::clark::{self, DEFAULT_EPS};
use sgs_statmath::special::{normal_cdf, normal_quantile};
use sgs_statmath::Normal;

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

/// Operand domain: means and sigmas in the ranges gate sizing produces.
fn operand() -> impl Strategy<Value = (f64, f64)> {
    (-50.0..200.0f64, 0.001..20.0f64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn max_mean_dominates_operands(
        (ma, sa) in operand(),
        (mb, sb) in operand(),
    ) {
        let c = clark::max(Normal::new(ma, sa), Normal::new(mb, sb));
        prop_assert!(c.mean() >= ma.max(mb) - 1e-9);
    }

    #[test]
    fn max_variance_nonnegative_and_bounded(
        (ma, sa) in operand(),
        (mb, sb) in operand(),
    ) {
        let c = clark::max(Normal::new(ma, sa), Normal::new(mb, sb));
        prop_assert!(c.var() >= 0.0);
        // The max of two normals never has more variance than the
        // larger operand variance plus the mean gap effect; a loose but
        // real bound: var <= var_a + var_b.
        prop_assert!(c.var() <= sa * sa + sb * sb + 1e-9);
    }

    #[test]
    fn max_commutative(
        (ma, sa) in operand(),
        (mb, sb) in operand(),
    ) {
        let ab = clark::max(Normal::new(ma, sa), Normal::new(mb, sb));
        let ba = clark::max(Normal::new(mb, sb), Normal::new(ma, sa));
        prop_assert!(close(ab.mean(), ba.mean(), 1e-12));
        prop_assert!(close(ab.var(), ba.var(), 1e-9));
    }

    #[test]
    fn max_monotone_in_operand_mean(
        (ma, sa) in operand(),
        (mb, sb) in operand(),
        bump in 0.01..10.0f64,
    ) {
        let lo = clark::max(Normal::new(ma, sa), Normal::new(mb, sb));
        let hi = clark::max(Normal::new(ma + bump, sa), Normal::new(mb, sb));
        prop_assert!(hi.mean() >= lo.mean() - 1e-10);
    }

    #[test]
    fn max_shift_equivariant(
        (ma, sa) in operand(),
        (mb, sb) in operand(),
        shift in -50.0..50.0f64,
    ) {
        // max(A + t, B + t) = max(A, B) + t.
        let base = clark::max(Normal::new(ma, sa), Normal::new(mb, sb));
        let moved = clark::max(Normal::new(ma + shift, sa), Normal::new(mb + shift, sb));
        prop_assert!(close(moved.mean(), base.mean() + shift, 1e-9));
        prop_assert!(close(moved.var(), base.var(), 1e-7));
    }

    #[test]
    fn dominant_operand_limit(
        (ma, sa) in operand(),
        (mb, sb) in operand(),
    ) {
        // Push A far above B: the max converges to A.
        let c = clark::max(Normal::new(ma + 1000.0, sa), Normal::new(mb, sb));
        prop_assert!(close(c.mean(), ma + 1000.0, 1e-9));
        prop_assert!(close(c.var(), sa * sa, 1e-7));
    }

    #[test]
    fn closed_form_derivatives_match_hyper_dual(
        (ma, sa) in operand(),
        (mb, sb) in operand(),
    ) {
        let (va, vb) = (sa * sa, sb * sb);
        let h = clark::max_hess(ma, va, mb, vb, DEFAULT_EPS);
        let d = clark::max_hess_dual(ma, va, mb, vb, DEFAULT_EPS);
        prop_assert!(close(h.mu, d.mu, 1e-11), "mu {} vs {}", h.mu, d.mu);
        prop_assert!(close(h.var, d.var, 1e-8), "var {} vs {}", h.var, d.var);
        for i in 0..4 {
            prop_assert!(close(h.dmu[i], d.dmu[i], 1e-9));
            prop_assert!(close(h.dvar[i], d.dvar[i], 1e-7));
            for j in 0..4 {
                prop_assert!(
                    close(h.hmu[i][j], d.hmu[i][j], 1e-6),
                    "hmu[{i}][{j}] {} vs {}", h.hmu[i][j], d.hmu[i][j]
                );
                prop_assert!(
                    close(h.hvar[i][j], d.hvar[i][j], 1e-5),
                    "hvar[{i}][{j}] {} vs {}", h.hvar[i][j], d.hvar[i][j]
                );
            }
        }
    }

    #[test]
    fn fold_is_order_insensitive_in_mean_upper_bound(
        ops in prop::collection::vec(operand(), 1..6),
    ) {
        // The left fold is not exactly permutation-invariant (the paper
        // notes multi-operand max as future work) but its mean must
        // always dominate every operand mean.
        let ns: Vec<Normal> = ops.iter().map(|&(m, s)| Normal::new(m, s)).collect();
        let folded = clark::max_n(ns.clone()).unwrap();
        for n in &ns {
            prop_assert!(folded.mean() >= n.mean() - 1e-9);
        }
    }

    #[test]
    fn cdf_in_unit_interval_and_monotone(x in -100.0..100.0f64, dx in 0.0..10.0f64) {
        let a = normal_cdf(x);
        let b = normal_cdf(x + dx);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!(b >= a);
    }

    #[test]
    fn quantile_inverts_cdf(p in 0.0001..0.9999f64) {
        let x = normal_quantile(p);
        prop_assert!(close(normal_cdf(x), p, 1e-10));
    }

    #[test]
    fn add_then_max_degenerate_consistency((m, s) in operand(), shift in 0.1..30.0f64) {
        // max(A, A + shift) with shift >> sigma tends to A + shift.
        let a = Normal::new(m, s);
        let b = Normal::new(m + shift + 50.0 * s, s);
        let c = clark::max(a, b);
        prop_assert!(close(c.mean(), b.mean(), 1e-9));
    }
}

/// `x` moved by `k` ulps (towards +inf for positive `k`).
fn ulps(x: f64, k: i64) -> f64 {
    let step = if k >= 0 { f64::next_up } else { f64::next_down };
    (0..k.unsigned_abs()).fold(x, |v, _| step(v))
}

/// Where the dominated-operand shortcut of `clark::max_eps` starts to be
/// tried (`|alpha| = 8.25`) and where its first condition, `phi(alpha) /
/// |alpha| < 2^-54`, starts to hold.
const SHORTCUT_EDGES: [f64; 2] = [8.25, 8.294_030_762_685_44];

/// Means of the dominant operand: the sizing range, magnitudes up to 1e4,
/// signed zeros, and exact powers of two and the doubles just below them
/// (the spacing of doubles halves across a power of two, so a small addend
/// can round such a mean to its neighbour).
fn dominant_mean() -> impl Strategy<Value = f64> {
    prop_oneof![
        -50.0..200.0f64,
        -1e4..1e4f64,
        Just(0.0),
        Just(-0.0),
        (-20i32..14, any::<bool>(), any::<bool>()).prop_map(|(k, neg, below)| {
            let p = if below {
                2f64.powi(k).next_down()
            } else {
                2f64.powi(k)
            };
            if neg {
                -p
            } else {
                p
            }
        }),
    ]
}

/// Variances from the sizing range down to subnormal.
fn variance() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0..25.0f64,
        1e-14..1e-9f64,
        Just(0.0),
        (1u64..(1u64 << 52)).prop_map(f64::from_bits),
        (-8i64..=8).prop_map(|k| ulps(f64::MIN_POSITIVE, k)),
    ]
}

/// `alpha` over the central series (|alpha| < 4), every depth band of the
/// continued-fraction tail, the bracketed band below the dominance gate
/// (4 <= |alpha| < 8.25) on its own, the region past 38.6 where phi
/// underflows, far beyond, and within a few ulps of either shortcut edge.
fn alpha() -> impl Strategy<Value = f64> {
    let edge = |i: usize, neg: bool| {
        (-6i64..=6).prop_map(move |k| {
            let x = ulps(SHORTCUT_EDGES[i], k);
            if neg {
                -x
            } else {
                x
            }
        })
    };
    prop_oneof![
        -4.0..4.0f64,
        4.0..8.25f64,
        -8.25..-4.0f64,
        -45.0..45.0f64,
        -1e4..1e4f64,
        edge(0, false),
        edge(0, true),
        edge(1, false),
        edge(1, true),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6000))]

    // `max_eps` runs one fused phi/Phi evaluation and certifies dominated
    // operands without the tail; `moments_generic` is the textual formula
    // with three separate evaluations. Same bits, with `ma` the mean of
    // the first operand (the dominant one when `alpha > 0`) and `swap`
    // passing the operands in the other order.
    #[test]
    fn max_eps_is_bitwise_the_generic_formula(
        ma in dominant_mean(),
        va in variance(),
        vb in variance(),
        alpha in alpha(),
        swap in any::<bool>(),
    ) {
        let mb = ma - alpha * (va + vb + DEFAULT_EPS * DEFAULT_EPS).sqrt();
        let ((ma, va), (mb, vb)) = if swap { ((mb, vb), (ma, va)) } else { ((ma, va), (mb, vb)) };
        let got = clark::max_eps(
            Normal::from_mean_var(ma, va),
            Normal::from_mean_var(mb, vb),
            DEFAULT_EPS,
        );
        let (mu, var) = clark::moments_generic(ma, va, mb, vb, DEFAULT_EPS);
        prop_assert_eq!(got.mean().to_bits(), mu.to_bits(), "mu at alpha {}", alpha);
        prop_assert_eq!(got.var().to_bits(), var.max(0.0).to_bits(), "var at alpha {}", alpha);
    }
}
