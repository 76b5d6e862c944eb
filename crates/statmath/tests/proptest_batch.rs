//! Differential oracle for the batched Clark-max kernel: on arbitrary
//! operand vectors, [`clark::max_batch`] must be **bit-identical** to the
//! scalar [`clark::max_eps`] applied lane by lane, and a lane's result
//! must not depend on the batch length or on where in the batch it sits.
//! The variance-clamp accounting is checked in `proptest_batch_clamps.rs`.

use proptest::prelude::*;
use sgs_statmath::clark::{self, DEFAULT_EPS};
use sgs_statmath::Normal;

/// Operand domain: the mean/variance ranges gate sizing produces, plus
/// the near-degenerate variances that provoke the clamp.
fn lane() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (
        -50.0..200.0f64,
        prop_oneof![0.0..25.0f64, 1e-14..1e-9f64],
        -50.0..200.0f64,
        prop_oneof![0.0..25.0f64, 1e-14..1e-9f64],
    )
}

fn split(lanes: &[(f64, f64, f64, f64)]) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mu_a = lanes.iter().map(|l| l.0).collect();
    let var_a = lanes.iter().map(|l| l.1).collect();
    let mu_b = lanes.iter().map(|l| l.2).collect();
    let var_b = lanes.iter().map(|l| l.3).collect();
    (mu_a, var_a, mu_b, var_b)
}

fn scalar_moments(lanes: &[(f64, f64, f64, f64)], eps: f64) -> Vec<Normal> {
    lanes
        .iter()
        .map(|&(ma, va, mb, vb)| {
            clark::max_eps(
                Normal::from_mean_var(ma, va),
                Normal::from_mean_var(mb, vb),
                eps,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Moments: every lane of every batch length 0..=19 is bit-for-bit the
    // scalar result.
    #[test]
    fn batch_moments_bitwise_match_scalar(
        lanes in prop::collection::vec(lane(), 0..20),
        eps in prop_oneof![Just(DEFAULT_EPS), 1e-9..1e-3f64],
    ) {
        let (mu_a, var_a, mu_b, var_b) = split(&lanes);
        let expect = scalar_moments(&lanes, eps);
        let mut out_mu = vec![f64::NAN; lanes.len()];
        let mut out_var = vec![f64::NAN; lanes.len()];
        clark::max_batch(&mu_a, &var_a, &mu_b, &var_b, eps, &mut out_mu, &mut out_var);
        for (i, e) in expect.iter().enumerate() {
            prop_assert_eq!(
                out_mu[i].to_bits(), e.mean().to_bits(),
                "lane {} of {}: mu {} vs scalar {}", i, lanes.len(), out_mu[i], e.mean()
            );
            prop_assert_eq!(
                out_var[i].to_bits(), e.var().to_bits(),
                "lane {} of {}: var {} vs scalar {}", i, lanes.len(), out_var[i], e.var()
            );
        }
    }

    // A lane's result is invariant under batch position: evaluating the
    // same operands alone and anywhere inside a batch yields identical
    // bits.
    #[test]
    fn lane_result_is_position_independent(
        probe in lane(),
        filler in prop::collection::vec(lane(), 0..12),
        at in 0..13usize,
    ) {
        let at = at.min(filler.len());
        let mut lanes = filler;
        lanes.insert(at, probe);
        let (mu_a, var_a, mu_b, var_b) = split(&lanes);
        let mut out_mu = vec![0.0; lanes.len()];
        let mut out_var = vec![0.0; lanes.len()];
        clark::max_batch(&mu_a, &var_a, &mu_b, &var_b, DEFAULT_EPS, &mut out_mu, &mut out_var);

        let mut solo_mu = [0.0];
        let mut solo_var = [0.0];
        clark::max_batch(
            &[probe.0], &[probe.1], &[probe.2], &[probe.3],
            DEFAULT_EPS, &mut solo_mu, &mut solo_var,
        );
        prop_assert_eq!(out_mu[at].to_bits(), solo_mu[0].to_bits());
        prop_assert_eq!(out_var[at].to_bits(), solo_var[0].to_bits());
    }
}
