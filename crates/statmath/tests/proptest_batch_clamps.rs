//! Clamp-accounting half of the batched-kernel differential oracle: the
//! process-global variance-clamp counter must advance by exactly as
//! much under [`clark::max_batch`] as under the equivalent scalar
//! sequence — the golden transcripts pin `clark_var_clamps` exactly, so
//! over- or under-counting in the batch kernel would fail them.
//!
//! Like `clamp_counter.rs`, this file holds a single test so the
//! process-global counter is only touched by the calls below (the other
//! batch properties live in `proptest_batch.rs` and may clamp
//! concurrently within *their* process).

use proptest::prelude::*;
use sgs_statmath::clark::{self, DEFAULT_EPS};
use sgs_statmath::Normal;

/// Operand domain as in `proptest_batch.rs`: sizing-realistic moments
/// plus near-degenerate variances that provoke the clamp.
fn lane() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (
        -50.0..200.0f64,
        prop_oneof![0.0..25.0f64, 1e-14..1e-9f64],
        -50.0..200.0f64,
        prop_oneof![0.0..25.0f64, 1e-14..1e-9f64],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn clamp_counter_matches_scalar_accounting(
        lanes in prop::collection::vec(lane(), 0..20),
    ) {
        let mu_a: Vec<f64> = lanes.iter().map(|l| l.0).collect();
        let var_a: Vec<f64> = lanes.iter().map(|l| l.1).collect();
        let mu_b: Vec<f64> = lanes.iter().map(|l| l.2).collect();
        let var_b: Vec<f64> = lanes.iter().map(|l| l.3).collect();

        let before_scalar = clark::var_clamp_count();
        for &(ma, va, mb, vb) in &lanes {
            let _ = clark::max_eps(
                Normal::from_mean_var(ma, va),
                Normal::from_mean_var(mb, vb),
                DEFAULT_EPS,
            );
        }
        let scalar_clamps = clark::var_clamp_count() - before_scalar;

        let mut out_mu = vec![0.0; lanes.len()];
        let mut out_var = vec![0.0; lanes.len()];
        let before_batch = clark::var_clamp_count();
        clark::max_batch(&mu_a, &var_a, &mu_b, &var_b, DEFAULT_EPS, &mut out_mu, &mut out_var);
        let batch_clamps = clark::var_clamp_count() - before_batch;

        prop_assert_eq!(batch_clamps, scalar_clamps);
        for v in &out_var {
            prop_assert!(*v >= 0.0, "clamped variance must be non-negative, got {}", v);
        }
    }
}
