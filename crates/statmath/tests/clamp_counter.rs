//! The Clark variance clamp (`var.max(0.0)` in spirit) must *count* when
//! it actually fires: silent clamping hid genuine numerical trouble. This
//! file runs in its own test process and holds a single test, so the
//! process-global counter is only touched by the calls below.

use sgs_statmath::{clark, Normal};

/// Operands found by randomized search that make `E[C^2] - mu_C^2` go
/// slightly negative through catastrophic cancellation: B dominates with
/// `alpha ~ -7.4`, so the exact variance (~var_b) survives only as the
/// difference of two ~3e5 quantities.
fn clamping_operands() -> (Normal, Normal) {
    (
        Normal::new(45.819_505_757_673_95, 68.475_129_009_259_67),
        Normal::new(549.342_819_022_493_9, 3.915_233_261_414_990_7e-7),
    )
}

#[test]
fn counter_counts_actual_clamps_only() {
    let before = clark::var_clamp_count();

    // Benign: comparable operands, no cancellation.
    let _ = clark::max(Normal::new(1.0, 0.5), Normal::new(1.2, 0.4));
    assert_eq!(
        clark::var_clamp_count(),
        before,
        "benign max must not count a clamp"
    );

    let (a, b) = clamping_operands();
    let c = clark::max(a, b);
    let after = clark::var_clamp_count();
    assert!(
        after > before,
        "cancellation-prone max must count its clamp"
    );
    // The clamp resolves the negative variance to exactly zero.
    assert_eq!(c.var(), 0.0);
    assert!(c.mean() > 549.0);

    // Each firing counts: three more evaluations, three more clamps.
    for _ in 0..3 {
        let _ = clark::max(a, b);
    }
    assert_eq!(clark::var_clamp_count(), after + 3);

    // The n-ary fold (the SSTA entry point) routes through the same
    // counted clamp.
    let mid = clark::var_clamp_count();
    let folded = clark::max_n([a, b]).expect("two operands fold to one");
    assert!(clark::var_clamp_count() > mid);
    assert!(folded.mean() > 549.0);

    // The derivative kernels count the same clamp, each call once: the
    // Hessian formed from a recorded frame counts it as `max_hess` does.
    let (ma, va, mb, vb) = (a.mean(), a.var(), b.mean(), b.var());
    let eps = clark::DEFAULT_EPS;
    let start = clark::var_clamp_count();
    let (g, frame) = clark::max_grad_frame(ma, va, mb, vb, eps);
    assert_eq!(clark::var_clamp_count(), start + 1);
    let h = clark::hess_from_frame(&frame);
    assert_eq!(clark::var_clamp_count(), start + 2);
    assert_eq!((g.var, h.var), (0.0, 0.0));
    let _ = clark::max_hess(ma, va, mb, vb, eps);
    assert_eq!(clark::var_clamp_count(), start + 3);
}
