//! Clark maxes where one operand dominates (`|alpha|` from the dominance
//! threshold out to 45) must come out bit for bit as the textual formula
//! `moments_generic` gives them, through the scalar and the batched entry
//! points, and must advance the variance-clamp counter by exactly the
//! number of negative variances that formula produces. This file runs in
//! its own test process and holds a single test, so the process-global
//! counter is only touched by the calls below.

use sgs_statmath::clark::{self, DEFAULT_EPS};
use sgs_statmath::Normal;

/// Pairs at `alpha ~ a`, both orientations, from `(mu, sigma_s,
/// sigma_d)`: arrival-like shapes put the non-dominant mean at `mu` and
/// the dominant one `a theta` above it. The clamp-prone shapes (negative
/// `mu`) instead pin the dominant mean at `-mu` with a nearly certain
/// dominant operand and a wide one far below it, where `E[C^2] - mu_C^2`
/// cancels catastrophically and the clamp fires.
fn pairs(a: f64) -> impl Iterator<Item = [f64; 4]> {
    let shapes = [
        (0.9, 0.2, 0.05),
        (4.7, 0.5, 0.9),
        (12.5, 1.6, 1.2),
        (180.0, 9.0, 4.0),
        (2.0, 1e-3, 1e-6),
        (-1.0, 100.0, 1e-7),
        (
            -45.819_505_757_673_95,
            68.475_129_009_259_67,
            3.915_233_261_414_990_7e-7,
        ),
    ];
    shapes.into_iter().flat_map(move |(mu, sigma_s, sigma_d)| {
        let (var_s, var_d) = (sigma_s * sigma_s, sigma_d * sigma_d);
        let gap = a * (var_d + var_s + DEFAULT_EPS * DEFAULT_EPS).sqrt();
        let (mu_s, mu_d) = if mu < 0.0 {
            (-mu - gap, -mu)
        } else {
            (mu, mu + gap)
        };
        [[mu_d, var_d, mu_s, var_s], [mu_s, var_s, mu_d, var_d]]
    })
}

#[test]
fn dominated_grid_matches_the_formula_and_its_clamps() {
    let n = 20_000;
    let lanes: Vec<[f64; 4]> = (0..=n)
        .flat_map(|i| pairs(8.25 + (45.0 - 8.25) * f64::from(i) / f64::from(n)))
        .collect();
    let want: Vec<(f64, f64)> = lanes
        .iter()
        .map(|&[ma, va, mb, vb]| clark::moments_generic(ma, va, mb, vb, DEFAULT_EPS))
        .collect();
    let want_clamps = want.iter().filter(|&&(_, var)| var < 0.0).count() as u64;
    assert!(want_clamps > 0, "the grid must exercise the clamp");

    let before = clark::var_clamp_count();
    for (&[ma, va, mb, vb], &(mu, var)) in lanes.iter().zip(&want) {
        let got = clark::max_eps(
            Normal::from_mean_var(ma, va),
            Normal::from_mean_var(mb, vb),
            DEFAULT_EPS,
        );
        assert_eq!(
            got.mean().to_bits(),
            mu.to_bits(),
            "mu at {ma} {va} {mb} {vb}"
        );
        assert_eq!(
            got.var().to_bits(),
            var.max(0.0).to_bits(),
            "var at {ma} {va} {mb} {vb}"
        );
    }
    assert_eq!(
        clark::var_clamp_count() - before,
        want_clamps,
        "scalar clamps"
    );

    let column = |k: usize| lanes.iter().map(|l| l[k]).collect::<Vec<f64>>();
    let (mut out_mu, mut out_var) = (vec![0.0; lanes.len()], vec![0.0; lanes.len()]);
    let before = clark::var_clamp_count();
    clark::max_batch(
        &column(0),
        &column(1),
        &column(2),
        &column(3),
        DEFAULT_EPS,
        &mut out_mu,
        &mut out_var,
    );
    assert_eq!(
        clark::var_clamp_count() - before,
        want_clamps,
        "batched clamps"
    );
    for (i, &(mu, var)) in want.iter().enumerate() {
        assert_eq!(out_mu[i].to_bits(), mu.to_bits(), "batched mu, lane {i}");
        assert_eq!(
            out_var[i].to_bits(),
            var.max(0.0).to_bits(),
            "batched var, lane {i}"
        );
    }
}
