//! Micro-benchmarks for the statistical-max kernel — the operation the
//! whole method leans on (every SSTA arrival and every NLP constraint
//! evaluation calls it). Compares plain moments, moments + gradient,
//! moments + Hessian and the Hessian from a recorded frame (what the
//! reduced seed's `prepare_hess` pays per max node) in the central and the
//! tail region of `alpha`, and, on the central case, the hyper-dual
//! reference path and Monte Carlo.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sgs_statmath::clark::{self, DEFAULT_EPS};
use sgs_statmath::{mc, Normal};

/// Operand pairs `(mu_a, var_a, mu_b, var_b)` by the region of `alpha =
/// (mu_a - mu_b) / theta` they exercise: a near-tie in the central series,
/// and dominated operands in the continued-fraction tail, where more than
/// half the maxes of an unsized circuit fall. From `|alpha|` of about 8.3
/// on, `clark::max` can certify that the dominant operand comes through
/// unchanged and skip the tail (`alpha_12`, `alpha_20`). Below that
/// (`alpha_4_5`, `alpha_6`) it certifies its moments from a half-depth
/// bracket around the tail value instead of the full-depth fraction. The
/// gradient and Hessian certify `Phi(alpha)` from the same bracket for
/// `alpha >= 4`, the sign every case here has; only `alpha <= -4` runs the
/// full fraction there. `alpha_4_5` sits in the deepest band of the
/// fraction, `4 <= |alpha| < 4.5`.
const CASES: [(&str, [f64; 4]); 5] = [
    ("central", [5.0, 2.0, 4.5, 1.5]),     // alpha ~ 0.27
    ("alpha_4_5", [12.45, 2.0, 4.5, 1.5]), // alpha ~ 4.25
    ("alpha_6", [15.7, 2.0, 4.5, 1.5]),    // alpha ~ 5.99
    ("alpha_12", [27.0, 2.0, 4.5, 1.5]),   // alpha ~ 12.03
    ("alpha_20", [20.0, 1.0, 0.0, 0.0]),   // alpha ~ 20.0
];

fn bench_clark(c: &mut Criterion) {
    let mut g = c.benchmark_group("clark_max");
    for (case, args) in CASES {
        g.bench_with_input(BenchmarkId::new("moments", case), &args, |b, args| {
            b.iter(|| {
                clark::max(
                    Normal::from_mean_var(black_box(args[0]), black_box(args[1])),
                    Normal::from_mean_var(black_box(args[2]), black_box(args[3])),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("gradient", case), &args, |b, args| {
            b.iter(|| {
                clark::max_grad(
                    black_box(args[0]),
                    black_box(args[1]),
                    black_box(args[2]),
                    black_box(args[3]),
                    DEFAULT_EPS,
                )
            })
        });
        g.bench_with_input(
            BenchmarkId::new("hessian_closed_form", case),
            &args,
            |b, args| {
                b.iter(|| {
                    clark::max_hess(
                        black_box(args[0]),
                        black_box(args[1]),
                        black_box(args[2]),
                        black_box(args[3]),
                        DEFAULT_EPS,
                    )
                })
            },
        );
        let (_, frame) = clark::max_grad_frame(args[0], args[1], args[2], args[3], DEFAULT_EPS);
        g.bench_with_input(
            BenchmarkId::new("hessian_recorded_frame", case),
            &frame,
            |b, frame| b.iter(|| clark::hess_from_frame(black_box(frame))),
        );
    }
    let args = CASES[0].1;
    g.bench_function("hessian_hyper_dual", |b| {
        b.iter(|| {
            clark::max_hess_dual(
                black_box(args[0]),
                black_box(args[1]),
                black_box(args[2]),
                black_box(args[3]),
                DEFAULT_EPS,
            )
        })
    });
    // The sampling alternative the paper rejects as too slow for repeated
    // evaluation inside an optimiser (here at a modest 10k samples).
    g.bench_function("monte_carlo_10k", |b| {
        b.iter(|| {
            mc::max_moments(
                Normal::from_mean_var(args[0], args[1]),
                Normal::from_mean_var(args[2], args[3]),
                10_000,
                42,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_clark);
criterion_main!(benches);
