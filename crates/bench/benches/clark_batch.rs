//! Micro-benchmarks for the batched Clark-max kernel against a scalar
//! loop over `max_eps`. Both run the same per-lane moment routine and are
//! bit-identical (see `proptest_batch.rs`), so any difference here comes
//! from streaming operands out of contiguous arrays and publishing the
//! clamp count once per batch, not from reordering arithmetic.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sgs_statmath::clark::{self, DEFAULT_EPS};
use sgs_statmath::Normal;

/// Deterministic operand vectors in sizing-realistic ranges (no RNG —
/// the exact values only need to be stable and non-degenerate).
fn operands(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut mu_a = Vec::with_capacity(n);
    let mut var_a = Vec::with_capacity(n);
    let mut mu_b = Vec::with_capacity(n);
    let mut var_b = Vec::with_capacity(n);
    for i in 0..n {
        let x = i as f64;
        mu_a.push(5.0 + (x * 0.7).sin() * 3.0);
        var_a.push(1.0 + (x * 0.3).cos().abs());
        mu_b.push(4.5 + (x * 1.1).cos() * 3.0);
        var_b.push(0.8 + (x * 0.5).sin().abs());
    }
    (mu_a, var_a, mu_b, var_b)
}

fn bench_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("clark_batch");
    for &n in &[16usize, 256, 4096] {
        let (mu_a, var_a, mu_b, var_b) = operands(n);
        let mut out_mu = vec![0.0; n];
        let mut out_var = vec![0.0; n];

        g.bench_with_input(BenchmarkId::new("moments_scalar_loop", n), &n, |b, _| {
            b.iter(|| {
                for i in 0..n {
                    let r = clark::max_eps(
                        Normal::from_mean_var(black_box(mu_a[i]), black_box(var_a[i])),
                        Normal::from_mean_var(black_box(mu_b[i]), black_box(var_b[i])),
                        DEFAULT_EPS,
                    );
                    out_mu[i] = r.mean();
                    out_var[i] = r.var();
                }
                black_box(&out_mu);
            })
        });
        g.bench_with_input(BenchmarkId::new("moments_batch", n), &n, |b, _| {
            b.iter(|| {
                clark::max_batch(
                    black_box(&mu_a),
                    black_box(&var_a),
                    black_box(&mu_b),
                    black_box(&var_b),
                    DEFAULT_EPS,
                    &mut out_mu,
                    &mut out_var,
                );
                black_box(&out_mu);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
