//! Statistical STA throughput across circuit sizes, against the
//! deterministic STA and Monte Carlo alternatives.
//!
//! The paper's argument for the analytical method is precisely this
//! comparison: repeated delay evaluation inside an optimiser needs the
//! analytical propagation (linear-time, like deterministic STA), not
//! Monte Carlo.
//!
//! `analytical` builds its `DelayModel` on every call, as `ssta` does;
//! `analytical_with_model` reuses one built outside the timed loop, so
//! the gap between the two is the per-call model's share of a pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::Library;
use sgs_ssta::{monte_carlo, ssta, ssta_with_model, sta_deterministic, DelayModel, McOptions};

fn bench_ssta(c: &mut Criterion) {
    let lib = Library::paper_default();
    let mut g = c.benchmark_group("ssta");
    g.sample_size(20);
    for cells in [100usize, 400, 1600, 2600] {
        let circuit = generate::random_dag(&RandomDagSpec {
            name: format!("sweep{cells}"),
            cells,
            inputs: 32,
            depth: (cells as f64).sqrt() as usize,
            seed: 9,
            ..Default::default()
        });
        let s = vec![1.5; cells];
        g.bench_with_input(BenchmarkId::new("analytical", cells), &cells, |b, _| {
            b.iter(|| ssta(&circuit, &lib, &s))
        });
        let model = DelayModel::new(&circuit, &lib);
        g.bench_with_input(
            BenchmarkId::new("analytical_with_model", cells),
            &cells,
            |b, _| b.iter(|| ssta_with_model(&circuit, &model, &s)),
        );
        g.bench_with_input(BenchmarkId::new("deterministic", cells), &cells, |b, _| {
            b.iter(|| sta_deterministic(&circuit, &lib, &s, 3.0))
        });
        g.bench_with_input(BenchmarkId::new("monte_carlo_1k", cells), &cells, |b, _| {
            b.iter(|| {
                monte_carlo(
                    &circuit,
                    &lib,
                    &s,
                    &McOptions {
                        samples: 1000,
                        seed: 1,
                        criticality: false,
                        ..Default::default()
                    },
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ssta);
criterion_main!(benches);
