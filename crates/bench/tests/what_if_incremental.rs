//! The incremental what-if engine against full re-analysis on the
//! generated Table 1 suite, and warm deadline re-solves on rdag40.
//!
//! Three contracts:
//!
//! - every incremental answer is bit-identical to a from-scratch SSTA
//!   pass at the same sizes (100 single-gate queries per circuit);
//! - on the largest circuit the median incremental query is at least 5x
//!   faster than a full pass. The two engines are timed interleaved,
//!   query by query, so host load hits both alike;
//! - every warm rdag40 deadline re-solve accepts its warm start.

use sgs_bench::script::generated_steps;
use sgs_core::{DelaySpec, Objective, Sizer};
use sgs_netlist::{generate, Circuit, GateId, Library};
use sgs_ssta::{ssta, IncrementalSsta};
use std::time::Instant;

const QUERIES: usize = 100;

/// A non-uniform starting point, so the queries move gates off a
/// realistic sizing rather than off the all-ones corner.
fn start_sizes(circuit: &Circuit) -> Vec<f64> {
    (0..circuit.num_gates())
        .map(|i| 1.0 + 0.05 * (i % 37) as f64)
        .collect()
}

fn steps(circuit: &Circuit, lib: &Library) -> Vec<Vec<(GateId, f64)>> {
    generated_steps(circuit, lib, QUERIES, 0xC0FFEE ^ circuit.num_gates() as u64)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[test]
fn incremental_answers_are_bit_identical_to_full_reanalysis() {
    let lib = Library::paper_default();
    for circuit in generate::benchmark_suite() {
        let mut s = start_sizes(&circuit);
        let mut inc = IncrementalSsta::new(&circuit, &lib, &s);
        for (q, step) in steps(&circuit, &lib).iter().enumerate() {
            inc.apply(step);
            for &(g, v) in step {
                s[g.index()] = v;
            }
            let full = ssta(&circuit, &lib, &s).delay;
            let got = inc.delay();
            assert!(
                got.mean().to_bits() == full.mean().to_bits()
                    && got.sigma().to_bits() == full.sigma().to_bits(),
                "{} query {q}: incremental ({}, {}) vs full ({}, {})",
                circuit.name(),
                got.mean(),
                got.sigma(),
                full.mean(),
                full.sigma()
            );
        }
    }
}

#[test]
fn incremental_query_is_at_least_5x_faster_on_the_largest_circuit() {
    let lib = Library::paper_default();
    let circuit = generate::benchmark_suite()
        .into_iter()
        .max_by_key(Circuit::num_gates)
        .expect("non-empty suite");
    let mut s = start_sizes(&circuit);
    let mut inc = IncrementalSsta::new(&circuit, &lib, &s);
    let (mut inc_seconds, mut full_seconds) = (Vec::new(), Vec::new());
    for step in steps(&circuit, &lib) {
        let t = Instant::now();
        inc.apply(&step);
        inc_seconds.push(t.elapsed().as_secs_f64());
        for &(g, v) in &step {
            s[g.index()] = v;
        }
        let t = Instant::now();
        std::hint::black_box(ssta(&circuit, &lib, &s));
        full_seconds.push(t.elapsed().as_secs_f64());
    }
    let speedup = median(full_seconds) / median(inc_seconds);
    assert!(
        speedup >= 5.0,
        "{}: median incremental speedup {speedup:.1}x is below 5x",
        circuit.name()
    );
}

#[test]
fn warm_rdag40_resolves_accept_their_warm_start() {
    let lib = Library::paper_default();
    let rdag = generate::random_dag(&generate::RandomDagSpec {
        name: "rdag40".into(),
        cells: 40,
        inputs: 8,
        depth: 8,
        seed: 40,
        ..Default::default()
    });
    let baseline = ssta(&rdag, &lib, &vec![1.0; rdag.num_gates()]).delay.mean();
    let mut resolver = Sizer::new(&rdag, &lib)
        .objective(Objective::Area)
        .delay_spec(DelaySpec::MaxMean(baseline * 0.95))
        .resolver();
    resolver.solve().expect("cold rdag40 solve converges");
    for factor in [0.92, 0.89, 0.86] {
        let out = resolver
            .resolve_spec(baseline * factor)
            .expect("warm re-solve converges");
        assert!(
            out.warm_start_hit,
            "re-solve at {factor} x baseline rejected its warm start"
        );
    }
}
