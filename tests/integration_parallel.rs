//! Integration: the two parallel kernels — the Monte Carlo sample loop
//! and the per-corner sessions of `SweepEngine::corner_frontier` — are
//! an implementation detail. Their results must be bit-identical to the
//! single-threaded run at every configured thread count: parallelism may
//! only change wall-clock time, never a single bit of output.
//!
//! The thread count is process-global (`build_global`) and libtest runs
//! the tests of this file concurrently, so every test takes
//! [`THREADS`] for its whole sweep: no sibling can change the count
//! between setting it and the evaluation that must observe it.

use sgs_core::{Corner, FrontierPoint, SweepConfig, SweepEngine};
use sgs_netlist::{generate, Library};
use sgs_ssta::{monte_carlo, McOptions};
use std::sync::Mutex;

/// Serializes every test that changes the global thread count.
static THREADS: Mutex<()> = Mutex::new(());

fn lib() -> Library {
    Library::paper_default()
}

/// A deterministic, non-uniform speed-factor vector.
fn speeds(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + 0.05 * (i % 37) as f64).collect()
}

/// Runs `f` once per thread count, holding [`THREADS`] for the whole
/// sweep, and restores the environment default afterwards.
fn at_thread_counts<R>(counts: &[usize], mut f: impl FnMut(usize) -> R) -> Vec<R> {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let out = counts
        .iter()
        .map(|&n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .ok();
            assert_eq!(rayon::current_num_threads(), n, "thread count not applied");
            f(n)
        })
        .collect();
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .ok();
    out
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn parallel_mc_bit_identical_and_thread_invariant() {
    let c = generate::ripple_carry_adder(12);
    let s = speeds(c.num_gates());
    // 30,000 samples leave a partial tail chunk after the full ones.
    let mk = |parallel| McOptions {
        samples: 30_000,
        seed: 77,
        criticality: true,
        parallel,
    };
    let base = monte_carlo(&c, &lib(), &s, &mk(false));
    // The parallel path must reproduce the sequential run exactly at any
    // thread count: `delay` moments, every sample, every criticality.
    at_thread_counts(&[1, 2, 4, 8], |threads| {
        let par = monte_carlo(&c, &lib(), &s, &mk(true));
        assert_eq!(
            par.delay.mean().to_bits(),
            base.delay.mean().to_bits(),
            "mean differs at {threads} threads"
        );
        assert_eq!(
            par.delay.var().to_bits(),
            base.delay.var().to_bits(),
            "var differs at {threads} threads"
        );
        assert_eq!(
            bits(par.samples()),
            bits(base.samples()),
            "samples differ at {threads}"
        );
        assert_eq!(
            bits(&par.criticality),
            bits(&base.criticality),
            "criticality differs at {threads}"
        );
    });
}

/// Every solver-determined field of a frontier point, as bits. Wall time
/// and the process-wide Clark clamp tally (which concurrent corners
/// share) are excluded.
fn point_bits(p: &FrontierPoint) -> Vec<u64> {
    let mut v = vec![
        p.deadline.to_bits(),
        p.feasible as u64,
        p.refined as u64,
        p.cache_hit as u64,
        p.warm_start_hit as u64,
        p.mu.to_bits(),
        p.sigma.to_bits(),
        p.area.to_bits(),
        p.objective.to_bits(),
        p.outer_iterations as u64,
        p.inner_iterations as u64,
        p.evals.constraints as u64,
        p.evals.jacobian as u64,
        p.evals.hessian as u64,
    ];
    v.extend(bits(&p.s));
    v
}

#[test]
fn corner_frontier_bit_identical_across_thread_counts() {
    let c = generate::tree7();
    let l = lib();
    let corners = [
        Corner::nominal(),
        Corner::scaled("slow", 1.15, 1.10),
        Corner::scaled("fast", 0.90, 0.95),
    ];
    let engine = SweepEngine::new(&c, &l).config(SweepConfig {
        points: 5,
        refine_max: 0,
        ..SweepConfig::default()
    });
    let runs = at_thread_counts(&[1, 2, 4, 8], |_| {
        let cf = engine.corner_frontier(&corners).unwrap();
        let per_corner: Vec<Vec<Vec<u64>>> = cf
            .corners
            .iter()
            .map(|t| t.frontier.points.iter().map(point_bits).collect())
            .collect();
        let merged: Vec<Vec<u64>> = cf.merged.points.iter().map(point_bits).collect();
        (per_corner, merged)
    });
    let (base, rest) = runs.split_first().unwrap();
    assert!(base.1.iter().any(|p| p[1] == 1), "no feasible merged point");
    for (run, threads) in rest.iter().zip([2, 4, 8]) {
        assert_eq!(
            run.0, base.0,
            "corner frontiers differ at {threads} threads"
        );
        assert_eq!(
            run.1, base.1,
            "merged frontier differs at {threads} threads"
        );
    }
}
