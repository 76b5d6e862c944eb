//! Allocation ceilings on the metered solves.
//!
//! This binary installs [`sgs_metrics::alloc::CountingAllocator`] and
//! counts every heap allocation of the `size_blif --metrics` workloads:
//! parse the netlist, run the unsized baseline SSTA, then size it with
//! the registry on. The ceilings are absolute, so they hold however the
//! goldens get regenerated:
//!
//! | run              | calls    | bytes       |
//! |------------------|----------|-------------|
//! | rdag40 area d20  | ≤ 25,000 | ≤ 56,000,000 |
//! | tree7 area d12   | ≤ 6,000  | ≤ 1,000,000  |
//!
//! Those ceilings sit an order of magnitude above today's counts, so a
//! third test pins the property that keeps the counts low: the inner
//! trust-region loop reuses its workspace. Letting a cold rdag40 AL solve
//! (from the unsized point, without the `Sizer`'s seed) run eight outer
//! iterations instead of two adds over a hundred trust-region steps, and
//! it must add fewer allocations than steps (today: 123 steps, 12
//! allocations, two per outer iteration).
//!
//! The counters are process-wide, so the tests take turns under one lock.

use sgs_core::{DelaySpec, Objective, Sizer, SizingProblem};
use sgs_netlist::{blif, generate, Circuit, Library};
use sgs_nlp::{auglag, AugLagOptions};
use std::path::PathBuf;
use std::sync::Mutex;

#[global_allocator]
static GLOBAL: sgs_metrics::alloc::CountingAllocator = sgs_metrics::alloc::CountingAllocator;

static SOLO: Mutex<()> = Mutex::new(());

/// Allocation calls and bytes spent by `work`.
fn allocations<T>(work: impl FnOnce() -> T) -> (u64, u64, T) {
    let (calls, bytes) = (
        sgs_metrics::alloc::allocation_calls(),
        sgs_metrics::alloc::allocation_bytes(),
    );
    let out = work();
    (
        sgs_metrics::alloc::allocation_calls() - calls,
        sgs_metrics::alloc::allocation_bytes() - bytes,
        out,
    )
}

fn rdag40_text() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/rdag40.blif");
    std::fs::read_to_string(path).expect("benchmarks/rdag40.blif exists")
}

/// The `size_blif --metrics` run: baseline SSTA, then a metered sizing
/// of `circuit` for minimum area under `mu + 3 sigma <= deadline`.
fn metered_run(circuit: &Circuit, deadline: f64) {
    let lib = Library::paper_default();
    sgs_metrics::reset();
    sgs_metrics::enable();
    let baseline = sgs_ssta::ssta(circuit, &lib, &vec![1.0; circuit.num_gates()]);
    std::hint::black_box(baseline.delay);
    Sizer::new(circuit, &lib)
        .objective(Objective::Area)
        .delay_spec(DelaySpec::MaxMeanPlusKSigma {
            k: 3.0,
            d: deadline,
        })
        .solve()
        .expect("metered solve succeeds");
    sgs_metrics::disable();
}

#[test]
fn rdag40_area_d20_stays_under_its_allocation_ceiling() {
    let _solo = SOLO.lock().unwrap_or_else(|e| e.into_inner());
    let text = rdag40_text();
    let (calls, bytes, ()) = allocations(|| {
        let circuit = blif::parse(&text).expect("rdag40.blif parses");
        metered_run(&circuit, 20.0);
    });
    assert!(calls <= 25_000, "rdag40: {calls} allocation calls > 25,000");
    assert!(
        bytes <= 56_000_000,
        "rdag40: {bytes} allocated bytes > 56,000,000"
    );
}

#[test]
fn tree7_area_d12_stays_under_its_allocation_ceiling() {
    let _solo = SOLO.lock().unwrap_or_else(|e| e.into_inner());
    let (calls, bytes, ()) = allocations(|| metered_run(&generate::tree7(), 12.0));
    assert!(calls <= 6_000, "tree7: {calls} allocation calls > 6,000");
    assert!(
        bytes <= 1_000_000,
        "tree7: {bytes} allocated bytes > 1,000,000"
    );
}

#[test]
fn trust_region_steps_reuse_their_workspace() {
    let _solo = SOLO.lock().unwrap_or_else(|e| e.into_inner());
    let circuit = blif::parse(&rdag40_text()).expect("rdag40.blif parses");
    let lib = Library::paper_default();
    // A cold AL solve from the unsized point: the seeded `Sizer` solve
    // converges in too few steps to show a per-step cost.
    let problem = SizingProblem::build(
        &circuit,
        &lib,
        Objective::Area,
        DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 20.0 },
    );
    let x0 = problem.initial_point(&vec![1.0; circuit.num_gates()]);
    let capped = |max_outer: usize| {
        let (calls, _, r) = allocations(|| {
            auglag::solve(
                &problem,
                &x0,
                &AugLagOptions {
                    tol_feas: 1e-6,
                    tol_opt: 1e-4,
                    max_outer,
                    ..AugLagOptions::default()
                },
            )
        });
        (calls, r.inner_iterations)
    };
    let (short_calls, short_steps) = capped(2);
    let (long_calls, long_steps) = capped(8);
    let extra_steps = long_steps - short_steps;
    let extra_calls = long_calls.saturating_sub(short_calls);
    assert!(
        extra_steps >= 100,
        "the longer solve must add many trust-region steps, added {extra_steps}"
    );
    assert!(
        (extra_calls as usize) < extra_steps,
        "{extra_steps} more trust-region steps cost {extra_calls} more allocations"
    );
}
