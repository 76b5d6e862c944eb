//! The warm Pareto-frontier contracts on rdag40, with the sweep's
//! deterministic metrics pinned to a golden transcript.
//!
//! One run of the full scenario on the rdag40 generator twin: the
//! 14-point auto-derived deadline frontier, then the robustness k-sweep,
//! then the three-corner frontier. The contracts:
//!
//! - at least 12 feasible points and at least 75% of the interior
//!   points warm-started;
//! - dominance, at most one infeasible-to-feasible transition, and an
//!   infeasible probe below the minimum delay;
//! - every reported `(mu, sigma, area)` bit-identical to a fresh SSTA at
//!   the point's sizes, and independent cold solves at three sampled
//!   deadlines agreeing on area within 5e-3;
//! - `V(k)` non-decreasing, and the merged worst-corner frontier
//!   dominant.
//!
//! `tests/golden/sweep_rdag40_metrics.txt` then pins the registry's
//! deterministic values ([`sgs_metrics::Snapshot::deterministic_lines`]).
//! The corner sessions run in parallel, so the `nlp_last_*` gauges name
//! whichever corner solve finished last: the transcript records every
//! value once before the corner sweep, and only the counters, histogram
//! counts and phase counts (sums, which do not depend on order) after it.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --release -p sgs-core --test sweep_contracts
//! ```

use sgs_core::{Corner, DelaySpec, Objective, Sizer, SweepConfig, SweepEngine};
use sgs_netlist::{generate, Library};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sweep_rdag40_metrics.txt")
}

fn deterministic_lines() -> String {
    sgs_metrics::snapshot(sgs_metrics::Metadata::default()).deterministic_lines()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: the full sweep scenario takes minutes unoptimised"
)]
fn rdag40_frontier_k_sweep_and_corners_keep_their_contracts() {
    sgs_metrics::reset();
    sgs_metrics::enable();
    let circuit = generate::random_dag(&generate::RandomDagSpec {
        name: "rdag40".into(),
        cells: 40,
        inputs: 8,
        depth: 8,
        seed: 40,
        ..Default::default()
    });
    let lib = Library::paper_default();
    let config = SweepConfig {
        points: 14,
        ..SweepConfig::default()
    };
    let engine = SweepEngine::new(&circuit, &lib).config(config.clone());

    let frontier = engine.deadline_frontier().expect("rdag40 sweep converges");
    let feasible = frontier.feasible_count();
    assert!(feasible >= 12, "only {feasible} feasible frontier points");
    let warm = frontier.warm_interior_fraction();
    assert!(warm >= 0.75, "only {:.0}% warm interior", warm * 100.0);
    frontier.check_dominance(1e-6).expect("frontier dominance");
    assert!(
        frontier.transitions() <= 1,
        "more than one infeasible-to-feasible transition"
    );
    assert!(
        frontier.points.iter().any(|p| !p.feasible),
        "the below-minimum probe must be infeasible"
    );
    frontier
        .verify_evaluation(&circuit, &lib)
        .expect("warm frontier values bit-identical to fresh evaluation");
    // Cold solves are different iterates of the same NLP: a small
    // relative tolerance, not bit-equality, is the contract here.
    let feasible_pts: Vec<_> = frontier.points.iter().filter(|p| p.feasible).collect();
    for idx in [0, feasible_pts.len() / 2, feasible_pts.len() - 1] {
        let p = feasible_pts[idx];
        let cold = Sizer::new(&circuit, &lib)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(p.deadline))
            .solve()
            .expect("cold re-solve feasible at a swept deadline");
        let rel = (cold.area - p.area).abs() / (1.0 + p.area.abs());
        assert!(
            rel <= 5e-3,
            "cold re-solve at deadline {} disagrees: warm area {}, cold {}",
            p.deadline,
            p.area,
            cold.area
        );
    }

    let k_points = engine
        .k_sweep(&[0.0, 1.0, 2.0, 3.0])
        .expect("rdag40 k-sweep converges");
    for w in k_points.windows(2) {
        assert!(
            w[1].objective >= w[0].objective - 1e-6 * (1.0 + w[0].objective.abs()),
            "V(k) must be non-decreasing: V({}) = {}, V({}) = {}",
            w[0].k,
            w[0].objective,
            w[1].k,
            w[1].objective
        );
    }
    let mut transcript = deterministic_lines();

    let corners = [
        Corner::nominal(),
        Corner::scaled("slow", 1.15, 1.10),
        Corner::scaled("fast", 0.90, 0.95),
    ];
    let cf = SweepEngine::new(&circuit, &lib)
        .config(SweepConfig {
            points: 7,
            ..config
        })
        .corner_frontier(&corners)
        .expect("rdag40 corner sweep converges");
    cf.merged
        .check_dominance(1e-6)
        .expect("worst-corner frontier dominance");
    for line in deterministic_lines().lines() {
        if !line.starts_with("gauge.") {
            transcript.push_str("after_corners.");
            transcript.push_str(line);
            transcript.push('\n');
        }
    }
    sgs_metrics::disable();

    let path = golden_path();
    if std::env::var_os("REGEN_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&path, &transcript).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    for (e, a) in expected.lines().zip(transcript.lines()) {
        assert_eq!(e, a, "sweep metrics drifted from the golden");
    }
    assert_eq!(
        expected.lines().count(),
        transcript.lines().count(),
        "sweep metrics line count changed"
    );
}
