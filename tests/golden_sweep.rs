//! Golden-file regression for the rdag40 area-vs-deadline frontier.
//!
//! Traces a fixed-grid frontier on the committed
//! `benchmarks/rdag40.blif` netlist through the warm-chained sweep
//! engine and snapshots the feasible points (deadline, area, mu, sigma
//! at 17 significant digits) into `tests/golden/sweep_rdag40.txt`,
//! asserted to 1e-9: any drift in the solver trajectory, the warm-start
//! carry or the incremental-engine sync shows up as a diff here.
//!
//! The fixed grid (instead of the auto-derived one) keeps the table
//! independent of the minimum-delay anchor solve. Regenerate
//! intentionally with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p sgs-core --test golden_sweep
//! ```

use sgs_core::{SweepConfig, SweepEngine};
use sgs_netlist::{blif, Library};
use std::fmt::Write as _;
use std::path::PathBuf;

const TOL: f64 = 1e-9;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("REGEN_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    let exp_lines: Vec<&str> = expected.lines().collect();
    let act_lines: Vec<&str> = actual.lines().collect();
    assert_eq!(
        exp_lines.len(),
        act_lines.len(),
        "{name}: row count changed"
    );
    for (e, a) in exp_lines.iter().zip(&act_lines) {
        if e.starts_with('#') {
            assert_eq!(e, a, "{name}: header changed");
            continue;
        }
        let ef: Vec<&str> = e.split_whitespace().collect();
        let af: Vec<&str> = a.split_whitespace().collect();
        assert_eq!(ef[0], af[0], "{name}: row label changed");
        for (col, (ev, av)) in ef[1..].iter().zip(&af[1..]).enumerate() {
            let ev: f64 = ev.parse().unwrap();
            let av: f64 = av.parse().unwrap();
            assert!(
                (ev - av).abs() <= TOL * (1.0 + ev.abs()),
                "{name}, row {}, col {col}: golden {ev:.17e} vs actual {av:.17e}",
                ef[0]
            );
        }
    }
}

#[test]
fn golden_sweep_rdag40_frontier() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/rdag40.blif");
    let text = std::fs::read_to_string(&path).expect("committed benchmark netlist");
    let circuit = blif::parse(&text).expect("rdag40.blif parses");
    let lib = Library::paper_default();

    // Fixed walk-order grid: fractions of the unsized baseline delay,
    // matching the warm re-solve demo in the what-if bench.
    let baseline = sgs_ssta::ssta(&circuit, &lib, &vec![1.0; circuit.num_gates()])
        .delay
        .mean();
    let grid: Vec<f64> = [1.00, 0.97, 0.95, 0.92, 0.89, 0.86]
        .iter()
        .map(|f| baseline * f)
        .collect();
    let frontier = SweepEngine::new(&circuit, &lib)
        .config(SweepConfig {
            refine_max: 0,
            infeasible_margin: 0.0,
            ..SweepConfig::default()
        })
        .trace(&grid)
        .expect("rdag40 fixed-grid sweep converges");
    assert_eq!(
        frontier.feasible_count(),
        grid.len(),
        "grid must be feasible"
    );
    frontier.check_dominance(1e-6).expect("frontier dominance");

    let mut out = String::new();
    writeln!(
        out,
        "# sweep circuit {} gates {} points {} feasible {}",
        circuit.name(),
        circuit.num_gates(),
        frontier.points.len(),
        frontier.feasible_count()
    )
    .unwrap();
    writeln!(out, "# columns: deadline area mu sigma").unwrap();
    for (i, p) in frontier.points.iter().filter(|p| p.feasible).enumerate() {
        writeln!(
            out,
            "point_{i:02}  {:+.17e}  {:+.17e}  {:+.17e}  {:+.17e}",
            p.deadline, p.area, p.mu, p.sigma
        )
        .unwrap();
    }
    check_golden("sweep_rdag40.txt", &out);
}
