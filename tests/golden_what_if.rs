//! Golden-file regression for a scripted what-if session.
//!
//! Drives the incremental engine behind [`sgs_core::Resolver::what_if`]
//! through a fixed, seeded sequence of single-gate resizes on the
//! committed `benchmarks/rdag40.blif` netlist and snapshots the per-step
//! `Tmax` moments (`mu`, `sigma`) into `tests/golden/what_if_rdag40.txt`.
//! The engine is deterministic, so the table is asserted to 1e-9: any
//! drift in the dirty-cone propagation, the output prefix-fold cache or
//! Clark's max operator shows up as a diff here.
//!
//! Each step also re-asserts the incrementality acceptance criterion: a
//! single-gate perturbation recomputes strictly fewer gates than the
//! circuit holds.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p sgs-core --test golden_what_if
//! ```

use sgs_core::Resolver;
use sgs_netlist::{blif, GateId, Library};
use std::fmt::Write as _;
use std::path::PathBuf;

const TOL: f64 = 1e-9;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// splitmix64 step — the same deterministic stream the what-if bench
/// binary and the oracle battery use.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
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

/// A 24-step scripted session: deterministic single-gate resizes, one
/// golden row of `Tmax` moments per step.
#[test]
fn golden_what_if_rdag40_session() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/rdag40.blif");
    let text = std::fs::read_to_string(&path).expect("committed benchmark netlist");
    let circuit = blif::parse(&text).expect("rdag40.blif parses");
    let lib = Library::paper_default();
    let n = circuit.num_gates();

    let mut resolver = Resolver::new(&circuit, &lib);
    let mut state = 0x40u64;
    let mut out = String::new();
    writeln!(
        out,
        "baseline {:.17e} {:.17e}",
        resolver.delay().mean(),
        resolver.delay().sigma()
    )
    .unwrap();
    for step in 0..24 {
        let g = (splitmix64(&mut state) % n as u64) as usize;
        let v = 1.0 + unit(&mut state) * (lib.s_limit - 1.0);
        let report = resolver.what_if(&[(GateId(g), v)]);
        // Incrementality criterion, re-pinned on every scripted step.
        assert!(
            report.stats.gates_recomputed < n,
            "step {step}: single-gate change recomputed all {n} gates"
        );
        writeln!(
            out,
            "step_{step:02} {:.17e} {:.17e}",
            report.delay.mean(),
            report.delay.sigma()
        )
        .unwrap();
    }
    check_golden("what_if_rdag40.txt", &out);
}
