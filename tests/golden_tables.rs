//! Golden-file regression tests for the paper-style result tables.
//!
//! Each case sizes a fixed circuit under a fixed objective/constraint and
//! snapshots `(mu, sigma, area)` — the three columns of the paper's
//! Tables 1-3 — into `tests/golden/*.txt`. The solver is deterministic
//! (seeded circuits, bit-identical parallel assembly, no wall-clock
//! dependence in the iterates), so the snapshot is asserted to 1e-9:
//! any numerical drift in the statistical model, the formulation or the
//! solver shows up as a diff here before it shows up as a silently wrong
//! table.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p sgs-core --test golden_tables
//! ```

use sgs_core::{DelaySpec, Objective, Sizer};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::{Circuit, Library};
use std::fmt::Write as _;
use std::path::PathBuf;

const TOL: f64 = 1e-9;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn lib() -> Library {
    Library::paper_default()
}

fn small_dag() -> Circuit {
    generate::random_dag(&RandomDagSpec {
        name: "golden20".into(),
        cells: 20,
        inputs: 4,
        depth: 4,
        seed: 2000,
        ..Default::default()
    })
}

struct Case {
    label: &'static str,
    objective: Objective,
    spec: DelaySpec,
}

/// Solves every case and renders the table as `label mu sigma area` rows
/// with full-precision hex-independent decimal (17 significant digits
/// round-trips f64 exactly).
fn render(circuit: &Circuit, cases: &[Case]) -> String {
    let lb = lib();
    let mut out = String::new();
    for case in cases {
        let r = Sizer::new(circuit, &lb)
            .objective(case.objective.clone())
            .delay_spec(case.spec.clone())
            .solve()
            .unwrap_or_else(|e| panic!("{}: {e}", case.label));
        writeln!(
            out,
            "{} {:.17e} {:.17e} {:.17e}",
            case.label,
            r.delay.mean(),
            r.delay.sigma(),
            r.area
        )
        .unwrap();
    }
    out
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

/// Table 2 shape: the balanced tree under the paper's tree-circuit
/// objectives (min mu, min mu + 3 sigma, min area at an exact mean).
#[test]
fn golden_tree7_table() {
    let c = generate::tree7();
    let cases = [
        Case {
            label: "min_mu",
            objective: Objective::MeanDelay,
            spec: DelaySpec::None,
        },
        Case {
            label: "min_mu_plus_3sigma",
            objective: Objective::MeanPlusKSigma(3.0),
            spec: DelaySpec::None,
        },
        Case {
            label: "min_area_exact_mu_7",
            objective: Objective::Area,
            spec: DelaySpec::ExactMean(7.0),
        },
        Case {
            label: "min_area_mu_le_8",
            objective: Objective::Area,
            spec: DelaySpec::MaxMean(8.0),
        },
    ];
    check_golden("tree7.txt", &render(&c, &cases));
}

/// Table 3 shape: a seeded random DAG under area/deadline trade-offs
/// including the statistical (mu + 3 sigma) deadline form.
#[test]
fn golden_random_dag_table() {
    let c = small_dag();
    let cases = [
        Case {
            label: "min_mu",
            objective: Objective::MeanDelay,
            spec: DelaySpec::None,
        },
        Case {
            label: "min_area_mu_le_14",
            objective: Objective::Area,
            spec: DelaySpec::MaxMean(14.0),
        },
        Case {
            label: "min_area_mu3sig_le_16",
            objective: Objective::Area,
            spec: DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 16.0 },
        },
    ];
    check_golden("random_dag20.txt", &render(&c, &cases));
}
