//! Bit-identity golden tests for the metered solve path.
//!
//! The allocation-free hot paths (workspace-reused inner iterations,
//! preallocated CSR assembly, the SoA arrival storage and the batched
//! Clark kernel) are refactors, not re-derivations: they must reproduce
//! the pre-refactor solver *bit for bit*. These tests pin the full
//! iterate vector, the objective, the `Tmax` moments and the Clark
//! variance-clamp count of the two metered circuits (`tree7`, `rdag40`)
//! against goldens generated before the refactor. Each transcript then
//! carries every deterministic value of the solve's metrics snapshot
//! ([`sgs_metrics::Snapshot::deterministic_lines`]): counters, the
//! `nlp_last_*` gauges, histogram counts and phase counts, so one extra
//! SSTA pass or CG iteration fails here too. The same solve with a ring
//! trace sink attached must reproduce the transcript line for line.
//! Values are stored as 17-significant-digit decimals (which round-trip
//! `f64` exactly) and compared as text, so equal lines mean equal bits.
//!
//! Regenerate intentionally (answers and counters together) with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p sgs-core --test golden_bitident
//! ```

use sgs_core::{DelaySpec, Objective, Sizer};
use sgs_netlist::{blif, generate, Circuit, Library};
use sgs_trace::{RingSink, TraceSink};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

/// Serializes the solves: `clark_var_clamps` and the metrics registry
/// are process-wide, so a solve running concurrently in a sibling test
/// would be counted too.
static SOLVE: Mutex<()> = Mutex::new(());

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn lib() -> Library {
    Library::paper_default()
}

fn rdag40() -> Circuit {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/rdag40.blif");
    let text = std::fs::read_to_string(&path).expect("benchmarks/rdag40.blif exists");
    blif::parse(&text).expect("rdag40.blif parses")
}

/// Renders one solve as `key value` lines with exact-round-trip decimals,
/// followed by the deterministic values of its metrics snapshot.
fn solve_transcript(circuit: &Circuit, deadline: f64, sink: Option<&dyn TraceSink>) -> String {
    let lib = lib();
    sgs_metrics::reset();
    sgs_metrics::enable();
    let mut sizer = Sizer::new(circuit, &lib)
        .objective(Objective::Area)
        .delay_spec(DelaySpec::MaxMeanPlusKSigma {
            k: 3.0,
            d: deadline,
        });
    if let Some(sink) = sink {
        sizer = sizer.trace(sink);
    }
    let r = sizer.solve().expect("solve succeeds");
    let metrics = sgs_metrics::snapshot(sgs_metrics::Metadata::default());
    sgs_metrics::disable();
    let mut out = String::new();
    writeln!(out, "objective {:.17e}", r.objective).unwrap();
    writeln!(out, "mu_tmax {:.17e}", r.delay.mean()).unwrap();
    writeln!(out, "var_tmax {:.17e}", r.delay.var()).unwrap();
    writeln!(out, "clark_var_clamps {}", r.clark_var_clamps).unwrap();
    for (g, s) in r.s.iter().enumerate() {
        writeln!(out, "s[{g}] {s:.17e}").unwrap();
    }
    out.push_str(&metrics.deterministic_lines());
    out
}

/// The untraced transcript, after checking that attaching the daemon's
/// ring sink changes neither the answer nor a single count.
fn render(circuit: &Circuit, deadline: f64) -> String {
    let _solo = SOLVE.lock().unwrap_or_else(|e| e.into_inner());
    let plain = solve_transcript(circuit, deadline, None);
    let ring = RingSink::new(16);
    let traced = solve_transcript(circuit, deadline, Some(&ring));
    for (p, t) in plain.lines().zip(traced.lines()) {
        assert_eq!(p, t, "ring-traced solve differs from the untraced one");
    }
    assert_eq!(plain.lines().count(), traced.lines().count());
    plain
}

/// Asserts `actual` matches the golden file line for line. Numbers are
/// written in exact-round-trip form, so equal text means equal bits.
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
    for (e, a) in exp_lines.iter().zip(&act_lines) {
        let (ek, ev) = e.split_once(' ').unwrap();
        let (ak, av) = a.split_once(' ').unwrap();
        assert_eq!(ek, ak, "{name}: key changed");
        assert_eq!(ev, av, "{name}: {ek} changed");
    }
    assert_eq!(
        exp_lines.len(),
        act_lines.len(),
        "{name}: line count changed"
    );
}

/// The tree benchmark under the metered CI configuration
/// (`--objective area --deadline 12`).
#[test]
fn bitident_tree7_area_d12() {
    let c = generate::tree7();
    check_golden("bitident_tree7.txt", &render(&c, 12.0));
}

/// The random-DAG benchmark under the metered CI configuration
/// (`--objective area --deadline 20`).
#[test]
fn bitident_rdag40_area_d20() {
    let c = rdag40();
    check_golden("bitident_rdag40.txt", &render(&c, 20.0));
}

/// The NLP assembly keeps no mutable state of its own, so the rdag40
/// solve (pinned to its golden by `bitident_rdag40_area_d20`) is
/// reproduced bit for bit when several solves of it run on their own
/// threads at once, as the corner sweep and the serve daemon run them. The clamp tally is left out: it is a delta of a
/// process-wide counter, which concurrent solves share by design.
#[test]
fn bitident_assembly_par_threshold_invariant() {
    let c = rdag40();
    let answer = || {
        let r = Sizer::new(&c, &lib())
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 20.0 })
            .solve()
            .expect("solve succeeds");
        let mut bits = vec![r.objective, r.delay.mean(), r.delay.var()];
        bits.extend(&r.s);
        bits.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
    };
    let _solo = SOLVE.lock().unwrap_or_else(|e| e.into_inner());
    let serial = answer();
    let parallel: Vec<Vec<u64>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..3).map(|_| s.spawn(answer)).collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (t, got) in parallel.iter().enumerate() {
        assert_eq!(&serial, got, "solve on thread {t} differs");
    }
}
