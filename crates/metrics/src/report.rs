//! Human-readable run reports from a snapshot — what `sgs_report render`
//! prints.

use crate::snapshot::Snapshot;
use std::fmt::Write as _;

/// Renders the full run report: header, phase profile tree, histogram
/// table and counter/gauge summary.
#[must_use]
pub fn render(s: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);
    let _ = writeln!(
        out,
        "# sgs run report — {} on {}",
        s.meta.bin, s.meta.circuit
    );
    let _ = writeln!(
        out,
        "git_sha={} threads={} timestamp={} schema_version={}",
        s.meta.git_sha, s.meta.threads, s.meta.timestamp, s.schema_version
    );
    let run_seconds = s.gauges.get("run_seconds").copied().unwrap_or(f64::NAN);
    match s.coverage() {
        Some(cov) => {
            let _ = writeln!(
                out,
                "wall clock: {:.3} s — profile coverage {:.1}%",
                run_seconds,
                cov * 100.0
            );
        }
        None => {
            let _ = writeln!(out, "wall clock: {run_seconds:.3} s");
        }
    }

    out.push_str("\n## phase profile\n\n");
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>10} {:>7}",
        "phase", "total [s]", "self [s]", "count"
    );
    let roots: Vec<&str> = s
        .phases
        .values()
        .filter(|p| p.parent.is_none() && p.count > 0)
        .map(|p| p.name.as_str())
        .collect();
    for root in roots {
        render_phase(s, root, 0, &mut out);
    }

    out.push_str("\n## histograms\n\n");
    let _ = writeln!(
        out,
        "{:<26} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "histogram", "count", "p50", "p90", "p99", "max", "sum"
    );
    for (name, h) in &s.hists {
        if h.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:<26} {:>7} {:>12.4e} {:>12.4e} {:>12.4e} {:>12.4e} {:>12.4e}",
            name, h.count, h.p50, h.p90, h.p99, h.max, h.sum
        );
    }

    out.push_str("\n## counters\n\n");
    for (name, v) in &s.counters {
        if *v > 0 {
            let _ = writeln!(out, "{name:<34} {v}");
        }
    }

    out.push_str("\n## gauges\n\n");
    for (name, v) in &s.gauges {
        let _ = writeln!(out, "{name:<34} {v}");
    }
    out
}

fn render_phase(s: &Snapshot, name: &str, depth: usize, out: &mut String) {
    let Some(p) = s.phases.get(name) else { return };
    let children: Vec<&str> = s
        .phases
        .values()
        .filter(|c| c.parent.as_deref() == Some(name) && c.count > 0)
        .map(|c| c.name.as_str())
        .collect();
    let child_total: f64 = children
        .iter()
        .filter_map(|c| s.phases.get(*c))
        .map(|c| c.seconds)
        .sum();
    let self_secs = (p.seconds - child_total).max(0.0);
    let label = format!("{}{}", "  ".repeat(depth), p.name);
    let _ = writeln!(
        out,
        "{:<34} {:>10.4} {:>10.4} {:>7}",
        label, p.seconds, self_secs, p.count
    );
    for c in children {
        render_phase(s, c, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Metadata, PhaseSnap, SCHEMA_VERSION};
    use std::collections::BTreeMap;

    #[test]
    fn render_produces_tree_and_tables() {
        let mut phases = BTreeMap::new();
        for (name, parent, secs) in [
            ("solve", None, 1.0),
            ("auglag", Some("solve"), 0.8),
            ("inner_tr", Some("auglag"), 0.6),
        ] {
            phases.insert(
                name.to_string(),
                PhaseSnap {
                    name: name.to_string(),
                    parent: parent.map(str::to_string),
                    seconds: secs,
                    count: 1,
                },
            );
        }
        let mut gauges = BTreeMap::new();
        gauges.insert("run_seconds".to_string(), 1.02);
        let s = Snapshot {
            schema_version: SCHEMA_VERSION,
            meta: Metadata {
                bin: "size_blif".into(),
                circuit: "tree7".into(),
                git_sha: "abc".into(),
                threads: 1,
                timestamp: "t".into(),
            },
            counters: BTreeMap::new(),
            gauges,
            hists: BTreeMap::new(),
            phases,
        };
        let text = render(&s);
        assert!(text.contains("profile coverage 98.0%"), "{text}");
        assert!(text.contains("  auglag"), "{text}");
        assert!(text.contains("    inner_tr"), "{text}");
    }
}
