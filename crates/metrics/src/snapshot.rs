//! Versioned run-snapshot schema: serialisation, parsing and linting.
//!
//! A snapshot is one JSON document per run:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "metadata": { "bin": "...", "circuit": "...", "git_sha": "...",
//!                 "threads": 1, "timestamp": "..." },
//!   "counters":   { "nlp_solves": 1, ... },
//!   "gauges":     { "run_seconds": 1.25, ... },
//!   "histograms": { "nlp_outer_seconds": { "count": 9, "sum": ...,
//!                   "min": ..., "max": ..., "p50": ..., "p90": ...,
//!                   "p99": ..., "buckets": [[idx, count], ...],
//!                   "exact": [..] }, ... },
//!   "phases":     { "auglag": { "parent": "solve", "seconds": ...,
//!                   "count": 1 }, ... }
//! }
//! ```
//!
//! All metadata is caller-supplied ([`Metadata`]); timestamps and git
//! shas are passed in by binaries, never sampled here. Numbers use Rust's
//! shortest round-trip formatting with the same `"NaN"`/`"Infinity"`
//! string escapes as `sgs_trace::json`, whose parser this module reuses —
//! a parse → serialise round trip is byte-identical.

use crate::hist::{HistSnapshot, N_BUCKETS};
use sgs_trace::json::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version tag of the snapshot schema.
pub const SCHEMA_VERSION: u32 = 1;

/// Caller-supplied run identity attached to every snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metadata {
    /// Producing binary name.
    pub bin: String,
    /// Circuit or workload identifier.
    pub circuit: String,
    /// Git revision of the producing build (`"unknown"` when absent).
    pub git_sha: String,
    /// Worker-thread count the run was configured with.
    pub threads: usize,
    /// Caller-supplied wall-clock timestamp (free-form string).
    pub timestamp: String,
}

/// One node of the serialised phase-profile tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSnap {
    /// Phase name.
    pub name: String,
    /// Parent phase name (`None` for profile roots).
    pub parent: Option<String>,
    /// Accumulated wall-clock seconds.
    pub seconds: f64,
    /// Completed span count.
    pub count: u64,
}

/// A full, owned run snapshot (the registry's exportable state).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Schema version tag ([`SCHEMA_VERSION`] when produced here).
    pub schema_version: u32,
    /// Run identity.
    pub meta: Metadata,
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by metric name.
    pub hists: BTreeMap<String, HistSnapshot>,
    /// Phase-profile nodes by phase name.
    pub phases: BTreeMap<String, PhaseSnap>,
}

fn push_str_json(out: &mut String, val: &str) {
    out.push('"');
    for ch in val.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64_json(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"Infinity\"");
    } else {
        out.push_str("\"-Infinity\"");
    }
}

impl Snapshot {
    /// Serialises the snapshot as a multi-line JSON document (stable key
    /// order, friendly to text diffs).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", self.schema_version);
        s.push_str("  \"metadata\": {\"bin\": ");
        push_str_json(&mut s, &self.meta.bin);
        s.push_str(", \"circuit\": ");
        push_str_json(&mut s, &self.meta.circuit);
        s.push_str(", \"git_sha\": ");
        push_str_json(&mut s, &self.meta.git_sha);
        let _ = write!(s, ", \"threads\": {}, \"timestamp\": ", self.meta.threads);
        push_str_json(&mut s, &self.meta.timestamp);
        s.push_str("},\n");

        s.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    ");
            push_str_json(&mut s, k);
            let _ = write!(s, ": {v}");
        }
        s.push_str("\n  },\n");

        s.push_str("  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    ");
            push_str_json(&mut s, k);
            s.push_str(": ");
            push_f64_json(&mut s, *v);
        }
        s.push_str("\n  },\n");

        s.push_str("  \"histograms\": {");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    ");
            push_str_json(&mut s, k);
            let _ = write!(s, ": {{\"count\": {}, \"sum\": ", h.count);
            push_f64_json(&mut s, h.sum);
            s.push_str(", \"min\": ");
            push_f64_json(&mut s, h.min);
            s.push_str(", \"max\": ");
            push_f64_json(&mut s, h.max);
            s.push_str(", \"p50\": ");
            push_f64_json(&mut s, h.p50);
            s.push_str(", \"p90\": ");
            push_f64_json(&mut s, h.p90);
            s.push_str(", \"p99\": ");
            push_f64_json(&mut s, h.p99);
            s.push_str(", \"buckets\": [");
            for (j, (idx, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "[{idx}, {c}]");
            }
            s.push(']');
            if let Some(xs) = &h.exact {
                s.push_str(", \"exact\": [");
                for (j, v) in xs.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    push_f64_json(&mut s, *v);
                }
                s.push(']');
            }
            s.push('}');
        }
        s.push_str("\n  },\n");

        s.push_str("  \"phases\": {");
        for (i, (k, p)) in self.phases.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    ");
            push_str_json(&mut s, k);
            s.push_str(": {\"parent\": ");
            match &p.parent {
                Some(parent) => push_str_json(&mut s, parent),
                None => s.push_str("null"),
            }
            s.push_str(", \"seconds\": ");
            push_f64_json(&mut s, p.seconds);
            let _ = write!(s, ", \"count\": {}}}", p.count);
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Parses a snapshot back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed or missing field. Unknown
    /// schema versions parse (the [`Snapshot::lint`] gate rejects them); unknown
    /// *fields* are ignored, missing required fields error.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let v = parse_json(text)?;
        let schema_version = v
            .get("schema_version")
            .and_then(Json::as_f64)
            .ok_or("missing numeric \"schema_version\"")? as u32;
        let md = v.get("metadata").ok_or("missing \"metadata\" object")?;
        let meta = Metadata {
            bin: req_str(md, "bin")?,
            circuit: req_str(md, "circuit")?,
            git_sha: req_str(md, "git_sha")?,
            threads: req_f64(md, "threads")? as usize,
            timestamp: req_str(md, "timestamp")?,
        };
        let mut counters = BTreeMap::new();
        for (k, val) in req_obj(&v, "counters")? {
            let n = val
                .as_f64()
                .ok_or_else(|| format!("counter {k} is not a number"))?;
            counters.insert(k.clone(), n as u64);
        }
        let mut gauges = BTreeMap::new();
        for (k, val) in req_obj(&v, "gauges")? {
            let n = val
                .as_f64()
                .ok_or_else(|| format!("gauge {k} is not a number"))?;
            gauges.insert(k.clone(), n);
        }
        let mut hists = BTreeMap::new();
        for (k, val) in req_obj(&v, "histograms")? {
            hists.insert(k.clone(), parse_hist(k, val)?);
        }
        let mut phases = BTreeMap::new();
        for (k, val) in req_obj(&v, "phases")? {
            let parent = match val.get("parent") {
                Some(Json::Null) | None => None,
                Some(p) => Some(
                    p.as_str()
                        .ok_or_else(|| format!("phase {k}: parent is not a string"))?
                        .to_string(),
                ),
            };
            phases.insert(
                k.clone(),
                PhaseSnap {
                    name: k.clone(),
                    parent,
                    seconds: req_f64(val, "seconds").map_err(|e| format!("phase {k}: {e}"))?,
                    count: req_f64(val, "count").map_err(|e| format!("phase {k}: {e}"))? as u64,
                },
            );
        }
        Ok(Snapshot {
            schema_version,
            meta,
            counters,
            gauges,
            hists,
            phases,
        })
    }

    /// Fraction of [`run_seconds`](crate::Gauge::RunSeconds) covered by
    /// root profile phases (`None` when `run_seconds` is absent or zero).
    #[must_use]
    pub fn coverage(&self) -> Option<f64> {
        let total = *self.gauges.get("run_seconds")?;
        if total.is_nan() || total <= 0.0 {
            return None;
        }
        let roots: f64 = self
            .phases
            .values()
            .filter(|p| p.parent.is_none())
            .map(|p| p.seconds)
            .sum();
        Some(roots / total)
    }

    /// Every value a rerun of the same work reproduces bit for bit, one
    /// `key value` line each:
    ///
    /// - counters, except the allocator's `alloc_*`;
    /// - gauges, except wall-clock `*_seconds` ones;
    /// - each histogram's observation count, plus every summary field of a
    ///   histogram that does not measure seconds;
    /// - each phase's span count.
    ///
    /// Floats print as `{:.17e}`, which round-trips an `f64` exactly, so
    /// equal lines mean equal bits. The golden transcripts
    /// pin these lines; a metric added or removed changes the line set.
    #[must_use]
    pub fn deterministic_lines(&self) -> String {
        let timing = |name: &str| name.ends_with("_seconds");
        let mut out = String::new();
        for (k, v) in &self.counters {
            if !k.starts_with("alloc_") {
                let _ = writeln!(out, "counter.{k} {v}");
            }
        }
        for (k, v) in self.gauges.iter().filter(|(k, _)| !timing(k)) {
            let _ = writeln!(out, "gauge.{k} {v:.17e}");
        }
        for (k, h) in &self.hists {
            let _ = writeln!(out, "hist.{k}.count {}", h.count);
            if !timing(k) {
                for (field, v) in [
                    ("sum", h.sum),
                    ("min", h.min),
                    ("max", h.max),
                    ("p50", h.p50),
                    ("p90", h.p90),
                    ("p99", h.p99),
                ] {
                    let _ = writeln!(out, "hist.{k}.{field} {v:.17e}");
                }
            }
        }
        for (k, p) in &self.phases {
            let _ = writeln!(out, "phase.{k}.count {}", p.count);
        }
        out
    }

    /// Structural schema lint (the `sgs_report lint` gate): parses `text`
    /// and verifies internal invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: wrong schema version, empty
    /// metadata fields, histogram count/bucket mismatches, out-of-range
    /// bucket indices, unsorted quantiles, or dangling phase parents.
    pub fn lint(text: &str) -> Result<Snapshot, String> {
        let s = Snapshot::from_json(text)?;
        if s.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} (expected {SCHEMA_VERSION})",
                s.schema_version
            ));
        }
        if s.meta.bin.is_empty() {
            return Err("metadata.bin is empty".into());
        }
        if s.meta.git_sha.is_empty() {
            return Err("metadata.git_sha is empty".into());
        }
        if s.meta.timestamp.is_empty() {
            return Err("metadata.timestamp is empty".into());
        }
        if !s.gauges.contains_key("run_seconds") {
            return Err("gauge run_seconds is missing".into());
        }
        for (name, h) in &s.hists {
            let bucket_total: u64 = h.buckets.values().sum();
            if bucket_total != h.count {
                return Err(format!(
                    "histogram {name}: bucket counts sum to {bucket_total}, count is {}",
                    h.count
                ));
            }
            if let Some((&idx, _)) = h.buckets.last_key_value() {
                if idx as usize >= N_BUCKETS {
                    return Err(format!("histogram {name}: bucket index {idx} out of range"));
                }
            }
            if let Some(xs) = &h.exact {
                if xs.len() as u64 != h.count {
                    return Err(format!(
                        "histogram {name}: {} exact samples for count {}",
                        xs.len(),
                        h.count
                    ));
                }
            }
            if h.count > 0 {
                if h.min.total_cmp(&h.max) == std::cmp::Ordering::Greater {
                    return Err(format!("histogram {name}: min > max"));
                }
                for (a, b, la, lb) in [
                    (h.p50, h.p90, "p50", "p90"),
                    (h.p90, h.p99, "p90", "p99"),
                    (h.p99, h.max, "p99", "max"),
                ] {
                    if a.total_cmp(&b) == std::cmp::Ordering::Greater {
                        return Err(format!("histogram {name}: {la} > {lb}"));
                    }
                }
            }
        }
        for (name, p) in &s.phases {
            if let Some(parent) = &p.parent {
                if !s.phases.contains_key(parent) {
                    return Err(format!("phase {name}: unknown parent {parent}"));
                }
            }
        }
        Ok(s)
    }
}

fn req_obj<'a>(v: &'a Json, key: &str) -> Result<&'a BTreeMap<String, Json>, String> {
    match v.get(key) {
        Some(Json::Obj(m)) => Ok(m),
        _ => Err(format!("missing \"{key}\" object")),
    }
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string \"{key}\""))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number \"{key}\""))
}

fn parse_hist(name: &str, v: &Json) -> Result<HistSnapshot, String> {
    let ctx = |e: String| format!("histogram {name}: {e}");
    let mut buckets = BTreeMap::new();
    match v.get("buckets") {
        Some(Json::Arr(items)) => {
            for item in items {
                let Json::Arr(pair) = item else {
                    return Err(ctx("bucket entry is not a pair".into()));
                };
                let (Some(idx), Some(c)) = (
                    pair.first().and_then(Json::as_f64),
                    pair.get(1).and_then(Json::as_f64),
                ) else {
                    return Err(ctx("bucket pair is not numeric".into()));
                };
                buckets.insert(idx as u32, c as u64);
            }
        }
        _ => return Err(ctx("missing \"buckets\" array".into())),
    }
    let exact = match v.get("exact") {
        Some(Json::Arr(items)) => {
            let mut xs = Vec::with_capacity(items.len());
            for item in items {
                xs.push(
                    item.as_f64()
                        .ok_or_else(|| ctx("exact sample is not numeric".into()))?,
                );
            }
            Some(xs)
        }
        Some(_) => return Err(ctx("\"exact\" is not an array".into())),
        None => None,
    };
    Ok(HistSnapshot {
        name: name.to_string(),
        count: req_f64(v, "count").map_err(ctx)? as u64,
        sum: req_f64(v, "sum").map_err(ctx)?,
        min: req_f64(v, "min").map_err(ctx)?,
        max: req_f64(v, "max").map_err(ctx)?,
        p50: req_f64(v, "p50").map_err(ctx)?,
        p90: req_f64(v, "p90").map_err(ctx)?,
        p99: req_f64(v, "p99").map_err(ctx)?,
        buckets,
        exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn sample() -> Snapshot {
        let h = Histogram::new();
        for v in [0.1, 0.2, 0.4] {
            h.observe(v);
        }
        let mut hists = BTreeMap::new();
        hists.insert(
            "nlp_outer_seconds".to_string(),
            h.snapshot("nlp_outer_seconds"),
        );
        let mut counters = BTreeMap::new();
        counters.insert("nlp_solves".to_string(), 1);
        let mut gauges = BTreeMap::new();
        gauges.insert("run_seconds".to_string(), 1.5);
        let mut phases = BTreeMap::new();
        phases.insert(
            "solve".to_string(),
            PhaseSnap {
                name: "solve".to_string(),
                parent: None,
                seconds: 1.45,
                count: 1,
            },
        );
        phases.insert(
            "auglag".to_string(),
            PhaseSnap {
                name: "auglag".to_string(),
                parent: Some("solve".to_string()),
                seconds: 1.2,
                count: 1,
            },
        );
        Snapshot {
            schema_version: SCHEMA_VERSION,
            meta: Metadata {
                bin: "size_blif".into(),
                circuit: "tree7".into(),
                git_sha: "deadbeef".into(),
                threads: 1,
                timestamp: "2026-01-01T00:00:00Z".into(),
            },
            counters,
            gauges,
            hists,
            phases,
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let s = sample();
        let text = s.to_json();
        let back = Snapshot::from_json(&text).unwrap();
        assert_eq!(back, s);
        // Serialise-parse-serialise is byte-identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn lint_accepts_real_snapshots_and_rejects_corruption() {
        let s = sample();
        assert!(Snapshot::lint(&s.to_json()).is_ok());

        let mut bad = s.clone();
        bad.hists.get_mut("nlp_outer_seconds").unwrap().count += 1;
        assert!(Snapshot::lint(&bad.to_json())
            .unwrap_err()
            .contains("bucket counts"));

        let mut bad = s.clone();
        bad.phases.get_mut("auglag").unwrap().parent = Some("nonexistent".into());
        assert!(Snapshot::lint(&bad.to_json())
            .unwrap_err()
            .contains("unknown parent"));

        let mut bad = s;
        bad.schema_version = 99;
        assert!(Snapshot::lint(&bad.to_json())
            .unwrap_err()
            .contains("schema_version"));
    }

    /// `sample()` plus an allocation counter, the sweep's point counter and
    /// latency, a solver residual and a non-timing histogram.
    fn sample_with_sweep() -> Snapshot {
        let mut s = sample();
        s.counters.insert("alloc_calls".to_string(), 7);
        s.counters.insert("sweep_points".to_string(), 14);
        s.gauges.insert("nlp_last_c_norm".to_string(), 0.1);
        let gates = Histogram::new();
        gates.observe(5.0);
        s.hists.insert(
            "ssta_incremental_gates".to_string(),
            gates.snapshot("ssta_incremental_gates"),
        );
        let point = Histogram::new();
        point.observe(0.3);
        s.hists.insert(
            "sweep_point_seconds".to_string(),
            point.snapshot("sweep_point_seconds"),
        );
        s
    }

    #[test]
    fn deterministic_lines_leave_out_wall_clock_and_allocations() {
        let lines = sample_with_sweep().deterministic_lines();
        assert!(lines.contains("counter.nlp_solves 1\n"), "{lines}");
        assert!(lines.contains("counter.sweep_points 14\n"));
        assert!(lines.contains("gauge.nlp_last_c_norm 1.00000000000000006e-1\n"));
        assert!(lines.contains("hist.nlp_outer_seconds.count 3\n"));
        assert!(lines.contains("hist.ssta_incremental_gates.p50 5.00000000000000000e0\n"));
        assert!(lines.contains("hist.sweep_point_seconds.count 1\n"));
        assert!(lines.contains("phase.auglag.count 1\n"));
        for timing in [
            "alloc_calls",
            "run_seconds",
            "nlp_outer_seconds.p50",
            "sweep_point_seconds.p50",
            "seconds 1.",
        ] {
            assert!(!lines.contains(timing), "{timing} leaked into {lines}");
        }
    }

    #[test]
    fn deterministic_lines_ignore_metadata_and_timings() {
        // A rerun with other timings, allocations and provenance renders
        // the same lines.
        let s = sample_with_sweep();
        let mut rerun = s.clone();
        *rerun.counters.get_mut("alloc_calls").unwrap() = 9;
        *rerun.gauges.get_mut("run_seconds").unwrap() = 3.0;
        rerun.phases.get_mut("solve").unwrap().seconds = 2.0;
        rerun.meta.git_sha = "other".into();
        rerun.meta.timestamp = "later".into();
        rerun.meta.threads = 8;
        assert_eq!(rerun.deterministic_lines(), s.deterministic_lines());
    }

    #[test]
    fn deterministic_lines_show_any_strict_change() {
        // One more sweep point, one more solve or a residual one ulp off
        // each change the lines.
        let s = sample_with_sweep();
        let lines = s.deterministic_lines();
        let mut drifted = s.clone();
        *drifted.counters.get_mut("sweep_points").unwrap() += 1;
        assert_ne!(drifted.deterministic_lines(), lines);
        let mut drifted = s.clone();
        *drifted.counters.get_mut("nlp_solves").unwrap() = 3;
        assert_ne!(drifted.deterministic_lines(), lines);
        let mut drifted = s;
        let c_norm = drifted.gauges.get_mut("nlp_last_c_norm").unwrap();
        *c_norm = f64::from_bits(c_norm.to_bits() + 1);
        assert_ne!(drifted.deterministic_lines(), lines);
    }

    #[test]
    fn coverage_sums_root_phases() {
        let s = sample();
        let cov = s.coverage().unwrap();
        assert!((cov - 1.45 / 1.5).abs() < 1e-12, "coverage {cov}");
    }

    #[test]
    fn malformed_documents_error_not_panic() {
        assert!(Snapshot::from_json("not json").is_err());
        assert!(Snapshot::from_json("{}").is_err());
        assert!(Snapshot::from_json("{\"schema_version\": 1}").is_err());
    }
}
