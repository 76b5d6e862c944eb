//! Wire protocol: request-body parsing, canonical session identity and
//! JSON response builders.
//!
//! Every request body is a single JSON object. The circuit + objective +
//! delay-spec *variant* form the session identity ([`SessionSpec::key`]):
//! the deadline **value** is deliberately excluded, because
//! [`sgs_core::Resolver::resolve_spec`] moves the deadline inside an
//! existing formulation — two requests that differ only in `d` belong to
//! the same warm session. All response bodies are single-line JSON with a
//! top-level `"event"` tag so they validate through
//! [`sgs_trace::json::validate_jsonl`], exactly like trace records.
//!
//! Numbers use Rust's shortest-round-trip `f64` formatting; parsing the
//! decimal string back recovers the identical bits, which is what the
//! differential oracle in `tests/integration_serve.rs` pins.

use crate::error::{self, ServeError};
use sgs_analyze::Report;
use sgs_core::{DelaySpec, Objective, ResolveOutcome, WhatIfReport};
use sgs_netlist::{blif, generate, Circuit, GateId};
use sgs_trace::json::Json;
use std::fmt::Write as _;

/// Appends a JSON string literal (quoted, escaped) to `s`.
///
/// Mirrors the escaping of the `sgs-trace` JSONL writer so every body we
/// emit round-trips through its validator.
pub(crate) fn push_json_string(s: &mut String, val: &str) {
    s.push('"');
    for ch in val.chars() {
        match ch {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Appends an `f64` in shortest-round-trip form (non-finite values use
/// the `sgs-trace` string escapes).
fn push_f64(s: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(s, "{v}");
    } else if v.is_nan() {
        s.push_str("\"NaN\"");
    } else if v > 0.0 {
        s.push_str("\"Infinity\"");
    } else {
        s.push_str("\"-Infinity\"");
    }
}

/// FNV-1a 64-bit over a byte string — the session-key hash.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Where the circuit of a session comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitSource {
    /// Inline BLIF text.
    Blif(String),
    /// A named builtin (`tree7`, `fig2`, `rca8`, ...).
    Builtin(String),
    /// A seeded random DAG, fully specified so the identical circuit is
    /// regenerated on every session miss.
    Generate(generate::RandomDagSpec),
}

/// The session-defining part of a request: circuit + formulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Circuit source.
    pub source: CircuitSource,
    /// Sizing objective.
    pub objective: Objective,
    /// Delay constraint (the deadline value inside it is mutable per
    /// request via `resolve`, and excluded from the session identity).
    pub spec: DelaySpec,
}

fn bad_field(msg: impl Into<String>) -> ServeError {
    ServeError::bad_request(error::E_BAD_FIELD, msg)
}

fn get_f64(obj: &Json, key: &str) -> Result<Option<f64>, ServeError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => match v.as_f64() {
            Some(x) if x.is_finite() => Ok(Some(x)),
            _ => Err(bad_field(format!("\"{key}\" must be a finite number"))),
        },
    }
}

fn req_f64(obj: &Json, key: &str, what: &str) -> Result<f64, ServeError> {
    get_f64(obj, key)?.ok_or_else(|| bad_field(format!("{what} requires a \"{key}\" number")))
}

fn get_usize(obj: &Json, key: &str) -> Result<Option<usize>, ServeError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => match v.as_f64() {
            Some(x) if x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= 2.0_f64.powi(53) =>
            {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Ok(Some(x as usize))
            }
            _ => Err(bad_field(format!(
                "\"{key}\" must be a non-negative integer"
            ))),
        },
    }
}

impl SessionSpec {
    /// Parses a session spec from a parsed request body.
    ///
    /// # Errors
    ///
    /// [`error::E_BAD_FIELD`] on missing/ill-typed fields,
    /// [`error::E_CIRCUIT`] on an unusable circuit payload.
    pub fn parse(body: &Json) -> Result<Self, ServeError> {
        let Json::Obj(_) = body else {
            return Err(bad_field("request body must be a JSON object"));
        };
        let circuit = body
            .get("circuit")
            .ok_or_else(|| bad_field("missing \"circuit\" object"))?;
        let source = Self::parse_source(circuit)?;
        let objective = Self::parse_objective(body.get("objective"))?;
        let spec = Self::parse_spec(body.get("spec"))?;
        Ok(SessionSpec {
            source,
            objective,
            spec,
        })
    }

    fn parse_source(v: &Json) -> Result<CircuitSource, ServeError> {
        if let Some(text) = v.get("blif").map(|b| {
            b.as_str()
                .map(str::to_string)
                .ok_or_else(|| bad_field("\"circuit.blif\" must be a string"))
        }) {
            return Ok(CircuitSource::Blif(text?));
        }
        if let Some(name) = v.get("builtin").map(|b| {
            b.as_str()
                .map(str::to_string)
                .ok_or_else(|| bad_field("\"circuit.builtin\" must be a string"))
        }) {
            let name = name?;
            // Validate the name eagerly so the session store never caches
            // a key that can only ever fail to build.
            build_builtin(&name)?;
            return Ok(CircuitSource::Builtin(name));
        }
        if let Some(g) = v.get("generate") {
            let mut spec = generate::RandomDagSpec::default();
            if let Some(name) = g.get("name") {
                spec.name = name
                    .as_str()
                    .ok_or_else(|| bad_field("\"generate.name\" must be a string"))?
                    .to_string();
            }
            if let Some(n) = get_usize(g, "cells")? {
                spec.cells = n;
            }
            if let Some(n) = get_usize(g, "inputs")? {
                spec.inputs = n;
            }
            if let Some(n) = get_usize(g, "depth")? {
                spec.depth = n;
            }
            if let Some(n) = get_usize(g, "seed")? {
                spec.seed = n as u64;
            }
            if let Some(n) = get_usize(g, "back_jump_pct")? {
                spec.back_jump_pct =
                    u8::try_from(n).map_err(|_| bad_field("\"back_jump_pct\" out of range"))?;
            }
            if let Some(x) = get_f64(g, "spine_extra_load")? {
                spec.spine_extra_load = x;
            }
            // Pre-validate everything `generate::random_dag` would panic
            // on — a panic would take a session worker down with it.
            if spec.depth == 0 || spec.inputs == 0 || spec.cells < spec.depth {
                return Err(ServeError::bad_request(
                    error::E_CIRCUIT,
                    "generate needs depth >= 1, inputs >= 1 and cells >= depth",
                ));
            }
            if spec.cells > 50_000 {
                return Err(ServeError::bad_request(
                    error::E_CIRCUIT,
                    "generate.cells exceeds the service limit of 50000",
                ));
            }
            if spec.back_jump_pct > 95 || !(0.0..=1e6).contains(&spec.spine_extra_load) {
                return Err(ServeError::bad_request(
                    error::E_CIRCUIT,
                    "generate.back_jump_pct must be 0-95 and spine_extra_load in [0, 1e6]",
                ));
            }
            return Ok(CircuitSource::Generate(spec));
        }
        Err(bad_field(
            "\"circuit\" must carry one of \"blif\", \"builtin\" or \"generate\"",
        ))
    }

    fn parse_objective(v: Option<&Json>) -> Result<Objective, ServeError> {
        let Some(v) = v else {
            return Ok(Objective::Area);
        };
        if let Some(s) = v.as_str() {
            return match s {
                "area" => Ok(Objective::Area),
                "mean" => Ok(Objective::MeanDelay),
                other => Err(bad_field(format!(
                    "unknown objective {other:?}; expected \"area\", \"mean\" or {{\"mean_plus_k_sigma\": k}}"
                ))),
            };
        }
        if let Some(k) = get_f64(v, "mean_plus_k_sigma")? {
            if !(0.0..=100.0).contains(&k) {
                return Err(bad_field("objective k must be in [0, 100]"));
            }
            return Ok(Objective::MeanPlusKSigma(k));
        }
        Err(bad_field(
            "objective must be \"area\", \"mean\" or {\"mean_plus_k_sigma\": k}",
        ))
    }

    fn parse_spec(v: Option<&Json>) -> Result<DelaySpec, ServeError> {
        let Some(v) = v else {
            return Ok(DelaySpec::None);
        };
        if let Some(s) = v.as_str() {
            return match s {
                "none" => Ok(DelaySpec::None),
                other => Err(bad_field(format!(
                    "unknown spec {other:?}; expected \"none\", {{\"max_mean\": d}} or {{\"max_mean_plus_k_sigma\": {{\"k\": k, \"d\": d}}}}"
                ))),
            };
        }
        if let Some(d) = get_f64(v, "max_mean")? {
            if d <= 0.0 {
                return Err(bad_field("spec deadline must be positive"));
            }
            return Ok(DelaySpec::MaxMean(d));
        }
        if let Some(mks) = v.get("max_mean_plus_k_sigma") {
            let k = req_f64(mks, "k", "max_mean_plus_k_sigma")?;
            let d = req_f64(mks, "d", "max_mean_plus_k_sigma")?;
            if d <= 0.0 || !(0.0..=100.0).contains(&k) {
                return Err(bad_field("spec needs d > 0 and k in [0, 100]"));
            }
            return Ok(DelaySpec::MaxMeanPlusKSigma { k, d });
        }
        Err(bad_field(
            "spec must be \"none\", {\"max_mean\": d} or {\"max_mean_plus_k_sigma\": {\"k\": k, \"d\": d}}",
        ))
    }

    /// Canonical identity string: circuit content + objective + spec
    /// *variant*. Deadline values are excluded (see module docs); the
    /// sigma multiplier `k` **is** included because it changes the
    /// formulation's structure, not just a cap constant.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        match &self.source {
            CircuitSource::Blif(text) => {
                s.push_str("blif:");
                s.push_str(text);
            }
            CircuitSource::Builtin(name) => {
                s.push_str("builtin:");
                s.push_str(name);
            }
            CircuitSource::Generate(g) => {
                let _ = write!(
                    s,
                    "generate:{}:{}:{}:{}:{}:{}:{}",
                    g.name, g.cells, g.inputs, g.depth, g.seed, g.back_jump_pct, g.spine_extra_load
                );
            }
        }
        match &self.objective {
            Objective::Area => s.push_str("|obj=area"),
            Objective::MeanDelay => s.push_str("|obj=mean"),
            Objective::MeanPlusKSigma(k) => {
                let _ = write!(s, "|obj=mean_plus_k_sigma:{k}");
            }
            other => {
                let _ = write!(s, "|obj={other}");
            }
        }
        match &self.spec {
            DelaySpec::None => s.push_str("|spec=none"),
            DelaySpec::MaxMean(_) => s.push_str("|spec=max_mean"),
            DelaySpec::MaxMeanPlusKSigma { k, .. } => {
                let _ = write!(s, "|spec=max_mean_plus_k_sigma:{k}");
            }
            other => {
                let _ = write!(s, "|spec={other}");
            }
        }
        s
    }

    /// The 64-bit session key (FNV-1a of [`SessionSpec::canonical`]).
    #[must_use]
    pub fn key(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }

    /// The deadline carried inside the spec, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<f64> {
        match &self.spec {
            DelaySpec::MaxMean(d) | DelaySpec::MaxMeanPlusKSigma { d, .. } => Some(*d),
            _ => None,
        }
    }

    /// Builds (or regenerates) the circuit this spec describes.
    ///
    /// # Errors
    ///
    /// [`error::E_CIRCUIT`] when the payload does not elaborate.
    pub fn build_circuit(&self) -> Result<Circuit, ServeError> {
        match &self.source {
            CircuitSource::Blif(text) => blif::parse(text).map_err(|e| {
                ServeError::bad_request(error::E_CIRCUIT, format!("BLIF parse failed: {e}"))
            }),
            CircuitSource::Builtin(name) => build_builtin(name),
            CircuitSource::Generate(spec) => Ok(generate::random_dag(spec)),
        }
    }
}

fn build_builtin(name: &str) -> Result<Circuit, ServeError> {
    match name {
        "tree7" => Ok(generate::tree7()),
        "fig2" => Ok(generate::fig2()),
        "rca8" => Ok(generate::ripple_carry_adder(8)),
        "rca16" => Ok(generate::ripple_carry_adder(16)),
        "mult4" => Ok(generate::array_multiplier(4)),
        other => Err(ServeError::bad_request(
            error::E_CIRCUIT,
            format!("unknown builtin circuit {other:?}; known: tree7, fig2, rca8, rca16, mult4"),
        )),
    }
}

/// Parses a `[{"gate": g, "size": s}, ...]` change list from a body
/// field. Range-checking against the circuit happens in the session
/// worker, which owns the circuit.
///
/// # Errors
///
/// [`error::E_BAD_FIELD`] on structural problems or sizes outside
/// `[1, 1e6]`.
pub fn parse_changes(body: &Json, field: &str) -> Result<Vec<(GateId, f64)>, ServeError> {
    let v = body
        .get(field)
        .ok_or_else(|| bad_field(format!("missing \"{field}\" array")))?;
    let Json::Arr(items) = v else {
        return Err(bad_field(format!("\"{field}\" must be an array")));
    };
    let mut changes = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let gate = get_usize(item, "gate")?
            .ok_or_else(|| bad_field(format!("{field}[{i}] needs a \"gate\" integer")))?;
        let size = req_f64(item, "size", &format!("{field}[{i}]"))?;
        if !(1.0..=1e6).contains(&size) {
            return Err(bad_field(format!(
                "{field}[{i}].size must be in [1, 1e6], got {size}"
            )));
        }
        changes.push((GateId(gate), size));
    }
    Ok(changes)
}

/// Builds the `solve_result` body for a successful solve / re-solve.
#[must_use]
pub fn solve_result_json(request_id: u64, out: &ResolveOutcome, session_hit: bool) -> String {
    let r = &out.result;
    let mut s = String::with_capacity(256 + 16 * r.s.len());
    let _ = write!(
        s,
        "{{\"event\":\"solve_result\",\"request_id\":{request_id}"
    );
    s.push_str(",\"objective\":");
    push_f64(&mut s, r.objective);
    s.push_str(",\"area\":");
    push_f64(&mut s, r.area);
    s.push_str(",\"mu\":");
    push_f64(&mut s, r.delay.mean());
    s.push_str(",\"sigma\":");
    push_f64(&mut s, r.delay.sigma());
    let _ = write!(
        s,
        ",\"source\":\"{}\",\"outer_iterations\":{},\"inner_iterations\":{},\"warm_start_hit\":{},\"gates_recomputed\":{},\"session_hit\":{session_hit}",
        r.source.as_str(),
        r.outer_iterations,
        r.inner_iterations,
        out.warm_start_hit,
        out.gates_recomputed
    );
    s.push_str(",\"sizes\":[");
    for (i, v) in r.s.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_f64(&mut s, *v);
    }
    s.push_str("]}\n");
    s
}

/// Builds the `what_if_result` body for an evaluation-only probe.
#[must_use]
pub fn what_if_result_json(request_id: u64, report: &WhatIfReport, session_hit: bool) -> String {
    let mut s = String::with_capacity(192);
    let _ = write!(
        s,
        "{{\"event\":\"what_if_result\",\"request_id\":{request_id}"
    );
    s.push_str(",\"mu\":");
    push_f64(&mut s, report.delay.mean());
    s.push_str(",\"sigma\":");
    push_f64(&mut s, report.delay.sigma());
    s.push_str(",\"objective\":");
    push_f64(&mut s, report.objective);
    s.push_str(",\"spec_violation\":");
    push_f64(&mut s, report.spec_violation);
    let _ = writeln!(
        s,
        ",\"gates_recomputed\":{},\"session_hit\":{session_hit}}}",
        report.stats.gates_recomputed
    );
    s
}

/// Builds the `analyze_result` body: summary counts plus every
/// diagnostic inlined as a nested object.
#[must_use]
pub fn analyze_result_json(request_id: u64, report: &Report) -> String {
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "{{\"event\":\"analyze_result\",\"request_id\":{request_id},\"clean\":{},\"errors\":{},\"warnings\":{}",
        report.is_clean(),
        report.num_errors(),
        report.num_warnings()
    );
    s.push_str(",\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(d.to_json().trim_end());
    }
    s.push_str("]}\n");
    s
}

/// Builds the `health` body.
#[must_use]
pub fn health_json(request_id: u64, sessions_live: usize) -> String {
    format!(
        "{{\"event\":\"health\",\"request_id\":{request_id},\"status\":\"ok\",\"sessions_live\":{sessions_live}}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_trace::json::{parse_json, validate_jsonl};

    fn spec_of(body: &str) -> Result<SessionSpec, ServeError> {
        SessionSpec::parse(&parse_json(body).expect("test body must be JSON"))
    }

    #[test]
    fn parses_builtin_with_full_formulation() {
        let s = spec_of(
            r#"{"circuit":{"builtin":"tree7"},"objective":"area",
                "spec":{"max_mean_plus_k_sigma":{"k":3,"d":9.5}}}"#,
        )
        .unwrap();
        assert_eq!(s.source, CircuitSource::Builtin("tree7".into()));
        assert_eq!(s.objective, Objective::Area);
        assert_eq!(s.spec, DelaySpec::MaxMeanPlusKSigma { k: 3.0, d: 9.5 });
        assert_eq!(s.deadline(), Some(9.5));
        assert_eq!(s.build_circuit().unwrap().num_gates(), 7);
    }

    #[test]
    fn defaults_are_area_unconstrained() {
        let s = spec_of(r#"{"circuit":{"builtin":"fig2"}}"#).unwrap();
        assert_eq!(s.objective, Objective::Area);
        assert_eq!(s.spec, DelaySpec::None);
        assert_eq!(s.deadline(), None);
    }

    #[test]
    fn session_key_ignores_deadline_but_not_k() {
        let a = spec_of(r#"{"circuit":{"builtin":"tree7"},"spec":{"max_mean":6.0}}"#).unwrap();
        let b = spec_of(r#"{"circuit":{"builtin":"tree7"},"spec":{"max_mean":9.0}}"#).unwrap();
        assert_eq!(a.key(), b.key(), "deadline moves must stay in-session");
        assert_eq!(a.canonical(), b.canonical());

        let k1 = spec_of(
            r#"{"circuit":{"builtin":"tree7"},"spec":{"max_mean_plus_k_sigma":{"k":1,"d":9}}}"#,
        )
        .unwrap();
        let k3 = spec_of(
            r#"{"circuit":{"builtin":"tree7"},"spec":{"max_mean_plus_k_sigma":{"k":3,"d":9}}}"#,
        )
        .unwrap();
        assert_ne!(k1.key(), k3.key(), "k changes the formulation");
    }

    #[test]
    fn generate_sources_are_fully_pinned() {
        let s = spec_of(
            r#"{"circuit":{"generate":{"name":"x","cells":40,"inputs":8,"depth":5,"seed":7}}}"#,
        )
        .unwrap();
        let c1 = s.build_circuit().unwrap();
        let c2 = s.build_circuit().unwrap();
        assert_eq!(c1.num_gates(), 40);
        assert_eq!(c2.num_gates(), 40);
        assert!(s.canonical().contains("generate:x:40:8:5:7:35:0"));
    }

    #[test]
    fn invalid_payloads_map_to_stable_codes() {
        for (body, code) in [
            (r#"[1,2,3]"#, error::E_BAD_FIELD),
            (r#"{}"#, error::E_BAD_FIELD),
            (r#"{"circuit":{}}"#, error::E_BAD_FIELD),
            (r#"{"circuit":{"builtin":"nope"}}"#, error::E_CIRCUIT),
            (
                r#"{"circuit":{"builtin":"tree7"},"objective":"speed"}"#,
                error::E_BAD_FIELD,
            ),
            (
                r#"{"circuit":{"builtin":"tree7"},"spec":{"max_mean":-1}}"#,
                error::E_BAD_FIELD,
            ),
            (
                r#"{"circuit":{"generate":{"cells":2,"depth":5}}}"#,
                error::E_CIRCUIT,
            ),
            (
                r#"{"circuit":{"generate":{"cells":99999999}}}"#,
                error::E_CIRCUIT,
            ),
        ] {
            let e = spec_of(body).unwrap_err();
            assert_eq!(e.code, code, "body {body}");
            assert_eq!(e.status, 400, "body {body}");
        }
    }

    #[test]
    fn change_lists_parse_and_validate() {
        let body =
            parse_json(r#"{"changes":[{"gate":0,"size":2.5},{"gate":3,"size":1}]}"#).unwrap();
        let c = parse_changes(&body, "changes").unwrap();
        assert_eq!(c, vec![(GateId(0), 2.5), (GateId(3), 1.0)]);

        for bad in [
            r#"{"changes":{"gate":0,"size":2}}"#,
            r#"{"changes":[{"gate":-1,"size":2}]}"#,
            r#"{"changes":[{"gate":0,"size":0.5}]}"#,
            r#"{"changes":[{"gate":0}]}"#,
            r#"{}"#,
        ] {
            let e = parse_changes(&parse_json(bad).unwrap(), "changes").unwrap_err();
            assert_eq!(e.code, error::E_BAD_FIELD, "body {bad}");
        }
    }

    #[test]
    fn response_bodies_validate_as_jsonl() {
        let health = health_json(3, 2);
        let summary = validate_jsonl(&health).unwrap();
        assert_eq!(summary.count("health"), 1);

        let report = sgs_analyze::analyze(
            &generate::tree7(),
            &sgs_netlist::Library::paper_default(),
            &Objective::Area,
            &DelaySpec::MaxMean(9.0),
            &sgs_analyze::AnalyzerOptions::default(),
            sgs_trace::Tracer::none(),
        );
        let body = analyze_result_json(9, &report);
        let summary = validate_jsonl(&body).unwrap();
        assert_eq!(summary.count("analyze_result"), 1);
        let v = parse_json(body.trim()).unwrap();
        assert!(v.get("clean").is_some());
    }

    #[test]
    fn f64_round_trips_exactly() {
        let vals = [1.0 / 3.0, 6.25, 1e-17, f64::MIN_POSITIVE, 12_345.678_901];
        for v in vals {
            let mut s = String::new();
            push_f64(&mut s, v);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }
}
