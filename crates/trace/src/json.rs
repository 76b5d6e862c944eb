//! JSONL encoding of [`TraceEvent`]s and a dependency-free validator.
//!
//! Encoding rules:
//!
//! - One JSON object per event, one event per line; every object carries
//!   an `"event"` tag equal to [`TraceEvent::kind`].
//! - Finite numbers use Rust's shortest round-trip formatting. Non-finite
//!   values (JSON has none) encode as the strings `"NaN"`, `"Infinity"`,
//!   `"-Infinity"` — divergence records exist precisely to carry these.
//!
//! The reader half ([`parse_json`], [`validate_jsonl`]) is a minimal
//! recursive-descent JSON parser used by the `trace_lint` CI gate and the
//! round-trip tests; it accepts exactly the subset the writer emits plus
//! standard JSON.

use crate::{EvalReport, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serialises one event to a single-line JSON object (no trailing
/// newline).
pub fn to_json(event: &TraceEvent) -> String {
    let mut s = String::with_capacity(128);
    s.push_str("{\"event\":\"");
    s.push_str(event.kind());
    s.push('"');
    match event {
        TraceEvent::Outer(o) => {
            field_usize(&mut s, "outer", o.outer);
            field_f64(&mut s, "merit", o.merit);
            field_f64(&mut s, "c_norm", o.c_norm);
            field_f64(&mut s, "pg_norm", o.pg_norm);
            field_f64(&mut s, "rho", o.rho);
            field_f64(&mut s, "lambda_norm", o.lambda_norm);
            field_usize(&mut s, "inner_iterations", o.inner_iterations);
            field_usize(&mut s, "cg_iterations", o.cg_iterations);
            field_bool(&mut s, "step_accepted", o.step_accepted);
            field_bool(&mut s, "inner_converged", o.inner_converged);
        }
        TraceEvent::PhaseSpan { phase, seconds } => {
            field_str(&mut s, "phase", phase);
            field_f64(&mut s, "seconds", *seconds);
        }
        TraceEvent::Counter { name, value } => {
            field_str(&mut s, "name", name);
            field_usize(&mut s, "value", *value as usize);
        }
        TraceEvent::Diverged { outer, detail, x } => {
            field_usize(&mut s, "outer", *outer);
            field_str(&mut s, "detail", detail);
            s.push_str(",\"x\":[");
            for (i, v) in x.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_f64(&mut s, *v);
            }
            s.push(']');
        }
        TraceEvent::SolveDone(r) => {
            field_str(&mut s, "status", &r.status);
            field_f64(&mut s, "objective", r.objective);
            field_f64(&mut s, "c_norm", r.c_norm);
            field_usize(&mut s, "outer_iterations", r.outer_iterations);
            field_usize(&mut s, "inner_iterations", r.inner_iterations);
            evals_obj(&mut s, &r.evals);
        }
        TraceEvent::WhatIfQuery {
            query,
            gates_recomputed,
            full,
            seconds,
        } => {
            field_usize(&mut s, "query", *query);
            field_usize(&mut s, "gates_recomputed", *gates_recomputed as usize);
            field_bool(&mut s, "full", *full);
            field_f64(&mut s, "seconds", *seconds);
        }
        TraceEvent::ServeRequest {
            id,
            route,
            status,
            code,
            session,
            session_hit,
            seconds,
        } => {
            field_usize(&mut s, "id", *id as usize);
            field_str(&mut s, "route", route);
            field_usize(&mut s, "status", *status as usize);
            field_str(&mut s, "code", code);
            field_str(&mut s, "session", session);
            field_bool(&mut s, "session_hit", *session_hit);
            field_f64(&mut s, "seconds", *seconds);
        }
        TraceEvent::Run(r) => {
            field_str(&mut s, "bin", &r.bin);
            field_str(&mut s, "circuit", &r.circuit);
            field_str(&mut s, "status", &r.status);
            field_f64(&mut s, "objective", r.objective);
            field_f64(&mut s, "mu", r.mu);
            field_f64(&mut s, "sigma", r.sigma);
            field_f64(&mut s, "area", r.area);
            field_f64(&mut s, "seconds", r.seconds);
            field_usize(&mut s, "clark_var_clamps", r.clark_var_clamps as usize);
            evals_obj(&mut s, &r.evals);
        }
    }
    s.push('}');
    s
}

fn evals_obj(s: &mut String, e: &EvalReport) {
    let _ = write!(
        s,
        ",\"evals\":{{\"objective\":{},\"gradient\":{},\"constraints\":{},\"jacobian\":{},\"hessian\":{}}}",
        e.objective, e.gradient, e.constraints, e.jacobian, e.hessian
    );
}

fn field_str(s: &mut String, key: &str, val: &str) {
    s.push(',');
    push_string(s, key);
    s.push(':');
    push_string(s, val);
}

fn field_usize(s: &mut String, key: &str, val: usize) {
    let _ = write!(s, ",\"{key}\":{val}");
}

fn field_bool(s: &mut String, key: &str, val: bool) {
    let _ = write!(s, ",\"{key}\":{val}");
}

fn field_f64(s: &mut String, key: &str, val: f64) {
    let _ = write!(s, ",\"{key}\":");
    push_f64(s, val);
}

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

/// Appends `val` to `out` as a JSON string literal — the writer's
/// escaping, exported for downstream JSON emitters (the Chrome trace
/// exporter, the daemon's access log).
pub fn push_json_string(out: &mut String, val: &str) {
    push_string(out, val);
}

/// Appends `val` to `out` as a JSON number, using the writer's
/// `"NaN"`/`"Infinity"` string escapes for non-finite values (the
/// convention [`Json::as_f64`] decodes).
pub fn push_json_f64(out: &mut String, val: f64) {
    push_f64(out, val);
}

fn push_string(s: &mut String, val: &str) {
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

/// A parsed JSON value (the validator's output).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order preserved is not needed; sorted map).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup (`None` on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, decoding the writer's `"NaN"`/`"Infinity"`
    /// string escapes back to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "Infinity" => Some(f64::INFINITY),
                "-Infinity" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, val: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected literal '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-utf8 \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9' => self.pos += 1,
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }
}

/// Parses one JSON document (a full string must parse, trailing
/// whitespace allowed).
///
/// # Errors
///
/// Returns a position-annotated message on malformed input.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Summary of a validated JSONL trace file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total event lines.
    pub lines: usize,
    /// Count per `"event"` kind tag.
    pub kinds: BTreeMap<String, usize>,
}

impl TraceSummary {
    /// Count of events with the given kind tag.
    pub fn count(&self, kind: &str) -> usize {
        self.kinds.get(kind).copied().unwrap_or(0)
    }

    /// Whether a terminal status record (`solve_done` or `run_report`) is
    /// present.
    pub fn has_final_status(&self) -> bool {
        self.count("solve_done") + self.count("run_report") > 0
    }
}

/// Validates a JSONL trace: every non-empty line must parse as a JSON
/// object with a string `"event"` tag.
///
/// # Errors
///
/// Returns a line-annotated message on the first malformed line.
pub fn validate_jsonl(text: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing \"event\" tag", lineno + 1))?;
        *summary.kinds.entry(kind.to_string()).or_insert(0) += 1;
        summary.lines += 1;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OuterRecord, RunReport, SolveRecord};

    fn outer() -> TraceEvent {
        TraceEvent::Outer(OuterRecord {
            outer: 3,
            merit: 1.25,
            c_norm: 1e-9,
            pg_norm: 2.5e-7,
            rho: 10.0,
            lambda_norm: 4.0,
            inner_iterations: 12,
            cg_iterations: 40,
            step_accepted: true,
            inner_converged: false,
        })
    }

    #[test]
    fn events_round_trip_through_the_validator() {
        let events = [
            outer(),
            TraceEvent::PhaseSpan {
                phase: "ssta",
                seconds: 0.125,
            },
            TraceEvent::Counter {
                name: "gates",
                value: 7,
            },
            TraceEvent::Diverged {
                outer: 2,
                detail: "objective is NaN".into(),
                x: vec![1.0, f64::NAN, f64::INFINITY],
            },
            TraceEvent::WhatIfQuery {
                query: 4,
                gates_recomputed: 11,
                full: false,
                seconds: 3.5e-6,
            },
            TraceEvent::ServeRequest {
                id: 42,
                route: "solve".into(),
                status: 200,
                code: String::new(),
                session: "00c0ffee00c0ffee".into(),
                session_hit: true,
                seconds: 0.012,
            },
            TraceEvent::SolveDone(SolveRecord {
                status: "converged".into(),
                objective: -3.0,
                c_norm: 0.0,
                outer_iterations: 5,
                inner_iterations: 60,
                evals: EvalReport {
                    objective: 10,
                    gradient: 9,
                    constraints: 8,
                    jacobian: 7,
                    hessian: 6,
                },
            }),
            TraceEvent::Run(RunReport {
                bin: "size_blif".into(),
                circuit: "tree7".into(),
                status: "ok".into(),
                objective: 6.5,
                mu: 6.5,
                sigma: 0.7,
                area: 9.5,
                seconds: 0.4,
                evals: EvalReport::default(),
                clark_var_clamps: 2,
            }),
        ];
        let text: String = events.iter().map(|e| to_json(e) + "\n").collect();
        let summary = validate_jsonl(&text).expect("writer output must validate");
        assert_eq!(summary.lines, events.len());
        assert_eq!(summary.count("outer_iteration"), 1);
        assert_eq!(summary.count("diverged"), 1);
        assert_eq!(summary.count("what_if_query"), 1);
        assert_eq!(summary.count("serve_request"), 1);
        assert!(summary.has_final_status());
    }

    #[test]
    fn parsed_fields_match_written_values() {
        let line = to_json(&outer());
        let v = parse_json(&line).unwrap();
        assert_eq!(
            v.get("event").and_then(Json::as_str),
            Some("outer_iteration")
        );
        assert_eq!(v.get("outer").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("pg_norm").and_then(Json::as_f64), Some(2.5e-7));
        assert_eq!(v.get("step_accepted"), Some(&Json::Bool(true)));
    }

    #[test]
    fn non_finite_values_survive_the_round_trip() {
        let line = to_json(&TraceEvent::Diverged {
            outer: 0,
            detail: "poisoned".into(),
            x: vec![f64::NAN, f64::NEG_INFINITY, 2.0],
        });
        let v = parse_json(&line).unwrap();
        let Some(Json::Arr(xs)) = v.get("x") else {
            panic!("x must be an array: {line}");
        };
        assert!(xs[0].as_f64().unwrap().is_nan());
        assert_eq!(xs[1].as_f64(), Some(f64::NEG_INFINITY));
        assert_eq!(xs[2].as_f64(), Some(2.0));
    }

    #[test]
    fn string_escaping_round_trips() {
        let line = to_json(&TraceEvent::Diverged {
            outer: 0,
            detail: "quote \" backslash \\ newline \n tab \t done".into(),
            x: Vec::new(),
        });
        let v = parse_json(&line).unwrap();
        assert_eq!(
            v.get("detail").and_then(Json::as_str),
            Some("quote \" backslash \\ newline \n tab \t done")
        );
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        assert!(validate_jsonl("{\"event\":\"x\"}\nnot json\n")
            .unwrap_err()
            .starts_with("line 2"));
        assert!(validate_jsonl("{\"no_tag\":1}\n")
            .unwrap_err()
            .contains("missing"));
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("{\"a\":1} extra").is_err());
    }

    #[test]
    fn shortest_float_formatting_round_trips_exactly() {
        for v in [0.1, 1.0 / 3.0, 6.02e23, -4.9e-324, 1e308] {
            let line = to_json(&TraceEvent::PhaseSpan {
                phase: "p",
                seconds: v,
            });
            let parsed = parse_json(&line).unwrap();
            assert_eq!(parsed.get("seconds").and_then(Json::as_f64), Some(v));
        }
    }
}
