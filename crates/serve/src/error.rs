//! Structured wire errors with stable machine-readable codes.
//!
//! Every failed request is answered with a single-line JSON object
//! carrying a top-level `"event":"error"` tag (the same convention as
//! `sgs-trace` JSONL records, so error bodies round-trip through
//! [`sgs_trace::json::validate_jsonl`]), the HTTP status, a **stable**
//! short code from the table in `DESIGN.md` §16, and a human-readable
//! message. Codes are part of the protocol contract — the battery in
//! `tests/protocol.rs` pins them.

use std::fmt;

/// `400` — the request line was missing, truncated or malformed.
pub const E_BAD_REQUEST_LINE: &str = "E_BAD_REQUEST_LINE";
/// `400` — a header line was malformed or exceeded the configured limits.
pub const E_BAD_HEADER: &str = "E_BAD_HEADER";
/// `411` — a body-carrying request without a `Content-Length` header
/// (chunked transfer encoding is deliberately unsupported).
pub const E_LENGTH_REQUIRED: &str = "E_LENGTH_REQUIRED";
/// `413` — the declared body length exceeds the server's limit.
pub const E_BODY_TOO_LARGE: &str = "E_BODY_TOO_LARGE";
/// `400` — the connection closed (or the declared length lied) before the
/// full body arrived.
pub const E_TRUNCATED_BODY: &str = "E_TRUNCATED_BODY";
/// `408` — the peer stalled mid-request past the read timeout.
pub const E_TIMEOUT: &str = "E_TIMEOUT";
/// `400` — the body is not valid JSON.
pub const E_BAD_JSON: &str = "E_BAD_JSON";
/// `400` — the JSON is well-formed but a required field is missing, has
/// the wrong type, or carries an out-of-range value.
pub const E_BAD_FIELD: &str = "E_BAD_FIELD";
/// `400` — the circuit payload failed to parse or elaborate.
pub const E_CIRCUIT: &str = "E_CIRCUIT";
/// `404` — unknown route.
pub const E_NOT_FOUND: &str = "E_NOT_FOUND";
/// `405` — known route, unsupported method (the response names the
/// allowed method in an `Allow` header).
pub const E_METHOD_NOT_ALLOWED: &str = "E_METHOD_NOT_ALLOWED";
/// `422` — the formulation is valid but the solver could not satisfy it
/// (e.g. an infeasibly tight deadline). The session keeps its last
/// accepted warm state.
pub const E_SOLVER: &str = "E_SOLVER";
/// `429` — the admission queue is full; retry after the `Retry-After`
/// interval.
pub const E_SATURATED: &str = "E_SATURATED";
/// `500` — an internal invariant failed (e.g. a session worker died).
pub const E_INTERNAL: &str = "E_INTERNAL";

/// One structured request failure: HTTP status, stable code, detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// HTTP status code (4xx/5xx).
    pub status: u16,
    /// Stable machine-readable code (`E_*`, see module docs).
    pub code: &'static str,
    /// Human-readable one-line detail.
    pub message: String,
}

impl ServeError {
    /// Builds an error from its parts.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        ServeError {
            status,
            code,
            message: message.into(),
        }
    }

    /// `400 Bad Request` shorthand.
    pub fn bad_request(code: &'static str, message: impl Into<String>) -> Self {
        ServeError::new(400, code, message)
    }

    /// Renders the single-line JSON error body for this failure.
    ///
    /// The body validates as one JSONL line with an `"event":"error"` tag
    /// and echoes the request id assigned by the server.
    #[must_use]
    pub fn to_json(&self, request_id: u64) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"event\":\"error\",\"request_id\":");
        s.push_str(&request_id.to_string());
        s.push_str(",\"status\":");
        s.push_str(&self.status.to_string());
        s.push_str(",\"code\":\"");
        s.push_str(self.code); // codes are static identifiers, no escaping
        s.push_str("\",\"message\":");
        crate::proto::push_json_string(&mut s, &self.message);
        s.push_str("}\n");
        s
    }

    /// Canonical HTTP reason phrase for a status code this server emits.
    #[must_use]
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            411 => "Length Required",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.status, self.code, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_trace::json::{parse_json, validate_jsonl, Json};

    #[test]
    fn error_bodies_validate_as_jsonl() {
        let e = ServeError::bad_request(E_BAD_JSON, "byte 3: expected ':'");
        let body = e.to_json(17);
        let summary = validate_jsonl(&body).expect("error body must be valid JSONL");
        assert_eq!(summary.count("error"), 1);
        let v = parse_json(body.trim()).unwrap();
        assert_eq!(v.get("code").and_then(Json::as_str), Some(E_BAD_JSON));
        assert_eq!(v.get("status").and_then(Json::as_f64), Some(400.0));
        assert_eq!(v.get("request_id").and_then(Json::as_f64), Some(17.0));
    }

    #[test]
    fn messages_with_quotes_escape_cleanly() {
        let e = ServeError::new(422, E_SOLVER, "status \"diverged\"\nc_norm 1.0");
        let v = parse_json(e.to_json(0).trim()).unwrap();
        assert_eq!(
            v.get("message").and_then(Json::as_str),
            Some("status \"diverged\"\nc_norm 1.0")
        );
    }

    #[test]
    fn reasons_cover_every_emitted_status() {
        for s in [200u16, 400, 404, 405, 408, 411, 413, 422, 429, 500] {
            assert_ne!(ServeError::reason(s), "Unknown", "status {s}");
        }
    }
}
