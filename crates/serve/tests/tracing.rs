//! Request-tracing contract battery: `/debug/traces`, Chrome export,
//! access log, and the single request-id allocator.
//!
//! Runs against real sockets like `protocol.rs`. The process-global
//! metrics registry stays untouched (other test binaries own it); these
//! tests assert on response bodies, the trace ring and the access log.

use sgs_serve::{Client, Server, ServerConfig};
use sgs_trace::chrome::validate_chrome;
use sgs_trace::json::{parse_json, validate_jsonl, Json};

fn client(server: &Server) -> Client {
    Client::connect(server.addr()).expect("connect to the daemon")
}

const TREE7_SOLVE: &str =
    r#"{"circuit":{"builtin":"tree7"},"objective":"area","spec":{"max_mean":9.0}}"#;

#[test]
fn debug_traces_lists_recent_requests_newest_first() {
    let server = Server::start(ServerConfig::default(), None).expect("bind");
    let mut c = client(&server);
    let solve = c.post("/solve", TREE7_SOLVE).expect("solve");
    assert_eq!(solve.status, 200, "{}", solve.body);
    let health = c.get("/health").expect("health");
    assert_eq!(health.status, 200);

    let resp = c.get("/debug/traces").expect("summary");
    assert_eq!(resp.status, 200, "{}", resp.body);
    // The summary is itself one JSONL-valid line.
    validate_jsonl(&resp.body).expect("summary line validates");
    let v = parse_json(resp.body.trim()).expect("summary parses");
    assert_eq!(v.get("event").and_then(Json::as_str), Some("trace_summary"));
    let traces = match v.get("traces") {
        Some(Json::Arr(a)) => a,
        other => panic!("traces must be an array, got {other:?}"),
    };
    assert!(traces.len() >= 2, "at least solve + health retained");
    // Newest first: strictly decreasing request ids.
    let ids: Vec<f64> = traces
        .iter()
        .map(|t| t.get("request_id").and_then(Json::as_f64).unwrap())
        .collect();
    assert!(
        ids.windows(2).all(|w| w[0] > w[1]),
        "summaries must be newest-first: {ids:?}"
    );
    // The /solve entry carries split queue waits and a session id.
    let solve_entry = traces
        .iter()
        .find(|t| t.get("route").and_then(Json::as_str) == Some("/solve"))
        .expect("a /solve trace is retained");
    for key in [
        "status",
        "seconds",
        "admission_wait_seconds",
        "session_wait_seconds",
        "spans",
    ] {
        assert!(
            solve_entry.get(key).and_then(Json::as_f64).is_some(),
            "summary entry needs numeric {key:?}: {}",
            resp.body
        );
    }
    assert_eq!(
        solve_entry
            .get("session_hit")
            .map(|b| *b == Json::Bool(false)),
        Some(true),
        "first solve is a session miss"
    );
    let secs = solve_entry.get("seconds").and_then(Json::as_f64).unwrap();
    let adm = solve_entry
        .get("admission_wait_seconds")
        .and_then(Json::as_f64)
        .unwrap();
    let sess = solve_entry
        .get("session_wait_seconds")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(secs > 0.0 && adm >= 0.0 && sess >= 0.0);
    assert!(
        adm + sess <= secs,
        "waits cannot exceed the request wall time"
    );
    server.shutdown();
}

#[test]
fn debug_trace_export_is_valid_chrome_trace_with_solver_spans() {
    let server = Server::start(ServerConfig::default(), None).expect("bind");
    let mut c = client(&server);
    let solve = c.post("/solve", TREE7_SOLVE).expect("solve");
    assert_eq!(solve.status, 200, "{}", solve.body);
    let id = parse_json(solve.body.trim())
        .expect("solve body parses")
        .get("request_id")
        .and_then(Json::as_f64)
        .expect("solve echoes its request id") as u64;

    let resp = c.get(&format!("/debug/traces/{id}")).expect("export");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let summary = validate_chrome(&resp.body).expect("export is a valid Chrome trace");
    assert!(summary.pairs >= 3, "expected nested spans, got {summary:?}");
    assert!(
        summary.coverage.unwrap_or(0.0) >= 0.95,
        "spans must cover >=95% of the request: {summary:?}"
    );
    // The solver's own phase spans propagated through the session worker
    // into this request's tree, under the worker's op span.
    let paths = span_paths(&resp.body);
    let reduced = paths
        .iter()
        .find(|p| p.last().map(String::as_str) == Some("reduced_space"))
        .unwrap_or_else(|| panic!("no reduced_space span: {}", resp.body));
    assert_eq!(
        reduced,
        &["request", "handle", "op_solve", "solve", "reduced_space"],
        "{}",
        resp.body
    );
    for p in &paths {
        assert!(
            p.windows(2).all(|w| w[0] != w[1]),
            "a span nests in one of its own name: {p:?}"
        );
    }
    // The session's resolver was built before this request attached, and
    // a default (reduced-space) solve builds no problem.
    assert!(
        paths
            .iter()
            .all(|p| p.last().map(String::as_str) != Some("build_problem")),
        "{}",
        resp.body
    );
    server.shutdown();
}

/// The chain of open span names, outermost first, at each begin (`B`)
/// event of a Chrome export, in order.
fn span_paths(chrome: &str) -> Vec<Vec<String>> {
    let v = parse_json(chrome.trim()).expect("export parses");
    let Some(Json::Arr(events)) = v.get("traceEvents") else {
        panic!("traceEvents must be an array: {chrome}");
    };
    let mut open: Vec<String> = Vec::new();
    let mut paths = Vec::new();
    for e in events {
        let name = e.get("name").and_then(Json::as_str).unwrap_or_default();
        match e.get("ph").and_then(Json::as_str) {
            Some("B") => {
                open.push(name.to_string());
                paths.push(open.clone());
            }
            Some("E") => assert_eq!(open.pop().as_deref(), Some(name), "{chrome}"),
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed spans {open:?}: {chrome}");
    paths
}

#[test]
fn debug_trace_errors_are_structured() {
    let server = Server::start(ServerConfig::default(), None).expect("bind");
    let mut c = client(&server);

    let missing = c.get("/debug/traces/999999").expect("missing id");
    assert_eq!(missing.status, 404, "{}", missing.body);
    let v = parse_json(missing.body.trim()).expect("error parses");
    assert_eq!(v.get("code").and_then(Json::as_str), Some("E_NOT_FOUND"));

    let bad = c.get("/debug/traces/not-a-number").expect("bad id");
    assert_eq!(bad.status, 400, "{}", bad.body);
    let v = parse_json(bad.body.trim()).expect("error parses");
    assert_eq!(v.get("code").and_then(Json::as_str), Some("E_BAD_FIELD"));

    let post = c.post("/debug/traces", "{}").expect("wrong method");
    assert_eq!(post.status, 405, "{}", post.body);
    server.shutdown();
}

#[test]
fn disabled_tracing_still_answers_debug_traces() {
    let server = Server::start(
        ServerConfig {
            trace_capacity: 0,
            ..ServerConfig::default()
        },
        None,
    )
    .expect("bind");
    let mut c = client(&server);
    let _ = c.get("/health").expect("health");
    let resp = c.get("/debug/traces").expect("summary");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = parse_json(resp.body.trim()).expect("summary parses");
    assert_eq!(v.get("capacity").and_then(Json::as_f64), Some(0.0));
    assert_eq!(v.get("count").and_then(Json::as_f64), Some(0.0));
    server.shutdown();
}

#[test]
fn access_log_is_jsonl_clean_with_unique_request_ids() {
    let dir = std::env::temp_dir().join(format!("sgs_access_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log_path = dir.join("access.jsonl");
    let server = Server::start(
        ServerConfig {
            access_log: Some(log_path.clone()),
            ..ServerConfig::default()
        },
        None,
    )
    .expect("bind");
    let mut c = client(&server);
    let mut body_ids = Vec::new();
    let solve = c.post("/solve", TREE7_SOLVE).expect("solve");
    assert_eq!(solve.status, 200);
    body_ids.push(id_of(&solve.body));
    let health = c.get("/health").expect("health");
    body_ids.push(id_of(&health.body));
    // An error response carries a daemon-unique id too.
    let nope = c.get("/no-such-route").expect("404");
    assert_eq!(nope.status, 404);
    body_ids.push(id_of(&nope.body));
    drop(c);
    server.shutdown();

    let text = std::fs::read_to_string(&log_path).expect("access log written");
    let summary = validate_jsonl(&text).expect("access log is JSONL-clean");
    assert_eq!(
        summary.count("access"),
        body_ids.len(),
        "one access event per completed request: {text}"
    );
    let mut logged: Vec<u64> = text.lines().map(id_of).collect();
    logged.sort_unstable();
    let mut expected = body_ids.clone();
    expected.sort_unstable();
    assert_eq!(logged, expected, "access log ids match response ids");
    logged.dedup();
    assert_eq!(
        logged.len(),
        body_ids.len(),
        "request ids are daemon-unique"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Extracts the echoed `request_id` from a response body or log line.
fn id_of(body: &str) -> u64 {
    parse_json(body.trim())
        .expect("body parses")
        .get("request_id")
        .and_then(Json::as_f64)
        .expect("body echoes request_id") as u64
}
