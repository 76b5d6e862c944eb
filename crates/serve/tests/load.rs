//! The daemon under a scripted 32-session load, with every registry
//! count checked against the script and against a direct replay.
//!
//! Two phases against in-process servers, metrics on throughout:
//!
//! 1. **Concurrency**: 32 client threads, each replaying one scripted
//!    session (cold solve, 8 what-if probes, two warm deadline
//!    re-solves, a final warm solve) on its own generated circuit. Zero
//!    failed requests; the first request of each session misses and
//!    every later one hits warm state. Before shutdown the retained
//!    traces must account their waits, and a `/solve` Chrome export must
//!    validate with at least 95% span coverage.
//! 2. **Eviction**: a capacity-4 server walked over 6 circuits twice,
//!    single-threaded. Every solve misses, and every second-pass cold
//!    re-solve is bit-identical to the first pass.
//!
//! Then the run's registry is checked. The `serve_*` counts, window
//! request counts and latency-histogram counts equal what the script
//! implies. Every solver-side count (NLP, SSTA, Clark, resolver, phase
//! spans, the `nlp_last_*` gauges) equals that of a direct replay of the
//! same script through [`sgs_core::Resolver`], without a daemon. No
//! number is committed.
//!
//! The registry is process-wide, so this binary holds a single test.

use sgs_core::{DelaySpec, Objective, Sizer};
use sgs_metrics::{window, Counter, HistId, Snapshot};
use sgs_netlist::{generate, Circuit, GateId, Library};
use sgs_serve::{Client, Server, ServerConfig};
use sgs_ssta::ssta;
use sgs_trace::chrome::validate_chrome;
use sgs_trace::json::{parse_json, validate_jsonl, Json};

const SESSIONS: usize = 32;
const QUERIES: usize = 8;
/// Deadline factors of the two warm re-solves.
const RESOLVES: [f64; 2] = [0.95, 0.94];
/// Requests per scripted session: cold solve, probes, re-solves, final
/// solve.
const PER_SESSION: usize = 1 + QUERIES + RESOLVES.len() + 1;
const EVICT_CIRCUITS: usize = 6;
const EVICT_CAPACITY: usize = 4;

/// The generated circuit of session `i`: small enough that a cold solve
/// takes milliseconds with every session contending for one core.
fn session_dag(i: usize) -> generate::RandomDagSpec {
    generate::RandomDagSpec {
        name: format!("load{i}"),
        cells: 24,
        inputs: 6,
        depth: 5,
        seed: 1000 + i as u64,
        ..Default::default()
    }
}

fn evict_dag(i: usize) -> generate::RandomDagSpec {
    generate::RandomDagSpec {
        name: format!("evict{i}"),
        seed: 2000 + i as u64,
        ..session_dag(i)
    }
}

fn circuit_json(spec: &generate::RandomDagSpec) -> String {
    format!(
        "{{\"generate\":{{\"name\":\"{}\",\"cells\":{},\"inputs\":{},\"depth\":{},\"seed\":{}}}}}",
        spec.name, spec.cells, spec.inputs, spec.depth, spec.seed
    )
}

fn baseline_mean(circuit: &Circuit, lib: &Library) -> f64 {
    ssta(circuit, lib, &vec![1.0; circuit.num_gates()])
        .delay
        .mean()
}

/// `QUERIES` deterministic single-gate probes (splitmix64 stream).
fn probes(circuit: &Circuit, lib: &Library, seed: u64) -> Vec<(GateId, f64)> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..QUERIES)
        .map(|_| {
            let g = (next() % circuit.num_gates() as u64) as usize;
            let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
            (GateId(g), 1.0 + unit * (lib.s_limit - 1.0))
        })
        .collect()
}

fn post(client: &mut Client, path: &str, body: &str) -> (u16, bool) {
    let resp = client.post(path, body).expect("request answered");
    let hit = parse_json(resp.body.trim())
        .ok()
        .and_then(|v| v.get("session_hit").cloned())
        == Some(Json::Bool(true));
    (resp.status, hit)
}

/// One scripted session over HTTP; returns `(status, session_hit)` per
/// request.
fn served_session(addr: std::net::SocketAddr, i: usize) -> Vec<(u16, bool)> {
    let spec = session_dag(i);
    let circuit = generate::random_dag(&spec);
    let lib = Library::paper_default();
    let baseline = baseline_mean(&circuit, &lib);
    let base = format!(
        "\"circuit\":{},\"objective\":\"area\",\"spec\":{{\"max_mean\":{}}}",
        circuit_json(&spec),
        baseline * 0.97
    );
    let mut c = Client::connect(addr).expect("connect");
    let mut out = vec![post(&mut c, "/solve", &format!("{{{base}}}"))];
    for (g, v) in probes(&circuit, &lib, spec.seed) {
        let body = format!(
            "{{{base},\"changes\":[{{\"gate\":{},\"size\":{v}}}]}}",
            g.index()
        );
        out.push(post(&mut c, "/what_if", &body));
    }
    for factor in RESOLVES {
        let body = format!("{{{base},\"deadline\":{}}}", baseline * factor);
        out.push(post(&mut c, "/resolve", &body));
    }
    out.push(post(&mut c, "/solve", &format!("{{{base}}}")));
    out
}

/// The same session without a daemon. The final `/solve` comes back to
/// the spec's deadline after the re-solves moved it, which the session
/// worker answers as a warm deadline move.
fn direct_session(i: usize) {
    let spec = session_dag(i);
    let circuit = generate::random_dag(&spec);
    let lib = Library::paper_default();
    let baseline = baseline_mean(&circuit, &lib);
    let d0 = baseline * 0.97;
    let mut r = Sizer::new(&circuit, &lib)
        .objective(Objective::Area)
        .delay_spec(DelaySpec::MaxMean(d0))
        .resolver();
    r.solve().expect("cold solve");
    for change in probes(&circuit, &lib, spec.seed) {
        r.what_if(&[change]);
    }
    for factor in RESOLVES {
        r.resolve_spec(baseline * factor).expect("warm re-solve");
    }
    r.resolve_spec(d0).expect("final warm solve");
}

fn evict_body(i: usize, lib: &Library) -> String {
    let spec = evict_dag(i);
    let baseline = baseline_mean(&generate::random_dag(&spec), lib);
    format!(
        "{{\"circuit\":{},\"objective\":\"area\",\"spec\":{{\"max_mean\":{}}}}}",
        circuit_json(&spec),
        baseline * 0.97
    )
}

/// Checks the retained traces of the still-running server: waits are
/// accounted, and a `/solve` Chrome export covers its request.
fn check_traces(addr: std::net::SocketAddr) {
    let mut c = Client::connect(addr).expect("connect for trace checks");
    let resp = c.get("/debug/traces").expect("GET /debug/traces");
    assert_eq!(resp.status, 200, "{}", resp.body);
    validate_jsonl(&resp.body).expect("trace summary is one clean JSONL line");
    let v = parse_json(resp.body.trim()).expect("trace summary parses");
    let Some(Json::Arr(traces)) = v.get("traces") else {
        panic!("trace summary needs a traces array: {v:?}");
    };
    let mut solve_id = None;
    for t in traces {
        let num = |k: &str| t.get(k).and_then(Json::as_f64).expect(k);
        let (secs, adm, sess) = (
            num("seconds"),
            num("admission_wait_seconds"),
            num("session_wait_seconds"),
        );
        assert!(
            secs.is_finite() && adm >= 0.0 && sess >= 0.0 && adm + sess <= secs,
            "trace wait accounting broken: {t:?}"
        );
        if solve_id.is_none() && t.get("route").and_then(Json::as_str) == Some("/solve") {
            solve_id = Some(num("request_id") as u64);
        }
    }
    let id = solve_id.expect("a /solve trace is retained after the load");
    let export = c.get(&format!("/debug/traces/{id}")).expect("export");
    assert_eq!(export.status, 200, "{}", export.body);
    let summary = validate_chrome(&export.body).expect("chrome export validates");
    assert!(
        summary.coverage.unwrap_or(0.0) >= 0.95,
        "solve trace spans cover too little of the request: {summary:?}"
    );
}

fn snapshot() -> Snapshot {
    sgs_metrics::snapshot(sgs_metrics::Metadata::default())
}

#[test]
fn scripted_load_counts_match_the_script_and_a_direct_replay() {
    let access_log =
        std::env::temp_dir().join(format!("sgs_serve_access_{}.jsonl", std::process::id()));
    sgs_metrics::reset();
    sgs_metrics::enable();

    // Phase 1: concurrency.
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: SESSIONS,
            queue_capacity: SESSIONS * 2,
            session_capacity: SESSIONS * 2,
            access_log: Some(access_log.clone()),
            ..ServerConfig::default()
        },
        None,
    )
    .expect("bind the load server");
    let addr = server.addr();
    let clients: Vec<_> = (0..SESSIONS)
        .map(|i| std::thread::spawn(move || served_session(addr, i)))
        .collect();
    let mut requests = 0;
    for (i, h) in clients.into_iter().enumerate() {
        let samples = h.join().expect("client thread");
        assert_eq!(samples.len(), PER_SESSION, "session {i}: requests sent");
        assert!(
            samples.iter().all(|(status, _)| *status == 200),
            "session {i} had failed requests: {samples:?}"
        );
        assert!(!samples[0].1, "session {i}: first request must miss");
        assert!(
            samples[1..].iter().all(|(_, hit)| *hit),
            "session {i}: every later request must hit warm state"
        );
        requests += samples.len();
    }
    assert_eq!(server.sessions_live(), SESSIONS, "no session was evicted");
    check_traces(addr);
    server.shutdown();

    // Phase 2: eviction, bit-identical cold re-solves.
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 8,
            session_capacity: EVICT_CAPACITY,
            ..ServerConfig::default()
        },
        None,
    )
    .expect("bind the eviction server");
    let lib = Library::paper_default();
    let mut first_pass = Vec::new();
    for pass in 0..2 {
        for i in 0..EVICT_CIRCUITS {
            let mut c = Client::connect(server.addr()).expect("connect");
            let resp = c.post("/solve", &evict_body(i, &lib)).expect("solve");
            assert_eq!(resp.status, 200, "{}", resp.body);
            let v = parse_json(resp.body.trim()).expect("solve_result is JSON");
            assert_eq!(v.get("session_hit"), Some(&Json::Bool(false)));
            // Everything after the request id must repeat bit for bit.
            let (_, answer) = resp
                .body
                .split_once(",\"objective\"")
                .expect("solve_result carries an objective");
            if pass == 0 {
                first_pass.push(answer.to_string());
            } else {
                assert_eq!(first_pass[i], answer, "circuit {i}: cold re-solve diverged");
            }
        }
    }
    server.shutdown();
    let served = snapshot();

    // Route windows: finite, ordered quantiles.
    for route in [
        window::Route::Solve,
        window::Route::Resolve,
        window::Route::WhatIf,
    ] {
        let q = window::route_quantiles(route).expect("route saw traffic");
        assert!(
            q.p99.is_finite() && q.p50 <= q.p95 && q.p95 <= q.p99,
            "route {} quantiles broken: {q:?}",
            route.name()
        );
    }

    // The access log: clean JSONL, one event per request, unique ids.
    let text = std::fs::read_to_string(&access_log).expect("read the access log");
    std::fs::remove_file(&access_log).ok();
    let log = validate_jsonl(&text).expect("access log is JSONL-clean");
    let traced_gets = 2;
    assert_eq!(log.count("access"), requests + traced_gets);
    let mut ids: Vec<u64> = text
        .lines()
        .map(|l| {
            let v = parse_json(l).expect("access line parses");
            v.get("request_id")
                .and_then(Json::as_f64)
                .expect("request_id") as u64
        })
        .collect();
    let lines = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), lines, "request ids must be daemon-unique");

    // Serve counts implied by the script.
    let (solves, resolves, what_ifs) = (
        2 * SESSIONS + 2 * EVICT_CIRCUITS,
        RESOLVES.len() * SESSIONS,
        QUERIES * SESSIONS,
    );
    let sizing = solves + resolves + what_ifs;
    let all = sizing + traced_gets;
    let counter = |name: &str| served.counters[name] as usize;
    let requests_served =
        counter(Counter::ServeRequests.name()) - counter(Counter::ServeRejectedSaturated.name());
    for (name, expected) in [
        (Counter::ServeRequests.name(), all),
        (Counter::ServeRejectedSaturated.name(), 0),
        (Counter::ServeErrors.name(), 0),
        (
            Counter::ServeSessionHits.name(),
            SESSIONS * (PER_SESSION - 1),
        ),
        (
            Counter::ServeSessionMisses.name(),
            SESSIONS + 2 * EVICT_CIRCUITS,
        ),
        (
            Counter::ServeSessionEvictions.name(),
            (EVICT_CIRCUITS - EVICT_CAPACITY) + EVICT_CIRCUITS,
        ),
        ("serve_window_solve_requests", solves),
        ("serve_window_resolve_requests", resolves),
        ("serve_window_what_if_requests", what_ifs),
    ] {
        assert_eq!(counter(name), expected, "{name}");
    }
    for (id, expected) in [
        (HistId::ServeQueueWaitSeconds, requests_served),
        (HistId::ServeSessionWaitSeconds, sizing),
        (HistId::ServeSolveSeconds, solves),
        (HistId::ServeResolveSeconds, resolves),
        (HistId::ServeWhatIfSeconds, what_ifs),
        (HistId::ServeAnalyzeSeconds, 0),
    ] {
        let count = served.hists[id.name()].count as usize;
        assert_eq!(count, expected, "{}.count", id.name());
    }
    assert_eq!(served.gauges["serve_queue_depth"], 0.0);
    assert_eq!(served.gauges["serve_sessions_live"], EVICT_CAPACITY as f64);

    // Solver-side counts: the same script, replayed without the daemon.
    sgs_metrics::reset();
    for i in 0..SESSIONS {
        direct_session(i);
    }
    for _pass in 0..2 {
        for i in 0..EVICT_CIRCUITS {
            let circuit = generate::random_dag(&evict_dag(i));
            let d = baseline_mean(&circuit, &lib) * 0.97;
            Sizer::new(&circuit, &lib)
                .objective(Objective::Area)
                .delay_spec(DelaySpec::MaxMean(d))
                .resolver()
                .solve()
                .expect("cold solve");
        }
    }
    let direct = snapshot();
    sgs_metrics::disable();
    let solver_side = |s: &Snapshot| -> Vec<String> {
        s.deterministic_lines()
            .lines()
            .filter(|l| !l.contains(".serve_"))
            .map(str::to_string)
            .collect()
    };
    let (served_lines, direct_lines) = (solver_side(&served), solver_side(&direct));
    for (s, d) in served_lines.iter().zip(&direct_lines) {
        assert_eq!(s, d, "served and direct replay disagree");
    }
    assert_eq!(served_lines.len(), direct_lines.len());
    assert!(
        served_lines.contains(&format!("phase.solve.count {}", solves + resolves)),
        "every served solve and re-solve is one solve phase: {served_lines:?}"
    );
}
