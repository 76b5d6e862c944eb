//! Differential oracle: the daemon is a transport, not a second engine.
//!
//! Every number the served API returns must be **bit-identical**
//! (`f64::to_bits`) to what a direct in-process [`sgs_core::Resolver`]
//! produces for the same operation sequence, and a session's first
//! `/solve` must equal the CLI's one-shot [`Sizer::solve`] of the same
//! circuit, objective and spec. The server formats floats
//! in Rust's shortest-round-trip form and the client parses them back
//! with `str::parse::<f64>`, so equality of parsed bits is exact — any
//! divergence means the daemon solved a different problem, ran ops in a
//! different order, or lost precision on the wire.
//!
//! Two scenarios cover both spec families:
//!
//! * a generated DAG under `area` / `max_mean`, driven through the full
//!   op set: cold solve → two what-if probes → warm deadline move →
//!   pinned-size re-solve → warm move back to the original deadline;
//! * `tree7` under `mean_plus_k_sigma` / `max_mean_plus_k_sigma`
//!   (the k-sigma formulation), driven through solve → what-if →
//!   deadline move.
//!
//! The mirror reproduces the session worker's dispatch rules exactly —
//! in particular that a `/solve` whose deadline differs from the
//! session's current deadline becomes a warm `resolve_spec` move, and
//! that a *failed* move still leaves the engine at the moved deadline.

use sgs_core::{DelaySpec, Objective, ResolveOutcome, Resolver, Sizer, SizingResult, WhatIfReport};
use sgs_netlist::{generate, GateId, Library};
use sgs_serve::{Client, Server, ServerConfig};
use sgs_ssta::ssta;
use sgs_trace::json::{parse_json, Json};

fn bits(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric {key:?}"))
        .to_bits()
}

fn int(v: &Json, key: &str) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n = v
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing integer {key:?}")) as usize;
    n
}

fn boolean(v: &Json, key: &str) -> bool {
    match v.get(key) {
        Some(Json::Bool(b)) => *b,
        other => panic!("missing boolean {key:?}: {other:?}"),
    }
}

/// Field-by-field bit comparison of a served `solve_result` against a
/// direct [`SizingResult`]: sizes, objective, area, moments, iteration
/// counts and the candidate that won.
fn assert_result_matches(body: &str, r: &SizingResult, what: &str) -> Json {
    let v = parse_json(body.trim()).unwrap_or_else(|e| panic!("{what}: bad body {body}: {e}"));
    assert_eq!(
        v.get("event").and_then(Json::as_str),
        Some("solve_result"),
        "{what}: {body}"
    );
    assert_eq!(
        bits(&v, "objective"),
        r.objective.to_bits(),
        "{what}: objective"
    );
    assert_eq!(bits(&v, "area"), r.area.to_bits(), "{what}: area");
    assert_eq!(bits(&v, "mu"), r.delay.mean().to_bits(), "{what}: mu");
    assert_eq!(
        bits(&v, "sigma"),
        r.delay.sigma().to_bits(),
        "{what}: sigma"
    );
    assert_eq!(
        int(&v, "outer_iterations"),
        r.outer_iterations,
        "{what}: outer iterations"
    );
    assert_eq!(
        int(&v, "inner_iterations"),
        r.inner_iterations,
        "{what}: inner iterations"
    );
    assert_eq!(
        v.get("source").and_then(Json::as_str),
        Some(r.source.as_str()),
        "{what}: source"
    );
    let Some(Json::Arr(sizes)) = v.get("sizes") else {
        panic!("{what}: missing sizes array: {body}");
    };
    assert_eq!(sizes.len(), r.s.len(), "{what}: sizes length");
    for (i, (got, want)) in sizes.iter().zip(&r.s).enumerate() {
        let got = got
            .as_f64()
            .unwrap_or_else(|| panic!("{what}: sizes[{i}] not a number"));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: sizes[{i}] {got} vs {want}"
        );
    }
    v
}

/// [`assert_result_matches`] against a direct [`ResolveOutcome`], plus
/// its session fields.
fn assert_solve_matches(body: &str, direct: &ResolveOutcome, what: &str) {
    let v = assert_result_matches(body, &direct.result, what);
    assert_eq!(
        boolean(&v, "warm_start_hit"),
        direct.warm_start_hit,
        "{what}: warm-start flag"
    );
    assert_eq!(
        int(&v, "gates_recomputed"),
        direct.gates_recomputed,
        "{what}: gates recomputed"
    );
}

/// Field-by-field bit comparison of a served `what_if_result` against a
/// direct [`WhatIfReport`].
fn assert_what_if_matches(body: &str, direct: &WhatIfReport, what: &str) {
    let v = parse_json(body.trim()).unwrap_or_else(|e| panic!("{what}: bad body {body}: {e}"));
    assert_eq!(
        v.get("event").and_then(Json::as_str),
        Some("what_if_result"),
        "{what}: {body}"
    );
    assert_eq!(bits(&v, "mu"), direct.delay.mean().to_bits(), "{what}: mu");
    assert_eq!(
        bits(&v, "sigma"),
        direct.delay.sigma().to_bits(),
        "{what}: sigma"
    );
    assert_eq!(
        bits(&v, "objective"),
        direct.objective.to_bits(),
        "{what}: objective"
    );
    assert_eq!(
        bits(&v, "spec_violation"),
        direct.spec_violation.to_bits(),
        "{what}: spec violation"
    );
    assert_eq!(
        int(&v, "gates_recomputed"),
        direct.stats.gates_recomputed,
        "{what}: gates recomputed"
    );
}

fn post_ok(c: &mut Client, path: &str, body: &str) -> String {
    let resp = c
        .post(path, body)
        .unwrap_or_else(|e| panic!("POST {path}: {e}"));
    assert_eq!(resp.status, 200, "POST {path} {body}: {}", resp.body);
    resp.body
}

/// Renders a `(gate, size)` list in the wire `changes`/`sizes` form.
fn changes_json(changes: &[(GateId, f64)]) -> String {
    let mut s = String::from("[");
    for (i, (g, v)) in changes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{{\"gate\":{},\"size\":{v}}}", g.index()));
    }
    s.push(']');
    s
}

#[test]
fn served_area_max_mean_sequence_is_bit_identical_to_direct() {
    let dag = generate::RandomDagSpec {
        name: "oracle".into(),
        cells: 20,
        inputs: 5,
        depth: 4,
        seed: 11,
        ..Default::default()
    };
    let circuit = generate::random_dag(&dag);
    let lib = Library::paper_default();
    let baseline = ssta(&circuit, &lib, &vec![1.0; circuit.num_gates()])
        .delay
        .mean();
    let d0 = baseline * 0.97;
    let d1 = baseline * 0.95;

    // Direct mirror of the session worker: same formulation, same ops.
    let mut direct: Resolver<'_> = Sizer::new(&circuit, &lib)
        .objective(Objective::Area)
        .delay_spec(DelaySpec::MaxMean(d0))
        .resolver();

    let probe1 = [(GateId(1), 2.25), (GateId(4), 1.5)];
    let probe2 = [(GateId(0), 3.0)];
    let pins = [(GateId(2), 2.0)];

    let server = Server::start(ServerConfig::default(), None).expect("bind");
    let mut c = Client::connect(server.addr()).expect("connect");
    let base = format!(
        "\"circuit\":{{\"generate\":{{\"name\":\"oracle\",\"cells\":20,\"inputs\":5,\"depth\":4,\"seed\":11}}}},\"objective\":\"area\",\"spec\":{{\"max_mean\":{d0}}}"
    );

    // 1. Cold solve (request deadline == session deadline → plain solve).
    // The daemon's cold solve is the CLI's one-shot solve, bit for bit.
    let body = post_ok(&mut c, "/solve", &format!("{{{base}}}"));
    assert_solve_matches(&body, &direct.solve().expect("direct solve"), "cold solve");
    let cli = Sizer::new(&circuit, &lib)
        .objective(Objective::Area)
        .delay_spec(DelaySpec::MaxMean(d0))
        .solve()
        .expect("CLI solve");
    assert_result_matches(&body, &cli, "CLI vs daemon");

    // 2-3. Evaluation-only probes (these move the working point; the
    // mirror must move identically).
    for (i, probe) in [&probe1[..], &probe2[..]].into_iter().enumerate() {
        let body = post_ok(
            &mut c,
            "/what_if",
            &format!("{{{base},\"changes\":{}}}", changes_json(probe)),
        );
        assert_what_if_matches(&body, &direct.what_if(probe), &format!("probe {i}"));
    }

    // 4. Warm deadline move.
    let body = post_ok(&mut c, "/resolve", &format!("{{{base},\"deadline\":{d1}}}"));
    assert_solve_matches(
        &body,
        &direct.resolve_spec(d1).expect("direct deadline move"),
        "deadline move",
    );

    // 5. Pinned-size re-solve.
    let body = post_ok(
        &mut c,
        "/resolve",
        &format!("{{{base},\"sizes\":{}}}", changes_json(&pins)),
    );
    assert_solve_matches(
        &body,
        &direct.resolve_sizes(&pins).expect("direct pinned re-solve"),
        "pinned re-solve",
    );

    // 6. `/solve` at the original deadline: the session sits at `d1`, so
    // this is a warm move back — not a plain solve.
    let body = post_ok(&mut c, "/solve", &format!("{{{base}}}"));
    assert_solve_matches(
        &body,
        &direct.resolve_spec(d0).expect("direct move back"),
        "move back",
    );

    server.shutdown();
}

#[test]
fn served_k_sigma_sequence_is_bit_identical_to_direct() {
    let circuit = generate::tree7();
    let lib = Library::paper_default();
    let report = ssta(&circuit, &lib, &vec![1.0; circuit.num_gates()]);
    let k = 3.0;
    let d0 = (report.delay.mean() + k * report.delay.sigma()) * 0.97;
    let d1 = (report.delay.mean() + k * report.delay.sigma()) * 0.95;

    let mut direct: Resolver<'_> = Sizer::new(&circuit, &lib)
        .objective(Objective::MeanPlusKSigma(k))
        .delay_spec(DelaySpec::MaxMeanPlusKSigma { k, d: d0 })
        .resolver();

    let server = Server::start(ServerConfig::default(), None).expect("bind");
    let mut c = Client::connect(server.addr()).expect("connect");
    let base = format!(
        "\"circuit\":{{\"builtin\":\"tree7\"}},\"objective\":{{\"mean_plus_k_sigma\":{k}}},\"spec\":{{\"max_mean_plus_k_sigma\":{{\"k\":{k},\"d\":{d0}}}}}"
    );

    let body = post_ok(&mut c, "/solve", &format!("{{{base}}}"));
    assert_solve_matches(
        &body,
        &direct.solve().expect("direct solve"),
        "k-sigma solve",
    );
    let cli = Sizer::new(&circuit, &lib)
        .objective(Objective::MeanPlusKSigma(k))
        .delay_spec(DelaySpec::MaxMeanPlusKSigma { k, d: d0 })
        .solve()
        .expect("CLI solve");
    assert_result_matches(&body, &cli, "k-sigma CLI vs daemon");

    let probe = [(GateId(3), 1.75)];
    let body = post_ok(
        &mut c,
        "/what_if",
        &format!("{{{base},\"changes\":{}}}", changes_json(&probe)),
    );
    assert_what_if_matches(&body, &direct.what_if(&probe), "k-sigma probe");

    let body = post_ok(&mut c, "/resolve", &format!("{{{base},\"deadline\":{d1}}}"));
    assert_solve_matches(
        &body,
        &direct.resolve_spec(d1).expect("direct k-sigma move"),
        "k-sigma deadline move",
    );

    server.shutdown();
}

#[test]
fn served_analyze_is_bit_identical_to_direct() {
    // `/analyze` is stateless; its summary must agree with a direct
    // analyzer run over the identical formulation.
    let server = Server::start(ServerConfig::default(), None).expect("bind");
    let mut c = Client::connect(server.addr()).expect("connect");
    let body = post_ok(
        &mut c,
        "/analyze",
        r#"{"circuit":{"builtin":"tree7"},"objective":"area","spec":{"max_mean":9.0}}"#,
    );
    let v = parse_json(body.trim()).expect("analyze body parses");
    assert_eq!(
        v.get("event").and_then(Json::as_str),
        Some("analyze_result")
    );

    let circuit = generate::tree7();
    let lib = Library::paper_default();
    let report = sgs_analyze::analyze(
        &circuit,
        &lib,
        &Objective::Area,
        &DelaySpec::MaxMean(9.0),
        &sgs_analyze::AnalyzerOptions::default(),
        sgs_trace::Tracer::none(),
    );
    assert_eq!(
        v.get("clean"),
        Some(&Json::Bool(report.is_clean())),
        "clean flag"
    );
    assert_eq!(int(&v, "errors"), report.num_errors(), "error count");
    assert_eq!(int(&v, "warnings"), report.num_warnings(), "warning count");
    let Some(Json::Arr(diags)) = v.get("diagnostics") else {
        panic!("missing diagnostics array: {body}");
    };
    assert_eq!(diags.len(), report.diagnostics.len(), "diagnostic count");

    server.shutdown();
}

#[test]
fn failed_deadline_move_leaves_both_engines_in_the_same_state() {
    // A deliberately infeasible move must fail on both sides — and the
    // *next* answer must still agree bit-for-bit, pinning the documented
    // semantics that a rejected move leaves the engine at the moved
    // deadline with the last accepted warm start intact.
    let circuit = generate::tree7();
    let lib = Library::paper_default();
    let baseline = ssta(&circuit, &lib, &vec![1.0; circuit.num_gates()])
        .delay
        .mean();
    let d0 = baseline * 0.97;

    let mut direct: Resolver<'_> = Sizer::new(&circuit, &lib)
        .objective(Objective::Area)
        .delay_spec(DelaySpec::MaxMean(d0))
        .resolver();

    let server = Server::start(ServerConfig::default(), None).expect("bind");
    let mut c = Client::connect(server.addr()).expect("connect");
    let base = format!(
        "\"circuit\":{{\"builtin\":\"tree7\"}},\"objective\":\"area\",\"spec\":{{\"max_mean\":{d0}}}"
    );

    let body = post_ok(&mut c, "/solve", &format!("{{{base}}}"));
    assert_solve_matches(
        &body,
        &direct.solve().expect("direct solve"),
        "feasible solve",
    );

    // Both sides reject the impossible deadline.
    let resp = c
        .post("/resolve", &format!("{{{base},\"deadline\":1e-6}}"))
        .expect("infeasible resolve answered");
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    assert!(direct.resolve_spec(1e-6).is_err(), "direct must reject too");

    // Recovery: move back to the feasible deadline on both sides.
    let body = post_ok(&mut c, "/solve", &format!("{{{base}}}"));
    assert_solve_matches(
        &body,
        &direct.resolve_spec(d0).expect("direct recovery"),
        "recovery after rejected move",
    );

    server.shutdown();
}
