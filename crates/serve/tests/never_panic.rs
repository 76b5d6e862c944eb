//! Never-panic battery for the request path in front of the session
//! workers: seeded mutations of well-formed `/solve`, `/what_if` and
//! `/resolve` requests — deleted spans, truncations, inserted tokens and
//! flipped bits, applied to the whole request or to its body alone — must
//! each pass or fail with a `ServeError` at every layer the server runs
//! before a session sees the request: `http::read_request`, the UTF-8 and
//! JSON decode, `SessionSpec::parse` and `proto::parse_changes`. Never a
//! panic: a panic there would take down the connection worker.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgs_serve::http::{self, Limits, ReadOutcome};
use sgs_serve::proto::{self, SessionSpec};
use sgs_trace::json::parse_json;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Well-formed `(path, body)` pairs covering every circuit source, every
/// objective and spec form, and both kinds of re-solve.
const SPECIMENS: &[(&str, &str)] = &[
    (
        "/solve",
        r#"{"circuit":{"builtin":"tree7"},"objective":"area","spec":{"max_mean":9.0}}"#,
    ),
    (
        "/what_if",
        r#"{"circuit":{"generate":{"name":"g","cells":40,"inputs":6,"depth":6,"seed":3,"back_jump_pct":10,"spine_extra_load":0.5}},"objective":{"mean_plus_k_sigma":3},"spec":{"max_mean_plus_k_sigma":{"k":3,"d":20.5}},"changes":[{"gate":1,"size":2.5},{"gate":3,"size":1}]}"#,
    ),
    (
        "/resolve",
        r#"{"circuit":{"blif":".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"},"objective":"mean","spec":"none","deadline":12.5}"#,
    ),
    (
        "/resolve",
        r#"{"circuit":{"builtin":"fig2"},"objective":"area","spec":{"max_mean":30},"sizes":[{"gate":0,"size":1e0},{"gate":2,"size":4}]}"#,
    ),
];

/// Tokens the mutations insert: the punctuation and keywords of HTTP
/// framing and of the request bodies, escapes, extreme numbers and
/// non-ASCII text, so a mutation can open, close or split any construct.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    "\\",
    "\\u",
    "\\ud800",
    "\\u00e9",
    "null",
    "true",
    "-",
    "-0",
    "1e999",
    "-1e-999",
    "NaN",
    "18446744073709551616",
    "9007199254740993",
    "0.5",
    "\"gate\":",
    "\"size\":",
    "\"circuit\":",
    "\"builtin\":",
    "\"generate\":",
    "\"blif\":",
    "\"cells\":",
    "\"depth\":",
    "\"objective\":",
    "\"spec\":",
    "\"deadline\":",
    "\"changes\":",
    "\"sizes\":",
    "\r\n",
    "\n",
    " ",
    ": ",
    "Content-Length: ",
    "Transfer-Encoding: chunked\r\n",
    "HTTP/1.1",
    "é",
];

/// The full request text for `path` and `body`, framed as the client
/// frames it.
fn request(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One to three random edits of `bytes`: a deleted span, a truncation, an
/// inserted token or a flipped bit. The result need not be UTF-8.
fn mutate(rng: &mut StdRng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..rng.gen_range(1..4) {
        if out.is_empty() {
            break;
        }
        let at = rng.gen_range(0..out.len() + 1);
        match rng.gen_range(0..4) {
            0 => {
                let end = (at + rng.gen_range(1..12usize)).min(out.len());
                out.drain(at..end);
            }
            1 => out.truncate(at),
            2 => {
                let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                out.splice(at..at, token.bytes());
            }
            _ => {
                let i = at.min(out.len() - 1);
                out[i] ^= 1u8 << rng.gen_range(0..8u32);
            }
        }
    }
    out
}

/// How far a request got: the layer that rejected it, or through all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reached {
    Framing,
    Json,
    Spec,
    Changes,
    Accepted,
}

/// The server's path from raw bytes to a parsed operation, minus the
/// session: every layer's error ends the request, as in `sizing_request`.
fn run(bytes: &[u8]) -> Reached {
    let mut reader = bytes;
    let req = match http::read_request(&mut reader, &Limits::default()) {
        Ok(ReadOutcome::Request(req)) => req,
        Ok(ReadOutcome::Closed) | Err(_) => return Reached::Framing,
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Reached::Json;
    };
    let Ok(body) = parse_json(text) else {
        return Reached::Json;
    };
    if SessionSpec::parse(&body).is_err() {
        return Reached::Spec;
    }
    let changes = [
        proto::parse_changes(&body, "changes"),
        proto::parse_changes(&body, "sizes"),
    ];
    let deadline_ok = body
        .get("deadline")
        .and_then(sgs_trace::json::Json::as_f64)
        .is_some_and(|d| d.is_finite() && d > 0.0);
    if changes.iter().any(Result::is_ok) || deadline_ok || req.path == "/solve" {
        Reached::Accepted
    } else {
        Reached::Changes
    }
}

/// Runs `per_specimen` mutants of each specimen through [`run`], built by
/// `mutant` from the specimen's path and body, and returns how many
/// stopped at each layer.
fn battery(
    seed: u64,
    per_specimen: usize,
    mutant: impl Fn(&mut StdRng, &str, &str) -> Vec<u8>,
) -> [usize; 5] {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reached = [0usize; 5];
    for &(path, body) in SPECIMENS {
        assert_eq!(
            run(&request(path, body.as_bytes())),
            Reached::Accepted,
            "specimen {path} {body}"
        );
        for _ in 0..per_specimen {
            let bytes = mutant(&mut rng, path, body);
            match catch_unwind(AssertUnwindSafe(|| run(&bytes))) {
                Ok(r) => reached[r as usize] += 1,
                Err(_) => panic!(
                    "request path panicked on:\n{}",
                    String::from_utf8_lossy(&bytes)
                ),
            }
        }
    }
    reached
}

/// Mutations anywhere in the request: the request line, the headers (the
/// declared length among them) and the body.
#[test]
fn whole_requests_never_panic() {
    let reached = battery(0x5e7e, 4_000, |rng, path, body| {
        mutate(rng, &request(path, body.as_bytes()))
    });
    // The mutations must reach the error paths of the framing and the JSON
    // decode, not only harmless spots.
    assert!(
        reached[Reached::Framing as usize] > 1_000 && reached[Reached::Json as usize] > 100,
        "{reached:?}"
    );
}

/// Mutations of the body alone, framed with its true length, so that most
/// mutants get past the framing and into the JSON and field parsers.
#[test]
fn mutated_bodies_never_panic() {
    let reached = battery(0xb0d1, 8_000, |rng, path, body| {
        request(path, &mutate(rng, body.as_bytes()))
    });
    for layer in [Reached::Json, Reached::Spec, Reached::Accepted] {
        assert!(reached[layer as usize] > 500, "{layer:?}: {reached:?}");
    }
    assert!(reached[Reached::Changes as usize] > 0, "{reached:?}");
}
