//! Sizing-as-a-service: a std-only HTTP/1.1 + JSON daemon over the
//! warm-resolve engine.
//!
//! The paper's central practical claim is that its statistical sizing
//! formulation is fast enough to sit *inside* an interactive loop —
//! Section 5 reports per-circuit solve times in seconds. This crate
//! completes that loop: a designer (or another tool) keeps a circuit
//! **session** open against the daemon and iterates deadline and size
//! what-ifs against warm [`sgs_core::Resolver`] state, paying the cold
//! solve once.
//!
//! Layering (each module documents its half of the contract):
//!
//! * [`http`] — hand-rolled HTTP/1.1 framing with hard limits; no
//!   external dependencies, works offline;
//! * [`proto`] — request parsing, canonical session identity (circuit +
//!   objective + spec variant, deadline excluded), response builders.
//!   Every body is single-line JSON with an `"event"` tag, so transcripts
//!   validate via [`sgs_trace::json::validate_jsonl`];
//! * [`error`] — the stable wire error-code table;
//! * [`session`] — one worker thread per live circuit owning the warm
//!   resolver; an LRU store maps session keys to workers;
//! * [`server`] — acceptor, bounded admission queue (backpressure via
//!   `429` + `Retry-After`), connection-worker pool, routing, metrics
//!   and tracing;
//! * [`client`] — the minimal blocking client the tests and the
//!   benchmark harness use.
//!
//! # Example
//!
//! ```
//! use sgs_serve::client::Client;
//! use sgs_serve::server::{Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default(), None)?;
//! let mut client = Client::connect(server.addr())?;
//! let resp = client.post(
//!     "/solve",
//!     r#"{"circuit":{"builtin":"tree7"},"objective":"area",
//!         "spec":{"max_mean":9.0}}"#,
//! )?;
//! assert_eq!(resp.status, 200);
//! assert!(resp.body.contains("\"event\":\"solve_result\""));
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
pub mod error;
pub mod http;
pub mod proto;
pub mod server;
pub mod session;

pub use client::{Client, Response};
pub use error::ServeError;
pub use server::{Server, ServerConfig};
