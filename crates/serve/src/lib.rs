//! # serve — the resilient long-lived score service
//!
//! A daemon that loads one trained model (strictly, via
//! [`dbg4eth::Session::open`]) and scores account subgraphs over a
//! length-prefixed socket protocol. Designed around one rule: **overload
//! and partial failure are normal operation**, so every failure mode has
//! a typed, bounded, counted response instead of a crash or an unbounded
//! queue:
//!
//! * **Admission control** — a bounded queue; a full queue sheds with
//!   [`proto::Reply::Overloaded`] and a retry-after hint ([`server`]).
//! * **Deadlines** — per-request budgets enforced cooperatively at stage
//!   boundaries; an account either gets its full bit-exact score or a
//!   typed `DeadlineExceeded`, never a partial result.
//! * **Containment** — malformed frames, quarantined subgraphs and worker
//!   panics poison only their own request (the PR-4 degradation ladder,
//!   reused per request).
//! * **Caching** — a subgraph-fingerprint score cache with single-flight
//!   deduplication ([`cache`]); sound because serving pins the train-time
//!   confidence scaler, making every score batch-independent.
//! * **Slow-loris reaping** — per-connection read timeouts bound how long
//!   a dribbling client can hold a connection thread.
//! * **Streaming invalidation** — [`proto::Request::Ingest`] carries an
//!   [`eth_graph::IngestDelta`]'s account membership; the cache evicts
//!   exactly the fingerprints whose subgraphs contain a named account, so
//!   a score computed on the pre-ingest graph is never served afterwards.
//!
//! Fault sites `drop@serve.conn`, `corrupt@serve.frame`,
//! `panic@serve.worker`, `stall@serve.worker`, `stall@serve.client` and
//! `corrupt@ingest.batch` (see [`faults::sites`]) make every one of these
//! paths deterministically testable; `tests/serve_chaos.rs` and the
//! `serve-replay` bench binary drive them.

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;

pub use cache::{fingerprint, Lease, ScoreCache};
pub use client::ScoreClient;
pub use proto::{
    ErrorCode, IngestRequest, ProtoError, Reply, Request, ScoreReply, ScoreRequest, StatsReply,
    WireResult,
};
pub use server::{
    ScoreServer, ServeConfig, ADDR_ENV, CACHE_ENV, DEADLINE_ENV, IDLE_ENV, QUEUE_ENV, WORKERS_ENV,
};
