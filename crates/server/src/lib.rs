//! starmagic-server — a concurrent SQL service over the starmagic
//! engine.
//!
//! The engine is shared across sessions by epoch snapshots
//! ([`shared::SharedEngine`]): a session clones an `Arc<Engine>` per
//! command and runs the whole query against that immutable snapshot,
//! so readers never block each other or DDL. DDL clones the engine,
//! mutates the copy, and swaps it in atomically, bumping a catalog
//! epoch. Every session's plan lookups land in one shared
//! plan cache (normalized SQL → optimized plan, pinned to the epoch
//! that built it), so a query shape optimized by any
//! connection is a cache hit for all of them — and a plan built
//! against a superseded catalog can neither be served nor inserted.
//! Overload is backpressure, not refusal: query execution passes a
//! bounded admission gate and saturation answers a retryable `BUSY`
//! frame instead of dropping the connection.
//!
//! The wire format ([`protocol`]) is a newline-delimited text
//! protocol with a lossless value codec — replayed result bags are
//! byte-identical to in-process execution, which is what the
//! concurrency determinism tests and the fuzzer's `--server` oracle
//! rely on; [`protocol::write_frame`] and [`protocol::read_frame`] are
//! the only code that knows a frame's layout. [`server`] hosts the
//! session dispatcher ([`Session::dispatch`], also run by the
//! `starmagic-repl` shell), the accept loop, session threads,
//! admission gate, and deadline-bounded graceful shutdown; [`client`]
//! is the matching blocking client (with `BUSY`-retrying
//! `*_admitted` variants); [`loadgen`] replays the Table-1 suite from
//! one and many connections and gates a live server on its cache hit
//! rate, its concurrency speedup, and a client/server latency
//! cross-check of its metrics. Wire latency and throughput as numbers
//! to compare across commits are the repository benchmark's
//! (`benchmark/`).
//!
//! Observability: hand the config a live [`starmagic_metrics`]
//! registry and every layer records into it — wire counters and
//! latency histograms here, cache/pipeline/executor/planner counters
//! in the engine — surfaced by the `METRICS [JSON]` wire command.
//! [`slowlog`] adds a structured slow-query log (JSONL, size-rotated)
//! armed with `SET SLOWLOG <ms>`. Both are strictly pay-for-play: the
//! default noop registry and absent slow log cost no allocations or
//! clock reads.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod shared;
pub mod slowlog;

pub use client::Client;
pub use protocol::Response;
pub use server::{serve, serve_engine, Flow, ServerConfig, ServerHandle, Session};
pub use shared::SharedEngine;
pub use slowlog::{SlowLog, SlowRecord};
