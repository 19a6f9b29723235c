//! # xinsight-service
//!
//! The online serving layer of the XInsight reproduction: everything
//! needed to run the engine as a long-lived, multi-model, concurrent
//! process answering Why Queries over HTTP.
//!
//! The paper's pipeline splits into an expensive offline phase and a
//! cheap online phase; `xinsight-core` already persists the offline
//! artifact ([`FittedModel`](xinsight_core::FittedModel)) and executes the
//! online phase through the unified request/response API
//! ([`execute`](xinsight_core::pipeline::XInsight::execute) over
//! [`ExplainRequest`](xinsight_core::ExplainRequest) /
//! [`ExplainResponse`](xinsight_core::ExplainResponse)).
//! This crate turns those pieces into a service:
//!
//! * [`registry`] — loads model **bundles** (dataset CSV + fitted model +
//!   metadata) from a directory, keeps one warm
//!   [`XInsight`](xinsight_core::pipeline::XInsight) engine per model,
//!   and hot-reloads a bundle atomically while requests are in flight;
//! * [`http`] / [`client`] — a dependency-free HTTP/1.1 subset (the
//!   workspace builds offline: no tokio, no hyper) with keep-alive,
//!   bounded heads/bodies and defensive parsing;
//! * [`server`] — the readiness-driven **event loop** (epoll(7) with a
//!   portable poll(2) fallback) owning every socket, the bounded
//!   **admission queue** of parsed requests (`503` backpressure when
//!   full), the worker pool sized with the engine's `XINSIGHT_THREADS`
//!   knob, routing, and graceful drain shutdown — idle keep-alive
//!   connections park in the kernel instead of pinning threads;
//! * [`lru`] — a byte-budgeted, memory-accounted LRU **result cache** in
//!   front of the engine, scoped by segment-set fingerprints: entries
//!   survive ingest (promoted when the new rows provably cannot move the
//!   answer, merged through the engine's group-by cache otherwise) and are
//!   remapped across background compaction, proven answer-identical to
//!   the uncached path;
//! * [`wire`] — the `/v2` JSON wire format (per-request options in, the
//!   full response envelope out), sharing the engine's hand-rolled
//!   [`json`](xinsight_core::json) codepath and `WhyQuery`'s canonical
//!   serialization;
//! * [`stats`] — the lock-free request counters and latency histograms the
//!   serving path records into;
//! * [`metrics`] / [`trace`] — the observability surface: hand-rolled
//!   Prometheus text exposition at `GET /metrics`, the server's one
//!   counters view (per-endpoint counters, request and per-stage latency
//!   histograms, cache tiers, compaction, queue and event-loop gauges,
//!   per-model store shapes) and per-request lifecycle traces — parse,
//!   queue-wait, cache-lookup, execute, serialize, write spans on one
//!   monotonic clock — kept in a bounded ring plus a slow-trace reservoir
//!   (`--trace-slow-ms`) behind `GET /debug/traces`;
//! * [`demo`] — fitted SYN-A / FLIGHT demo bundles and deterministic
//!   query pools for the smoke test and the xbench benchmark.
//!
//! The crate ships one binary, `xinsight-serve` (the server); its smoke
//! test is `tests/serve_binary.rs`.  See the README's serving quickstart.
//!
//! ## Endpoints
//!
//! <!-- xlint-endpoints: begin(docs) -->
//! | Endpoint | Body | Answer |
//! |---|---|---|
//! | `GET /healthz` | — | `{"ok":true}` liveness, no model touch |
//! | `POST /v2/explain` | `{"model", "query", "options"?}` | full envelope: ranked+scored, markers, provenance (LRU-cached) |
//! | `POST /v2/explain_batch` | `{"model", "queries", "options"?}` | per-query envelopes, shared `SelectionCache` |
//! | `GET /v2/graph` | `?model=<id>&format=json\|dot\|mermaid` | the fitted PAG + FD graph + sepsets, as JSON or rendered DOT/Mermaid |
//! | `POST /v2/ingest` | `{"model", "rows"}` | appends a sealed segment, bumps the generation — no reload |
//! | `GET /models` | — | loaded models + example queries + ingest templates |
//! | `GET /metrics` | — | Prometheus text exposition of every server counter: requests, request and per-stage latency, cache tiers, compaction, queue and event-loop gauges, per-model segments/rows/epoch |
//! | `POST /admin/reload` | `{"model"}` | atomic hot-reload of one bundle |
//! | `POST /admin/shutdown` | — | graceful shutdown |
//! | `POST /debug/sleep` | `{"ms"}` | worker-occupying fixed sleep for overload experiments — gated on `--debug-endpoints`, `404` otherwise |
//! | `GET /debug/traces` | — | recent + slow request traces with per-stage spans — gated on `--debug-endpoints`, `404` otherwise |
//! <!-- xlint-endpoints: end(docs) -->
//!
//! With default options `/v2/explain` answers the bytes of a direct
//! [`execute`](xinsight_core::pipeline::XInsight::execute) of a default
//! [`ExplainRequest`](xinsight_core::ExplainRequest) (tested in
//! `tests/api_v2.rs`).

#![warn(missing_docs)]

pub mod client;
pub mod demo;
mod event;
pub mod http;
pub mod lru;
pub mod metrics;
pub mod registry;
pub mod server;
pub mod stats;
pub mod trace;
pub mod wire;

pub use client::{explain_v2_body, ingest_v2_body, wait_healthy, ClientResponse, HttpClient};
pub use demo::{build_demo_bundles, demo_queries, demo_v2_options, DemoModel};
pub use lru::{CacheKey, Lookup, ResultCache, ResultCacheStats, SegmentRef};
pub use metrics::{series_value, validate_exposition};
pub use registry::{save_bundle, CompactionReport, IngestReport, LoadedModel, ModelRegistry};
pub use server::{start, ServerConfig, ServerHandle};
pub use trace::{Stage, TraceStore};
