//! # ap-serve — planning as a service
//!
//! AutoPipe's value is answering "what partition should this job run
//! with, *right now*?" — a query, not a batch script. This crate puts the
//! planner, the analytic scorer and the pipesim engine behind a long-lived
//! daemon so that a scheduler (or a `curl`) can ask that question over a
//! socket:
//!
//! | endpoint           | meaning                                               |
//! |--------------------|-------------------------------------------------------|
//! | `POST /plan`       | cluster spec + model → partition, predicted + measured throughput, decision-journal summary |
//! | `POST /simulate`   | partition + cluster + model → pipesim timings          |
//! | `POST /jobs`       | admit a job into the cluster control plane (200 placed, 202 queued, 409 rejected) |
//! | `DELETE /jobs/{id}`| remove a resident or queued job                        |
//! | `GET /schedule`    | canonical snapshot of the cluster-wide placement       |
//! | `GET /health`      | liveness                                               |
//! | `GET /stats`       | request counts, cache hit rate, queue depth            |
//! | `GET /metrics`     | Prometheus text exposition (latency, breaker, bulkheads, cache, queue) |
//! | `POST /breaker`    | force the verify breaker open/closed, or back to auto  |
//! | `POST /invalidate` | drop every cached plan (resource dynamics changed)     |
//! | `POST /shutdown`   | drain in-flight requests, then exit                    |
//!
//! The stack is hermetic: HTTP/1.1 over [`std::net::TcpListener`]
//! ([`http`]), JSON via the shared [`ap_json`] crate, and a worker pool
//! of one thread per core (at most 16). In front of the planner sits an LRU
//! **plan cache** ([`cache`]) keyed by a canonical digest of
//! `(cluster signature, model, planner config)`. It stores each verified
//! answer as its rendered hit body, so a hit costs parsing, keying and
//! one socket write, with no planning and no JSON rendering. The model
//! zoo's profiles are built once per process ([`api::zoo_profile`]), so
//! validating a request is a name check. A bounded
//! **admission queue** ([`admission`]) that sheds load with
//! `503 + Retry-After` (computed from queue depth and observed drain
//! rate) instead of queuing without bound. Around planning sits the
//! [`ap_resilience`] stack — per-endpoint bulkheads, per-request deadline
//! budgets, and a circuit breaker on engine verification that degrades
//! `/plan` to cached or analytic-only answers (marked `"degraded": true`)
//! instead of failing. Shutdown drains: accepted connections finish their
//! in-flight request before workers exit.
//!
//! Planning is deterministic — same request, same plan, regardless of
//! worker count. `/plan` refines with the analytic scorer, which prices
//! each round's moves serially on the worker thread serving the request;
//! the pool width only sets how many requests are planned at once.

pub mod admission;
pub mod api;
pub mod cache;
pub mod client;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod server;

pub use api::{ApiError, ClusterSpec, PlannerConfig};
pub use cache::PlanCache;
pub use client::Client;
pub use http::Timing;
pub use server::{retry_after_secs, spawn, ResilienceConfig, ServeConfig, ServerHandle};
