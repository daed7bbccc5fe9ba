//! Allocation as a service: a hardened front door over the coalescing
//! pipeline.
//!
//! The `serve` binary speaks a JSONL request/response protocol on
//! stdin/stdout (or an optional std-TCP listener): one request object per
//! line, one response object per line (see [`protocol`]).  The serving
//! path is built for hostile, long-lived use:
//!
//! * **bounded queue + explicit backpressure** — a full queue answers
//!   `overloaded` with a `retry_after_ms` hint instead of buffering
//!   ([`server`]);
//! * **deadlines and deterministic work budgets** per request
//!   ([`budget`]), enforced cooperatively through the same counters
//!   `coalesce-stats` already collects;
//! * **graceful degradation** down a declared ladder — exact →
//!   chordal/IRC → greedy — with every response tagged by the rung that
//!   answered and why it degraded ([`engine`]);
//! * **panic isolation** — a poisoned request is caught per-worker and
//!   answered with `internal_error` echoing the offending line for
//!   replay; the pool keeps serving;
//! * **no hot state** — the engine keeps nothing between requests: a
//!   `module_slice` draws only the spec prefix it needs, and each chordal
//!   rung reads ω from the one linear MCS sweep it needs;
//! * optional **re-verification** of answers before they are sent
//!   (`--verify boundaries`; `paranoid` does the same in the service).
//!
//! The E18 chaos soak (in `coalesce-bench`) replays a seeded mixed
//! workload with fault injection through this crate and asserts the
//! zero-crash invariant.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod budget;
pub mod engine;
pub mod protocol;
pub mod server;

pub use budget::{Budget, Exhausted};
pub use engine::{Engine, EngineConfig};
pub use protocol::{parse_request, ErrorCode, Request, RequestKind, Response, Rung};
pub use server::{Server, ServerConfig, ServiceSummary};
