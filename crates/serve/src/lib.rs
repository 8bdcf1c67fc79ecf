//! `linvar-serve`: the fault-tolerant campaign service.
//!
//! A std-only TCP/HTTP-1.1 JSON server (hand-rolled, in the spirit of
//! `linvar-metrics`' hand-rolled JSON writer — the build environment has
//! no registry access, so there are no dependencies to reach for) that
//! turns the durable-campaign substrate of `linvar-stats` /
//! `linvar-core` into a long-running multi-tenant job service.
//!
//! Robustness is the headline, not the API surface:
//!
//! * **Durable job store** ([`store`]) — every job-state transition is
//!   journaled to its own record file with the same atomic
//!   temp+fsync+rename discipline as campaign checkpoints. A `kill -9`
//!   at any instant leaves either the previous record or the complete
//!   new one; restart runs a **recovery scan** that reaps orphaned
//!   `*.tmp` staging files, prevalidates each in-flight job's
//!   fingerprinted checkpoint (corrupt snapshots are deleted, costing
//!   one re-run — never a wrong answer), and re-queues the job. The
//!   resumed job produces a result line **byte-identical** to an
//!   uninterrupted run.
//! * **Bounded worker pool, fair across tenants** ([`server`]) — jobs
//!   queue per tenant and workers claim round-robin over tenants, so
//!   one chatty tenant cannot starve the rest.
//! * **Admission control** — the queue is bounded
//!   (`LINVAR_SERVE_QUEUE`); excess submissions are shed with HTTP 429
//!   + `Retry-After` instead of growing memory without bound.
//! * **Live-only job memory** — memory holds only queued and running
//!   jobs; finished ones are answered from their journal records.
//! * **Blocking acceptor** ([`server`]) — one thread blocks in `accept`,
//!   so an idle server does not wake; shutdown wakes it with one
//!   loopback connection.
//! * **Slow-client armor** ([`http`]) — per-request read/write socket
//!   timeouts and header/body size caps, so a stalled or malicious
//!   client costs one handler slot for a bounded time, never the
//!   acceptor.
//! * **Graceful shutdown** — SIGTERM/ctrl-c or `POST /shutdown` stops
//!   admissions (503), lets in-flight samples finish, snapshots every
//!   running campaign, leaves those jobs journaled as running for the
//!   next process to resume, and exits 0.
//! * **Fault harness** ([`fault`]) — `LINVAR_SERVE_FAULT` injects
//!   crash-before-journal, crash-after-journal, crash-mid-checkpoint,
//!   worker-panic, and stalled-worker faults, so every crash window is
//!   exercised by `tests/serve_recovery.rs` and ci.sh.
//!
//! See DESIGN.md, "Campaign service: job store, recovery scan &
//! overload semantics".

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod config;
pub mod fault;
pub mod http;
pub mod json;
pub mod server;
pub mod store;

pub use client::{request, ClientResponse};
pub use config::ServeConfig;
pub use fault::ServeFault;
pub use http::{Request, Response};
pub use json::{parse_json, JsonGet, JsonParseError};
pub use server::{install_signal_handlers, Server, ServerHandle};
pub use store::{JobRecord, JobState, JobStore, MAX_JOB_RETRIES, MAX_JOB_SAMPLES};

/// Raw bit pattern of an `f64` as 16 lowercase hex digits — the form of
/// every deterministic `mc` line, here and in the bench bins (which
/// re-export it), so a resumed run can be string-compared against a
/// clean one.
pub fn bits_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

#[cfg(test)]
mod tests {
    #[test]
    fn bits_hex_matches_bench_formatting() {
        assert_eq!(super::bits_hex(1.0), "3ff0000000000000");
        assert_eq!(super::bits_hex(-0.0), "8000000000000000");
    }
}
