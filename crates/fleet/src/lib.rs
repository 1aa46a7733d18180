//! # sigmavp-fleet — the sharded multi-session front-end
//!
//! ΣVP's single [`ExecutionSession`](sigmavp::ExecutionSession) multiplexes
//! many VPs over one host-GPU set; this crate scales that design out. A
//! [`Fleet`] shards VPs across `S` independent sessions — each with its own
//! dispatcher thread and host GPU — behind one front door that provides:
//!
//! * **consistent-hash placement** plus a **work-stealing rebalancer** that
//!   migrates whole VPs between sessions (journal replay + handle
//!   translation, the PR 4 failover machinery generalized across sessions);
//! * a **bounded admission queue with backpressure** — saturation sheds work
//!   with a typed [`FleetError::Saturated`] instead of buffering without
//!   bound;
//! * **fleet-level health supervision** — [`Fleet::kill_session`] drains a
//!   dead session's VPs to survivors, and requests only fail once no session
//!   is left.
//!
//! Everything the rebalancer decides is a pure function of the admission
//! sequence, so same-seed runs produce byte-identical steal and migration
//! counters — the property the CI determinism gate checks.
//!
//! [`script`] provides self-checking per-VP workloads ([`VpScript`]) and the
//! deterministic wavefront driver ([`drive`]) used by the integration tests
//! and the `perf --fleet` benchmark.
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod fleet;
pub mod script;

pub use config::FleetConfig;
pub use error::FleetError;
pub use fleet::{Fleet, FleetObservability, FleetOutcome, FleetStats, ShardView};
pub use script::{drive, drive_with, VpScript};
