//! # sigmavp-sched — ΣVP's re-scheduler
//!
//! The Re-scheduler (paper Fig. 2) has two functions:
//!
//! 1. "it reorders the asynchronous kernel jobs in the Job Queue by keeping a
//!    partial order in the original VP. It is a non-preemptive, optimal scheduler
//!    augmented for job dependencies" — implemented in [`interleave`] (Fig. 4a).
//!    The stop/resume interleaving of *synchronous* invocations (Fig. 4b) is the
//!    host engine's held sync window (`sigmavp_core::shard`), which flushes
//!    through the [`Pipeline`] built here;
//! 2. "it combines identical kernel requests in the Job Queue into one single kernel
//!    job, by using Kernel Coalescing" — the [`Coalesce`] pass groups the jobs, and
//!    [`coalesce`] plans the contiguous-memory layout of Fig. 5. The Eq. 9
//!    accounting of a merged launch lives in the shard's flush pricing and in
//!    `sigmavp_obs::model`.
//!
//! Both transformations operate on [`Job`](sigmavp_ipc::queue::Job) lists drained
//! from the [`JobQueue`](sigmavp_ipc::queue::JobQueue) and are *order-contract
//! checked*: every reordering they produce satisfies
//! [`preserves_partial_order`](sigmavp_ipc::queue::preserves_partial_order).
//!
//! The [`pipeline`] module composes these mechanisms into the shared planning
//! spine every runtime drives — [`SchedulePass`]es ([`DepOrder`],
//! [`Interleave`], [`Coalesce`], [`AdaptiveSelect`]) chained into a
//! [`Pipeline`] derived from one unified [`Policy`] ([`policy`]).
#![warn(missing_docs)]

pub mod coalesce;
pub mod deps;
pub mod interleave;
pub mod liveness;
pub mod pipeline;
pub mod placement;
pub mod policy;
pub mod rebalance;
pub mod wavepack;

pub use coalesce::MemoryLayout;
pub use deps::{reorder_critical_path, JobDag};
pub use interleave::reorder_async;
pub use liveness::{quorum_met, quorum_threshold};
pub use pipeline::{
    AdaptiveSelect, Coalesce, DepOrder, Interleave, JobStream, MergeGroup, PassCtx, Pipeline,
    SchedulePass, StreamEvaluator,
};
pub use placement::{HashRing, Placement};
pub use policy::{BackendKind, ExecTier, InterleaveMode, Policy, RetryPolicy};
pub use rebalance::{DeviceView, LoadRebalance, Rebalance};
pub use wavepack::WavePack;
