//! # sigmavp — Simulation using GPU-Multiplexing for Acceleration of Virtual Platforms
//!
//! The top-level framework of the ΣVP reproduction (Jung & Carloni, DAC 2015): it
//! ties the substrates together exactly as the paper's Fig. 2 does.
//!
//! * On each **VP side**: a guest application (from
//!   [`sigmavp_workloads`]) talks to the CUDA-like GPU user library
//!   ([`sigmavp_vp::cuda`]), which delegates either to software
//!   [emulation](sigmavp_vp::emulation) (the slow path, Fig. 1a) or to this crate's
//!   [`MultiplexedGpu`] forwarding backend (Fig. 1b).
//! * On the **host side**: the [`HostRuntime`] decodes requests
//!   arriving through the [IPC codec](sigmavp_ipc::codec), dispatches them to the
//!   simulated [host GPU](sigmavp_gpu::GpuDevice), and records every job for
//!   timeline analysis.
//! * The [`scenario`] module runs N virtual platforms through a complete
//!   application and prices the result in three modes — GPU emulation on the VP,
//!   plain host-GPU multiplexing, and multiplexing plus Kernel Interleaving and
//!   Kernel Coalescing — producing the numbers behind the paper's Fig. 11.
//! * The [`paths`] module reproduces Table 1's six execution paths for a single
//!   workload.
//!
//! ## Quickstart
//!
//! ```
//! use sigmavp::scenario::run_scenario;
//! use sigmavp::Policy;
//! use sigmavp_workloads::apps::VectorAddApp;
//!
//! # fn main() -> Result<(), sigmavp::SigmaVpError> {
//! let app = VectorAddApp { n: 1024 };
//! let apps: Vec<&dyn sigmavp_workloads::Application> = vec![&app, &app];
//! let slow = run_scenario(&apps, Policy::EmulatedOnVp)?;
//! let fast = run_scenario(&apps, Policy::MultiplexedOptimized)?;
//! assert!(fast.total_time_s < slow.total_time_s);
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

pub mod backend;
pub mod dispatcher;
pub mod error;
pub mod host;
pub mod paths;
pub mod plan;
pub mod scenario;
pub mod session;
pub mod shard;

pub use backend::MultiplexedGpu;
pub use dispatcher::{DispatchStats, DispatchedSigmaVp, LiveReport, VpOutcome};
pub use error::SigmaVpError;
pub use host::HostRuntime;
pub use plan::{op_job_uid, plan_device, DevicePlan, EngineEvaluator};
pub use scenario::{run_scenario, run_scenario_with, ScenarioReport};
pub use session::{DeviceOutcome, ExecutionSession, SessionOutcome, VpQueueWait};
pub use shard::{Shard, ShardJob, SyncWindow};
pub use sigmavp_fault::FaultPlan;
pub use sigmavp_sched::{BackendKind, InterleaveMode, Pipeline, Policy, RetryPolicy};
