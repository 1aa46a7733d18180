//! The live runtime: the full Fig. 2 host-side loop over real transports.
//!
//! Each VP runs on its own OS thread and talks through a real transport
//! endpoint — frames are encoded, sent, and decoded on the other side. One
//! **dispatcher thread** polls every endpoint and drives a
//! [`Shard`], the host-side engine: decoded requests
//! become jobs whose expected durations come from the device **profiler
//! feedback loop** (the first launch of a kernel is unknown, later ones use
//! the last observed time — how the paper's Re-scheduler consumes the
//! Profiler's output), each polled batch is reordered with the scheduling
//! [`Pipeline`](sigmavp_sched::Pipeline) and executed on the device the VP
//! was routed to, and the response goes back over the wire.
//!
//! Because guest calls are synchronous, a polled batch holds at most one
//! request per VP — which is why the paper needs VP stop/resume to get deep
//! interleaving. With `Policy::sync_hold` the dispatcher stops the VP of each
//! synchronous launch through [`VpControl`] and the shard holds it until the
//! cross-VP window flushes (Fig. 4b).
//!
//! This module keeps everything about transports; the engine lives in
//! [`shard`](crate::shard).
//!
//! # Fault tolerance
//!
//! The dispatcher is the supervision point of the fault model (DESIGN.md §10).
//! With [`DispatchedSigmaVp::with_faults`] every VP link is wrapped in a
//! [`FaultyTransport`] that injects the plan's drops, corruption and delays, and
//! the shard injects the plan's transient device errors and honours its
//! scheduled outages. Robustness comes from three cooperating mechanisms:
//!
//! * **request-level retry** — `RemoteGpu` retries on receive timeout, corrupt
//!   response, or a `transient:` device error, with exponential backoff and
//!   jitter from the [`Policy`]'s [`RetryPolicy`];
//! * **effect-once dedup** — retries reuse the request's sequence number; the
//!   dispatcher caches the last response per VP and resends it on a
//!   duplicate instead of re-executing, so a lost response never double-applies
//!   a kernel or memcpy;
//! * **failover** — per-device circuit breakers trip after consecutive
//!   failures; VPs on a dead device are migrated to the least-loaded survivor
//!   by the [`Rebalance`](sigmavp_sched::Rebalance) pass, their device state
//!   reconstructed by replaying the journal of successful mutating requests.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sigmavp_fault::{
    is_transient_error, DedupCache, DropNotice, FaultPlan, FaultyTransport, LinkDirection,
};
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::codec;
use sigmavp_ipc::control::VpControl;
use sigmavp_ipc::message::{Envelope, Request, Response, ResponseEnvelope, VpId, WireParam};
use sigmavp_ipc::queue::JobQueue;
use sigmavp_ipc::transport::{pair, Transport, TransportCost};
use sigmavp_ipc::IpcError;
use sigmavp_sched::{Policy, RetryPolicy};
use sigmavp_telemetry::{Lane, TimeDomain};
use sigmavp_vp::error::{
    format_deadline_violation, parse_deadline_violation, DeadlineStage, VpError,
};
use sigmavp_vp::gate::VpGate;
use sigmavp_vp::platform::{SimClock, VirtualPlatform};
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_vp::service::GpuService;
use sigmavp_workloads::app::{AppEnv, Application};

use crate::host::JobRecord;
use crate::session::{ExecutionSession, SessionOutcome};
pub use crate::shard::DispatchStats;
use crate::shard::{error_reply, Shard};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Wall-clock floor on every receive wait; see the comment at its use site.
const WALL_DEADLINE_BACKSTOP: Duration = Duration::from_secs(2);

/// Guest-side [`GpuService`] over a real transport endpoint, with request-level
/// retry.
///
/// Every request carries a stable sequence number that retries *reuse*, so the
/// host can deduplicate: a retry after a lost response gets the cached response
/// back instead of a second execution. Receive timeouts, corrupt response
/// frames, and `transient:` device errors are retried up to
/// [`RetryPolicy::max_attempts`] with exponential backoff and jitter; anything
/// else surfaces as a [`VpError`] preserving the IPC cause.
struct RemoteGpu {
    vp: VpId,
    transport: Box<dyn Transport>,
    seq: u64,
    /// Shared view of the owning VP's simulated clock; stamps every request's
    /// `sent_at_s` so the host can measure guest-observed queueing delay.
    clock: SimClock,
    retry: RetryPolicy,
    /// Per-request end-to-end deadline budget in simulated microseconds
    /// (`Policy::deadline_us`); 0 disables deadlines and every envelope
    /// carries [`Envelope::NO_DEADLINE`].
    deadline_us: u64,
    /// Jitter source for backoff; seeded per VP (and from the fault plan when
    /// one is active) so runs are reproducible.
    rng: StdRng,
    /// The VP half of the stop/resume protocol: pause points before each
    /// request and inside quiet receive waits, so a dispatcher-held sync
    /// request parks this thread instead of timing it out.
    gate: VpGate,
}

impl RemoteGpu {
    fn round_trip(&mut self, body: Request) -> Result<(Response, f64), VpError> {
        // Scheduling point (Fig. 4b): if the host still holds a stop from the
        // previous sync window, park here before issuing anything new.
        self.gate.pause_point();
        let seq = self.seq;
        self.seq += 1;
        let recorder = sigmavp_telemetry::recorder();
        let sent_wall_s = recorder.wall_now_s();
        let sent = Instant::now();
        // Simulated time spent waiting out timeouts and backoff; folded into the
        // returned delay so the guest clock reflects the recovery cost.
        let mut extra_sim_s = 0.0f64;
        let mut attempts = 0u32;
        let mut last_err = IpcError::Timeout { waited_us: 0 };
        // The request's absolute deadline on the simulated timeline, fixed at
        // birth: retries reuse it, so recovery cost eats into the same budget.
        let birth_s = self.clock.now_s();
        let budget_s = self.deadline_us as f64 * 1e-6;
        let deadline_s =
            if self.deadline_us > 0 { birth_s + budget_s } else { Envelope::NO_DEADLINE };
        loop {
            attempts += 1;
            let envelope = Envelope {
                vp: self.vp,
                seq,
                sent_at_s: self.clock.now_s() + extra_sim_s,
                deadline_s,
                body: body.clone(),
            };
            let frame = codec::encode_request(&envelope);
            let out_delay = self.transport.send(frame).map_err(VpError::Ipc)?;
            // Injected faults time out instantly through the link's
            // DropNotice, so this wall deadline is only a liveness backstop
            // against a genuinely wedged host. It is deliberately far above
            // RetryPolicy::timeout (the *simulated* wait charged to the
            // guest): a starved dispatcher on a loaded CI machine must not be
            // mistaken for a dropped frame, or fault counters stop being
            // reproducible.
            let mut deadline = Instant::now() + self.retry.timeout().max(WALL_DEADLINE_BACKSTOP);
            // `Some` once a frame for *this* request decoded; stale responses
            // (retries answered twice) are discarded without ending the wait.
            let accepted = loop {
                match self.transport.recv_deadline(deadline).map_err(VpError::Ipc)? {
                    Some(resp_frame) => {
                        let back_delay = self.transport.cost().delay_for(resp_frame.len() as u64);
                        match codec::decode_response(&resp_frame) {
                            Ok(decoded) if decoded.seq < seq => {
                                recorder.count("fault.stale_responses", 1);
                                continue;
                            }
                            Ok(decoded) => break Some((decoded, back_delay)),
                            Err(e) => {
                                recorder.count("fault.corrupt_responses", 1);
                                last_err = e;
                                break None;
                            }
                        }
                    }
                    None => {
                        if self.gate.is_stopped() {
                            // The dispatcher is deliberately holding this sync
                            // request in a cross-VP window: silence is not a
                            // fault. Park until resumed, then keep listening
                            // without charging a timeout or a retry.
                            self.gate.pause_point();
                            deadline =
                                Instant::now() + self.retry.timeout().max(WALL_DEADLINE_BACKSTOP);
                            continue;
                        }
                        recorder.count("fault.timeouts", 1);
                        last_err = IpcError::Timeout { waited_us: self.retry.timeout_us };
                        extra_sim_s += self.retry.timeout_s();
                        break None;
                    }
                }
            };
            match accepted {
                Some((decoded, back_delay)) => match decoded.body {
                    Response::Error { message } if is_transient_error(&message) => {
                        if attempts >= self.retry.max_attempts {
                            return Err(VpError::Device(message));
                        }
                    }
                    Response::Error { message } => {
                        // A host-side deadline violation travels as a
                        // structured error string (the dispatcher has no typed
                        // channel); surface it as the typed variant with the
                        // budget/elapsed view this guest actually experienced.
                        if let Some((stage, _, now_s)) = parse_deadline_violation(&message) {
                            return Err(VpError::DeadlineExceeded {
                                stage,
                                budget_s,
                                elapsed_s: (now_s - birth_s).max(0.0),
                            });
                        }
                        return Err(VpError::Device(message));
                    }
                    other => {
                        // The guest-observed round trip, stamped with the job uid
                        // so lifecycle joins can line the envelope send up against
                        // the host-side spans.
                        recorder.span_for_job(
                            TimeDomain::Wall,
                            Lane::Vp(self.vp.0),
                            "request",
                            sent_wall_s,
                            sent.elapsed().as_secs_f64(),
                            sigmavp_telemetry::job_uid(self.vp.0, seq),
                        );
                        return Ok((other, out_delay + back_delay + extra_sim_s));
                    }
                },
                None => {
                    if attempts >= self.retry.max_attempts {
                        return Err(VpError::Ipc(last_err));
                    }
                }
            }
            recorder.count("fault.retries", 1);
            let unit: f64 = self.rng.gen_range(0.0..1.0);
            let backoff = self.retry.backoff_s(attempts, unit);
            extra_sim_s += backoff;
            // Execute boundary: the accumulated recovery cost (timeouts plus
            // backoff, all simulated time) has outlived the request's budget —
            // surface the typed deadline error instead of burning the
            // remaining attempts.
            if birth_s + extra_sim_s > deadline_s {
                recorder.count("liveness.deadline_misses", 1);
                return Err(VpError::DeadlineExceeded {
                    stage: DeadlineStage::Execute,
                    budget_s,
                    elapsed_s: extra_sim_s,
                });
            }
            if backoff > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(backoff.min(0.005)));
            }
        }
    }
}

impl GpuService for RemoteGpu {
    fn malloc(&mut self, bytes: u64) -> Result<(u64, f64), VpError> {
        match self.round_trip(Request::Malloc { bytes })? {
            (Response::Malloc { handle }, delay) => Ok((handle, delay)),
            (other, _) => Err(VpError::Device(format!("unexpected response {other:?}"))),
        }
    }

    fn free(&mut self, handle: u64) -> Result<f64, VpError> {
        let (_, delay) = self.round_trip(Request::Free { handle })?;
        Ok(delay)
    }

    fn memcpy_h2d(&mut self, handle: u64, data: &[u8]) -> Result<f64, VpError> {
        let (_, delay) =
            self.round_trip(Request::MemcpyH2D { handle, data: data.to_vec(), stream: 0 })?;
        Ok(delay)
    }

    fn memcpy_d2h(&mut self, handle: u64, out: &mut [u8]) -> Result<f64, VpError> {
        match self.round_trip(Request::MemcpyD2H { handle, len: out.len() as u64, stream: 0 })? {
            (Response::Data { data }, delay) => {
                if data.len() != out.len() {
                    return Err(VpError::SizeMismatch {
                        buffer: data.len() as u64,
                        host: out.len() as u64,
                    });
                }
                out.copy_from_slice(&data);
                Ok(delay)
            }
            (other, _) => Err(VpError::Device(format!("unexpected response {other:?}"))),
        }
    }

    fn launch(
        &mut self,
        kernel: &str,
        grid_dim: u32,
        block_dim: u32,
        params: &[WireParam],
        sync: bool,
    ) -> Result<f64, VpError> {
        self.launch_on_stream(0, kernel, grid_dim, block_dim, params, sync)
    }

    fn launch_on_stream(
        &mut self,
        stream: u32,
        kernel: &str,
        grid_dim: u32,
        block_dim: u32,
        params: &[WireParam],
        sync: bool,
    ) -> Result<f64, VpError> {
        match self.round_trip(Request::Launch {
            kernel: kernel.to_string(),
            grid_dim,
            block_dim,
            params: params.to_vec(),
            sync,
            stream,
        })? {
            (Response::Launched { device_time_s }, delay) => {
                Ok(if sync { delay + device_time_s } else { delay })
            }
            (other, _) => Err(VpError::Device(format!("unexpected response {other:?}"))),
        }
    }

    fn synchronize(&mut self) -> Result<f64, VpError> {
        let (_, delay) = self.round_trip(Request::Synchronize)?;
        Ok(delay)
    }
}

/// Per-VP result of a live run.
#[derive(Debug, Clone, PartialEq)]
pub struct VpOutcome {
    /// The VP.
    pub vp: VpId,
    /// Application name it ran.
    pub app: String,
    /// Final simulated time of the VP's clock.
    pub simulated_time_s: f64,
    /// GPU API calls issued.
    pub gpu_calls: u64,
    /// Error message if the application failed (validation or backend).
    pub error: Option<String>,
}

/// Result of joining a live run.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveReport {
    /// Per-VP outcomes, in spawn order.
    pub outcomes: Vec<VpOutcome>,
    /// All job records, concatenated device by device (the full log for
    /// single-device runs, in dispatch order).
    pub records: Vec<JobRecord>,
    /// Per-device job logs, each in dispatch order.
    pub device_records: Vec<Vec<JobRecord>>,
    /// Device makespan: each device's planned job stream replayed through
    /// the engine model; the slowest device counts.
    pub device_makespan_s: f64,
    /// VPs whose thread failed (application error or panic), with the error.
    /// A failed VP does not abort the run: healthy VPs still complete and
    /// their outcomes are reported alongside.
    pub failed_vps: Vec<(VpId, VpError)>,
}

impl LiveReport {
    /// Whether every VP completed without error.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.error.is_none()) && self.failed_vps.is_empty()
    }
}

/// A spawned VP thread awaiting collection: its id, app name, and the handle
/// yielding the outcome plus any structured error.
type VpHandle = (VpId, String, JoinHandle<(VpOutcome, Option<VpError>)>);

/// Join a batch of VP threads without letting one panic abort the run: a
/// panicked thread is reported as a failed VP (with a synthesized outcome) and
/// every healthy VP's result is still collected.
fn collect_vp_outcomes(handles: Vec<VpHandle>) -> (Vec<VpOutcome>, Vec<(VpId, VpError)>) {
    let mut outcomes = Vec::new();
    let mut failed_vps: Vec<(VpId, VpError)> = Vec::new();
    for (vp, app, handle) in handles {
        match handle.join() {
            Ok((outcome, error)) => {
                if let Some(error) = error {
                    failed_vps.push((vp, error));
                }
                outcomes.push(outcome);
            }
            Err(payload) => {
                let what = payload
                    .downcast_ref::<&'static str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                let message = format!("vp thread panicked: {what}");
                sigmavp_telemetry::recorder().count("fault.vp_panics", 1);
                failed_vps.push((vp, VpError::Device(message.clone())));
                outcomes.push(VpOutcome {
                    vp,
                    app,
                    simulated_time_s: 0.0,
                    gpu_calls: 0,
                    error: Some(message),
                });
            }
        }
    }
    outcomes.sort_by_key(|o| o.vp);
    failed_vps.sort_by_key(|f| f.0);
    (outcomes, failed_vps)
}

/// A live ΣVP system with an explicit dispatcher thread over real transports.
pub struct DispatchedSigmaVp {
    archs: Vec<GpuArch>,
    registry: KernelRegistry,
    cost: TransportCost,
    policy: Policy,
    pending: Vec<(VpId, Box<dyn Application + Send>)>,
    next_vp: u32,
    faults: Option<Arc<FaultPlan>>,
}

impl DispatchedSigmaVp {
    /// A system over `archs` host GPUs serving `registry`, with the given
    /// transport cost model for every VP connection. VPs are routed to the
    /// least-loaded device as they spawn.
    ///
    /// # Panics
    ///
    /// Panics if `archs` is empty.
    pub fn new(archs: Vec<GpuArch>, registry: KernelRegistry, cost: TransportCost) -> Self {
        assert!(!archs.is_empty(), "dispatcher runtime needs at least one host gpu");
        DispatchedSigmaVp {
            archs,
            registry,
            cost,
            policy: Policy::Fifo,
            pending: Vec::new(),
            next_vp: 0,
            faults: None,
        }
    }

    /// Single-device convenience constructor (the historical signature's shape).
    pub fn single(arch: GpuArch, registry: KernelRegistry, cost: TransportCost) -> Self {
        Self::new(vec![arch], registry, cost)
    }

    /// Override the scheduling policy (defaults to [`Policy::Fifo`]: earliest-start
    /// window reordering, no coalescing). The pipeline derived from it reorders
    /// the live window and prices the final device timelines.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Inject faults from a deterministic [`FaultPlan`]: every VP link is
    /// wrapped in a [`FaultyTransport`] seeded from the plan, and the
    /// dispatcher honours the plan's device outages and transient errors.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Register an application to run on its own VP thread. Returns the VP id.
    pub fn spawn(&mut self, app: Box<dyn Application + Send>) -> VpId {
        let vp = VpId(self.next_vp);
        self.next_vp += 1;
        self.pending.push((vp, app));
        vp
    }

    /// Launch the VP threads and the dispatcher, wait for completion, and collect
    /// the report plus dispatcher statistics. A VP thread that fails or panics
    /// lands in [`LiveReport::failed_vps`] without aborting the run.
    ///
    /// # Panics
    ///
    /// Panics if the dispatcher thread itself panics (a bug, not a guest failure).
    pub fn join(self) -> (LiveReport, DispatchStats) {
        let mut session = ExecutionSession::new(self.archs, self.registry, self.cost)
            .expect("constructor checked for at least one device");
        session.set_workers(self.policy.workers);
        session.set_tier(self.policy.tier);
        // Sync windows journal unconditionally: a held VP may be relocated by
        // the load trigger (or fail over) mid-run, and replay needs its history.
        let journal = self.faults.is_some() || self.policy.sync_hold;
        let mut shard = Shard::new(0, session, self.policy, self.faults.clone(), journal);

        // One transport pair per VP; route each VP to a device up front. With a
        // fault plan active, both ends of the link go through a FaultyTransport
        // carrying that direction's deterministic decision stream.
        let mut host_ends: Vec<(VpId, Box<dyn Transport>)> = Vec::new();
        let mut handles: Vec<VpHandle> = Vec::new();
        let retry = self.policy.retry;
        let deadline_us = self.policy.deadline_us;
        // The stop/resume switchboard, shared by every VP thread and the
        // dispatcher (only exercised when the policy enables sync holds).
        let control = Arc::new(VpControl::new());
        for (vp, app) in self.pending {
            shard.admit(vp, app.characteristics().coalescible);
            let (vp_end, host_end) = pair(self.cost);
            let (guest_transport, host_transport): (Box<dyn Transport>, Box<dyn Transport>) =
                match &self.faults {
                    Some(plan) => {
                        // Both ends share a DropNotice so an injected drop (or
                        // an undecodable request) times the guest out in
                        // simulated time immediately — wall-clock scheduling
                        // never decides whether a retry happens.
                        let notice = DropNotice::new();
                        (
                            Box::new(
                                FaultyTransport::new(
                                    vp_end,
                                    plan.link_faults(vp, LinkDirection::GuestToHost),
                                )
                                .with_notice(notice.clone(), true),
                            ),
                            Box::new(
                                FaultyTransport::new(
                                    host_end,
                                    plan.link_faults(vp, LinkDirection::HostToGuest),
                                )
                                .with_notice(notice, false),
                            ),
                        )
                    }
                    None => (Box::new(vp_end), Box::new(host_end)),
                };
            host_ends.push((vp, host_transport));
            let jitter_seed = self.faults.as_ref().map_or(0, |p| p.seed())
                ^ u64::from(vp.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let app_name = app.name().to_string();
            let gate = VpGate::new(control.clone(), vp);
            let handle = std::thread::spawn(move || {
                let mut platform = VirtualPlatform::new(vp);
                let mut service = RemoteGpu {
                    vp,
                    transport: guest_transport,
                    seq: 0,
                    clock: platform.clock_handle(),
                    retry,
                    deadline_us,
                    rng: StdRng::seed_from_u64(jitter_seed),
                    gate,
                };
                let recorder = sigmavp_telemetry::recorder();
                let started_wall_s = recorder.wall_now_s();
                let started = Instant::now();
                let result = {
                    let mut env = AppEnv::new(&mut platform, &mut service);
                    app.run_once(&mut env)
                };
                recorder.span(
                    TimeDomain::Wall,
                    Lane::Vp(vp.0),
                    app.name().to_string(),
                    started_wall_s,
                    started.elapsed().as_secs_f64(),
                );
                let error = result.err();
                let outcome = VpOutcome {
                    vp,
                    app: app.name().to_string(),
                    simulated_time_s: platform.now_s(),
                    gpu_calls: platform.stats().gpu_calls,
                    error: error.as_ref().map(|e| e.to_string()),
                };
                (outcome, error)
            });
            handles.push((vp, app_name, handle));
        }

        let dispatcher = {
            let control = control.clone();
            std::thread::spawn(move || run_dispatcher(shard, host_ends, &control))
        };

        let (outcomes, failed_vps) = collect_vp_outcomes(handles);
        let (outcome, stats) = dispatcher.join().expect("dispatcher must not panic");
        let report = LiveReport {
            outcomes,
            records: outcome.flat_records(),
            device_makespan_s: outcome.makespan_s(),
            device_records: outcome.devices.into_iter().map(|d| d.records).collect(),
            failed_vps,
        };
        (report, stats)
    }
}

/// The dispatcher's transport-side state: the endpoints, effect-once dedup,
/// and the requests currently inside the engine.
struct Front {
    endpoints: Vec<(VpId, Box<dyn Transport>)>,
    dedup: DedupCache,
    /// Requests taken in but not yet answered, as `(vp, seq)`; guards against
    /// a delayed duplicate entering the engine twice.
    in_flight: HashSet<(u32, u64)>,
}

impl Front {
    fn send(&self, vp: VpId, response: &ResponseEnvelope) {
        // The VP may have just disconnected after an error, in which case the
        // response is dropped.
        if let Some((_, endpoint)) = self.endpoints.iter().find(|(v, _)| *v == vp) {
            let _ = endpoint.send(codec::encode_response(response));
        }
    }

    /// Answer a request that went through the engine, remembering the reply
    /// for dedup resends — except a transient error, which the guest's retry
    /// must re-execute.
    fn deliver(&mut self, shard: &mut Shard, response: ResponseEnvelope) {
        shard.stats_mut().requests += 1;
        self.in_flight.remove(&(response.vp.0, response.seq));
        if !matches!(&response.body, Response::Error { message } if is_transient_error(message)) {
            self.dedup.store(&response);
        }
        self.send(response.vp, &response);
    }

    /// Refuse a request at a host-side deadline boundary with the structured
    /// violation, and release its in-flight guard.
    fn refuse(&mut self, shard: &mut Shard, envelope: &Envelope, stage: DeadlineStage, now_s: f64) {
        shard.stats_mut().deadline_misses += 1;
        sigmavp_telemetry::recorder().count("liveness.deadline_misses", 1);
        self.in_flight.remove(&(envelope.vp.0, envelope.seq));
        let message = format_deadline_violation(stage, envelope.deadline_s, now_s);
        self.send(envelope.vp, &error_reply(envelope, message));
    }
}

/// The host-side dispatcher loop.
fn run_dispatcher(
    mut shard: Shard,
    endpoints: Vec<(VpId, Box<dyn Transport>)>,
    control: &VpControl,
) -> (SessionOutcome, DispatchStats) {
    let queue = JobQueue::new();
    let recorder = sigmavp_telemetry::recorder();
    let mut front = Front { endpoints, dedup: DedupCache::new(), in_flight: HashSet::new() };
    // Jobs waiting for execution, keyed by job id.
    let mut waiting = HashMap::new();

    loop {
        // 1. Gather: poll every endpoint once, then triage the frames — corrupt
        //    frames are dropped (the guest retries), duplicates of an executed
        //    request are answered from the dedup cache, duplicates of a pending
        //    request are ignored, the rest enter the engine.
        let mut any = false;
        let mut frames: Vec<(VpId, bytes::Bytes)> = Vec::new();
        front.endpoints.retain(|(vp, endpoint)| match endpoint.try_recv() {
            Ok(Some(frame)) => {
                any = true;
                frames.push((*vp, frame));
                true
            }
            Ok(None) => true,
            Err(_) => {
                // A disconnected VP no longer counts toward the sync quorum.
                shard.retire(*vp);
                false
            }
        });
        for (vp, frame) in frames {
            let Ok(envelope) = codec::decode_request(&frame) else {
                recorder.count("fault.corrupt_frames", 1);
                continue;
            };
            debug_assert_eq!(envelope.vp, vp);
            // Any decoded frame is proof of life. A quarantined VP that speaks
            // again rejoins the quorum — its late launch simply rolls into the
            // next window.
            shard.note_activity(vp, envelope.sent_at_s);
            if shard.readmit(vp) {
                shard.stats_mut().rejoins += 1;
                recorder.count("liveness.rejoins", 1);
            }
            if let Some(cached) = front.dedup.lookup(vp, envelope.seq) {
                // Effect-once: this request already executed but its response was
                // lost in flight; resend the cached response without re-executing.
                front.send(vp, cached);
                shard.stats_mut().dedup_hits += 1;
                recorder.count("fault.dedup_hits", 1);
                continue;
            }
            if !front.in_flight.insert((vp.0, envelope.seq)) {
                // A delayed duplicate of a request that is still queued.
                continue;
            }
            // Admission boundary: a request stamped past its own end-to-end
            // deadline (retries eat into the same budget) is refused before it
            // enters any queue.
            if envelope.has_deadline() && envelope.sent_at_s > envelope.deadline_s {
                let now_s = envelope.sent_at_s;
                front.refuse(&mut shard, &envelope, DeadlineStage::Admission, now_s);
                continue;
            }
            match shard.accept(envelope, recorder.wall_now_s()) {
                // Held (Fig. 4b): stop the VP until its window flushes. Dedup
                // and in-flight triage already ran, so a retry of an executed
                // or already-held request never holds twice.
                None => control.stop(vp),
                Some(job) => {
                    queue.push(job.job.clone());
                    waiting.insert(job.job.id.0, job);
                }
            }
        }

        // 2. Re-schedule the polled batch (the paper's asynchronous
        //    reordering, Fig. 4a) — including the rebalance pass, which plans
        //    migrations off dead GPUs — then dispatch it.
        let batch = queue.drain_all();
        if batch.len() > 1 {
            shard.stats_mut().multi_job_windows += 1;
            recorder.count("dispatch.multi_job_windows", 1);
        }
        if !batch.is_empty() {
            recorder.count("dispatch.windows", 1);
            recorder.observe_s("dispatch.window_jobs", batch.len() as f64);
        }
        let stats = shard.stats_mut();
        stats.max_window = stats.max_window.max(batch.len());
        for planned in shard.plan(batch) {
            let job = waiting.remove(&planned.id.0).expect("every planned job is waiting");
            // Plan boundary: refuse work whose *projected* completion already
            // overshoots its deadline, instead of burning device time on it.
            let projected_s = job.envelope.sent_at_s + planned.expected_duration_s;
            if job.envelope.has_deadline() && projected_s > job.envelope.deadline_s {
                front.refuse(&mut shard, &job.envelope, DeadlineStage::Plan, projected_s);
                continue;
            }
            let response = shard.execute(&job);
            front.deliver(&mut shard, response);
        }

        // 3. Release the held sync window if a trigger fires, resuming its
        //    VPs in planned completion order.
        if let Some(window) = shard.take_window(false) {
            for response in shard.flush(window).responses {
                let vp = response.vp;
                front.deliver(&mut shard, response);
                control.resume(vp);
            }
        }

        if front.endpoints.is_empty() {
            break;
        }
        if !any {
            // Wall-clock stall backstop (watchdog-gated): launches are parked
            // but no frame has arrived for a long wall interval, so every
            // unheld VP is wedged at once and simulated time is frozen.
            if shard.stall_deadline().is_some_and(|at| Instant::now() >= at) {
                shard.backstop(&|_| true);
            }
            std::thread::yield_now();
        }
    }
    let stats = shard.stats_mut();
    stats.stop_events = control.stop_events();
    stats.resume_events = control.resume_events();
    let stats = *stats;
    (shard.drain_and_plan(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmavp_fault::LinkFaultConfig;
    use sigmavp_workloads::apps::{BlackScholesApp, VectorAddApp};

    fn system() -> DispatchedSigmaVp {
        let app = VectorAddApp { n: 1024 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        DispatchedSigmaVp::single(GpuArch::quadro_4000(), registry, TransportCost::shared_memory())
    }

    #[test]
    fn concurrent_vps_all_validate() {
        let mut sys = system();
        for _ in 0..6 {
            sys.spawn(Box::new(VectorAddApp { n: 1024 }));
        }
        let (report, _) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert_eq!(report.outcomes.len(), 6);
        // 6 VPs × (2 h2d + 1 kernel + 1 d2h) device jobs.
        assert_eq!(report.records.len(), 6 * 4);
        assert_eq!(report.device_records.len(), 1);
        for o in &report.outcomes {
            assert!(o.simulated_time_s > 0.0);
            // vectorAdd issues 10 calls: 3 mallocs, 2 h2d, 1 launch, 1 d2h, 3 frees.
            assert_eq!(o.gpu_calls, 10);
        }
    }

    #[test]
    fn failures_are_isolated_per_vp() {
        /// An application that launches a kernel missing from the registry.
        struct Broken;
        impl Application for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn kernels(&self) -> Vec<sigmavp_sptx::KernelProgram> {
                vec![]
            }
            fn characteristics(&self) -> sigmavp_workloads::AppTraits {
                sigmavp_workloads::AppTraits::pure_cuda()
            }
            fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
                let mut cuda = env.cuda();
                cuda.launch_sync("missing_kernel", 1, 1, &[])?;
                Ok(())
            }
        }

        let mut sys = system().with_policy(Policy::Fifo.with_sync_hold(true));
        sys.spawn(Box::new(VectorAddApp { n: 512 }));
        sys.spawn(Box::new(Broken));
        sys.spawn(Box::new(VectorAddApp { n: 512 }));
        let (report, _) = sys.join();
        assert!(!report.all_ok());
        assert_eq!(report.outcomes.iter().filter(|o| o.error.is_some()).count(), 1);
        // The healthy VPs still completed and validated.
        assert!(report.outcomes[0].error.is_none());
        assert!(report.outcomes[2].error.is_none());
    }

    #[test]
    fn mixed_apps_share_the_device() {
        let va = VectorAddApp { n: 512 };
        let ms = sigmavp_workloads::apps::MergeSortApp { n: 64 };
        let mut registry: KernelRegistry = va.kernels().into_iter().collect();
        for k in ms.kernels() {
            registry.register(k);
        }
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        );
        sys.spawn(Box::new(va));
        sys.spawn(Box::new(ms));
        let (report, _) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        // Both kernel kinds appear in the shared log.
        let kernels: HashSet<String> = report
            .records
            .iter()
            .filter_map(|r| match &r.kind {
                crate::host::RecordKind::Kernel { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert!(kernels.contains("vector_add"));
        assert!(kernels.contains("bitonic_step"));
    }

    #[test]
    fn dispatched_fleet_validates_end_to_end() {
        let app = VectorAddApp { n: 2048 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        );
        for _ in 0..4 {
            sys.spawn(Box::new(VectorAddApp { n: 2048 }));
        }
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert_eq!(report.outcomes.len(), 4);
        assert_eq!(report.records.len(), 4 * 4); // 2 h2d + kernel + d2h per VP
        assert!(stats.requests >= 4 * 10);
        assert!(report.device_makespan_s > 0.0);
    }

    #[test]
    fn profiler_feedback_fills_expected_times() {
        // With several VPs launching the same kernel repeatedly, later windows hold
        // jobs with non-zero expected durations — visible as multi-job windows
        // being reordered without panics and everything still validating.
        let app = BlackScholesApp { n: 1024, iterations: 4, ..BlackScholesApp::new(1) };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        );
        for _ in 0..4 {
            sys.spawn(Box::new(BlackScholesApp {
                n: 1024,
                iterations: 4,
                ..BlackScholesApp::new(1)
            }));
        }
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        // 4 VPs × (2 h2d + 4 launches + 2 d2h).
        assert_eq!(report.records.len(), 4 * 8);
        assert!(stats.max_window >= 1);
    }

    #[test]
    fn two_host_gpus_split_the_dispatched_fleet() {
        let run = |archs: Vec<GpuArch>| {
            let app = VectorAddApp { n: 2048 };
            let registry: KernelRegistry = app.kernels().into_iter().collect();
            let mut sys = DispatchedSigmaVp::new(archs, registry, TransportCost::shared_memory());
            for _ in 0..6 {
                sys.spawn(Box::new(VectorAddApp { n: 2048 }));
            }
            let (report, _) = sys.join();
            assert!(report.all_ok(), "{:?}", report.outcomes);
            report
        };
        let one = run(vec![GpuArch::quadro_4000()]);
        let two = run(vec![GpuArch::quadro_4000(), GpuArch::quadro_4000()]);
        assert_eq!(one.records.len(), two.records.len());
        assert_eq!(two.device_records.len(), 2);
        // Least-loaded routing spreads six VPs three-and-three, halving each
        // device's log and shrinking the fleet makespan.
        assert!(two.device_records.iter().all(|r| r.len() == 3 * 4));
        let ratio = one.device_makespan_s / two.device_makespan_s;
        assert!(ratio >= 1.5, "makespan ratio {ratio:.2}");
    }

    #[test]
    fn two_host_gpus_reduce_the_live_makespan() {
        // The same eight-VP fleet on one device vs two, at a larger problem
        // size. The planned device makespan must drop by ≥ 1.5×.
        let run = |archs: Vec<GpuArch>| {
            let app = VectorAddApp { n: 4096 };
            let registry: KernelRegistry = app.kernels().into_iter().collect();
            let mut sys = DispatchedSigmaVp::new(archs, registry, TransportCost::shared_memory());
            for _ in 0..8 {
                sys.spawn(Box::new(VectorAddApp { n: 4096 }));
            }
            let (report, _) = sys.join();
            assert!(report.all_ok(), "{:?}", report.outcomes);
            report
        };
        let one = run(vec![GpuArch::quadro_4000()]);
        let two = run(vec![GpuArch::quadro_4000(), GpuArch::quadro_4000()]);
        assert_eq!(one.records.len(), two.records.len());
        assert_eq!(two.device_records.len(), 2);
        // Least-loaded routing spreads eight VPs four-and-four.
        assert!(two.device_records.iter().all(|r| !r.is_empty()));
        let ratio = one.device_makespan_s / two.device_makespan_s;
        assert!(ratio >= 1.5, "makespan ratio {ratio:.2}");
    }

    #[test]
    fn sync_hold_coalesces_a_live_window() {
        let app = VectorAddApp { n: 2048 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true));
        for _ in 0..4 {
            sys.spawn(Box::new(VectorAddApp { n: 2048 }));
        }
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        // One sync launch per VP, all held into a single lockstep window.
        assert_eq!(stats.holds, 4);
        assert_eq!(stats.sync_windows, 1);
        assert_eq!(stats.stop_events, 4);
        assert_eq!(stats.resume_events, 4, "every stopped VP must be resumed");
        // Four identical vector_add launches coalesce live.
        assert!(stats.live_groups >= 1, "{stats:?}");
        assert!(stats.live_members >= 2, "{stats:?}");
        assert!(
            stats.sync_makespan_s < stats.sync_reorder_makespan_s,
            "live plan must beat reorder-only: {} vs {}",
            stats.sync_makespan_s,
            stats.sync_reorder_makespan_s
        );
        // Eq. 9 residual accounting: slots are λ-aligned, never below fill.
        assert!(stats.wave_filled > 0);
        assert!(stats.wave_slots >= stats.wave_filled);
    }

    #[test]
    fn sync_hold_counters_are_reproducible() {
        let run = || {
            let app = BlackScholesApp { n: 1024, iterations: 3, ..BlackScholesApp::new(1) };
            let registry: KernelRegistry = app.kernels().into_iter().collect();
            let mut sys = DispatchedSigmaVp::single(
                GpuArch::quadro_4000(),
                registry,
                TransportCost::shared_memory(),
            )
            .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true));
            for _ in 0..3 {
                sys.spawn(Box::new(BlackScholesApp {
                    n: 1024,
                    iterations: 3,
                    ..BlackScholesApp::new(1)
                }));
            }
            let (report, stats) = sys.join();
            assert!(report.all_ok(), "{:?}", report.outcomes);
            stats
        };
        let a = run();
        let b = run();
        // Windows are lockstep (quorum = every connected VP held), so the
        // whole sync-side ledger — counts and simulated makespans — must be
        // byte-identical run to run; only wall-clock-shaped fields may differ.
        assert_eq!(a.holds, b.holds);
        assert_eq!(a.sync_windows, b.sync_windows);
        assert_eq!(a.live_groups, b.live_groups);
        assert_eq!(a.live_members, b.live_members);
        assert_eq!(a.stop_events, b.stop_events);
        assert_eq!(a.resume_events, b.resume_events);
        assert_eq!(a.wave_slots, b.wave_slots);
        assert_eq!(a.wave_filled, b.wave_filled);
        assert_eq!(a.sync_makespan_s.to_bits(), b.sync_makespan_s.to_bits());
        assert_eq!(a.sync_reorder_makespan_s.to_bits(), b.sync_reorder_makespan_s.to_bits());
        assert!(a.sync_windows >= 3, "one window per lockstep iteration: {a:?}");
    }

    #[test]
    fn sync_hold_survives_a_lossy_delayed_link() {
        // Stop/resume must compose with the PR 4 fault machinery: dropped and
        // delayed frames around a held response resolve through retry + dedup,
        // never by deadlocking a parked VP.
        let app = VectorAddApp { n: 2048 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true))
        .with_faults(FaultPlan::seeded(11).with_link(LinkFaultConfig {
            drop_prob: 0.05,
            corrupt_prob: 0.02,
            delay_prob: 0.2,
            delay_s: 0.002,
        }));
        for _ in 0..4 {
            sys.spawn(Box::new(VectorAddApp { n: 2048 }));
        }
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert!(stats.holds >= 4);
        assert_eq!(stats.stop_events, stats.resume_events, "no VP left parked: {stats:?}");
    }

    #[test]
    fn gpu_trip_while_vps_are_parked_fails_over() {
        // Two devices, two VPs each. Each VectorAdd VP issues 5 ops (3 mallocs
        // + 2 h2d) before its held launch, so device 0's ops 10 and 11 are
        // exactly the two held launches of the first sync window. Making both
        // transient trips the breaker (threshold 2) while the VPs are parked
        // on held responses: they must be resumed with the transient error,
        // retry, migrate to device 1 via journal replay, and still validate.
        let app = VectorAddApp { n: 2048 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::new(
            vec![GpuArch::quadro_4000(), GpuArch::quadro_4000()],
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true))
        .with_faults(
            FaultPlan::seeded(9).with_transients(0, vec![10, 11]).with_breaker_threshold(2),
        );
        for _ in 0..4 {
            sys.spawn(Box::new(VectorAddApp { n: 2048 }));
        }
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert!(stats.gpu_trips >= 1, "{stats:?}");
        assert!(stats.migrations >= 2, "both device-0 VPs fail over: {stats:?}");
        assert!(stats.holds >= 6, "retried launches are held again: {stats:?}");
        assert_eq!(stats.stop_events, stats.resume_events, "no VP left parked: {stats:?}");
    }

    /// A vector-add guest with configurable wall-clock stalls: `pre_ms` before
    /// its first sync launch (staggers arrival against other VPs), `mid_ms`
    /// between launches (simulates a VP that wedges mid-run and later wakes).
    struct SleepyAdd {
        n: u64,
        pre_ms: u64,
        mid_ms: u64,
        launches: u32,
    }
    impl Application for SleepyAdd {
        fn name(&self) -> &str {
            "sleepyAdd"
        }
        fn kernels(&self) -> Vec<sigmavp_sptx::KernelProgram> {
            vec![sigmavp_workloads::kernels::vector_add()]
        }
        fn characteristics(&self) -> sigmavp_workloads::AppTraits {
            sigmavp_workloads::AppTraits::pure_cuda()
        }
        fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
            use sigmavp_workloads::app::{download, p, pi, upload};
            let n = self.n;
            let bytes = vec![1u8; (n * 4) as usize];
            let mut cuda = env.cuda();
            let da = upload(&mut cuda, &bytes)?;
            let db = upload(&mut cuda, &bytes)?;
            let dc = cuda.malloc(n * 4)?;
            if self.pre_ms > 0 {
                std::thread::sleep(Duration::from_millis(self.pre_ms));
            }
            for launch in 0..self.launches {
                cuda.launch_sync(
                    "vector_add",
                    n.div_ceil(256) as u32,
                    256,
                    &[p(da), p(db), p(dc), pi(n as i64)],
                )?;
                if self.mid_ms > 0 && launch + 1 < self.launches {
                    std::thread::sleep(Duration::from_millis(self.mid_ms));
                }
            }
            download(&mut cuda, dc)?;
            Ok(())
        }
    }

    /// A guest that only moves bytes — it never launches, so it never holds,
    /// and its steady frame stream is what advances the dispatcher's
    /// deterministic `sim_now` clock past a held window's timeout.
    struct CopiesOnly {
        iterations: u32,
    }
    impl Application for CopiesOnly {
        fn name(&self) -> &str {
            "copiesOnly"
        }
        fn kernels(&self) -> Vec<sigmavp_sptx::KernelProgram> {
            vec![]
        }
        fn characteristics(&self) -> sigmavp_workloads::AppTraits {
            sigmavp_workloads::AppTraits::pure_cuda()
        }
        fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
            use sigmavp_workloads::app::{download, upload};
            let mut cuda = env.cuda();
            for _ in 0..self.iterations {
                let buf = upload(&mut cuda, &[7u8; 4096])?;
                download(&mut cuda, buf)?;
            }
            Ok(())
        }
    }

    #[test]
    fn quorum_flush_releases_a_partial_window() {
        // Two VPs, quorum 0.5 → threshold 1: the prompt VP's held launch must
        // flush alone, long before the deliberately late VP even arrives.
        let registry: KernelRegistry =
            vec![sigmavp_workloads::kernels::vector_add()].into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true).sync_quorum(0.5));
        sys.spawn(Box::new(SleepyAdd { n: 2048, pre_ms: 0, mid_ms: 0, launches: 1 }));
        sys.spawn(Box::new(SleepyAdd { n: 2048, pre_ms: 60, mid_ms: 0, launches: 1 }));
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert_eq!(stats.holds, 2);
        // Each hold flushed in its own quorum-sized window, exactly once.
        assert_eq!(stats.sync_windows, 2, "{stats:?}");
        assert!(stats.quorum_flushes >= 1, "{stats:?}");
        assert_eq!(stats.stop_events, stats.resume_events, "no VP left parked: {stats:?}");
    }

    #[test]
    fn window_timeout_flushes_without_quorum() {
        // One sync VP held behind a copies-only companion that never holds:
        // the full-quorum predicate can never fire, so only the sim-time
        // window timeout (advanced by the companion's frames) releases it.
        let registry: KernelRegistry =
            vec![sigmavp_workloads::kernels::vector_add()].into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_sync_hold(true).with_sync_timeout_us(1));
        sys.spawn(Box::new(SleepyAdd { n: 2048, pre_ms: 0, mid_ms: 0, launches: 1 }));
        sys.spawn(Box::new(CopiesOnly { iterations: 400 }));
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert_eq!(stats.holds, 1);
        assert!(stats.timeout_flushes >= 1, "{stats:?}");
        assert_eq!(stats.stop_events, stats.resume_events, "no VP left parked: {stats:?}");
    }

    #[test]
    fn held_launch_past_its_deadline_is_refused_at_hold() {
        // The held launch's 500 µs budget expires while the copies-only
        // companion advances the shard's clock toward the 2 ms window
        // timeout: the timeout flush must refuse it at the hold boundary,
        // measured on the shard's clock rather than the window's own stamps.
        let registry: KernelRegistry =
            vec![sigmavp_workloads::kernels::vector_add()].into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(
            Policy::MultiplexedOptimized
                .with_sync_hold(true)
                .with_sync_timeout_us(2_000)
                .with_deadline_us(500),
        );
        sys.spawn(Box::new(SleepyAdd { n: 2048, pre_ms: 0, mid_ms: 0, launches: 1 }));
        sys.spawn(Box::new(CopiesOnly { iterations: 400 }));
        let (report, stats) = sys.join();
        let err = report.outcomes[0].error.as_deref().expect("the held launch must expire");
        assert!(err.contains("deadline exceeded at hold"), "{err}");
        assert!(stats.deadline_misses >= 1, "{stats:?}");
        assert!(report.outcomes[1].error.is_none(), "{:?}", report.outcomes[1]);
    }

    #[test]
    fn hung_vp_is_quarantined_and_rejoins() {
        // Three busy VPs iterate sync launches under quorum 0.5 while a fourth
        // wedges for 150 ms between its two launches. The watchdog must
        // quarantine the sleeper (it stops counting toward the quorum and its
        // journal fails over to the other device), then let it rejoin — and
        // finish — when it wakes.
        let registry: KernelRegistry = BlackScholesApp::new(1)
            .kernels()
            .into_iter()
            .chain(std::iter::once(sigmavp_workloads::kernels::vector_add()))
            .collect();
        let mut sys = DispatchedSigmaVp::new(
            vec![GpuArch::quadro_4000(), GpuArch::quadro_4000()],
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(
            Policy::MultiplexedOptimized.with_sync_hold(true).sync_quorum(0.5).with_hang_windows(2),
        );
        for _ in 0..3 {
            sys.spawn(Box::new(BlackScholesApp {
                n: 1024,
                iterations: 4,
                ..BlackScholesApp::new(1)
            }));
        }
        sys.spawn(Box::new(SleepyAdd { n: 1024, pre_ms: 0, mid_ms: 150, launches: 2 }));
        let (report, stats) = sys.join();
        assert!(report.all_ok(), "{:?}", report.outcomes);
        assert!(stats.quarantined >= 1, "{stats:?}");
        assert!(stats.rejoins >= 1, "the sleeper must rejoin on wake: {stats:?}");
        assert!(stats.migrations >= 1, "quarantine fails the VP over: {stats:?}");
        assert_eq!(stats.stop_events, stats.resume_events, "no VP left parked: {stats:?}");
    }

    #[test]
    fn plan_boundary_refuses_doomed_requests() {
        // A 1 µs budget is below even a zero-byte copy's fixed latency, so the
        // very first projected completion overshoots and the dispatcher
        // refuses at the plan boundary with the typed violation.
        let app = VectorAddApp { n: 2048 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_deadline_us(1));
        sys.spawn(Box::new(app));
        let (report, stats) = sys.join();
        let err = report.outcomes[0].error.as_deref().expect("budget must be unmeetable");
        assert!(err.contains("deadline exceeded at plan"), "{err}");
        assert!(stats.deadline_misses >= 1, "{stats:?}");
    }

    #[test]
    fn execute_boundary_charges_recovery_into_the_budget() {
        // A lossy link forces retries whose simulated recovery cost (25 ms
        // receive timeout) dwarfs the 5 ms budget: the guest surfaces the
        // execute-stage violation instead of burning its remaining attempts.
        let app = VectorAddApp { n: 2048 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys = DispatchedSigmaVp::single(
            GpuArch::quadro_4000(),
            registry,
            TransportCost::shared_memory(),
        )
        .with_policy(Policy::MultiplexedOptimized.with_deadline_us(5_000))
        .with_faults(FaultPlan::seeded(7).with_link(LinkFaultConfig {
            drop_prob: 0.6,
            corrupt_prob: 0.0,
            delay_prob: 0.0,
            delay_s: 0.0,
        }));
        sys.spawn(Box::new(app));
        let (report, _) = sys.join();
        let err = report.outcomes[0].error.as_deref().expect("drops must blow the budget");
        assert!(err.contains("deadline exceeded at execute"), "{err}");
    }

    #[test]
    fn guest_errors_propagate_over_the_wire() {
        struct Broken;
        impl Application for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn kernels(&self) -> Vec<sigmavp_sptx::KernelProgram> {
                vec![]
            }
            fn characteristics(&self) -> sigmavp_workloads::AppTraits {
                sigmavp_workloads::AppTraits::pure_cuda()
            }
            fn run_once(&self, env: &mut AppEnv<'_>) -> Result<(), VpError> {
                let mut cuda = env.cuda();
                cuda.launch_sync("missing", 1, 1, &[])?;
                Ok(())
            }
        }
        let app = VectorAddApp { n: 512 };
        let registry: KernelRegistry = app.kernels().into_iter().collect();
        let mut sys =
            DispatchedSigmaVp::single(GpuArch::quadro_4000(), registry, TransportCost::socket());
        sys.spawn(Box::new(app));
        sys.spawn(Box::new(Broken));
        let (report, _) = sys.join();
        assert!(report.outcomes[0].error.is_none());
        let err = report.outcomes[1].error.as_deref().expect("broken vp failed");
        assert!(err.contains("missing"), "{err}");
    }
}
