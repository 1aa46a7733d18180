//! The sharded fleet front-end: bounded admission, consistent-hash placement,
//! deterministic work stealing, and cross-session VP migration.
//!
//! # Architecture
//!
//! A [`Fleet`] owns `S` *lanes*. Each lane is one engine
//! [`Shard`] — an [`ExecutionSession`] (its own host-GPU set and job logs)
//! with everything that executes on it: held sync windows, the hung-VP
//! watchdog, per-VP residency and device supervision — plus a FIFO request
//! queue drained by a dedicated dispatcher thread. Lanes share nothing, so
//! fleet throughput scales with sessions the way the paper's host-GPU
//! multiplexing scales with devices. The dispatcher executes one queued job
//! per pop, unplanned; synchronous launches under `sync_hold` park in the
//! shard's window and flush through its planner.
//!
//! The *front door* keeps everything about placement behind one lock:
//!
//! * **Admission** — [`Fleet::admit`] places a VP on the consistent-hash ring
//!   ([`HashRing`]); [`Fleet::submit`] accepts one request per VP (guests are
//!   synchronous) and *sheds* work with [`FleetError::Saturated`] once the
//!   fleet-wide in-flight bound is hit — backpressure, not unbounded buffering.
//! * **Stealing** — every `steal_interval` admissions the rebalancer compares
//!   per-session *submitted cost* (a pure function of the requests, so the
//!   same admission sequence always plans the same steals) and marks the
//!   hottest VPs for migration to the coolest session.
//! * **Migration** — a marked VP moves at its next submit, when it provably
//!   has no request in flight: its shard residency is evicted from the source
//!   and adopted by the target, which replays its journal — the same
//!   relocation the shard uses to fail a VP over between devices.
//! * **Supervision** — [`Fleet::kill_session`] retires a session from the
//!   ring, drains its queued and held jobs, and re-homes them onto survivors;
//!   VPs that were idle migrate lazily at their next submit. With no
//!   survivors left, requests fail with [`FleetError::NoSurvivingSessions`].
//!
//! Lock order is `front → {lane queue, shard}`, and a dispatcher takes its
//! shard under its queue lock only to read the window; it never holds a
//! lane-side lock while taking the front lock, so the two sides cannot
//! deadlock.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use sigmavp::session::{p99_worst_wait, queue_wait_by_vp};
use sigmavp::{ExecutionSession, SessionOutcome, Shard, ShardJob, VpQueueWait};
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::{Envelope, Request, Response, ResponseEnvelope, VpId};
use sigmavp_ipc::transport::TransportCost;
use sigmavp_sched::HashRing;
use sigmavp_telemetry::bus::{self, Incident, IncidentKind, ObsEvent};
use sigmavp_telemetry::metrics::MetricsSnapshot;
use sigmavp_telemetry::{job_uid, recorder, Lane as TraceLane, Telemetry, TimeDomain};
use sigmavp_vp::registry::KernelRegistry;
use sigmavp_vp::{DeadlineStage, VpError};

use crate::config::FleetConfig;
use crate::error::FleetError;

/// Fleet-lifetime counters, mirrored into `fleet.*` telemetry.
///
/// For a fixed admission sequence every field except `rescued_jobs` is
/// deterministic: steals are planned from submitted cost (not wall clocks) and
/// migrations execute at fixed points in the admission order. `rescued_jobs`
/// counts jobs that were *queued but unexecuted* when a session died, which
/// depends on how far the dead dispatcher got.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Requests accepted past admission control.
    pub admitted: u64,
    /// Requests fully executed and delivered.
    pub completed: u64,
    /// Requests shed by the bounded admission queue.
    pub shed: u64,
    /// VPs marked for migration by the work-stealing rebalancer.
    pub steals: u64,
    /// Cross-session VP migrations performed (steals + failovers).
    pub migrations: u64,
    /// Journal replays the target session rejected.
    pub replay_failures: u64,
    /// Migrations that returned a VP to a session it had lived on before and
    /// reused the buffers it left there (DESIGN.md §12).
    pub reuse_migrations: u64,
    /// Sessions killed ([`Fleet::kill_session`]).
    pub session_trips: u64,
    /// Queued jobs re-homed from a dead session onto survivors.
    pub rescued_jobs: u64,
    /// Synchronous launches parked in a session's sync window instead of
    /// executing immediately (sync-hold mode).
    pub sync_holds: u64,
    /// Sync windows flushed, whatever the trigger (full house, quorum,
    /// timeout, or shutdown drain).
    pub sync_windows: u64,
    /// Sync windows flushed by the partial quorum before every eligible VP
    /// was held.
    pub quorum_flushes: u64,
    /// Sync windows flushed by the simulated-time window timeout.
    pub timeout_flushes: u64,
    /// Requests refused because their end-to-end deadline could not be met
    /// (at admission) or had already expired (while held).
    pub deadline_misses: u64,
    /// VPs quarantined by the hung-VP watchdog.
    pub quarantined_vps: u64,
    /// Requests shed at admission because their VP was quarantined.
    pub quarantined: u64,
    /// Quarantined VPs readmitted after proving liveness
    /// ([`Fleet::readmit`]).
    pub readmitted: u64,
}

/// Front-door view of one VP. Its residency (journal, handle maps) lives in
/// the shard it is homed on.
#[derive(Debug)]
struct VpState {
    shard: usize,
    next_seq: u64,
    /// Simulated guest clock: advances by submit cost + device time.
    sim_s: f64,
    outstanding: bool,
    /// Submitted cost of the request in flight.
    cost_s: f64,
    submitted_wall_s: f64,
    /// Set by the rebalancer; consumed at the VP's next submit.
    pending_target: Option<usize>,
    /// Completed response awaiting [`Fleet::wait`], with its sim-time advance.
    mailbox: Option<(ResponseEnvelope, f64)>,
    /// Quarantined by the hung-VP watchdog: submissions are shed until
    /// [`Fleet::readmit`].
    quarantined: bool,
}

#[derive(Debug)]
struct FrontState {
    vps: HashMap<VpId, VpState>,
    ring: HashRing,
    alive: Vec<bool>,
    /// Queued + executing jobs fleet-wide (the admission bound).
    depth: usize,
    admitted_in_window: u64,
    window_cost: Vec<f64>,
    window_cost_by_vp: HashMap<VpId, f64>,
    stats: FleetStats,
    closed: bool,
}

impl FrontState {
    /// Deliver a finished job: advance the VP's simulated clock and park the
    /// response in its mailbox.
    fn complete(&mut self, response: ResponseEnvelope) {
        let rec = recorder();
        let st = self.vps.get_mut(&response.vp).expect("completed job belongs to an admitted vp");
        let device_s = match &response.body {
            Response::Launched { device_time_s } => *device_time_s,
            _ => 0.0,
        };
        let advance_s = st.cost_s + device_s;
        st.sim_s += advance_s;
        st.outstanding = false;
        let now = rec.wall_now_s();
        rec.span_for_job(
            TimeDomain::Wall,
            TraceLane::Vp(response.vp.0),
            "fleet request",
            st.submitted_wall_s,
            (now - st.submitted_wall_s).max(0.0),
            job_uid(response.vp.0, response.seq),
        );
        st.mailbox = Some((response, advance_s));
        self.depth -= 1;
        self.stats.completed += 1;
        rec.count("fleet.completed", 1);
        rec.gauge_set("fleet.depth", self.depth as f64);
    }
}

#[derive(Debug)]
struct Front {
    state: Mutex<FrontState>,
    cv: Condvar,
}

impl Front {
    /// Deliver responses from a lane, and shed-mark the VPs its watchdog
    /// quarantined.
    fn deliver(&self, responses: impl IntoIterator<Item = ResponseEnvelope>, quarantined: &[VpId]) {
        let mut state = self.state.lock();
        for response in responses {
            state.complete(response);
        }
        for vp in quarantined {
            if let Some(st) = state.vps.get_mut(vp) {
                st.quarantined = true;
            }
        }
        self.cv.notify_all();
    }

    /// The stall backstop fired on `lane`: quarantine every VP homed there
    /// that is provably idle — nothing outstanding, nothing waiting in its
    /// mailbox — so the held window's quorum denominator shrinks and the
    /// window can flush. Held VPs are never victims (their request *is* the
    /// window).
    fn quarantine_idle(&self, lane: &Lane) {
        let mut state = self.state.lock();
        let victims = {
            let vps = &state.vps;
            let idle =
                |vp: VpId| vps.get(&vp).is_some_and(|st| !st.outstanding && st.mailbox.is_none());
            lane.shard.lock().backstop(&idle)
        };
        for vp in &victims {
            state.vps.get_mut(vp).expect("victim is admitted").quarantined = true;
        }
    }
}

/// A request waiting in a lane's queue for its dispatcher.
#[derive(Debug)]
struct Queued {
    envelope: Envelope,
    enqueued_wall_s: f64,
}

#[derive(Debug, Default)]
struct LaneQueue {
    jobs: VecDeque<Queued>,
    /// The session died: the dispatcher drains queued and held jobs into
    /// `orphans` and exits.
    down: bool,
    /// Admission-probe mode: the dispatcher parks without popping.
    held: bool,
    closed: bool,
    worker_done: bool,
    orphans: Vec<Envelope>,
}

/// One session: its engine shard and the queue its dispatcher drains.
#[derive(Debug)]
struct Lane {
    index: usize,
    shard: Mutex<Shard>,
    queue: Mutex<LaneQueue>,
    cv: Condvar,
}

impl Lane {
    fn depth_gauge(&self) -> String {
        format!("fleet.s{}.queue_depth", self.index)
    }

    /// Queue a request for this lane's dispatcher.
    fn push(&self, envelope: Envelope) {
        let rec = recorder();
        let mut q = self.queue.lock();
        q.jobs.push_back(Queued { envelope, enqueued_wall_s: rec.wall_now_s() });
        rec.gauge_set(&self.depth_gauge(), q.jobs.len() as f64);
        self.cv.notify_one();
    }

    /// Wake the dispatcher to re-evaluate its window (the quorum denominator
    /// changed).
    fn wake(&self) {
        let _q = self.queue.lock();
        self.cv.notify_all();
    }
}

/// One unit of dispatcher work.
enum Work {
    /// A queued request.
    One(Queued),
    /// A released sync window.
    Window(Vec<ShardJob>),
    /// The wall-clock stall backstop is due while a window is held.
    Stalled,
}

/// The dispatcher loop: pop, run through the shard, deliver. Queued requests
/// come first; with the queue empty the shard's window is released when a
/// trigger fires (or drained at shutdown), and a held window with the
/// watchdog armed waits at most until the stall backstop.
fn dispatch_loop(lane: Arc<Lane>, front: Arc<Front>) {
    loop {
        let work = {
            let mut q = lane.queue.lock();
            loop {
                if q.down {
                    let held = lane.shard.lock().take_held();
                    let q = &mut *q;
                    q.orphans.extend(q.jobs.drain(..).map(|j| j.envelope));
                    q.orphans.extend(held.into_iter().map(|j| j.envelope));
                    q.worker_done = true;
                    lane.cv.notify_all();
                    return;
                }
                if !q.held {
                    if let Some(job) = q.jobs.pop_front() {
                        recorder().gauge_set(&lane.depth_gauge(), q.jobs.len() as f64);
                        break Work::One(job);
                    }
                    let (window, stall) = {
                        let mut shard = lane.shard.lock();
                        (shard.take_window(q.closed), shard.stall_deadline())
                    };
                    if let Some(window) = window {
                        break Work::Window(window);
                    }
                    if q.closed {
                        q.worker_done = true;
                        lane.cv.notify_all();
                        return;
                    }
                    if let Some(at) = stall {
                        let wait = at.saturating_duration_since(Instant::now());
                        let timed_out = lane.cv.wait_for(&mut q, wait).timed_out();
                        if timed_out && !q.down && !q.held && q.jobs.is_empty() {
                            break Work::Stalled;
                        }
                        continue;
                    }
                }
                lane.cv.wait(&mut q);
            }
        };

        match work {
            Work::One(queued) => {
                let response = {
                    let mut shard = lane.shard.lock();
                    let Queued { envelope, enqueued_wall_s } = queued;
                    shard.note_activity(envelope.vp, envelope.sent_at_s);
                    shard.accept(envelope, enqueued_wall_s).map(|job| shard.execute(&job))
                };
                if let Some(response) = response {
                    front.deliver(std::iter::once(response), &[]);
                }
            }
            Work::Window(window) => {
                let flushed = lane.shard.lock().flush(window);
                front.deliver(flushed.responses, &flushed.quarantined);
            }
            Work::Stalled => front.quarantine_idle(&lane),
        }
    }
}

/// Steal trigger: rebalance when the hottest session's window cost exceeds
/// this multiple of the coolest session's.
const STEAL_RATIO: f64 = 1.25;

/// Most VPs marked for migration per steal round.
const MAX_STEALS_PER_ROUND: usize = 2;

/// Virtual nodes per session on the consistent-hash placement ring.
const RING_VNODES: usize = 16;

/// Deterministic submitted-cost model used by the rebalancer: a pure function
/// of the request and the device architecture, independent of wall clocks and
/// profiler feedback, so every run of the same admission sequence plans the
/// same steals.
fn request_cost(arch: &GpuArch, request: &Request) -> f64 {
    const BASE_S: f64 = 1e-7;
    match request {
        Request::MemcpyH2D { data, .. } => BASE_S + arch.copy_time_s(data.len() as u64),
        Request::MemcpyD2H { len, .. } => BASE_S + arch.copy_time_s(*len),
        Request::Launch { grid_dim, block_dim, .. } => {
            let threads = *grid_dim as u64 * *block_dim as u64;
            BASE_S + threads as f64 / (arch.total_cores() as f64 * arch.clock_hz())
        }
        Request::Malloc { .. } | Request::Free { .. } | Request::Synchronize => BASE_S,
    }
}

/// The sharded multi-session front-end. See the module docs for the design.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    /// Every session's host GPU; built once because [`request_cost`] reads it
    /// on every submit.
    arch: GpuArch,
    lanes: Vec<Arc<Lane>>,
    front: Arc<Front>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Fleet {
    /// Build a fleet of `config.sessions` execution sessions, each serving
    /// kernels from `registry`, and start one dispatcher thread per session.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] for an invalid configuration.
    pub fn new(config: FleetConfig, registry: KernelRegistry) -> Result<Fleet, FleetError> {
        config.validate()?;
        let arch = GpuArch::quadro_4000();
        let mut lanes = Vec::with_capacity(config.sessions);
        for index in 0..config.sessions {
            let mut session = ExecutionSession::new(
                vec![arch.clone()],
                registry.clone(),
                TransportCost::shared_memory(),
            )
            .map_err(|e| FleetError::Config(e.to_string()))?;
            session.set_workers(1);
            session.set_tier(config.policy.tier);
            // Every job is journaled: any VP may be stolen or rescued later.
            let shard = Shard::new(index, session, config.policy, None, true);
            lanes.push(Arc::new(Lane {
                index,
                shard: Mutex::new(shard),
                queue: Mutex::new(LaneQueue::default()),
                cv: Condvar::new(),
            }));
        }
        let front = Arc::new(Front {
            state: Mutex::new(FrontState {
                vps: HashMap::new(),
                ring: HashRing::new(config.sessions, RING_VNODES),
                alive: vec![true; config.sessions],
                depth: 0,
                admitted_in_window: 0,
                window_cost: vec![0.0; config.sessions],
                window_cost_by_vp: HashMap::new(),
                stats: FleetStats::default(),
                closed: false,
            }),
            cv: Condvar::new(),
        });
        let workers = lanes
            .iter()
            .map(|lane| {
                let lane = Arc::clone(lane);
                let front = Arc::clone(&front);
                std::thread::spawn(move || dispatch_loop(lane, front))
            })
            .collect();
        Ok(Fleet { config, arch, lanes, front, workers: Mutex::new(workers) })
    }

    /// Whether session `s` is still alive.
    pub fn is_alive(&self, s: usize) -> bool {
        self.front.state.lock().alive.get(s).copied().unwrap_or(false)
    }

    /// Snapshot of the fleet counters.
    pub fn stats(&self) -> FleetStats {
        self.merged_stats(&self.front.state.lock())
    }

    /// Front counters plus the window and watchdog counters each session's
    /// shard keeps.
    fn merged_stats(&self, state: &FrontState) -> FleetStats {
        let mut stats = state.stats;
        for lane in &self.lanes {
            let engine = *lane.shard.lock().stats();
            stats.sync_windows += engine.sync_windows;
            stats.quorum_flushes += engine.quorum_flushes;
            stats.timeout_flushes += engine.timeout_flushes;
            stats.deadline_misses += engine.deadline_misses;
            stats.quarantined_vps += engine.quarantined;
        }
        stats
    }

    /// Current fleet-wide in-flight depth (queued + executing jobs).
    pub fn depth(&self) -> usize {
        self.front.state.lock().depth
    }

    /// Device buffers currently allocated per session (leak accounting for
    /// the DESIGN.md §12 re-migration fix).
    pub fn live_buffers(&self) -> Vec<usize> {
        self.lanes.iter().map(|lane| lane.shard.lock().session().live_buffers()).collect()
    }

    /// Admit `vp` to the fleet, placing it on the consistent-hash ring.
    /// Returns the session index it landed on.
    ///
    /// # Errors
    ///
    /// [`FleetError::AlreadyAdmitted`] for a repeat admission,
    /// [`FleetError::NoSurvivingSessions`] when every session is dead,
    /// [`FleetError::Closed`] after shutdown.
    pub fn admit(&self, vp: VpId) -> Result<usize, FleetError> {
        let mut state = self.front.state.lock();
        if state.closed {
            return Err(FleetError::Closed);
        }
        if state.vps.contains_key(&vp) {
            return Err(FleetError::AlreadyAdmitted(vp));
        }
        let shard = state.ring.slot_of(vp.0 as u64).ok_or(FleetError::NoSurvivingSessions)?;
        self.lanes[shard].shard.lock().admit(vp, false);
        state.vps.insert(
            vp,
            VpState {
                shard,
                next_seq: 0,
                sim_s: 0.0,
                outstanding: false,
                cost_s: 0.0,
                submitted_wall_s: 0.0,
                pending_target: None,
                mailbox: None,
                quarantined: false,
            },
        );
        recorder().gauge_set("fleet.vps", state.vps.len() as f64);
        Ok(shard)
    }

    /// Submit one request for `vp`. Executes any pending migration first (the
    /// VP provably has nothing in flight here) and enqueues on the VP's
    /// session. Returns the request's sequence number; the response is
    /// collected with [`Fleet::wait`].
    ///
    /// # Errors
    ///
    /// [`FleetError::Saturated`] when the fleet-wide in-flight bound is hit
    /// (the request is shed — retry later), [`FleetError::Busy`] while the
    /// VP's previous request is unconsumed, [`FleetError::UnknownVp`] /
    /// [`FleetError::NoSurvivingSessions`] / [`FleetError::Closed`] as named.
    pub fn submit(&self, vp: VpId, request: Request) -> Result<u64, FleetError> {
        let rec = recorder();
        let mut state = self.front.state.lock();
        if state.closed {
            return Err(FleetError::Closed);
        }
        {
            let st = state.vps.get(&vp).ok_or(FleetError::UnknownVp(vp))?;
            if st.outstanding || st.mailbox.is_some() {
                return Err(FleetError::Busy(vp));
            }
            // Quarantine feeds admission: a wedged VP's work is *shed* with a
            // typed error instead of buffered against a quorum it no longer
            // counts toward.
            if st.quarantined {
                state.stats.quarantined += 1;
                rec.count("fleet.quarantined", 1);
                return Err(FleetError::Quarantined {
                    vp,
                    source: VpError::Quarantined { vp: vp.0 },
                });
            }
        }
        // Admission-boundary deadline check: if the request's own submitted
        // cost already exceeds the budget, no schedule can save it — refuse
        // at the front door instead of burning device time.
        let cost_s = request_cost(&self.arch, &request);
        if let Some(budget_s) = self.config.policy.deadline_s() {
            if cost_s > budget_s {
                state.stats.deadline_misses += 1;
                rec.count("fleet.deadline_misses", 1);
                return Err(FleetError::DeadlineExceeded {
                    vp,
                    source: VpError::DeadlineExceeded {
                        stage: DeadlineStage::Admission,
                        budget_s,
                        elapsed_s: cost_s,
                    },
                });
            }
        }
        if state.depth >= self.config.admission_capacity {
            state.stats.shed += 1;
            rec.count("fleet.shed", 1);
            // Incident hook: the flight recorder debounces shed bursts into
            // periodic post-mortem dumps.
            bus::publish(&ObsEvent::Incident(Incident {
                kind: IncidentKind::Shed {
                    depth: state.depth as u64,
                    capacity: self.config.admission_capacity as u64,
                },
                wall_s: rec.wall_now_s(),
                detail: format!("vp {} shed at admission", vp.0),
            }));
            return Err(FleetError::Saturated {
                depth: state.depth,
                capacity: self.config.admission_capacity,
            });
        }

        // Relocation point: a planned steal, or failover off a dead session.
        let current = state.vps.get(&vp).expect("checked above").shard;
        let mut target = state
            .vps
            .get_mut(&vp)
            .expect("checked above")
            .pending_target
            .take()
            .filter(|&t| state.alive[t]);
        if target.is_none() && !state.alive[current] {
            target = Some(state.ring.slot_of(vp.0 as u64).ok_or(FleetError::NoSurvivingSessions)?);
        }
        if let Some(t) = target {
            if t != current {
                self.migrate_locked(&mut state, vp, t);
            }
        }

        let st = state.vps.get_mut(&vp).expect("checked above");
        let seq = st.next_seq;
        st.next_seq += 1;
        let sent_at_s = st.sim_s;
        let deadline_s = self.config.policy.deadline_s().map_or(f64::INFINITY, |b| sent_at_s + b);
        let lane_idx = st.shard;
        st.outstanding = true;
        st.cost_s = cost_s;
        st.submitted_wall_s = rec.wall_now_s();

        state.window_cost[lane_idx] += cost_s;
        *state.window_cost_by_vp.entry(vp).or_insert(0.0) += cost_s;
        state.depth += 1;
        state.stats.admitted += 1;
        state.admitted_in_window += 1;
        rec.count("fleet.admitted", 1);
        rec.gauge_set("fleet.depth", state.depth as f64);
        if Shard::holds(&self.config.policy, &request) {
            state.stats.sync_holds += 1;
            rec.count("fleet.sync_holds", 1);
        }

        self.lanes[lane_idx].push(Envelope { vp, seq, sent_at_s, deadline_s, body: request });

        if self.config.steal_interval > 0 && state.admitted_in_window >= self.config.steal_interval
        {
            self.plan_steals(&mut state);
            state.admitted_in_window = 0;
        }
        Ok(seq)
    }

    /// Block until `vp`'s outstanding request completes; returns the response
    /// and the simulated-time advance it cost the guest.
    ///
    /// # Errors
    ///
    /// [`FleetError::NothingOutstanding`] when nothing is in flight and no
    /// response is parked; [`FleetError::UnknownVp`] as named.
    pub fn wait(&self, vp: VpId) -> Result<(ResponseEnvelope, f64), FleetError> {
        let mut state = self.front.state.lock();
        loop {
            let st = state.vps.get_mut(&vp).ok_or(FleetError::UnknownVp(vp))?;
            if let Some(delivered) = st.mailbox.take() {
                return Ok(delivered);
            }
            if !st.outstanding {
                return Err(FleetError::NothingOutstanding(vp));
            }
            self.front.cv.wait(&mut state);
        }
    }

    /// Non-blocking variant of [`Fleet::wait`].
    pub fn try_take(&self, vp: VpId) -> Option<(ResponseEnvelope, f64)> {
        self.front.state.lock().vps.get_mut(&vp).and_then(|st| st.mailbox.take())
    }

    /// Force-migrate an idle `vp` to session `target` (admin/test hook; the
    /// rebalancer and failover use the same machinery).
    ///
    /// # Errors
    ///
    /// [`FleetError::Busy`] while a request is in flight,
    /// [`FleetError::Config`] for a target that does not exist or was killed,
    /// plus the usual [`FleetError::UnknownVp`].
    pub fn migrate(&self, vp: VpId, target: usize) -> Result<(), FleetError> {
        if target >= self.lanes.len() {
            return Err(FleetError::Config(format!("no session {target}")));
        }
        let mut state = self.front.state.lock();
        if !state.alive[target] {
            return Err(FleetError::Config(format!("session {target} is dead")));
        }
        let st = state.vps.get(&vp).ok_or(FleetError::UnknownVp(vp))?;
        if st.outstanding || st.mailbox.is_some() {
            return Err(FleetError::Busy(vp));
        }
        if st.shard != target {
            self.migrate_locked(&mut state, vp, target);
        }
        Ok(())
    }

    /// Retire a finished `vp` from its session's sync-quorum denominator. A
    /// guest that has completed its script must not hold up lockstep windows
    /// for the VPs still running; retirement is the graceful counterpart of
    /// the watchdog's quarantine. Idempotent.
    ///
    /// # Errors
    ///
    /// [`FleetError::Busy`] while a request is in flight or a response is
    /// uncollected; [`FleetError::UnknownVp`] as named.
    pub fn retire(&self, vp: VpId) -> Result<(), FleetError> {
        let state = self.front.state.lock();
        let st = state.vps.get(&vp).ok_or(FleetError::UnknownVp(vp))?;
        if st.outstanding || st.mailbox.is_some() {
            return Err(FleetError::Busy(vp));
        }
        let lane = &self.lanes[st.shard];
        lane.shard.lock().retire(vp);
        lane.wake();
        Ok(())
    }

    /// Readmit a quarantined `vp`: clear the quarantine and restore it to its
    /// session's quorum denominator. The caller vouches the guest is live
    /// again (e.g. it reconnected or its hang resolved). No-op for a VP that
    /// is not quarantined.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownVp`] as named.
    pub fn readmit(&self, vp: VpId) -> Result<(), FleetError> {
        let mut state = self.front.state.lock();
        let st = state.vps.get_mut(&vp).ok_or(FleetError::UnknownVp(vp))?;
        if !st.quarantined {
            return Ok(());
        }
        st.quarantined = false;
        let lane = &self.lanes[st.shard];
        state.stats.readmitted += 1;
        recorder().count("fleet.readmitted", 1);
        lane.shard.lock().readmit(vp);
        lane.wake();
        Ok(())
    }

    /// Kill session `s`: retire it from the placement ring, stop its
    /// dispatcher, and re-home its queued and held jobs onto survivors
    /// (journal replay plus re-enqueue). Idle VPs of the dead session migrate
    /// lazily at their next submit. Idempotent; returns the number of rescued
    /// jobs.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] for an unknown session index.
    pub fn kill_session(&self, s: usize) -> Result<usize, FleetError> {
        if s >= self.lanes.len() {
            return Err(FleetError::Config(format!("no session {s}")));
        }
        let rec = recorder();
        {
            let mut state = self.front.state.lock();
            if !state.alive[s] {
                return Ok(0);
            }
            state.alive[s] = false;
            state.ring.retire(s);
            state.stats.session_trips += 1;
            rec.count("fleet.session_trips", 1);
            let survivors = state.alive.iter().filter(|a| **a).count();
            // Incident hook: an installed flight recorder dumps a post-mortem.
            bus::publish(&ObsEvent::Incident(Incident {
                kind: IncidentKind::SessionKilled { session: s },
                wall_s: rec.wall_now_s(),
                detail: format!("session s{s} killed; {survivors} survive"),
            }));
        }
        // Stop the dispatcher *without* holding the front lock — its final
        // in-flight completion needs it.
        let lane = &self.lanes[s];
        let orphans = {
            let mut q = lane.queue.lock();
            q.down = true;
            lane.cv.notify_all();
            while !q.worker_done {
                lane.cv.wait(&mut q);
            }
            std::mem::take(&mut q.orphans)
        };
        rec.gauge_set(&lane.depth_gauge(), 0.0);

        let mut rescued = 0;
        let mut state = self.front.state.lock();
        for envelope in orphans {
            let vp = envelope.vp;
            let Some(target) = state.ring.slot_of(vp.0 as u64) else {
                // No survivors: fail the job without unbounded buffering.
                let st = state.vps.get_mut(&vp).expect("orphaned job belongs to an admitted vp");
                st.outstanding = false;
                st.mailbox = Some((
                    ResponseEnvelope {
                        vp,
                        seq: envelope.seq,
                        sent_at_s: envelope.sent_at_s,
                        body: Response::Error { message: "no surviving sessions".into() },
                    },
                    0.0,
                ));
                state.depth -= 1;
                continue;
            };
            let st = state.vps.get_mut(&vp).expect("orphaned job belongs to an admitted vp");
            st.outstanding = false;
            self.migrate_locked(&mut state, vp, target);
            state.vps.get_mut(&vp).expect("migrated vp is admitted").outstanding = true;
            self.lanes[target].push(envelope);
            rescued += 1;
            state.stats.rescued_jobs += 1;
            rec.count("fleet.rescued_jobs", 1);
        }
        self.front.cv.notify_all();
        Ok(rescued)
    }

    /// A point-in-time fleet-wide observability view: one merged metrics
    /// registry snapshot (every session records into the shared registry
    /// under `fleet.s{i}.*` names) plus authoritative per-session state read
    /// under the fleet's own locks — gauges can lag a racing dispatcher,
    /// these cannot.
    pub fn observability(&self, telemetry: &Telemetry) -> FleetObservability {
        let state = self.front.state.lock();
        let shards = self
            .lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| ShardView {
                index: i,
                alive: state.alive[i],
                vps: state.vps.values().filter(|st| st.shard == i).count(),
                queue_depth: lane.queue.lock().jobs.len(),
                live_buffers: lane.shard.lock().session().live_buffers(),
            })
            .collect();
        FleetObservability {
            metrics: telemetry.snapshot(),
            depth: state.depth,
            stats: self.merged_stats(&state),
            shards,
        }
    }

    /// Park every dispatcher without popping (deterministic admission probes:
    /// with workers held, `capacity + k` submits shed exactly `k` requests).
    pub fn hold_workers(&self) {
        for lane in &self.lanes {
            lane.queue.lock().held = true;
        }
    }

    /// Resume held dispatchers.
    pub fn release_workers(&self) {
        for lane in &self.lanes {
            let mut q = lane.queue.lock();
            q.held = false;
            lane.cv.notify_all();
        }
    }

    /// Shut the fleet down: stop accepting work, let every dispatcher drain
    /// its queue and held window, join the threads, and price each session's
    /// job log through the configured scheduling policy. Call once, after
    /// collecting every outstanding response.
    pub fn shutdown(&self) -> FleetOutcome {
        self.front.state.lock().closed = true;
        for lane in &self.lanes {
            let mut q = lane.queue.lock();
            q.closed = true;
            q.held = false;
            lane.cv.notify_all();
        }
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
        let sessions = self.lanes.iter().map(|lane| lane.shard.lock().drain_and_plan()).collect();
        let stats = self.stats();
        FleetOutcome { sessions, stats }
    }

    /// Move `vp`'s residency from its session to `target`'s, which replays
    /// its journal, and switch its placement. Caller holds the front lock and
    /// guarantees nothing is in flight for `vp`. Infallible: a rejected
    /// replay leaves the VP with an empty handle map (subsequent requests fail
    /// with typed per-request errors) and is counted in `replay_failures`.
    fn migrate_locked(&self, state: &mut FrontState, vp: VpId, target: usize) {
        let rec = recorder();
        let st = state.vps.get(&vp).expect("migrating an admitted vp");
        debug_assert!(!st.outstanding, "migration requires an idle vp");
        let source = st.shard;
        let resident =
            self.lanes[source].shard.lock().evict(vp).expect("an admitted vp resides on its shard");
        let relocated = self.lanes[target].shard.lock().adopt(vp, resident);
        if relocated.reused {
            state.stats.reuse_migrations += 1;
            rec.count("fleet.reuse_migrations", 1);
        }
        if relocated.failed {
            state.stats.replay_failures += 1;
            rec.count("fleet.replay_failures", 1);
        }
        let st = state.vps.get_mut(&vp).expect("migrating an admitted vp");
        st.shard = target;
        // A window on the source that was waiting on this VP may flush now.
        self.lanes[source].wake();
        // Zero-width marker carrying the uid of the first post-migration job,
        // so its lifecycle is tagged `migrated` even if nothing was replayed.
        rec.span_for_job(
            TimeDomain::Wall,
            TraceLane::Dispatcher,
            format!("migration edge s{source} -> s{target}"),
            rec.wall_now_s(),
            0.0,
            job_uid(vp.0, st.next_seq),
        );
        state.stats.migrations += 1;
        rec.count("fleet.migrations", 1);
    }

    /// Plan up to [`MAX_STEALS_PER_ROUND`] migrations from the hottest alive
    /// shard to the coolest, by submitted cost over the closing window.
    /// Deterministic: costs are pure functions of the admitted requests, and
    /// every tie breaks on the lowest index.
    fn plan_steals(&self, state: &mut FrontState) {
        let rec = recorder();
        let mut hottest: Option<usize> = None;
        let mut coolest: Option<usize> = None;
        for s in 0..state.window_cost.len() {
            if !state.alive[s] {
                continue;
            }
            if hottest.is_none_or(|h| state.window_cost[s] > state.window_cost[h]) {
                hottest = Some(s);
            }
            if coolest.is_none_or(|c| state.window_cost[s] < state.window_cost[c]) {
                coolest = Some(s);
            }
        }
        if let (Some(hot), Some(cool)) = (hottest, coolest) {
            if hot != cool && state.window_cost[hot] > STEAL_RATIO * state.window_cost[cool] {
                let mut candidates: Vec<(VpId, f64)> = state
                    .window_cost_by_vp
                    .iter()
                    .filter(|(vp, _)| {
                        state
                            .vps
                            .get(vp)
                            .is_some_and(|st| st.shard == hot && st.pending_target.is_none())
                    })
                    .map(|(vp, cost)| (*vp, *cost))
                    .collect();
                candidates.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0 .0.cmp(&b.0 .0))
                });
                for (vp, _) in candidates.into_iter().take(MAX_STEALS_PER_ROUND) {
                    state.vps.get_mut(&vp).expect("candidate is admitted").pending_target =
                        Some(cool);
                    state.stats.steals += 1;
                    rec.count("fleet.steals", 1);
                }
            }
        }
        for cost in &mut state.window_cost {
            *cost = 0.0;
        }
        state.window_cost_by_vp.clear();
    }
}

/// One shard's live state as seen by [`Fleet::observability`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardView {
    /// Session index.
    pub index: usize,
    /// Whether the session is still serving (not killed).
    pub alive: bool,
    /// VPs currently homed on this session.
    pub vps: usize,
    /// Jobs queued (not yet executing) on this session.
    pub queue_depth: usize,
    /// Device buffers currently allocated across the session's GPUs.
    pub live_buffers: usize,
}

/// Fleet-wide aggregation for dashboards and flight recorders: the merged
/// metrics registry plus per-shard views and the fleet counters, all from one
/// locked pass ([`Fleet::observability`]).
#[derive(Debug, Clone)]
pub struct FleetObservability {
    /// Merged registry snapshot (counters, gauges, histogram quantiles).
    pub metrics: MetricsSnapshot,
    /// Queued + executing jobs fleet-wide (the admission-bound occupancy).
    pub depth: usize,
    /// Fleet-lifetime counters.
    pub stats: FleetStats,
    /// Per-shard live state, in session order.
    pub shards: Vec<ShardView>,
}

/// Everything a finished fleet run yields: per-session planned outcomes plus
/// the fleet counters.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-session outcomes, in session order (dead sessions keep the jobs
    /// they executed before dying).
    pub sessions: Vec<SessionOutcome>,
    /// Fleet-lifetime counters.
    pub stats: FleetStats,
}

impl FleetOutcome {
    /// Device-touching jobs executed across every session.
    pub fn gpu_jobs(&self) -> usize {
        self.sessions.iter().map(SessionOutcome::gpu_jobs).sum()
    }

    /// Slowest session's planned makespan (sessions run on independent
    /// hardware).
    pub fn makespan_s(&self) -> f64 {
        self.sessions.iter().map(SessionOutcome::makespan_s).fold(0.0, f64::max)
    }

    /// Per-VP simulated queue waits merged across sessions, ascending VP
    /// order. A migrated VP contributes the jobs it ran on every session it
    /// visited.
    pub fn queue_wait_by_vp(&self) -> Vec<(VpId, VpQueueWait)> {
        queue_wait_by_vp(self.sessions.iter().flat_map(|s| &s.devices))
    }

    /// The fleet starvation signal: p99 (nearest-rank) of per-VP worst
    /// simulated queue waits. Zero for an empty fleet.
    pub fn p99_queue_wait_s(&self) -> f64 {
        p99_worst_wait(&self.queue_wait_by_vp())
    }
}
