//! The host-side engine: one [`Shard`] is the paper's Job Queue →
//! Re-scheduler → host GPU loop (Fig. 2) over one [`ExecutionSession`], with
//! VP Control stop/resume windows for synchronous launches (Fig. 4b).
//!
//! Both live runtimes are thin fronts over it. [`DispatchedSigmaVp`] drives
//! one shard from its dispatcher thread and keeps everything about transports
//! (codec, retry, dedup, `VpControl`). `sigmavp_fleet::Fleet` drives one
//! shard per session and keeps everything about placement (hash ring,
//! admission, steals). The shard owns, exactly once, what both need:
//!
//! * **the held sync window** ([`SyncWindow`]): canonical `(vp, seq)` order,
//!   full → quorum → timeout triggers, and one selection rule — a quorum flush
//!   takes exactly the threshold, earliest `(sent_at_s, (vp, seq))` first;
//! * **the hold-stage deadline check**, against the shard's `sim_now` (the
//!   newest simulated stamp it has seen, the same clock the window timeout
//!   runs on);
//! * **the planned sync flush**: rebalance, the full pipeline with live
//!   coalescing and wave-packing, Eq. 7 pricing against reorder-only, and
//!   completion charges, with responses returned in planned completion order;
//! * **the hung-VP watchdog**: flush-relative detection, one wall-clock stall
//!   backstop, and the `VpHung` incident;
//! * **per-VP residency** ([`Resident`]): the journal, the handle map, the
//!   maps left behind on visited placements, request translation and response
//!   handle virtualization. One journal-replay relocation serves device →
//!   device moves inside a shard and shard → shard moves between sessions;
//! * **device supervision and profiler feedback**: breakers, transient
//!   injection, failover, and the expected kernel times the re-scheduler
//!   plans with.
//!
//! [`DispatchedSigmaVp`]: crate::DispatchedSigmaVp

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sigmavp_fault::{
    journal_live_identity, replay_journal_reusing, CircuitBreaker, FaultPlan, HandleMap, VpJournal,
    TRANSIENT_ERROR_PREFIX,
};
use sigmavp_gpu::engine::simulate;
use sigmavp_gpu::GpuArch;
use sigmavp_ipc::message::{Envelope, Request, Response, ResponseEnvelope, VpId};
use sigmavp_ipc::queue::{Job, JobId, JobKind};
use sigmavp_sched::{
    quorum_met, quorum_threshold, DeviceView, JobStream, LoadRebalance, PassCtx, Pipeline, Policy,
    Rebalance,
};
use sigmavp_telemetry::bus::{self, Incident, IncidentKind, ObsEvent};
use sigmavp_telemetry::{job_uid, recorder, Lane, TimeDomain};
use sigmavp_vp::error::{format_deadline_violation, DeadlineStage};

use crate::host::{JobRecord, RecordKind};
use crate::plan::{lower_jobs, EngineEvaluator};
use crate::session::{ExecutionSession, SessionOutcome};

/// Wall-clock stall backstop for the hung-VP watchdog: if sync launches are
/// parked but nothing has arrived for this long, the VPs that could advance
/// simulated time are presumed wedged and quarantined so the held window can
/// flush. Only consulted when `Policy::hang_windows > 0`.
const STALL_WALL_BACKSTOP: Duration = Duration::from_millis(500);

/// Statistics from one engine run. The fields marked *front* are counted by
/// [`DispatchedSigmaVp`](crate::DispatchedSigmaVp), which owns the
/// transports; the rest are the shard's own.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DispatchStats {
    /// Requests served (front).
    pub requests: u64,
    /// Reordering passes in which the pending window held more than one job
    /// (front).
    pub multi_job_windows: u64,
    /// Largest pending window observed (front).
    pub max_window: usize,
    /// Duplicate requests answered from the dedup cache instead of
    /// re-executed (front).
    pub dedup_hits: u64,
    /// VP migrations between devices (failover off a dead device,
    /// load-triggered, or a quarantine failover).
    pub migrations: u64,
    /// Host GPUs taken out of service (scheduled outage or tripped breaker).
    pub gpu_trips: u64,
    /// Synchronous launches held for a stop/resume window (Fig. 4b).
    pub holds: u64,
    /// Synchronous windows planned and flushed.
    pub sync_windows: u64,
    /// Merge groups the live sync planner found (coalesce plus wave-pack).
    pub live_groups: u64,
    /// Member launches those live groups absorbed.
    pub live_members: u64,
    /// VP stop events issued (0→1 stop-depth edges; one IPC round trip each)
    /// (front).
    pub stop_events: u64,
    /// VP resume events issued (1→0 edges) (front).
    pub resume_events: u64,
    /// Wave slots (λ-aligned block quanta) the live merged launches occupied.
    pub wave_slots: u64,
    /// Blocks actually launched into those slots; `wave_slots - wave_filled`
    /// is the Eq. 9 alignment residual, zero for perfectly packed windows.
    pub wave_filled: u64,
    /// Summed Eq. 7 makespan of the executed sync windows under the live plan.
    pub sync_makespan_s: f64,
    /// The same windows priced under the reorder-only (no cross-VP merging)
    /// plan — the async baseline the live path must beat.
    pub sync_reorder_makespan_s: f64,
    /// Partial windows flushed because the hold quorum was met before every
    /// eligible VP was held (`Policy::sync_quorum` below 1.0).
    pub quorum_flushes: u64,
    /// Windows flushed because the sim-time window timeout expired before
    /// any quorum was reached (`Policy::sync_window_timeout`).
    pub timeout_flushes: u64,
    /// Wall-clock stall-backstop trips: the VPs that could advance simulated
    /// time all went silent while a window sat held, so they were
    /// quarantined and the window released (only armed with the watchdog).
    pub backstop_trips: u64,
    /// VPs quarantined by the hung-VP watchdog (removed from the quorum
    /// denominator and failed over to a healthy placement).
    pub quarantined: u64,
    /// Quarantined VPs that showed fresh activity and rejoined the quorum
    /// (front).
    pub rejoins: u64,
    /// Requests refused at the admission, hold, or plan boundary because
    /// their end-to-end deadline had expired (guest-side execute-boundary
    /// misses surface as typed errors, not here).
    pub deadline_misses: u64,
}

/// One request inside the engine: the queue job (kind and expected
/// duration), its guest-space envelope, and when it arrived.
#[derive(Debug, Clone)]
pub struct ShardJob {
    /// The job the re-scheduler plans.
    pub job: Job,
    /// The request as the guest sent it (guest handle space).
    pub envelope: Envelope,
    /// Host-side arrival on the telemetry collector's wall clock.
    pub arrived_wall_s: f64,
}

/// What released a sync window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// Every eligible VP holds a launch: the window cannot grow.
    Full,
    /// The partial quorum was met before a full house.
    Quorum,
    /// The simulated-time window timeout expired.
    Timeout,
    /// The front is shutting down: whatever is held flushes so no job is lost.
    Drain,
}

#[derive(Debug)]
struct Held<T> {
    key: (u32, u64),
    sent_at_s: f64,
    item: T,
}

/// Held synchronous launches, kept in canonical `(vp, seq)` order at
/// insertion so every window — full, quorum-partial or timed out — reads off
/// sorted entries and a VP's launches never flush out of sequence order.
#[derive(Debug)]
pub struct SyncWindow<T> {
    held: Vec<Held<T>>,
}

impl<T> Default for SyncWindow<T> {
    fn default() -> Self {
        SyncWindow { held: Vec::new() }
    }
}

impl<T> SyncWindow<T> {
    /// Hold `item`, `vp`'s launch `seq` stamped at simulated `sent_at_s`.
    pub fn insert(&mut self, vp: VpId, seq: u64, sent_at_s: f64, item: T) {
        let key = (vp.0, seq);
        let pos = self.held.partition_point(|h| h.key < key);
        self.held.insert(pos, Held { key, sent_at_s, item });
        debug_assert!(self.held.windows(2).all(|w| w[0].key < w[1].key), "held must stay sorted");
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Whether `vp` has a launch held.
    pub fn holds(&self, vp: VpId) -> bool {
        self.held.iter().any(|h| h.key.0 == vp.0)
    }

    /// The trigger that releases the window now, in precedence order: *full*
    /// (at least one launch per eligible VP), *quorum* (`quorum_pct` below
    /// 100 and its threshold met), *timeout* (`now_s` is `timeout_s` past the
    /// oldest held stamp).
    pub fn trigger(
        &self,
        eligible: usize,
        quorum_pct: u32,
        timeout_s: Option<f64>,
        now_s: f64,
    ) -> Option<Flush> {
        if self.held.is_empty() {
            return None;
        }
        if self.held.len() >= eligible {
            return Some(Flush::Full);
        }
        if quorum_pct < 100 && quorum_met(self.held.len(), eligible, quorum_pct) {
            return Some(Flush::Quorum);
        }
        let opened_s = self.held.iter().map(|h| h.sent_at_s).fold(f64::INFINITY, f64::min);
        timeout_s.is_some_and(|limit| now_s - opened_s >= limit).then_some(Flush::Timeout)
    }

    /// Remove what `flush` releases, in canonical order. A quorum flush takes
    /// exactly `quorum_threshold(eligible, quorum_pct)` launches, earliest
    /// `(sent_at_s, (vp, seq))` first, so no straggler waits forever and late
    /// arrivals roll into the next window; every other trigger takes all.
    pub fn take(&mut self, flush: Flush, eligible: usize, quorum_pct: u32) -> Vec<T> {
        if flush != Flush::Quorum {
            return self.held.drain(..).map(|h| h.item).collect();
        }
        let mut order: Vec<usize> = (0..self.held.len()).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (&self.held[a], &self.held[b]);
            a.sent_at_s
                .partial_cmp(&b.sent_at_s)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.key.cmp(&b.key))
        });
        order.truncate(quorum_threshold(eligible, quorum_pct));
        // Removing in descending index order keeps the remaining indices
        // valid; reversing restores canonical (vp, seq).
        order.sort_unstable();
        let mut taken: Vec<T> = order.iter().rev().map(|&i| self.held.remove(i).item).collect();
        taken.reverse();
        taken
    }
}

/// One VP's residency on a shard: everything needed to serve it on any
/// placement and to move it to another.
#[derive(Debug, Default)]
pub struct Resident {
    /// Successful mutating requests, in guest handle space: what a
    /// relocation replays.
    journal: VpJournal,
    /// Guest → device handle translation, present once the VP has moved.
    map: Option<HandleMap>,
    /// The maps it left behind, keyed by `(shard, device)`: returning to a
    /// visited placement re-adopts those buffers instead of leaking them and
    /// allocating again (DESIGN.md §12).
    visited: HashMap<(usize, usize), HandleMap>,
    coalescible: bool,
    quarantined: bool,
    retired: bool,
    /// Flush count at the VP's last sign of life (the watchdog's clock);
    /// `None` until it first speaks.
    last_activity: Option<u64>,
}

impl Resident {
    /// Whether the VP counts toward the sync quorum.
    fn eligible(&self) -> bool {
        !self.quarantined && !self.retired
    }

    /// Record what the VP leaves behind at `place`: its translation map, or
    /// the identity over its live journal handles if it never moved.
    fn depart(&mut self, place: (usize, usize)) {
        let departing = self.map.clone().unwrap_or_else(|| journal_live_identity(&self.journal));
        self.visited.insert(place, departing);
    }
}

/// The outcome of one journal-replay relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Relocated {
    /// Whether the replay re-adopted buffers the VP left on this placement.
    pub reused: bool,
    /// Whether the target rejected part of the replay (the VP keeps running
    /// with an empty map; requests on lost handles fail individually).
    pub failed: bool,
}

/// A flushed window's result: responses in planned completion order (the
/// order to resume VPs in) and the VPs the watchdog quarantined after it.
#[derive(Debug)]
pub struct Flushed {
    /// One response per released launch.
    pub responses: Vec<ResponseEnvelope>,
    /// VPs quarantined by the post-flush watchdog sweep.
    pub quarantined: Vec<VpId>,
}

/// The host-side engine over one execution session. See the module docs.
#[derive(Debug)]
pub struct Shard {
    id: usize,
    session: ExecutionSession,
    policy: Policy,
    pipeline: Pipeline,
    faults: Option<Arc<FaultPlan>>,
    breakers: Vec<CircuitBreaker>,
    /// Attempted operations per device; indexes the plan's transient schedule.
    op_count: Vec<u64>,
    /// Journal every executed job, not only held ones.
    journal: bool,
    residents: HashMap<VpId, Resident>,
    /// The profiler feedback loop: last observed duration per kernel name.
    expected_kernel_s: HashMap<String, f64>,
    next_job: u64,
    window: SyncWindow<ShardJob>,
    /// Simulated time each device frees up after prior windows.
    device_free_s: Vec<f64>,
    /// The newest simulated stamp seen: the window-timeout and hold-deadline
    /// clock.
    sim_now: f64,
    flushes: u64,
    last_arrival: Instant,
    stats: DispatchStats,
}

impl Shard {
    /// An engine over `session`, identified as shard `id` among its peers.
    /// `faults` drives device outages and transient errors; `journal` records
    /// every executed job for relocation (held jobs always are).
    pub fn new(
        id: usize,
        session: ExecutionSession,
        policy: Policy,
        faults: Option<Arc<FaultPlan>>,
        journal: bool,
    ) -> Self {
        let devices = session.device_count();
        let threshold = faults
            .as_ref()
            .map_or(sigmavp_fault::plan::DEFAULT_BREAKER_THRESHOLD, |p| p.breaker_threshold());
        Shard {
            id,
            session,
            pipeline: Pipeline::from_policy(&policy),
            policy,
            faults,
            breakers: (0..devices).map(|_| CircuitBreaker::new(threshold)).collect(),
            op_count: vec![0; devices],
            journal,
            residents: HashMap::new(),
            expected_kernel_s: HashMap::new(),
            next_job: 0,
            window: SyncWindow::default(),
            device_free_s: vec![0.0; devices],
            sim_now: 0.0,
            flushes: 0,
            last_arrival: Instant::now(),
            stats: DispatchStats::default(),
        }
    }

    /// The session this shard drives.
    pub fn session(&self) -> &ExecutionSession {
        &self.session
    }

    /// The engine counters so far.
    pub fn stats(&self) -> &DispatchStats {
        &self.stats
    }

    /// The counters, for a front to add the ones it owns.
    pub fn stats_mut(&mut self) -> &mut DispatchStats {
        &mut self.stats
    }

    /// Whether the policy parks `request` in a sync window: a synchronous
    /// launch under `sync_hold`.
    pub fn holds(policy: &Policy, request: &Request) -> bool {
        policy.sync_hold && matches!(request, Request::Launch { sync: true, .. })
    }

    /// Place `vp` on this shard's least-loaded device. Returns the device.
    pub fn admit(&mut self, vp: VpId, coalescible: bool) -> usize {
        self.residents.insert(vp, Resident { coalescible, ..Resident::default() });
        self.session.assign(vp)
    }

    /// Take `vp` out of the quorum for good (it finished or disconnected).
    pub fn retire(&mut self, vp: VpId) {
        if let Some(r) = self.residents.get_mut(&vp) {
            r.retired = true;
        }
    }

    /// Clear `vp`'s quarantine; returns whether it was quarantined.
    pub fn readmit(&mut self, vp: VpId) -> bool {
        self.residents.get_mut(&vp).is_some_and(|r| std::mem::replace(&mut r.quarantined, false))
    }

    /// Proof of life from `vp` at simulated `sent_at_s`: advances the window
    /// clock and the watchdog's activity mark.
    pub fn note_activity(&mut self, vp: VpId, sent_at_s: f64) {
        self.sim_now = self.sim_now.max(sent_at_s);
        self.last_arrival = Instant::now();
        if let Some(r) = self.residents.get_mut(&vp) {
            r.last_activity = Some(self.flushes);
        }
    }

    /// Take in a guest request: give it its queue kind and the profiler's
    /// expected duration (a hit means an earlier launch of the kernel taught
    /// the re-scheduler its time), then park it in the sync window if the
    /// policy holds it — flooring a never-profiled kernel at its launch
    /// overhead so the window planner prices the fixed cost a merge would
    /// save. Returns the job when it is to execute now, `None` when held.
    pub fn accept(&mut self, envelope: Envelope, arrived_wall_s: f64) -> Option<ShardJob> {
        let kind = match &envelope.body {
            Request::MemcpyH2D { data, .. } => JobKind::CopyIn { bytes: data.len() as u64 },
            Request::MemcpyD2H { len, .. } => JobKind::CopyOut { bytes: *len },
            Request::Launch { kernel, grid_dim, block_dim, .. } => {
                JobKind::Kernel { name: kernel.clone(), grid_dim: *grid_dim, block_dim: *block_dim }
            }
            // Control requests (malloc/free/sync) are cheap; model them as
            // zero-byte copies so they flow through the same queue.
            _ => JobKind::CopyIn { bytes: 0 },
        };
        let arch = self.session.arch(self.session.device_of(envelope.vp).expect("admitted vp"));
        let expected_duration_s = match &kind {
            JobKind::CopyIn { bytes } | JobKind::CopyOut { bytes } => arch.copy_time_s(*bytes),
            JobKind::Kernel { name, .. } => match self.expected_kernel_s.get(name) {
                Some(t) => {
                    recorder().count("profiler.feedback.hits", 1);
                    *t
                }
                None => {
                    recorder().count("profiler.feedback.misses", 1);
                    0.0
                }
            },
        };
        let held = Self::holds(&self.policy, &envelope.body);
        let floor_s = if held { arch.launch_overhead_us * 1e-6 } else { 0.0 };
        let job = Job {
            id: JobId(self.next_job),
            vp: envelope.vp,
            seq: envelope.seq,
            kind,
            sync: true,
            enqueued_at_s: envelope.sent_at_s,
            expected_duration_s: expected_duration_s.max(floor_s),
        };
        self.next_job += 1;
        let job = ShardJob { job, envelope, arrived_wall_s };
        if !held {
            return Some(job);
        }
        self.stats.holds += 1;
        recorder().count("dispatch.sync.holds", 1);
        let (vp, seq, sent_at_s) = (job.job.vp, job.envelope.seq, job.envelope.sent_at_s);
        self.window.insert(vp, seq, sent_at_s, job);
        None
    }

    /// Reorder a batch of ready jobs through the pipeline (the paper's
    /// asynchronous reordering, Fig. 4a), failing VPs over off any device the
    /// rebalance pass sees down. Returns the jobs in planned order.
    pub fn plan(&mut self, jobs: Vec<Job>) -> Vec<Job> {
        let planned = self.plan_on_devices(&self.pipeline, jobs, None);
        for (vp, target) in planned.migrations {
            self.fail_over(vp, target);
        }
        planned.jobs
    }

    /// Execute one job end to end — failover safety net, transient
    /// injection, handle translation, device dispatch, journaling and
    /// profiler feedback — and return its response. Every path answers
    /// exactly once, which is what keeps a stopped VP from waiting forever.
    pub fn execute(&mut self, job: &ShardJob) -> ResponseEnvelope {
        self.run(job, self.journal)
    }

    /// The window to release now, if a trigger fires — or everything held
    /// when `draining`. Counts quorum and timeout flushes.
    pub fn take_window(&mut self, draining: bool) -> Option<Vec<ShardJob>> {
        if self.window.is_empty() {
            return None;
        }
        let eligible = self.residents.values().filter(|r| r.eligible()).count();
        let pct = self.policy.sync_quorum_pct;
        let flush =
            match self.window.trigger(eligible, pct, self.policy.sync_timeout_s(), self.sim_now) {
                Some(flush) => flush,
                None if draining => Flush::Drain,
                None => return None,
            };
        match flush {
            Flush::Quorum => {
                self.stats.quorum_flushes += 1;
                recorder().count("dispatch.sync.quorum_flushes", 1);
            }
            Flush::Timeout => {
                self.stats.timeout_flushes += 1;
                recorder().count("dispatch.sync.timeout_flushes", 1);
            }
            Flush::Full | Flush::Drain => {}
        }
        Some(self.window.take(flush, eligible, pct))
    }

    /// Everything still held, unflushed (the shard is being torn down and
    /// its work re-homed).
    pub fn take_held(&mut self) -> Vec<ShardJob> {
        self.window.take(Flush::Drain, 0, 100)
    }

    /// Flush a released window (Fig. 4b): refuse launches whose deadline
    /// expired while parked (the `hold` boundary, on `sim_now`), rebalance
    /// the rest across devices, plan each device's slice with the *full*
    /// pipeline — the VPs are stopped, so cross-VP coalescing and
    /// wave-packing are safe on live traffic — execute, price the window
    /// against its reorder-only alternative (Eq. 7), and charge each guest
    /// its planned completion. Then run the watchdog sweep.
    pub fn flush(&mut self, window: Vec<ShardJob>) -> Flushed {
        let rec = recorder();
        let flush_started_wall_s = rec.wall_now_s();
        let flush_started = Instant::now();
        assert!(
            window
                .windows(2)
                .all(|w| (w[0].job.vp, w[0].envelope.seq) < (w[1].job.vp, w[1].envelope.seq)),
            "sync window must arrive in canonical (vp, seq) order"
        );
        let members: Vec<VpId> = window.iter().map(|h| h.job.vp).collect();
        self.stats.sync_windows += 1;
        rec.count("dispatch.sync.windows", 1);
        rec.observe_s("dispatch.sync.window_jobs", members.len() as f64);

        let now_s = self.sim_now;
        let t_now = window.iter().map(|h| h.envelope.sent_at_s).fold(0.0f64, f64::max);
        // (vp, absolute completion time, response) across all devices,
        // seeded with the hold-boundary refusals so their VPs resume too.
        let mut completions: Vec<(VpId, f64, ResponseEnvelope)> = Vec::new();
        let window: Vec<ShardJob> = window
            .into_iter()
            .filter_map(|h| {
                if now_s <= h.envelope.deadline_s {
                    return Some(h);
                }
                self.stats.deadline_misses += 1;
                rec.count("liveness.deadline_misses", 1);
                let message =
                    format_deadline_violation(DeadlineStage::Hold, h.envelope.deadline_s, now_s);
                completions.push((
                    h.job.vp,
                    h.envelope.sent_at_s,
                    error_reply(&h.envelope, message),
                ));
                None
            })
            .collect();

        // Rebalance over the whole window: down devices drain as in the
        // async path, and the load trigger may move VPs between *live*
        // devices on sustained imbalance.
        let rebalance = Pipeline::new().with_pass(Rebalance);
        let jobs = window.iter().map(|h| h.job.clone()).collect();
        let planned = self.plan_on_devices(&rebalance, jobs, Some(LoadRebalance::DEFAULT));
        for (vp, target) in planned.migrations {
            let Some(current) = self.session.device_of(vp) else { continue };
            if current == target {
                continue;
            }
            if self.is_down(current, t_now) {
                self.fail_over(vp, target);
            } else {
                // Load-triggered: the source device stays in service.
                self.relocate(vp, target);
            }
        }

        // Partition by (post-migration) device, in first-appearance order.
        let mut device_order: Vec<usize> = Vec::new();
        let mut by_device: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, h) in window.iter().enumerate() {
            let d = self.session.device_of(h.job.vp).expect("held vp is assigned");
            if !by_device.contains_key(&d) {
                device_order.push(d);
            }
            by_device.entry(d).or_default().push(i);
        }
        for d in device_order {
            let slice = by_device[&d].iter().map(|&w| &window[w]).collect();
            self.flush_device(d, slice, &mut completions);
        }

        // Resume in planned completion order: the earliest-finishing VP
        // wakes first, exactly as the merged timeline completes (ties by VP).
        completions.sort_by(|a, b| {
            a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0 .0.cmp(&b.0 .0))
        });
        rec.span(
            TimeDomain::Wall,
            Lane::Dispatcher,
            format!("sync window ({} jobs)", window.len()),
            flush_started_wall_s,
            flush_started.elapsed().as_secs_f64(),
        );

        // Watchdog sweep: the platform just proved it can progress without
        // the VPs that are neither held nor recently heard from. The VPs this
        // flush resumes count as active now; any other eligible VP
        // `hang_windows` flushes behind is quarantined.
        self.flushes += 1;
        for vp in &members {
            if let Some(r) = self.residents.get_mut(vp) {
                r.last_activity = Some(self.flushes);
            }
        }
        let hang_windows = u64::from(self.policy.hang_windows);
        let mut quarantined = Vec::new();
        if hang_windows > 0 {
            let mut hung: Vec<VpId> = self
                .residents
                .iter()
                .filter(|(vp, r)| {
                    r.eligible()
                        && !self.window.holds(**vp)
                        && r.last_activity.is_some_and(|at| self.flushes - at >= hang_windows)
                })
                .map(|(vp, _)| *vp)
                .collect();
            hung.sort_by_key(|vp| vp.0);
            for vp in hung {
                self.quarantine(vp);
                quarantined.push(vp);
            }
        }
        Flushed { responses: completions.into_iter().map(|(_, _, r)| r).collect(), quarantined }
    }

    /// The wall-clock instant at which the stall backstop fires, if armed:
    /// the watchdog is on and launches are parked.
    pub fn stall_deadline(&self) -> Option<Instant> {
        (self.policy.hang_windows > 0 && !self.window.is_empty())
            .then(|| self.last_arrival + STALL_WALL_BACKSTOP)
    }

    /// Fire the stall backstop: quarantine every eligible, unheld VP the
    /// front reports `idle` — with simulated time frozen, neither the quorum
    /// nor the timeout can release the window otherwise. Returns the victims.
    pub fn backstop(&mut self, idle: &dyn Fn(VpId) -> bool) -> Vec<VpId> {
        let mut stuck: Vec<VpId> = self
            .residents
            .iter()
            .filter(|(vp, r)| r.eligible() && !self.window.holds(**vp) && idle(**vp))
            .map(|(vp, _)| *vp)
            .collect();
        stuck.sort_by_key(|vp| vp.0);
        if !stuck.is_empty() {
            self.stats.backstop_trips += 1;
            recorder().count("liveness.backstop_trips", 1);
            for &vp in &stuck {
                self.quarantine(vp);
            }
        }
        self.last_arrival = Instant::now();
        stuck
    }

    /// Remove `vp` to move it to another shard, recording what it leaves on
    /// its device here.
    pub fn evict(&mut self, vp: VpId) -> Option<Resident> {
        let mut resident = self.residents.remove(&vp)?;
        if let Some(device) = self.session.device_of(vp) {
            resident.depart((self.id, device));
        }
        Some(resident)
    }

    /// Take over `vp` from another shard: place it on a device here and
    /// rebuild its device state by replaying its journal.
    pub fn adopt(&mut self, vp: VpId, mut resident: Resident) -> Relocated {
        let device = self.session.assign(vp);
        let relocated = self.replay(vp, &mut resident, device);
        resident.last_activity = resident.last_activity.map(|_| self.flushes);
        self.residents.insert(vp, resident);
        relocated
    }

    /// Drain every device's job log and price it through the policy's
    /// pipeline.
    pub fn drain_and_plan(&mut self) -> SessionOutcome {
        let residents = &self.residents;
        let coalescible = |vp: VpId| residents.get(&vp).is_some_and(|r| r.coalescible);
        self.session.drain_and_plan(&self.pipeline, &coalescible)
    }

    /// Plan `jobs` through `pipeline` under a reorder-only context that shows
    /// the rebalance pass each device's queued work, routing and health.
    fn plan_on_devices(
        &self,
        pipeline: &Pipeline,
        jobs: Vec<Job>,
        load: Option<LoadRebalance>,
    ) -> JobStream {
        let mut queued = vec![0.0f64; self.session.device_count()];
        for job in &jobs {
            if let Some(d) = self.session.device_of(job.vp) {
                queued[d] += job.expected_duration_s;
            }
        }
        let route = |vp: VpId| self.session.device_of(vp);
        let down_for = |d: usize, t: f64| self.is_down(d, t);
        let view = DeviceView { queued_s: &queued, route: &route, down_for: &down_for, load };
        pipeline.plan(jobs, &PassCtx::reorder_only().with_devices(&view))
    }

    /// Is `device` out of service for a request stamped at `sim_s`?
    fn is_down(&self, device: usize, sim_s: f64) -> bool {
        !self.session.is_healthy(device)
            || self.breakers[device].is_open()
            || self.faults.as_ref().is_some_and(|p| p.device_down(device, sim_s))
    }

    /// Take `device` out of service (idempotent): mark it unhealthy for
    /// routing, trip its breaker, and emit the trip telemetry exactly once.
    /// This is the only place a device goes unhealthy, so the session's health
    /// bit doubles as the "already noticed" flag.
    fn mark_down(&mut self, device: usize) {
        if !self.session.is_healthy(device) {
            return;
        }
        self.breakers[device].trip();
        self.session.mark_down(device);
        self.stats.gpu_trips += 1;
        let rec = recorder();
        rec.count("fault.gpu_trips", 1);
        rec.gauge_set("fault.healthy_gpus", self.session.healthy_count() as f64);
        if self.session.healthy_count() <= 1 {
            // Graceful degradation: the platform continues on one device.
            rec.gauge_set("fault.degraded_mode", 1.0);
        }
        // Incident hook: an installed flight recorder dumps a post-mortem.
        bus::publish(&ObsEvent::Incident(Incident {
            kind: IncidentKind::BreakerTrip { device },
            wall_s: rec.wall_now_s(),
            detail: format!(
                "device gpu{device} out of service; {} healthy remain",
                self.session.healthy_count()
            ),
        }));
    }

    /// Failover: take `vp`'s current device out of service, then relocate the
    /// VP onto `target`.
    fn fail_over(&mut self, vp: VpId, target: usize) {
        let Some(current) = self.session.device_of(vp) else { return };
        if current == target {
            return;
        }
        self.mark_down(current);
        self.relocate(vp, target);
    }

    /// Move `vp` onto `target` inside this shard without touching the source
    /// device's health, by journal replay.
    fn relocate(&mut self, vp: VpId, target: usize) {
        let Some(current) = self.session.device_of(vp) else { return };
        if current == target {
            return;
        }
        let rec = recorder();
        let started_wall_s = rec.wall_now_s();
        let started = Instant::now();
        let mut resident = self.residents.remove(&vp).unwrap_or_default();
        resident.depart((self.id, current));
        self.replay(vp, &mut resident, target);
        self.residents.insert(vp, resident);
        self.session.reassign(vp, target);
        self.stats.migrations += 1;
        rec.span(
            TimeDomain::Wall,
            Lane::Dispatcher,
            format!("migrate VP {} -> gpu{target}", vp.0),
            started_wall_s,
            started.elapsed().as_secs_f64(),
        );
    }

    /// The one relocation: replay `resident`'s journal onto `device` here
    /// (without recording the replay as jobs), reusing the buffers it left
    /// on this placement if it lived here before, and install the resulting
    /// translation map.
    fn replay(&mut self, vp: VpId, resident: &mut Resident, device: usize) -> Relocated {
        let rec = recorder();
        let retained = resident.visited.remove(&(self.id, device));
        let runtime = self.session.runtime(device);
        let replayed = {
            let mut rt = runtime.lock();
            let mut process = |orig_seq: u64, request: &Request| {
                let started_wall_s = rec.wall_now_s();
                let started = Instant::now();
                let envelope = Envelope {
                    vp,
                    seq: u64::MAX,
                    sent_at_s: 0.0,
                    deadline_s: Envelope::NO_DEADLINE,
                    body: request.clone(),
                };
                let body = rt.process_replay(&envelope).body;
                // Stitch the replayed work onto the *original* job's uid so
                // its lifecycle joins into one migration-tagged causal chain.
                rec.span_for_job(
                    TimeDomain::Wall,
                    Lane::Dispatcher,
                    format!("replay -> gpu{device}"),
                    started_wall_s,
                    started.elapsed().as_secs_f64(),
                    job_uid(vp.0, orig_seq),
                );
                body
            };
            if retained.is_some() {
                rec.count("fault.reuse_migrations", 1);
            }
            let empty = HandleMap::new();
            replay_journal_reusing(
                &resident.journal,
                retained.as_ref().unwrap_or(&empty),
                &mut process,
            )
        };
        rec.count("fault.migrations", 1);
        let failed = match replayed {
            Ok(map) => {
                rec.count("fault.replayed_jobs", resident.journal.len() as u64);
                resident.map = Some(map);
                false
            }
            Err(_) => {
                rec.count("fault.replay_failures", 1);
                resident.map = Some(HandleMap::new());
                true
            }
        };
        Relocated { reused: retained.is_some(), failed }
    }

    /// Quarantine `vp`: count it out of the sync quorum, publish a
    /// [`IncidentKind::VpHung`] incident (an installed flight recorder dumps a
    /// post-mortem on it), and fail its journal over to the least-backlogged
    /// healthy *other* device, so when the VP wakes its state is already off
    /// the placement it wedged on.
    fn quarantine(&mut self, vp: VpId) {
        let rec = recorder();
        if let Some(r) = self.residents.get_mut(&vp) {
            r.quarantined = true;
        }
        self.stats.quarantined += 1;
        rec.count("liveness.quarantined", 1);
        let current = self.session.device_of(vp);
        bus::publish(&ObsEvent::Incident(Incident {
            kind: IncidentKind::VpHung { vp: vp.0 },
            wall_s: rec.wall_now_s(),
            detail: format!(
                "VP {} stopped progressing for {} flushed windows on s{}/gpu{}; \
                 quarantined out of the sync quorum",
                vp.0,
                self.policy.hang_windows,
                self.id,
                current.map_or(-1i64, |d| d as i64),
            ),
        }));
        let Some(current) = current else { return };
        let free = &self.device_free_s;
        let target = (0..self.session.device_count())
            .filter(|&d| d != current && self.session.is_healthy(d))
            .min_by(|&a, &b| {
                free[a].partial_cmp(&free[b]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
            });
        if let Some(target) = target {
            self.relocate(vp, target);
            rec.count("liveness.quarantine_failovers", 1);
        }
    }

    /// [`Shard::execute`], journaling when `journal`.
    fn run(&mut self, job: &ShardJob, journal: bool) -> ResponseEnvelope {
        let rec = recorder();
        let envelope = &job.envelope;
        let vp = envelope.vp;
        let sent_at_s = envelope.sent_at_s;
        let mut device = self.session.device_of(vp).expect("admitted vp has a device");
        // Safety net behind the rebalance pass: if the device went down after
        // planning, fail over now — or degrade to an error with no survivor.
        if self.is_down(device, sent_at_s) {
            self.mark_down(device);
            let survivor = (0..self.session.device_count())
                .find(|&d| d != device && !self.is_down(d, sent_at_s));
            let Some(target) = survivor else {
                rec.count("fault.no_survivor", 1);
                return error_reply(
                    envelope,
                    format!("no surviving host gpu: device {device} is down"),
                );
            };
            self.fail_over(vp, target);
            device = target;
        }
        // Transient device-error injection: the plan marks attempted
        // operation indexes per device; an injected failure feeds the breaker
        // and the guest's retry re-executes.
        let op = self.op_count[device];
        self.op_count[device] += 1;
        if self.faults.as_ref().is_some_and(|p| p.transient_at(device, op)) {
            rec.count("fault.injected.transient", 1);
            if self.breakers[device].record_failure() {
                self.mark_down(device);
            }
            return error_reply(
                envelope,
                format!("{TRANSIENT_ERROR_PREFIX} injected device fault"),
            );
        }
        self.breakers[device].record_success();
        // A moved VP keeps its original guest handle space; translate through
        // the map its journal replay built.
        let resident = self.residents.entry(vp).or_default();
        let exec_body = match &resident.map {
            Some(map) => match map.translate(&envelope.body) {
                Ok(body) => body,
                Err(handle) => {
                    return error_reply(envelope, format!("handle {handle} was lost in failover"))
                }
            },
            None => envelope.body.clone(),
        };
        let exec_envelope = Envelope {
            vp,
            seq: envelope.seq,
            sent_at_s,
            deadline_s: envelope.deadline_s,
            body: exec_body,
        };
        let runtime = self.session.runtime(device);
        let exec_started_wall_s = rec.wall_now_s();
        let exec_started = Instant::now();
        let mut rt = runtime.lock();
        let mut response = rt.process(&exec_envelope);
        if let Some(map) = resident.map.as_mut() {
            // Keep the guest's handle space stable across moves: new device
            // handles get virtual guest-side names, frees drop their mapping.
            match (&envelope.body, &mut response.body) {
                (Request::Malloc { .. }, Response::Malloc { handle }) => {
                    *handle = map.virtualize(*handle);
                }
                (Request::Free { handle: guest }, Response::Done) => map.remove(*guest),
                _ => {}
            }
        }
        if rec.enabled() {
            let uid = job_uid(vp.0, envelope.seq);
            let name = span_name(&job.job);
            rec.span_for_job(
                TimeDomain::Wall,
                Lane::Dispatcher,
                name.clone(),
                exec_started_wall_s,
                exec_started.elapsed().as_secs_f64(),
                uid,
            );
            // Queue wait: host-side arrival to execution start.
            rec.span_for_job(
                TimeDomain::Wall,
                Lane::JobQueue,
                name,
                job.arrived_wall_s,
                (exec_started_wall_s - job.arrived_wall_s).max(0.0),
                uid,
            );
            rec.observe_s(
                &format!("dispatch.vp{}.latency_s", vp.0),
                (rec.wall_now_s() - job.arrived_wall_s).max(0.0),
            );
        }
        // Journal successful mutating requests (guest handle space) so a
        // later relocation can reconstruct device state.
        if journal {
            resident.journal.record(envelope.seq, &envelope.body, &response.body);
        }
        // Feed the profiler observation back into the expected-time table,
        // and publish it for any live profile store. Guard on (vp, seq): a
        // non-device request leaves an older job as `last()`.
        if let Some(record) = rt.records().last() {
            if record.vp == vp && record.seq == envelope.seq {
                crate::host::publish_record(self.session.arch(device), record);
                if let RecordKind::Kernel { name, .. } = &record.kind {
                    match self.expected_kernel_s.get_mut(name) {
                        Some(t) => *t = record.duration_s,
                        None => {
                            self.expected_kernel_s.insert(name.clone(), record.duration_s);
                        }
                    }
                }
            }
        }
        response
    }

    /// Plan, execute and price one device's slice of a flushed window,
    /// appending each member's charged response and completion time.
    fn flush_device(
        &mut self,
        d: usize,
        members: Vec<&ShardJob>,
        completions: &mut Vec<(VpId, f64, ResponseEnvelope)>,
    ) {
        let rec = recorder();
        let arch = self.session.arch(d).clone();
        let coalescible = |vp: VpId| self.residents.get(&vp).is_some_and(|r| r.coalescible);
        // Local job ids index the device slice (the lowering contract:
        // `jobs[i].id == JobId(i)` into `records`).
        let local_jobs: Vec<Job> = members
            .iter()
            .enumerate()
            .map(|(i, h)| Job { id: JobId(i as u64), ..h.job.clone() })
            .collect();
        let mut records: Vec<JobRecord> = members.iter().map(|h| synth_record(h, &arch)).collect();
        let planned = {
            let evaluator = EngineEvaluator::new(&arch, &records);
            let lanes = |block_dim: u32| arch.blocks_per_wave(block_dim);
            let ctx = PassCtx::new(&coalescible)
                .with_evaluator(&evaluator)
                .with_wave_lanes(&lanes)
                .with_live_sync(true);
            self.pipeline.plan(local_jobs.clone(), &ctx)
        };

        // Execute every member functionally (coalescing is a *timing* merge;
        // each member still runs on its own buffers), in planned order.
        let mut responses: Vec<(u64, ResponseEnvelope)> = Vec::with_capacity(planned.jobs.len());
        for job in &planned.jobs {
            let response = self.run(members[job.id.0 as usize], true);
            // Real observed durations re-price the window below.
            if let Response::Launched { device_time_s } = &response.body {
                records[job.id.0 as usize].duration_s = *device_time_s;
            }
            responses.push((job.id.0, response));
        }

        // Price the executed window (Eq. 7): the live merged plan against the
        // reorder-only plan of the very same jobs — the async baseline.
        let live_tl = simulate(&arch, &lower_jobs(&planned.jobs, &records, &planned.groups, &arch));
        let reorder = self.pipeline.plan(local_jobs, &PassCtx::reorder_only());
        let reorder_tl = simulate(&arch, &lower_jobs(&reorder.jobs, &records, &[], &arch));
        self.stats.sync_makespan_s += live_tl.makespan_s;
        self.stats.sync_reorder_makespan_s += reorder_tl.makespan_s;
        self.stats.live_groups += planned.groups.len() as u64;
        self.stats.live_members += planned.merged_members() as u64;
        rec.observe_s("dispatch.sync.makespan_s", live_tl.makespan_s);
        rec.observe_s("dispatch.sync.reorder_makespan_s", reorder_tl.makespan_s);
        if !planned.groups.is_empty() {
            rec.count("dispatch.sync.live_groups", planned.groups.len() as u64);
            rec.count("dispatch.sync.live_members", planned.merged_members() as u64);
        }
        // Eq. 9 accounting per surviving kernel group: slots = λ-aligned
        // block quanta of the merged grid, filled = blocks actually launched.
        let mut anchor_of: HashMap<u64, u64> = HashMap::new();
        for group in &planned.groups {
            for member in &group.dropped {
                anchor_of.insert(member.0, group.anchor.0);
            }
            let geometry: Vec<(u32, u32)> = group
                .member_ids()
                .filter_map(|id| match &members[id.0 as usize].job.kind {
                    JobKind::Kernel { grid_dim, block_dim, .. } => Some((*grid_dim, *block_dim)),
                    _ => None,
                })
                .collect();
            if let Some(&(_, block_dim)) = geometry.first() {
                let total_grid: u64 = geometry.iter().map(|&(g, _)| u64::from(g)).sum();
                let bpw = u64::from(arch.blocks_per_wave(block_dim));
                self.stats.wave_slots += total_grid.div_ceil(bpw).max(1) * bpw;
                self.stats.wave_filled += total_grid;
            }
        }

        // Per-VP completion on the shared simulated timeline: the window
        // opens when its last request was stamped (and no earlier than the
        // device's previous window draining); members complete at their op's
        // end — a coalesced-away member at its anchor's.
        let base =
            members.iter().map(|h| h.envelope.sent_at_s).fold(self.device_free_s[d], f64::max);
        for (local_id, mut response) in responses {
            let op = anchor_of.get(&local_id).copied().unwrap_or(local_id);
            let end = live_tl.span(op).map_or(live_tl.makespan_s, |s| s.end_s);
            let h = members[local_id as usize];
            let abs_end = base + end;
            if let Response::Launched { device_time_s } = &mut response.body {
                // Charge the guest its observed completion: queueing behind
                // the window plus its (possibly merged) execution.
                let charge = (abs_end - h.envelope.sent_at_s).max(0.0);
                *device_time_s = charge.max(*device_time_s);
            }
            completions.push((h.job.vp, abs_end, response));
        }
        self.device_free_s[d] = base + live_tl.makespan_s;
    }
}

/// An error reply to `envelope`.
pub(crate) fn error_reply(envelope: &Envelope, message: String) -> ResponseEnvelope {
    ResponseEnvelope {
        vp: envelope.vp,
        seq: envelope.seq,
        sent_at_s: envelope.sent_at_s,
        body: Response::Error { message },
    }
}

/// Trace-span name for a dispatched job.
fn span_name(job: &Job) -> String {
    match &job.kind {
        JobKind::CopyIn { bytes } => format!("h2d {bytes}B (VP {})", job.vp.0),
        JobKind::CopyOut { bytes } => format!("d2h {bytes}B (VP {})", job.vp.0),
        JobKind::Kernel { name, .. } => format!("{name} (VP {})", job.vp.0),
    }
}

/// Synthetic [`JobRecord`] for a held (not yet executed) job, so the live
/// window can be planned with the same engine-model oracle as offline logs.
/// Expected durations stand in for observed ones.
fn synth_record(h: &ShardJob, arch: &GpuArch) -> JobRecord {
    let kind = match &h.job.kind {
        JobKind::CopyIn { bytes } => RecordKind::H2d { bytes: *bytes, stream: 0 },
        JobKind::CopyOut { bytes } => RecordKind::D2h { bytes: *bytes, stream: 0 },
        JobKind::Kernel { name, grid_dim, block_dim } => {
            let bpw = u64::from(arch.blocks_per_wave(*block_dim));
            RecordKind::Kernel {
                name: name.clone(),
                grid_dim: *grid_dim,
                block_dim: *block_dim,
                launch_overhead_s: arch.launch_overhead_us * 1e-6,
                waves: u64::from(*grid_dim).div_ceil(bpw).max(1),
                stream: 0,
            }
        }
    };
    JobRecord {
        vp: h.job.vp,
        seq: h.job.seq,
        kind,
        duration_s: h.job.expected_duration_s,
        sent_at_s: h.envelope.sent_at_s,
    }
}
