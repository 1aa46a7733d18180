//! The Job Queue: the host-side buffer of pending GPU jobs from all VPs.
//!
//! The re-scheduler (in `sigmavp-sched`) reorders the queue's *asynchronous* jobs to
//! interleave copy- and compute-engine work, and merges identical kernel jobs for
//! coalescing — but it must "keep a partial order in the original VP" (paper,
//! Section 2): jobs from the same VP may never be reordered relative to each other.
//! [`preserves_partial_order`] checks exactly that property and is used both by the
//! scheduler's unit tests and by its property-based tests.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use parking_lot::Mutex;
use sigmavp_telemetry::{Lane, TimeDomain};

use crate::message::VpId;

/// Unique identifier of a queued job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// What a job asks the device to do.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Host-to-device transfer of `bytes`.
    CopyIn {
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// Device-to-host transfer of `bytes`.
    CopyOut {
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// A kernel launch.
    Kernel {
        /// Kernel name (the coalescer matches on this plus the shape).
        name: String,
        /// Grid dimension in blocks.
        grid_dim: u32,
        /// Block dimension in threads.
        block_dim: u32,
    },
}

/// A queued GPU job.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Queue-assigned unique id.
    pub id: JobId,
    /// Originating VP.
    pub vp: VpId,
    /// The VP's request sequence number; defines the per-VP partial order.
    pub seq: u64,
    /// The work.
    pub kind: JobKind,
    /// Whether the VP invoked this synchronously (blocking).
    pub sync: bool,
    /// Simulated enqueue timestamp in seconds.
    pub enqueued_at_s: f64,
    /// Expected execution time in seconds; the interleaving re-scheduler uses this
    /// ("by using the expected time for each invocation", paper Section 3).
    pub expected_duration_s: f64,
}

/// Queue state behind the mutex. The wall-clock enqueue instants live here
/// (keyed by job id) rather than on [`Job`] itself so the queue — not its
/// callers — owns the wait-time accounting across push/pop/drain/replace.
#[derive(Debug, Default)]
struct QueueInner {
    deque: VecDeque<Job>,
    enqueued_wall: HashMap<JobId, Instant>,
}

/// Thread-safe FIFO job queue with bulk drain/replace for rescheduling.
///
/// When a telemetry collector is installed the queue reports
/// `jobs.enqueued`/`jobs.dequeued` counters, a `queue.depth` gauge (plus a
/// wall-clock counter track on the job-queue lane), and a `queue.wait_s`
/// histogram of how long each job sat pending before leaving (popped or
/// drained).
#[derive(Debug, Default)]
pub struct JobQueue {
    inner: Mutex<QueueInner>,
}

fn record_depth(depth: usize) {
    let r = sigmavp_telemetry::recorder();
    if r.enabled() {
        r.gauge_set("queue.depth", depth as f64);
        r.counter_event(
            TimeDomain::Wall,
            Lane::JobQueue,
            "queue depth",
            r.wall_now_s(),
            depth as f64,
        );
    }
}

impl JobQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a job.
    pub fn push(&self, job: Job) {
        let depth = {
            let mut q = self.inner.lock();
            q.enqueued_wall.insert(job.id, Instant::now());
            q.deque.push_back(job);
            q.deque.len()
        };
        sigmavp_telemetry::recorder().count("jobs.enqueued", 1);
        record_depth(depth);
    }

    /// Remove and return the frontmost job.
    pub fn pop(&self) -> Option<Job> {
        let (job, waited, depth) = {
            let mut q = self.inner.lock();
            let job = q.deque.pop_front()?;
            let waited = q.enqueued_wall.remove(&job.id).map(|t| t.elapsed());
            (job, waited, q.deque.len())
        };
        let r = sigmavp_telemetry::recorder();
        if r.enabled() {
            r.count("jobs.dequeued", 1);
            if let Some(waited) = waited {
                r.observe_s("queue.wait_s", waited.as_secs_f64());
            }
            record_depth(depth);
        }
        Some(job)
    }

    /// Number of pending jobs.
    pub fn len(&self) -> usize {
        self.inner.lock().deque.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().deque.is_empty()
    }

    /// Remove and return all pending jobs in order — either to execute them
    /// (the dispatcher's window) or to reorder and
    /// [`replace`](JobQueue::replace) them. Each drained job's queue wait is
    /// recorded here; a job that re-enters via `replace` starts a fresh wait
    /// segment (its total residency is the sum of its recorded segments).
    pub fn drain_all(&self) -> Vec<Job> {
        let (jobs, waits) = {
            let mut q = self.inner.lock();
            let jobs: Vec<Job> = q.deque.drain(..).collect();
            let waits: Vec<_> = jobs
                .iter()
                .filter_map(|j| q.enqueued_wall.remove(&j.id).map(|t| t.elapsed()))
                .collect();
            (jobs, waits)
        };
        let r = sigmavp_telemetry::recorder();
        if r.enabled() && !jobs.is_empty() {
            r.count("jobs.dequeued", jobs.len() as u64);
            for waited in waits {
                r.observe_s("queue.wait_s", waited.as_secs_f64());
            }
            record_depth(0);
        }
        jobs
    }

    /// Install a new pending-job order (after rescheduling).
    ///
    /// # Panics
    ///
    /// Panics if the queue is not empty — `replace` must only follow a
    /// [`drain_all`](JobQueue::drain_all) with no concurrent producers, otherwise
    /// jobs would be silently dropped or duplicated.
    pub fn replace(&self, jobs: Vec<Job>) {
        let mut q = self.inner.lock();
        assert!(q.deque.is_empty(), "replace on a non-empty queue would lose jobs");
        // Every replaced job (drained-and-reordered or injected by coalescing)
        // starts a fresh wait segment; drain_all already closed the old ones.
        let now = Instant::now();
        for job in &jobs {
            q.enqueued_wall.entry(job.id).or_insert(now);
        }
        q.deque.extend(jobs);
        let live: std::collections::HashSet<JobId> = q.deque.iter().map(|j| j.id).collect();
        q.enqueued_wall.retain(|id, _| live.contains(id));
    }

    /// A copy of the pending jobs, front first, without removing them.
    pub fn snapshot(&self) -> Vec<Job> {
        self.inner.lock().deque.iter().cloned().collect()
    }
}

/// Check that `reordered` is a permutation of `original` that preserves the relative
/// order of jobs within each VP (the re-scheduler's correctness contract).
pub fn preserves_partial_order(original: &[Job], reordered: &[Job]) -> bool {
    if original.len() != reordered.len() {
        return false;
    }
    // Same multiset of job ids.
    let mut orig_ids: Vec<JobId> = original.iter().map(|j| j.id).collect();
    let mut reord_ids: Vec<JobId> = reordered.iter().map(|j| j.id).collect();
    orig_ids.sort_unstable();
    reord_ids.sort_unstable();
    if orig_ids != reord_ids {
        return false;
    }
    // Per-VP sequences must appear in the same relative order.
    let mut per_vp_original: HashMap<VpId, Vec<JobId>> = HashMap::new();
    for j in original {
        per_vp_original.entry(j.vp).or_default().push(j.id);
    }
    let mut per_vp_reordered: HashMap<VpId, Vec<JobId>> = HashMap::new();
    for j in reordered {
        per_vp_reordered.entry(j.vp).or_default().push(j.id);
    }
    per_vp_original == per_vp_reordered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, vp: u32, seq: u64) -> Job {
        Job {
            id: JobId(id),
            vp: VpId(vp),
            seq,
            kind: JobKind::CopyIn { bytes: 64 },
            sync: false,
            enqueued_at_s: 0.0,
            expected_duration_s: 1e-3,
        }
    }

    #[test]
    fn fifo_order() {
        let q = JobQueue::new();
        let a = job(0, 0, 0);
        let b = job(1, 0, 1);
        q.push(a.clone());
        q.push(b.clone());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().id, a.id);
        assert_eq!(q.pop().unwrap().id, b.id);
        assert!(q.pop().is_none());
    }

    #[test]
    fn drain_and_replace() {
        let q = JobQueue::new();
        let a = job(0, 0, 0);
        let b = job(1, 1, 0);
        q.push(a.clone());
        q.push(b.clone());
        let mut jobs = q.drain_all();
        assert!(q.is_empty());
        jobs.reverse();
        q.replace(jobs);
        assert_eq!(q.pop().unwrap().id, b.id);
    }

    #[test]
    #[should_panic(expected = "non-empty queue")]
    fn replace_on_nonempty_queue_panics() {
        let q = JobQueue::new();
        q.push(job(0, 0, 0));
        q.replace(vec![]);
    }

    #[test]
    fn partial_order_accepts_cross_vp_interleaving() {
        let a0 = job(0, 0, 0);
        let a1 = job(1, 0, 1);
        let b0 = job(2, 1, 0);
        let b1 = job(3, 1, 1);
        let original = vec![a0.clone(), a1.clone(), b0.clone(), b1.clone()];
        let interleaved = vec![a0.clone(), b0.clone(), a1.clone(), b1.clone()];
        assert!(preserves_partial_order(&original, &interleaved));
    }

    #[test]
    fn partial_order_rejects_within_vp_swap() {
        let a0 = job(0, 0, 0);
        let a1 = job(1, 0, 1);
        let swapped = vec![a1.clone(), a0.clone()];
        assert!(!preserves_partial_order(&[a0, a1], &swapped));
    }

    #[test]
    fn partial_order_rejects_dropped_or_added_jobs() {
        let a0 = job(0, 0, 0);
        let a1 = job(1, 0, 1);
        assert!(!preserves_partial_order(&[a0.clone(), a1.clone()], std::slice::from_ref(&a0)));
        let alien = job(2, 0, 2);
        assert!(!preserves_partial_order(&[a0.clone(), a1], &[a0, alien]));
    }

    #[test]
    fn queue_is_usable_from_threads() {
        let q = std::sync::Arc::new(JobQueue::new());
        let producers: Vec<_> = (0..4u32)
            .map(|vp| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for seq in 0..100u64 {
                        let j = Job {
                            id: JobId(vp as u64 * 100 + seq),
                            vp: VpId(vp),
                            seq,
                            kind: JobKind::CopyOut { bytes: 1 },
                            sync: false,
                            enqueued_at_s: 0.0,
                            expected_duration_s: 0.0,
                        };
                        q.push(j);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(q.len(), 400);
        // Ids must be unique.
        let mut ids: Vec<_> = q.snapshot().iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }
}
