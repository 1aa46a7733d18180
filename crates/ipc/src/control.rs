//! VP control: stopping and resuming virtual platforms.
//!
//! Synchronous kernel invocations block their VP, so the only way to interleave them
//! across VPs is to "stop one for some time to let another one run" (paper, Fig.
//! 4b). [`VpControl`] is the host-side switchboard: the re-scheduler calls
//! [`VpControl::stop`]/[`VpControl::resume`], and a VP executing as a real thread
//! parks itself in [`VpControl::wait_while_stopped`] at its next scheduling point.
//!
//! For deterministic single-threaded orchestration the same flags are queried with
//! [`VpControl::is_stopped`] and the stop/resume *event counts* feed the simulated
//! clock (each control action costs one IPC round trip).

use std::collections::HashMap;

use parking_lot::{Condvar, Mutex};

use crate::message::VpId;

#[derive(Debug, Default)]
struct ControlState {
    /// Stop *depth* per VP: 0 = running. Independent holders (the sync-window
    /// dispatcher, a failover path, a test harness) may each stop the same VP;
    /// it runs again only once every stop has been matched by a resume.
    depth: HashMap<VpId, u32>,
    stop_events: u64,
    resume_events: u64,
}

/// Host-side stop/resume control over a set of VPs.
#[derive(Debug, Default)]
pub struct VpControl {
    state: Mutex<ControlState>,
    cv: Condvar,
}

impl VpControl {
    /// A control block with no VPs stopped.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stop a VP: it will park at its next `wait_while_stopped` call. Stops
    /// nest — each call increments the VP's stop depth — but only the 0→1 edge
    /// records a stop *event* (one IPC round trip); deepening an existing stop
    /// is free.
    pub fn stop(&self, vp: VpId) {
        let mut s = self.state.lock();
        let depth = s.depth.entry(vp).or_insert(0);
        *depth += 1;
        if *depth == 1 {
            s.stop_events += 1;
        }
    }

    /// Resume a VP: decrement its stop depth, waking any thread parked in
    /// `wait_while_stopped` once the depth reaches zero. Only the 1→0 edge
    /// records a resume event; resuming a running VP is a no-op.
    pub fn resume(&self, vp: VpId) {
        let mut s = self.state.lock();
        let depth = s.depth.entry(vp).or_insert(0);
        if *depth > 0 {
            *depth -= 1;
            if *depth == 0 {
                s.resume_events += 1;
                self.cv.notify_all();
            }
        }
    }

    /// Whether a VP is currently stopped (depth > 0).
    pub fn is_stopped(&self, vp: VpId) -> bool {
        self.depth(vp) > 0
    }

    /// Current stop depth of a VP (0 = running).
    pub fn depth(&self, vp: VpId) -> u32 {
        self.state.lock().depth.get(&vp).copied().unwrap_or(0)
    }

    /// Total stop events issued so far (for IPC-overhead accounting).
    pub fn stop_events(&self) -> u64 {
        self.state.lock().stop_events
    }

    /// Total resume events issued so far.
    pub fn resume_events(&self) -> u64 {
        self.state.lock().resume_events
    }

    /// Block the calling thread while `vp` is stopped. Returns immediately if it is
    /// running. This is the VP-thread side of the protocol.
    pub fn wait_while_stopped(&self, vp: VpId) {
        let mut s = self.state.lock();
        while s.depth.get(&vp).copied().unwrap_or(0) > 0 {
            self.cv.wait(&mut s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn stop_resume_flags() {
        let c = VpControl::new();
        let vp = VpId(0);
        assert!(!c.is_stopped(vp));
        c.stop(vp);
        assert!(c.is_stopped(vp));
        c.resume(vp);
        assert!(!c.is_stopped(vp));
    }

    #[test]
    fn duplicate_stops_count_once() {
        let c = VpControl::new();
        c.stop(VpId(1));
        c.stop(VpId(1));
        assert_eq!(c.stop_events(), 1);
        c.resume(VpId(1));
        c.resume(VpId(1));
        assert_eq!(c.resume_events(), 1);
    }

    #[test]
    fn resume_of_running_vp_is_noop() {
        let c = VpControl::new();
        c.resume(VpId(2));
        assert_eq!(c.resume_events(), 0);
    }

    #[test]
    fn wait_returns_immediately_when_running() {
        let c = VpControl::new();
        c.wait_while_stopped(VpId(3)); // must not block
    }

    #[test]
    fn parked_thread_wakes_on_resume() {
        let c = Arc::new(VpControl::new());
        let vp = VpId(0);
        c.stop(vp);
        let c2 = c.clone();
        let handle = std::thread::spawn(move || {
            c2.wait_while_stopped(vp);
            true
        });
        // Give the thread time to park, then resume it.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!handle.is_finished(), "thread should be parked while stopped");
        c.resume(vp);
        assert!(handle.join().unwrap());
    }

    #[test]
    fn independent_vps_do_not_interfere() {
        let c = VpControl::new();
        c.stop(VpId(0));
        assert!(!c.is_stopped(VpId(1)));
        c.wait_while_stopped(VpId(1)); // other VP unaffected
    }

    #[test]
    fn nested_stops_require_matching_resumes() {
        let c = VpControl::new();
        let vp = VpId(4);
        c.stop(vp);
        c.stop(vp);
        assert_eq!(c.depth(vp), 2);
        assert_eq!(c.stop_events(), 1, "only the 0->1 edge is an event");
        c.resume(vp);
        assert!(c.is_stopped(vp), "one resume must not release a double stop");
        assert_eq!(c.resume_events(), 0);
        c.resume(vp);
        assert!(!c.is_stopped(vp));
        assert_eq!(c.resume_events(), 1, "only the 1->0 edge is an event");
    }

    #[test]
    fn resume_underflow_saturates() {
        let c = VpControl::new();
        let vp = VpId(5);
        c.resume(vp);
        c.resume(vp);
        assert_eq!(c.depth(vp), 0);
        assert_eq!(c.resume_events(), 0);
        // A later stop/resume pair still counts exactly one event each.
        c.stop(vp);
        c.resume(vp);
        assert_eq!(c.stop_events(), 1);
        assert_eq!(c.resume_events(), 1);
    }

    #[test]
    fn resume_before_park_lets_thread_pass() {
        // Stop, then resume *before* the VP thread ever reaches its scheduling
        // point: the thread must pass straight through, and the event counts
        // must show exactly one full stop/resume cycle.
        let c = Arc::new(VpControl::new());
        let vp = VpId(6);
        c.stop(vp);
        c.resume(vp);
        let c2 = c.clone();
        let handle = std::thread::spawn(move || {
            c2.wait_while_stopped(vp);
            true
        });
        assert!(handle.join().unwrap());
        assert_eq!(c.stop_events(), 1);
        assert_eq!(c.resume_events(), 1);
    }

    #[test]
    fn parked_thread_survives_redundant_resumes() {
        let c = Arc::new(VpControl::new());
        let vp = VpId(7);
        c.stop(vp);
        c.stop(vp);
        let c2 = c.clone();
        let handle = std::thread::spawn(move || {
            c2.wait_while_stopped(vp);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!handle.is_finished(), "depth 2: thread should be parked");
        c.resume(vp);
        std::thread::sleep(Duration::from_millis(20));
        assert!(!handle.is_finished(), "depth 1: thread should still be parked");
        c.resume(vp);
        handle.join().unwrap();
        assert_eq!(c.depth(vp), 0);
    }
}
