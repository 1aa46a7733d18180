//! Guest-side stop/resume gate: the VP half of the Fig. 4b protocol.
//!
//! The host's re-scheduler stops a VP through [`VpControl`] while it holds the
//! VP's synchronous request in a cross-VP window; the VP thread must *tolerate*
//! the deferred reply and park itself at its next scheduling point instead of
//! treating the silence as a fault. [`VpGate`] packages that discipline: a VP
//! service calls [`VpGate::pause_point`] wherever it is safe to be descheduled
//! (before issuing a request, and while waiting out a quiet link), and the call
//! blocks exactly while the host holds a stop on this VP.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sigmavp_ipc::control::VpControl;
use sigmavp_ipc::message::VpId;

/// A VP thread's handle onto the shared stop/resume switchboard.
///
/// Cloned freely; all clones share the park counter.
#[derive(Debug, Clone)]
pub struct VpGate {
    control: Arc<VpControl>,
    vp: VpId,
    parks: Arc<AtomicU64>,
}

impl VpGate {
    /// A gate for `vp` over the shared control block.
    pub fn new(control: Arc<VpControl>, vp: VpId) -> Self {
        VpGate { control, vp, parks: Arc::new(AtomicU64::new(0)) }
    }

    /// The VP this gate belongs to.
    pub fn vp(&self) -> VpId {
        self.vp
    }

    /// Whether the host currently holds a stop on this VP.
    pub fn is_stopped(&self) -> bool {
        self.control.is_stopped(self.vp)
    }

    /// A scheduling point: block while the host holds a stop on this VP,
    /// return immediately otherwise. Returns `true` iff the thread actually
    /// parked (useful for telemetry and tests).
    pub fn pause_point(&self) -> bool {
        if !self.control.is_stopped(self.vp) {
            return false;
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        self.control.wait_while_stopped(self.vp);
        true
    }

    /// How many times this VP actually parked at a [`VpGate::pause_point`].
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pause_point_is_free_while_running() {
        let gate = VpGate::new(Arc::new(VpControl::new()), VpId(0));
        assert!(!gate.pause_point());
        assert_eq!(gate.parks(), 0);
        assert!(!gate.is_stopped());
    }

    #[test]
    fn pause_point_parks_until_resume() {
        let control = Arc::new(VpControl::new());
        let gate = VpGate::new(control.clone(), VpId(1));
        control.stop(VpId(1));
        assert!(gate.is_stopped());
        let g2 = gate.clone();
        let handle = std::thread::spawn(move || g2.pause_point());
        std::thread::sleep(Duration::from_millis(20));
        assert!(!handle.is_finished(), "gate must park while stopped");
        control.resume(VpId(1));
        assert!(handle.join().unwrap(), "a real park reports true");
        assert_eq!(gate.parks(), 1, "clones share the park counter");
    }

    #[test]
    fn gates_are_per_vp() {
        let control = Arc::new(VpControl::new());
        let a = VpGate::new(control.clone(), VpId(0));
        let b = VpGate::new(control.clone(), VpId(1));
        control.stop(VpId(0));
        assert!(a.is_stopped());
        assert!(!b.pause_point(), "other VP passes straight through");
        control.resume(VpId(0));
        assert!(!a.pause_point(), "resumed before the scheduling point: no park");
    }
}
