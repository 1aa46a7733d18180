//! A transport decorator that applies a [`LinkFaults`] stream to every sent
//! frame.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use sigmavp_ipc::error::IpcError;
use sigmavp_ipc::transport::{Transport, TransportCost};
use sigmavp_telemetry::recorder;

use crate::plan::{LinkFault, LinkFaults};

struct FaultState {
    link: LinkFaults,
    /// Frames held back by injected delays, with their release times.
    delayed: Vec<(Instant, Bytes)>,
    /// Notices this endpoint has consumed from the shared [`DropNotice`].
    consumed: u64,
}

/// Shared between the two [`FaultyTransport`] ends of one guest-host link.
///
/// Counts injected faults that killed the round trip in flight: a dropped
/// request, a dropped response, or a corrupted request the receiver will
/// discard. The waiting end's `recv_deadline` consumes one notice per wait and
/// times out *immediately*, which makes injected timeouts simulated-time
/// events — the guest is charged its configured timeout in simulated seconds,
/// but never actually waits it out in wall time. Without this, a timeout would
/// be a wall-clock race: on a loaded machine a slow host looks identical to a
/// dropped frame, and fault counters stop being reproducible.
#[derive(Default)]
pub struct DropNotice {
    raised: AtomicU64,
}

impl DropNotice {
    /// A fresh notice board shared by both ends of a link.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn raise(&self) {
        self.raised.fetch_add(1, Ordering::Release);
    }

    fn raised(&self) -> u64 {
        self.raised.load(Ordering::Acquire)
    }
}

/// Wraps any [`Transport`] and injects the link faults its stream dictates:
/// drops (frame vanishes), corruption (frame truncated so decoding fails on
/// the receiving side), and delays (frame held back, released on a later
/// send/recv on this endpoint).
///
/// Only the *sending* half is decorated — a bidirectional link gets one
/// `FaultyTransport` per endpoint, each with its own direction's fault stream,
/// so the k-th frame in either direction has a scheduling-independent fate.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    state: Mutex<FaultState>,
    notice: Option<Arc<DropNotice>>,
    /// Whether this end's *corrupted* frames also raise the notice: true on
    /// the guest end (the host discards an undecodable request, so the round
    /// trip is dead), false on the host end (the guest sees the corrupt
    /// response and retries without waiting for a timeout).
    raise_on_corrupt: bool,
}

impl<T: Transport> FaultyTransport<T> {
    /// Decorate `inner` with the given fault stream.
    pub fn new(inner: T, link: LinkFaults) -> Self {
        FaultyTransport {
            inner,
            state: Mutex::new(FaultState { link, delayed: Vec::new(), consumed: 0 }),
            notice: None,
            raise_on_corrupt: false,
        }
    }

    /// Attach the link's shared [`DropNotice`]. Faults injected by this end
    /// that kill the round trip in flight raise it; this end's `recv_deadline`
    /// consumes notices (raised by either end) as immediate timeouts.
    pub fn with_notice(mut self, notice: Arc<DropNotice>, raise_on_corrupt: bool) -> Self {
        self.notice = Some(notice);
        self.raise_on_corrupt = raise_on_corrupt;
        self
    }

    /// Release every held frame whose delay has elapsed. Send errors are
    /// ignored: a frame for a departed peer is indistinguishable from a drop.
    fn flush_due(&self) {
        let now = Instant::now();
        let mut state = self.state.lock();
        let mut i = 0;
        while i < state.delayed.len() {
            if state.delayed[i].0 <= now {
                let (_, frame) = state.delayed.remove(i);
                let _ = self.inner.send(frame);
            } else {
                i += 1;
            }
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&self, frame: Bytes) -> Result<f64, IpcError> {
        self.flush_due();
        let fault = self.state.lock().link.decide();
        let bytes = frame.len() as u64;
        match fault {
            Some(LinkFault::Drop) => {
                recorder().count("fault.injected.drops", 1);
                if let Some(notice) = &self.notice {
                    notice.raise();
                }
                // The sender still pays the modeled wire cost; the frame is gone.
                Ok(self.inner.cost().delay_for(bytes))
            }
            Some(LinkFault::Corrupt) => {
                recorder().count("fault.injected.corrupt", 1);
                if self.raise_on_corrupt {
                    if let Some(notice) = &self.notice {
                        notice.raise();
                    }
                }
                // Truncation guarantees the length-prefix check fails on decode;
                // a bit-flip could silently alter payload bytes instead.
                let truncated = Bytes::copy_from_slice(&frame[..frame.len() / 2]);
                self.inner.send(truncated)?;
                Ok(self.inner.cost().delay_for(bytes))
            }
            Some(LinkFault::Delay(d)) => {
                recorder().count("fault.injected.delays", 1);
                let release = Instant::now() + Duration::from_secs_f64(d);
                self.state.lock().delayed.push((release, frame));
                Ok(self.inner.cost().delay_for(bytes) + d)
            }
            None => self.inner.send(frame),
        }
    }

    fn try_recv(&self) -> Result<Option<Bytes>, IpcError> {
        self.flush_due();
        self.inner.try_recv()
    }

    /// Polls, unlike the inner transport's blocking wait: a raised
    /// [`DropNotice`] and this end's own due delayed frames wake no channel.
    fn recv_deadline(&self, deadline: Instant) -> Result<Option<Bytes>, IpcError> {
        loop {
            self.flush_due();
            if let Some(frame) = self.inner.try_recv()? {
                return Ok(Some(frame));
            }
            if let Some(notice) = &self.notice {
                let mut state = self.state.lock();
                if notice.raised() > state.consumed {
                    // A frame of this round trip was injected away; the reply
                    // will never come. Time out now — the caller charges the
                    // configured timeout in *simulated* time, so the outcome
                    // is identical on an idle and a saturated machine.
                    state.consumed += 1;
                    return Ok(None);
                }
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    fn cost(&self) -> TransportCost {
        self.inner.cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultPlan, LinkDirection, LinkFaultConfig};
    use sigmavp_ipc::message::VpId;
    use sigmavp_ipc::transport::{pair, Doorbell};

    /// Far enough that no passing test ever reaches it.
    fn far() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }

    fn faulty(
        cfg: LinkFaultConfig,
    ) -> (
        FaultyTransport<sigmavp_ipc::transport::ChannelTransport>,
        sigmavp_ipc::transport::ChannelTransport,
    ) {
        let plan = FaultPlan::seeded(3).with_link(cfg);
        let (a, b) = pair(TransportCost::shared_memory(), &Doorbell::new());
        (FaultyTransport::new(a, plan.link_faults(VpId(0), LinkDirection::GuestToHost)), b)
    }

    #[test]
    fn always_drop_never_delivers() {
        let (tx, rx) = faulty(LinkFaultConfig {
            drop_prob: 1.0,
            corrupt_prob: 0.0,
            delay_prob: 0.0,
            delay_s: 0.0,
        });
        for _ in 0..10 {
            tx.send(Bytes::from_static(b"payload")).unwrap();
        }
        assert_eq!(rx.try_recv().unwrap(), None);
    }

    #[test]
    fn corrupt_truncates_frames() {
        let (tx, rx) = faulty(LinkFaultConfig {
            drop_prob: 0.0,
            corrupt_prob: 1.0,
            delay_prob: 0.0,
            delay_s: 0.0,
        });
        tx.send(Bytes::from_static(b"0123456789")).unwrap();
        let got = rx.recv_deadline(far()).unwrap().expect("corrupt frame delivered");
        assert_eq!(got.len(), 5, "frame truncated to half its length");
    }

    #[test]
    fn delayed_frames_arrive_late_but_intact() {
        let (tx, rx) = faulty(LinkFaultConfig {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            delay_prob: 1.0,
            delay_s: 3e-3,
        });
        let before = Instant::now();
        tx.send(Bytes::from_static(b"slow")).unwrap();
        assert_eq!(rx.try_recv().unwrap(), None, "held back initially");
        // A later operation on the faulty endpoint releases due frames.
        loop {
            tx.try_recv().unwrap();
            if let Some(frame) = rx.try_recv().unwrap() {
                assert_eq!(frame, Bytes::from_static(b"slow"));
                break;
            }
            assert!(before.elapsed() < Duration::from_secs(2), "delayed frame never arrived");
            std::thread::sleep(Duration::from_micros(100));
        }
        assert!(before.elapsed() >= Duration::from_millis(3));
    }

    #[test]
    fn clean_link_passes_everything_through() {
        let (tx, rx) = faulty(LinkFaultConfig::none());
        for i in 0..20u8 {
            tx.send(Bytes::from(vec![i; 4])).unwrap();
        }
        for i in 0..20u8 {
            assert_eq!(rx.recv_deadline(far()).unwrap(), Some(Bytes::from(vec![i; 4])));
        }
    }

    #[test]
    fn recv_deadline_releases_own_delayed_frames() {
        // Loop the faulty endpoint back to itself conceptually: endpoint A delays
        // its sends; its own recv_deadline polling must still flush them to B.
        let (tx, rx) = faulty(LinkFaultConfig {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            delay_prob: 1.0,
            delay_s: 1e-3,
        });
        tx.send(Bytes::from_static(b"x")).unwrap();
        // Poll on the faulty side long enough for the flush to trigger.
        let deadline = Instant::now() + Duration::from_millis(20);
        let _ = tx.recv_deadline(deadline);
        assert!(rx.try_recv().unwrap().is_some(), "flush released the delayed frame");
    }
}
