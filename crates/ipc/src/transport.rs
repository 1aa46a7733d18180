//! Transports between the virtual embedded GPU models and the host runtime.
//!
//! The paper's IPC manager supports "an IPC method such as socket or shared memory".
//! Both are provided here as in-process channel transports that differ only in their
//! *cost model*: a shared-memory segment costs ~2 µs per message with negligible
//! per-byte cost, while a local socket costs tens of microseconds plus a per-byte
//! copy cost. The modeled delay is returned from [`Transport::send`] so the
//! simulation clock can account for it; the ablation benches compare the two.
//!
//! Neither side waits on a timer. A guest blocks on its channel in
//! [`Transport::recv_deadline`]. The host sweeps all its endpoints with
//! [`Transport::try_recv`], so every guest endpoint rings the host's shared
//! [`Doorbell`] when it sends or hangs up, and the host sleeps on that between
//! sweeps.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::{Condvar, Mutex};

use crate::error::IpcError;

/// Latency model of a transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportCost {
    /// Fixed per-message latency in seconds.
    pub latency_s: f64,
    /// Additional cost per payload byte in seconds.
    pub per_byte_s: f64,
}

impl TransportCost {
    /// Shared-memory-segment-like cost: ~2 µs per message, essentially free bytes
    /// (the segment is mapped in both address spaces).
    pub fn shared_memory() -> Self {
        TransportCost { latency_s: 2.0e-6, per_byte_s: 0.05e-9 }
    }

    /// Local-socket-like cost: ~30 µs per message plus ~1 ns per byte (kernel copies
    /// and syscall overhead).
    pub fn socket() -> Self {
        TransportCost { latency_s: 30.0e-6, per_byte_s: 1.0e-9 }
    }

    /// Modeled delivery delay for a message of `bytes` bytes.
    pub fn delay_for(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 * self.per_byte_s
    }
}

/// A bidirectional, frame-oriented transport endpoint.
///
/// Thread-safe: endpoints can be moved to different threads. `send` returns the
/// *modeled* delivery delay in simulated seconds (actual delivery through the
/// underlying channel is immediate).
pub trait Transport: Send {
    /// Send a frame to the peer, returning the modeled delivery delay in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Disconnected`] when the peer endpoint was dropped.
    fn send(&self, frame: Bytes) -> Result<f64, IpcError>;

    /// Receive the next frame if one is ready.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Disconnected`] when the peer endpoint was dropped and the
    /// channel is drained.
    fn try_recv(&self) -> Result<Option<Bytes>, IpcError>;

    /// Receive the next frame, giving up at `deadline`. Returns `Ok(None)` when
    /// the deadline passed with no frame.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Disconnected`] when the peer endpoint was dropped and the
    /// channel is drained.
    fn recv_deadline(&self, deadline: Instant) -> Result<Option<Bytes>, IpcError>;

    /// The transport's cost model.
    fn cost(&self) -> TransportCost;
}

/// Wakes the host when any guest endpoint sends a frame or hangs up, so the
/// host can sleep between polls of its endpoints instead of spinning.
///
/// A ring is latched until a wait consumes it, so a ring that lands between
/// the host's poll and its wait is never lost.
#[derive(Debug, Default)]
pub struct Doorbell {
    rung: Mutex<bool>,
    cv: Condvar,
}

impl Doorbell {
    /// A fresh, unrung doorbell, shared by the host and its guest endpoints.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Latch a ring and wake the waiter. Only the first ring after a wait
    /// notifies; later ones find the latch already set.
    pub fn ring(&self) {
        let mut rung = self.rung.lock();
        if !std::mem::replace(&mut *rung, true) {
            self.cv.notify_one();
        }
    }

    /// Block until the bell rings or `deadline` passes, consuming the ring.
    /// Returns whether it rang.
    pub fn wait_until(&self, deadline: Instant) -> bool {
        let mut rung = self.rung.lock();
        while !*rung {
            let left = deadline.saturating_duration_since(Instant::now());
            if left == Duration::ZERO {
                return false;
            }
            self.cv.wait_for(&mut rung, left);
        }
        *rung = false;
        true
    }
}

/// A guest endpoint's hold on the host's [`Doorbell`]; also rings it when dropped.
#[derive(Debug)]
struct GuestBell(Arc<Doorbell>);

impl Drop for GuestBell {
    fn drop(&mut self) {
        self.0.ring();
    }
}

/// A channel-backed transport endpoint (both the shared-memory and the socket
/// flavors use this, with different [`TransportCost`]s).
#[derive(Debug)]
pub struct ChannelTransport {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
    cost: TransportCost,
    /// Set on the guest end only. Declared after `tx`: fields drop in order,
    /// so the sender is gone when the drop rings and the woken host sees
    /// the disconnect.
    doorbell: Option<GuestBell>,
}

impl Transport for ChannelTransport {
    fn send(&self, frame: Bytes) -> Result<f64, IpcError> {
        let bytes = frame.len() as u64;
        self.tx.send(frame).map_err(|_| IpcError::Disconnected)?;
        if let Some(GuestBell(doorbell)) = &self.doorbell {
            doorbell.ring();
        }
        Ok(self.cost.delay_for(bytes))
    }

    fn try_recv(&self) -> Result<Option<Bytes>, IpcError> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(IpcError::Disconnected),
        }
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Option<Bytes>, IpcError> {
        match self.rx.recv_deadline(deadline) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(IpcError::Disconnected),
        }
    }

    fn cost(&self) -> TransportCost {
        self.cost
    }
}

/// Create a connected pair of endpoints with the given cost model. The first
/// endpoint is the guest (VP) side and rings `doorbell` on every send and when
/// dropped; the second is the host side.
pub fn pair(cost: TransportCost, doorbell: &Arc<Doorbell>) -> (ChannelTransport, ChannelTransport) {
    let (a_tx, b_rx) = unbounded();
    let (b_tx, a_rx) = unbounded();
    (
        ChannelTransport { tx: a_tx, rx: a_rx, cost, doorbell: Some(GuestBell(doorbell.clone())) },
        ChannelTransport { tx: b_tx, rx: b_rx, cost, doorbell: None },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Far enough that no passing test ever reaches it.
    fn far() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }

    /// A loose bound on a wake that should be immediate: far below [`far`],
    /// far above any scheduling hiccup.
    const PROMPT: Duration = Duration::from_secs(2);

    fn shared_memory_pair() -> (ChannelTransport, ChannelTransport) {
        pair(TransportCost::shared_memory(), &Doorbell::new())
    }

    #[test]
    fn frames_cross_in_both_directions() {
        let (vp, host) = shared_memory_pair();
        vp.send(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(host.recv_deadline(far()).unwrap(), Some(Bytes::from_static(b"ping")));
        host.send(Bytes::from_static(b"pong")).unwrap();
        assert_eq!(vp.recv_deadline(far()).unwrap(), Some(Bytes::from_static(b"pong")));
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let (vp, host) = shared_memory_pair();
        assert_eq!(host.try_recv().unwrap(), None);
        vp.send(Bytes::from_static(b"x")).unwrap();
        assert!(host.try_recv().unwrap().is_some());
    }

    #[test]
    fn disconnect_is_detected() {
        let (vp, host) = pair(TransportCost::socket(), &Doorbell::new());
        drop(host);
        assert_eq!(vp.send(Bytes::from_static(b"x")).unwrap_err(), IpcError::Disconnected);
        assert_eq!(vp.recv_deadline(far()).unwrap_err(), IpcError::Disconnected);
    }

    #[test]
    fn socket_is_slower_than_shared_memory() {
        let shm = TransportCost::shared_memory();
        let sock = TransportCost::socket();
        for bytes in [0u64, 100, 1_000_000] {
            assert!(sock.delay_for(bytes) > shm.delay_for(bytes));
        }
    }

    #[test]
    fn per_byte_cost_grows_with_size() {
        let sock = TransportCost::socket();
        assert!(sock.delay_for(1_000_000) > sock.delay_for(100) * 2.0);
    }

    #[test]
    fn modeled_delay_matches_cost_model() {
        let (vp, _host) = pair(TransportCost::socket(), &Doorbell::new());
        let frame = Bytes::from(vec![0u8; 1000]);
        let d = vp.send(frame).unwrap();
        assert!((d - TransportCost::socket().delay_for(1000)).abs() < 1e-15);
    }

    #[test]
    fn recv_deadline_times_out_and_delivers() {
        let (vp, host) = shared_memory_pair();
        let deadline = Instant::now() + Duration::from_millis(2);
        assert_eq!(host.recv_deadline(deadline).unwrap(), None, "empty channel times out");
        vp.send(Bytes::from_static(b"x")).unwrap();
        let deadline = Instant::now() + Duration::from_millis(50);
        assert!(host.recv_deadline(deadline).unwrap().is_some());
    }

    #[test]
    fn recv_deadline_wakes_on_a_frame_sent_mid_wait() {
        let (vp, host) = shared_memory_pair();
        let started = Instant::now();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            host.send(Bytes::from_static(b"late")).unwrap();
            host
        });
        assert_eq!(vp.recv_deadline(far()).unwrap(), Some(Bytes::from_static(b"late")));
        assert!(started.elapsed() < PROMPT, "woke {:?} after the wait began", started.elapsed());
        sender.join().unwrap();
    }

    #[test]
    fn recv_deadline_wakes_on_a_hang_up_mid_wait() {
        let (vp, host) = shared_memory_pair();
        let started = Instant::now();
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            drop(host);
        });
        assert_eq!(vp.recv_deadline(far()).unwrap_err(), IpcError::Disconnected);
        assert!(started.elapsed() < PROMPT, "woke {:?} after the wait began", started.elapsed());
        dropper.join().unwrap();
    }

    #[test]
    fn doorbell_latches_a_ring_made_before_the_wait() {
        let doorbell = Doorbell::new();
        doorbell.ring();
        let started = Instant::now();
        assert!(doorbell.wait_until(far()), "an early ring is not lost");
        assert!(started.elapsed() < PROMPT);
        let soon = Instant::now() + Duration::from_millis(2);
        assert!(!doorbell.wait_until(soon), "the wait consumed the ring");
    }

    #[test]
    fn guest_sends_and_hang_ups_ring_the_doorbell() {
        let doorbell = Doorbell::new();
        let (vp, host) = pair(TransportCost::shared_memory(), &doorbell);
        host.send(Bytes::from_static(b"reply")).unwrap();
        let soon = Instant::now() + Duration::from_millis(2);
        assert!(!doorbell.wait_until(soon), "the host end does not ring");
        vp.send(Bytes::from_static(b"request")).unwrap();
        assert!(doorbell.wait_until(far()), "a guest send rings");
        let waiter = {
            let doorbell = doorbell.clone();
            std::thread::spawn(move || {
                let started = Instant::now();
                (doorbell.wait_until(far()), started.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        drop(vp);
        let (rang, waited) = waiter.join().unwrap();
        assert!(rang && waited < PROMPT, "a guest hang-up rings (waited {waited:?})");
        assert_eq!(host.try_recv().unwrap(), Some(Bytes::from_static(b"request")));
        assert_eq!(host.try_recv().unwrap_err(), IpcError::Disconnected);
    }

    #[test]
    fn endpoints_work_across_threads() {
        let (vp, host) = shared_memory_pair();
        let t = std::thread::spawn(move || {
            let f = host.recv_deadline(far()).unwrap().unwrap();
            host.send(f).unwrap();
        });
        vp.send(Bytes::from_static(b"echo")).unwrap();
        assert_eq!(vp.recv_deadline(far()).unwrap(), Some(Bytes::from_static(b"echo")));
        t.join().unwrap();
    }
}
