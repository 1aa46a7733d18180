//! Offline stand-in for `crossbeam`: the `channel` module over `std::sync::mpsc`.

pub mod channel {
    //! MPSC channels with the crossbeam-channel API shape.

    use std::sync::mpsc;
    use std::time::Instant;

    /// Sending half of an unbounded channel.
    #[derive(Debug, Clone)]
    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
    }

    /// Receiving half of an unbounded channel.
    #[derive(Debug)]
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    /// The channel is empty or disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message is currently available.
        Empty,
        /// All senders have been dropped and the channel is drained.
        Disconnected,
    }

    /// All senders were dropped and the channel is drained.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// No message arrived before the deadline, or the channel is disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with no message.
        Timeout,
        /// All senders have been dropped and the channel is drained.
        Disconnected,
    }

    /// The receiver was dropped; the unsent message is returned.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> Sender<T> {
        /// Send a message, failing only if the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner.send(value).map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.recv().map_err(|_| RecvError)
        }

        /// Block until a message arrives, all senders disconnect, or
        /// `deadline` passes.
        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            let timeout = deadline.saturating_duration_since(Instant::now());
            self.inner.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// Return a pending message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender { inner: tx }, Receiver { inner: rx })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_try_recv() {
            let (tx, rx) = unbounded();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            tx.send(7).unwrap();
            assert_eq!(rx.recv(), Ok(7));
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn recv_deadline_times_out_delivers_and_sees_disconnect() {
            use std::time::Duration;

            let (tx, rx) = unbounded();
            let soon = Instant::now() + Duration::from_millis(5);
            assert_eq!(rx.recv_deadline(soon), Err(RecvTimeoutError::Timeout));
            assert!(Instant::now() >= soon, "a timeout does not return early");
            // A deadline already in the past still hands over a queued message.
            tx.send(3).unwrap();
            assert_eq!(rx.recv_deadline(soon), Ok(3));
            let far = Instant::now() + Duration::from_secs(10);
            let sender = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                tx.send(4).unwrap();
            });
            assert_eq!(rx.recv_deadline(far), Ok(4));
            sender.join().unwrap();
            assert_eq!(rx.recv_deadline(far), Err(RecvTimeoutError::Disconnected));
        }
    }
}
