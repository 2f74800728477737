//! A bounded, double-buffered batch channel for pipelined record delivery.
//!
//! The paper's detection core runs *concurrently* with the application: HITM
//! records flow from the kernel driver into the user-space detector through a
//! fixed-size buffer, and the application never waits for the detector unless
//! that buffer fills up. This module reproduces the plumbing as a minimal
//! bounded SPSC channel: the producer (the machine/driver stage) pushes
//! record batches, the consumer (the detector stage) pops them, and the
//! capacity — two batches by default, the classic double buffer — bounds how
//! far the consumer may lag.
//!
//! What happens when the consumer lags a full `capacity` behind is the
//! [`OverflowPolicy`]:
//!
//! * [`OverflowPolicy::Backpressure`] blocks the producer until a slot frees
//!   up. Nothing is ever lost, so a pipelined run stays **byte-identical** to
//!   its inline equivalent — this is the policy `laser-core`'s deterministic
//!   session pipeline uses.
//! * [`OverflowPolicy::DropNewest`] rejects the batch instead, the way real
//!   PEBS hardware overflows a full buffer. The rejection is the producer's
//!   signal ([`SendOutcome::Dropped`]); accounting the loss belongs to the
//!   producer. Lossy delivery trades determinism for a hard bound on
//!   producer latency.
//!
//! Both endpoints detect disconnection: a send into a closed channel returns
//! [`SendOutcome::Closed`], and a receive from a closed, drained channel
//! returns `None`, so neither stage can deadlock on a departed peer.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// What a bounded channel does when the consumer lags `capacity` batches
/// behind the producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Block the producer until the consumer frees a slot (lossless; keeps
    /// pipelined execution deterministic).
    #[default]
    Backpressure,
    /// Drop the offered batch (models PEBS buffer overflow;
    /// non-deterministic under load).
    DropNewest,
}

/// The result of offering a batch to a bounded channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The batch was queued for the consumer.
    Sent,
    /// The channel was full and the policy is [`OverflowPolicy::DropNewest`]:
    /// the batch was discarded. The producer owns accounting the loss.
    Dropped,
    /// The consumer is gone; the batch was discarded.
    Closed,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    policy: OverflowPolicy,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Producer endpoint of a bounded channel (see [`bounded`]).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Consumer endpoint of a bounded channel (see [`bounded`]).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a bounded channel of `capacity` batches (clamped to at least 1)
/// with the given overflow `policy`. `capacity = 2` is the double buffer the
/// pipelined session uses: one batch in flight at the detector, one staged
/// behind it.
pub fn bounded<T>(capacity: usize, policy: OverflowPolicy) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
        }),
        capacity: capacity.max(1),
        policy,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Offer one batch. Under [`OverflowPolicy::Backpressure`] this blocks
    /// while the channel is full; under [`OverflowPolicy::DropNewest`] a full
    /// channel discards the batch and returns [`SendOutcome::Dropped`].
    pub fn send(&self, item: T) -> SendOutcome {
        let mut state = self.shared.state.lock().unwrap(); // lint:allow(panic) — lock poisoning only follows a panic already unwinding this run
        loop {
            if !state.receiver_alive {
                return SendOutcome::Closed;
            }
            if state.queue.len() < self.shared.capacity {
                state.queue.push_back(item);
                self.shared.not_empty.notify_one();
                return SendOutcome::Sent;
            }
            match self.shared.policy {
                OverflowPolicy::DropNewest => {
                    return SendOutcome::Dropped;
                }
                OverflowPolicy::Backpressure => {
                    state = self.shared.not_full.wait(state).unwrap(); // lint:allow(panic) — lock poisoning only follows a panic already unwinding this run
                }
            }
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().unwrap().senders += 1; // lint:allow(panic) — lock poisoning only follows a panic already unwinding this run
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap(); // lint:allow(panic) — lock poisoning only follows a panic already unwinding this run
        state.senders -= 1;
        if state.senders == 0 {
            // Wake a consumer blocked on an empty queue so it can observe the
            // disconnect and shut down.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Receive the next batch, blocking while the channel is empty. Returns
    /// `None` once every sender is gone and the queue is drained.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.shared.state.lock().unwrap(); // lint:allow(panic) — lock poisoning only follows a panic already unwinding this run
        loop {
            if let Some(item) = state.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Some(item);
            }
            if state.senders == 0 {
                return None;
            }
            state = self.shared.not_empty.wait(state).unwrap(); // lint:allow(panic) — lock poisoning only follows a panic already unwinding this run
        }
    }

    /// Receive without blocking: `None` when the queue is currently empty
    /// (whether or not senders remain).
    pub fn try_recv(&self) -> Option<T> {
        let mut state = self.shared.state.lock().unwrap(); // lint:allow(panic) — lock poisoning only follows a panic already unwinding this run
        let item = state.queue.pop_front();
        if item.is_some() {
            self.shared.not_full.notify_one();
        }
        item
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap(); // lint:allow(panic) — lock poisoning only follows a panic already unwinding this run
        state.receiver_alive = false;
        state.queue.clear();
        // Wake producers blocked on a full queue so they observe the close.
        self.shared.not_full.notify_all();
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock().unwrap(); // lint:allow(panic) — lock poisoning only follows a panic already unwinding this run
        f.debug_struct("Sender")
            .field("queued", &state.queue.len())
            .field("capacity", &self.shared.capacity)
            .field("policy", &self.shared.policy)
            .finish()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock().unwrap(); // lint:allow(panic) — lock poisoning only follows a panic already unwinding this run
        f.debug_struct("Receiver")
            .field("queued", &state.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn endpoints_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Sender<Vec<u64>>>();
        assert_send::<Receiver<Vec<u64>>>();
    }

    #[test]
    fn fifo_order_is_preserved() {
        let (tx, rx) = bounded(4, OverflowPolicy::Backpressure);
        for i in 0..4 {
            assert_eq!(tx.send(i), SendOutcome::Sent);
        }
        assert_eq!(rx.recv(), Some(0));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.recv(), Some(3));
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn backpressure_blocks_until_the_consumer_catches_up() {
        let (tx, rx) = bounded(2, OverflowPolicy::Backpressure);
        assert_eq!(tx.send(1), SendOutcome::Sent);
        assert_eq!(tx.send(2), SendOutcome::Sent);
        let producer = std::thread::spawn(move || tx.send(3));
        // The producer is parked on the full channel; draining one slot
        // releases it.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(producer.join().unwrap(), SendOutcome::Sent);
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(3));
    }

    #[test]
    fn lossy_channel_drops_when_the_consumer_lags() {
        let (tx, rx) = bounded(2, OverflowPolicy::DropNewest);
        assert_eq!(tx.send(1), SendOutcome::Sent);
        assert_eq!(tx.send(2), SendOutcome::Sent);
        // The consumer has lagged a full capacity behind: the hardware model
        // overflows instead of stalling the application. The rejection is
        // the producer's signal to account the loss.
        assert_eq!(tx.send(3), SendOutcome::Dropped);
        assert_eq!(tx.send(4), SendOutcome::Dropped);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(tx.send(5), SendOutcome::Sent);
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(5));
    }

    #[test]
    fn consumer_sees_disconnect_after_draining() {
        let (tx, rx) = bounded(2, OverflowPolicy::Backpressure);
        tx.send(7);
        drop(tx);
        assert_eq!(rx.recv(), Some(7));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn producer_sees_a_departed_consumer_instead_of_deadlocking() {
        let (tx, rx) = bounded(1, OverflowPolicy::Backpressure);
        assert_eq!(tx.send(1), SendOutcome::Sent);
        let blocked = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(blocked.join().unwrap(), SendOutcome::Closed);
    }

    #[test]
    fn capacity_is_clamped_to_at_least_one() {
        let (tx, rx) = bounded(0, OverflowPolicy::DropNewest);
        assert_eq!(tx.send(1), SendOutcome::Sent);
        assert_eq!(tx.send(2), SendOutcome::Dropped);
        assert_eq!(rx.recv(), Some(1));
    }
}
