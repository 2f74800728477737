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
//! Delivery is lossless: when the consumer lags a full `capacity` behind,
//! the producer blocks until a slot frees up ([`OverflowPolicy::Backpressure`],
//! the one policy). Nothing is ever dropped, so a pipelined run stays
//! **byte-identical** to its inline equivalent.
//!
//! Both endpoints detect disconnection: a send into a closed channel returns
//! [`SendOutcome::Closed`], and a receive from a closed, drained channel
//! returns `None`, so neither stage can deadlock on a departed peer.
//!
//! The body is a `Mutex` + two `Condvar`s. `std::sync::mpsc::sync_channel`
//! measured slower in the pipelined session: its receiver spins before it
//! parks, and that spinning is CPU time on a two-thread pipeline. Each side
//! counts its parked threads under the mutex and signals a `Condvar` only
//! when the other side has one parked: with std's futex `Condvar` every
//! notify is a `futex_wake` syscall, waiter or not.

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
}

/// The result of offering a batch to a bounded channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The batch was queued for the consumer.
    Sent,
    /// The consumer is gone; the batch was discarded.
    Closed,
}

struct State<T> {
    queue: VecDeque<T>,
    sender_alive: bool,
    receiver_alive: bool,
    /// Receivers parked on `not_empty`.
    parked_receivers: usize,
    /// Senders parked on `not_full`.
    parked_senders: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Producer endpoint of a bounded channel (see [`bounded`]); each channel
/// has exactly one.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Consumer endpoint of a bounded channel (see [`bounded`]).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a bounded channel of `capacity` batches (clamped to at least 1)
/// under `policy`, whose one value is [`OverflowPolicy::Backpressure`].
/// The pipelined session sends its detector jobs, and gets them back, through
/// `capacity = 2` channels: the double buffer, one job at the detector and
/// one filling behind it.
pub fn bounded<T>(capacity: usize, policy: OverflowPolicy) -> (Sender<T>, Receiver<T>) {
    let OverflowPolicy::Backpressure = policy;
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            sender_alive: true,
            receiver_alive: true,
            parked_receivers: 0,
            parked_senders: 0,
        }),
        capacity: capacity.max(1),
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
    /// Offer one batch, blocking while the channel is full.
    #[expect(
        clippy::unwrap_used,
        reason = "lock poisoning only follows a panic already unwinding this run"
    )]
    pub fn send(&self, item: T) -> SendOutcome {
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if !state.receiver_alive {
                return SendOutcome::Closed;
            }
            if state.queue.len() < self.shared.capacity {
                state.queue.push_back(item);
                if state.parked_receivers > 0 {
                    self.shared.not_empty.notify_one();
                }
                return SendOutcome::Sent;
            }
            state.parked_senders += 1;
            state = self.shared.not_full.wait(state).unwrap();
            state.parked_senders -= 1;
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        #[expect(
            clippy::unwrap_used,
            reason = "lock poisoning only follows a panic already unwinding this run"
        )]
        let mut state = self.shared.state.lock().unwrap();
        state.sender_alive = false;
        if state.parked_receivers > 0 {
            // Wake a consumer blocked on an empty queue so it can observe the
            // disconnect and shut down.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Receive the next batch, blocking while the channel is empty. Returns
    /// `None` once the sender is gone and the queue is drained.
    #[expect(
        clippy::unwrap_used,
        reason = "lock poisoning only follows a panic already unwinding this run"
    )]
    pub fn recv(&self) -> Option<T> {
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if let Some(item) = state.queue.pop_front() {
                if state.parked_senders > 0 {
                    self.shared.not_full.notify_one();
                }
                return Some(item);
            }
            if !state.sender_alive {
                return None;
            }
            state.parked_receivers += 1;
            state = self.shared.not_empty.wait(state).unwrap();
            state.parked_receivers -= 1;
        }
    }

    /// Take the next batch if one is queued, without blocking.
    #[expect(
        clippy::unwrap_used,
        reason = "lock poisoning only follows a panic already unwinding this run"
    )]
    pub fn try_recv(&self) -> Option<T> {
        let mut state = self.shared.state.lock().unwrap();
        let item = state.queue.pop_front()?;
        if state.parked_senders > 0 {
            self.shared.not_full.notify_one();
        }
        Some(item)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        #[expect(
            clippy::unwrap_used,
            reason = "lock poisoning only follows a panic already unwinding this run"
        )]
        let mut state = self.shared.state.lock().unwrap();
        state.receiver_alive = false;
        state.queue.clear();
        // Wake producers blocked on a full queue so they observe the close.
        if state.parked_senders > 0 {
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        #[expect(
            clippy::unwrap_used,
            reason = "lock poisoning only follows a panic already unwinding this run"
        )]
        let state = self.shared.state.lock().unwrap();
        f.debug_struct("Sender")
            .field("queued", &state.queue.len())
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        #[expect(
            clippy::unwrap_used,
            reason = "lock poisoning only follows a panic already unwinding this run"
        )]
        let state = self.shared.state.lock().unwrap();
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
        drop(tx);
        for i in 0..4 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert_eq!(rx.recv(), None);
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
    fn try_recv_takes_what_is_queued_without_blocking() {
        let (tx, rx) = bounded(2, OverflowPolicy::Backpressure);
        assert_eq!(rx.try_recv(), None);
        tx.send(1);
        tx.send(2);
        assert_eq!(rx.try_recv(), Some(1));
        // A producer parked on the full channel is released by `try_recv`.
        tx.send(3);
        let producer = std::thread::spawn(move || tx.send(4));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(producer.join().unwrap(), SendOutcome::Sent);
        assert_eq!(rx.try_recv(), Some(3));
        assert_eq!(rx.try_recv(), Some(4));
        assert_eq!(rx.try_recv(), None);
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn parked_peers_are_always_woken_and_counted_out() {
        // Ping-pong through two depth-1 channels: every hand-off finds the
        // peer parked or about to park, so a notify skipped while a peer is
        // parked would hang this test.
        let (ping_tx, ping_rx) = bounded::<u32>(1, OverflowPolicy::Backpressure);
        let (pong_tx, pong_rx) = bounded::<u32>(1, OverflowPolicy::Backpressure);
        let echo = std::thread::spawn(move || {
            while let Some(n) = ping_rx.recv() {
                pong_tx.send(n + 1);
            }
        });
        for i in 0..5_000 {
            assert_eq!(ping_tx.send(i), SendOutcome::Sent);
            assert_eq!(pong_rx.recv(), Some(i + 1));
        }
        {
            let state = ping_tx.shared.state.lock().unwrap();
            assert_eq!(state.parked_senders, 0);
        }
        drop(ping_tx);
        echo.join().unwrap();
        let state = pong_rx.shared.state.lock().unwrap();
        assert_eq!((state.parked_senders, state.parked_receivers), (0, 0));
    }

    #[test]
    fn capacity_is_clamped_to_at_least_one() {
        let (tx, rx) = bounded(0, OverflowPolicy::Backpressure);
        assert_eq!(tx.shared.capacity, 1);
        assert_eq!(tx.send(1), SendOutcome::Sent);
        // A second batch waits for the one slot to free.
        let producer = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(producer.join().unwrap(), SendOutcome::Sent);
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }
}
