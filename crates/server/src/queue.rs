//! Bounded MPMC work queue with reject-on-full semantics.
//!
//! The mailroom's intake must exert **backpressure**: when every worker is
//! busy and the queue is full, a new session is refused immediately (the
//! client gets a busy ack and can retry elsewhere) instead of being buffered
//! without bound or blocking the acceptor thread. `std::sync::mpsc` has no
//! non-blocking bounded multi-consumer queue, so this one is built directly
//! on `std::sync` — a mutex-guarded ring plus one condvar for the consumers.
//! Producers never block: [`BoundedQueue::try_push_with`] either reserves a
//! slot or hands the item straight back.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Why a push was refused; the item is handed back in both cases.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity (backpressure — retry later or give up).
    Full(T),
    /// The queue was closed by [`BoundedQueue::close`]; no further work is
    /// accepted.
    Closed(T),
}

/// A bounded multi-producer/multi-consumer queue. Pushes never block;
/// pops block until an item arrives or the queue is closed and drained.
pub struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (at least 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempts to enqueue `item` without blocking. On success, `on_accept`
    /// runs on the item *while the slot is held* (before any consumer can
    /// pop it) — the mailroom uses this to send the "accepted" ack on the
    /// session channel without racing the capacity check against other
    /// producers. On failure the item is returned untouched.
    pub fn try_push_with<F>(&self, item: T, on_accept: F) -> Result<(), PushError<T>>
    where
        F: FnOnce(&mut T),
    {
        let mut g = self.lock();
        if g.closed {
            return Err(PushError::Closed(item));
        }
        if g.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        let mut item = item;
        on_accept(&mut item);
        g.items.push_back(item);
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Attempts to enqueue `item` without blocking.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        self.try_push_with(item, |_| {})
    }

    /// Blocks until an item is available and returns it, or returns `None`
    /// once the queue has been closed **and** drained (queued work is still
    /// served after `close` — that is what makes shutdown graceful).
    pub fn pop(&self) -> Option<T> {
        let mut g = self.lock();
        loop {
            if let Some(item) = g.items.pop_front() {
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the intake: subsequent pushes fail with [`PushError::Closed`],
    /// and consumers drain the remaining items then observe `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Number of items currently queued (racy, for monitoring only).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty (racy, for monitoring only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_rejects_immediately_instead_of_blocking() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let start = Instant::now();
        match q.try_push(3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        // "Reject" must mean reject: no hidden waiting on the consumer side.
        assert!(start.elapsed() < Duration::from_millis(100));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn accept_hook_runs_only_on_success() {
        let q = BoundedQueue::new(1);
        let mut hook_ran = false;
        q.try_push_with(7, |_| hook_ran = true).unwrap();
        assert!(hook_ran);
        let mut hook_ran = false;
        assert!(q.try_push_with(8, |_| hook_ran = true).is_err());
        assert!(!hook_ran, "the hook must not run when the push is refused");
    }

    #[test]
    fn close_drains_then_wakes_consumers() {
        let q = Arc::new(BoundedQueue::new(8));
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert!(matches!(q.try_push(3), Err(PushError::Closed(3))));
        // Queued items survive the close (graceful shutdown)…
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        // …then consumers are released.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumer_wakes_on_push_and_on_close() {
        let q = Arc::new(BoundedQueue::new(2));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let first = q2.pop();
            let second = q2.pop();
            (first, second)
        });
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let (first, second) = consumer.join().unwrap();
        assert_eq!(first, Some(42));
        assert_eq!(second, None);
    }

    #[test]
    fn many_producers_many_consumers_preserve_every_item() {
        let q = Arc::new(BoundedQueue::new(64));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Some(v) = q.pop() {
                        sum += v;
                    }
                    sum
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        // Spin on Full: this test wants every item through.
                        let mut item = p * 1000 + i;
                        loop {
                            match q.try_push(item) {
                                Ok(()) => break,
                                Err(PushError::Full(v)) => {
                                    item = v;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        let expected: u64 = (0..4u64)
            .map(|p| (0..50u64).map(|i| p * 1000 + i).sum::<u64>())
            .sum();
        assert_eq!(total, expected);
    }
}
