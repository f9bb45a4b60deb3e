//! Bounded admission: the only queue between `accept()` and the worker
//! pool.
//!
//! The acceptor offers every new connection here. If the queue is at
//! capacity the connection is **shed immediately** (the caller responds
//! `503 + Retry-After` and closes) — the daemon's memory is bounded by
//! `capacity + workers` open connections no matter the offered load.
//! Workers block on [`AdmissionQueue::pop`]; closing the queue lets them
//! drain what was already admitted and then exit, which is exactly the
//! graceful-shutdown order the server wants.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Condvar, Mutex};

/// Outcome of offering a connection. Refusals hand the stream back so
/// the caller can still write a `503` on it.
#[derive(Debug)]
pub enum Admit {
    /// Enqueued; a worker will pick it up.
    Enqueued,
    /// Queue full — shed it.
    Shed(TcpStream),
    /// Queue closed (draining) — shed it.
    Closed(TcpStream),
}

/// A consistent reading of the queue, taken under one lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Connections waiting now.
    pub depth: usize,
    /// High-water mark of `depth`.
    pub peak_depth: usize,
    /// Connections admitted since construction.
    pub admitted: u64,
    /// Connections shed since construction.
    pub shed: u64,
}

struct Inner {
    q: VecDeque<TcpStream>,
    closed: bool,
    peak_depth: usize,
    shed: u64,
    admitted: u64,
}

/// A bounded MPMC queue of accepted connections.
pub struct AdmissionQueue {
    capacity: usize,
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl AdmissionQueue {
    /// An empty queue admitting at most `capacity` waiting connections.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                q: VecDeque::new(),
                closed: false,
                peak_depth: 0,
                shed: 0,
                admitted: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offer a connection; never blocks.
    pub fn offer(&self, stream: TcpStream) -> Admit {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            inner.shed += 1;
            return Admit::Closed(stream);
        }
        if inner.q.len() >= self.capacity {
            inner.shed += 1;
            return Admit::Shed(stream);
        }
        inner.q.push_back(stream);
        inner.admitted += 1;
        inner.peak_depth = inner.peak_depth.max(inner.q.len());
        drop(inner);
        self.ready.notify_one();
        Admit::Enqueued
    }

    /// Take the next admitted connection, blocking until one arrives.
    /// Returns `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<TcpStream> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(s) = inner.q.pop_front() {
                return Some(s);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap();
        }
    }

    /// Stop admitting; wake every blocked worker. Already-admitted
    /// connections still drain through [`AdmissionQueue::pop`].
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().q.len()
    }

    /// Depth and counters since construction, read together.
    pub fn stats(&self) -> QueueStats {
        let inner = self.inner.lock().unwrap();
        QueueStats {
            depth: inner.q.len(),
            peak_depth: inner.peak_depth,
            admitted: inner.admitted,
            shed: inner.shed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// A connected socket pair for queue plumbing tests.
    fn sock() -> TcpStream {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let c = TcpStream::connect(addr).unwrap();
        let _server_side = l.accept().unwrap();
        c
    }

    #[test]
    fn sheds_beyond_capacity_and_tracks_peak() {
        let q = AdmissionQueue::new(2);
        assert!(matches!(q.offer(sock()), Admit::Enqueued));
        assert!(matches!(q.offer(sock()), Admit::Enqueued));
        assert!(matches!(q.offer(sock()), Admit::Shed(_)));
        assert!(matches!(q.offer(sock()), Admit::Shed(_)));
        let s = q.stats();
        assert_eq!((s.admitted, s.shed, s.peak_depth, s.depth), (2, 2, 2, 2));
        assert_eq!(q.depth(), 2);
        // Popping frees a slot.
        assert!(q.pop().is_some());
        assert!(matches!(q.offer(sock()), Admit::Enqueued));
        assert_eq!(q.stats().peak_depth, 2, "peak never exceeds the bound");
    }

    #[test]
    fn close_drains_then_ends() {
        let q = AdmissionQueue::new(4);
        q.offer(sock());
        q.offer(sock());
        q.close();
        assert!(matches!(q.offer(sock()), Admit::Closed(_)));
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
        assert!(q.pop().is_none());
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        use std::sync::Arc;
        let q = Arc::new(AdmissionQueue::new(1));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop().is_none());
        std::thread::sleep(std::time::Duration::from_millis(30));
        q.close();
        assert!(t.join().unwrap());
    }
}
