//! Byte-counting channel decorator.
//!
//! The paper reports "network transfers" per email (Figures 6 and 11, and the
//! §6.1/§6.3 absolute-cost discussion). We reproduce those columns by wrapping
//! the protocol channel in a [`MeteredChannel`] and reading the shared
//! [`Meter`] after the protocol run.
//!
//! # Counting semantics
//!
//! The meter counts **payload bytes and message counts only**, exactly as the
//! paper accounts ciphertext/message sizes:
//!
//! * one successful `send(msg)` adds `msg.len()` to `bytes_sent` and 1 to
//!   `messages_sent`; one successful `recv()` does the same on the receive
//!   side — a zero-length message still counts as one message;
//! * transport framing overhead is **not** counted. In particular, a
//!   [`crate::TcpChannel`] prefixes every frame with 4 length bytes that the
//!   meter never sees (`tcp_meter_counts_payload_bytes_not_frame_bytes` pins
//!   this);
//! * a failed `send` (oversized frame, peer gone) or `recv` (peer closed,
//!   oversized frame) counts nothing: the counters only reflect payload
//!   that actually crossed the channel
//!   (`failed_send_does_not_count` pins this).
//!
//! Because a [`Meter`] is a shared handle (internally `Arc`ed), cloning it
//! never forks the counters: all clones, and every channel wrapped via
//! [`MeteredChannel::with_meter`], observe and update the same totals.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::{Channel, Result};

#[derive(Default, Debug)]
struct MeterInner {
    bytes_sent: u64,
    bytes_received: u64,
    messages_sent: u64,
    messages_received: u64,
}

/// Shared counters for one endpoint of a metered channel.
#[derive(Clone, Default, Debug)]
pub struct Meter {
    inner: Arc<Mutex<MeterInner>>,
}

impl Meter {
    /// Creates a meter with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recovers a poisoned lock (`docs/ARCHITECTURE.md`, "Lock poisoning"):
    /// no update leaves the counters half-written.
    fn lock(&self) -> MutexGuard<'_, MeterInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Total payload bytes sent through the wrapped channel. Framing overhead
    /// of the underlying transport (e.g. [`crate::TcpChannel`]'s 4-byte
    /// length prefix) is not counted, matching the paper's accounting of
    /// ciphertext/message sizes; see the module docs for the full semantics.
    pub fn bytes_sent(&self) -> u64 {
        self.lock().bytes_sent
    }

    /// Total payload bytes received (same accounting as
    /// [`Meter::bytes_sent`]).
    pub fn bytes_received(&self) -> u64 {
        self.lock().bytes_received
    }

    /// Total traffic in both directions.
    pub fn total_bytes(&self) -> u64 {
        let g = self.lock();
        g.bytes_sent + g.bytes_received
    }

    /// Number of messages sent.
    pub fn messages_sent(&self) -> u64 {
        self.lock().messages_sent
    }

    /// Number of messages received.
    pub fn messages_received(&self) -> u64 {
        self.lock().messages_received
    }

    /// Resets all four counters (bytes and messages, both directions) to
    /// zero in one atomic step — no partially-reset state is ever
    /// observable, even when other channels share this meter. Typical use
    /// is zeroing the setup-phase traffic before measuring the per-email
    /// phase.
    pub fn reset(&self) {
        *self.lock() = MeterInner::default();
    }

    fn record_send(&self, n: usize) {
        let mut g = self.lock();
        g.bytes_sent += n as u64;
        g.messages_sent += 1;
    }

    fn record_recv(&self, n: usize) {
        let mut g = self.lock();
        g.bytes_received += n as u64;
        g.messages_received += 1;
    }
}

/// A [`Channel`] decorator that records traffic volume in a shared [`Meter`].
pub struct MeteredChannel<C: Channel> {
    inner: C,
    meter: Meter,
}

impl<C: Channel> MeteredChannel<C> {
    /// Wraps `inner`, recording into a fresh meter.
    pub fn new(inner: C) -> Self {
        Self::with_meter(inner, Meter::new())
    }

    /// Wraps `inner`, recording into the supplied meter (lets several
    /// channels share one set of counters).
    pub fn with_meter(inner: C, meter: Meter) -> Self {
        MeteredChannel { inner, meter }
    }

    /// Handle to the meter.
    pub fn meter(&self) -> Meter {
        self.meter.clone()
    }

    /// Unwraps the inner channel.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: Channel> Channel for MeteredChannel<C> {
    fn send(&mut self, msg: &[u8]) -> Result<()> {
        self.inner.send(msg)?;
        self.meter.record_send(msg.len());
        Ok(())
    }

    fn send_owned(&mut self, msg: Vec<u8>) -> Result<()> {
        let len = msg.len();
        self.inner.send_owned(msg)?;
        self.meter.record_send(len);
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>> {
        let msg = self.inner.recv()?;
        self.meter.record_recv(msg.len());
        Ok(msg)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory_pair;

    #[test]
    fn counts_bytes_and_messages_in_both_directions() {
        let (a, mut b) = memory_pair();
        let mut ma = MeteredChannel::new(a);
        let meter = ma.meter();

        ma.send(&[0u8; 100]).unwrap();
        ma.send_owned(vec![0u8; 23]).unwrap();
        b.send(&[0u8; 7]).unwrap();
        let _ = ma.recv().unwrap();

        assert_eq!(meter.bytes_sent(), 123);
        assert_eq!(meter.messages_sent(), 2);
        assert_eq!(meter.bytes_received(), 7);
        assert_eq!(meter.messages_received(), 1);
        assert_eq!(meter.total_bytes(), 130);
    }

    #[test]
    fn reset_clears_all_four_counters() {
        let (a, mut b) = memory_pair();
        let mut ma = MeteredChannel::new(a);
        ma.send(&[1, 2, 3]).unwrap();
        b.send(&[9]).unwrap();
        let _ = b.recv().unwrap();
        let _ = ma.recv().unwrap();
        let meter = ma.meter();
        assert_eq!(meter.bytes_sent(), 3);
        assert_eq!(meter.bytes_received(), 1);
        meter.reset();
        assert_eq!(meter.bytes_sent(), 0);
        assert_eq!(meter.bytes_received(), 0);
        assert_eq!(meter.messages_sent(), 0);
        assert_eq!(meter.messages_received(), 0);
        assert_eq!(meter.total_bytes(), 0);
    }

    /// Pins the documented counting semantics: payload bytes only, never the
    /// transport's framing overhead. A TCP frame is `4 + len` bytes on the
    /// wire, but the meter must report exactly `len`.
    #[test]
    fn tcp_meter_counts_payload_bytes_not_frame_bytes() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || crate::TcpChannel::connect(addr).unwrap());
        let (server_stream, _) = listener.accept().unwrap();
        let mut server = crate::TcpChannel::new(server_stream);
        let mut client = MeteredChannel::new(client.join().unwrap());
        let meter = client.meter();

        client.send(&[0u8; 1000]).unwrap();
        client.send(&[]).unwrap(); // empty frame: 4 wire bytes, 0 payload
        assert_eq!(server.recv().unwrap().len(), 1000);
        assert_eq!(server.recv().unwrap().len(), 0);
        server.send(&[0u8; 77]).unwrap();
        assert_eq!(client.recv().unwrap().len(), 77);

        // 1000 + 0 payload bytes sent (not 1004 + 4 frame bytes), 77 received
        // (not 81), and the empty message still counts as a message.
        assert_eq!(meter.bytes_sent(), 1000);
        assert_eq!(meter.messages_sent(), 2);
        assert_eq!(meter.bytes_received(), 77);
        assert_eq!(meter.messages_received(), 1);
    }

    /// Pins the failure-accounting semantics: a send that never reaches the
    /// wire (here: the peer is gone) must not inflate the counters.
    #[test]
    fn failed_send_does_not_count() {
        let (a, b) = memory_pair();
        let mut ma = MeteredChannel::new(a);
        drop(b);
        assert!(ma.send(&[0u8; 100]).is_err());
        let meter = ma.meter();
        assert_eq!(meter.bytes_sent(), 0);
        assert_eq!(meter.messages_sent(), 0);
    }

    #[test]
    fn shared_meter_aggregates_multiple_channels() {
        let meter = Meter::new();
        let (a1, mut b1) = memory_pair();
        let (a2, mut b2) = memory_pair();
        let mut m1 = MeteredChannel::with_meter(a1, meter.clone());
        let mut m2 = MeteredChannel::with_meter(a2, meter.clone());
        m1.send(&[0u8; 10]).unwrap();
        m2.send(&[0u8; 5]).unwrap();
        let _ = b1.recv().unwrap();
        let _ = b2.recv().unwrap();
        assert_eq!(meter.bytes_sent(), 15);
    }
}
