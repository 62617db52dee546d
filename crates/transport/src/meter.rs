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
//!
//! Besides the four traffic counters, a meter carries the serving layer's
//! per-kind precompute **gauges** ([`Meter::set_pool_gauge`]): how much stock
//! the endpoint's reservoirs of each artifact kind hold, and how many of its
//! draws came up dry. The mailroom updates them after setup and every round
//! so operators can read session health and traffic from a single handle.
//! [`Meter::reset`] clears the gauges along with the counters.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{Channel, Result};

/// Per-kind precompute pool gauge: how deep one artifact kind's pool is and
/// how many draws found every pool dry and computed inline. Written by the
/// serving layer via [`Meter::set_pool_gauge`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolKindGauge {
    /// Rounds this kind can currently serve without inline work.
    pub depth: u64,
    /// Draws that fell through every pool and computed inline.
    pub fallback_draws: u64,
}

#[derive(Default, Debug)]
struct MeterInner {
    bytes_sent: u64,
    bytes_received: u64,
    messages_sent: u64,
    messages_received: u64,
    pool_kinds: BTreeMap<&'static str, PoolKindGauge>,
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

    /// Total payload bytes sent through the wrapped channel. Framing overhead
    /// of the underlying transport (e.g. [`crate::TcpChannel`]'s 4-byte
    /// length prefix) is not counted, matching the paper's accounting of
    /// ciphertext/message sizes; see the module docs for the full semantics.
    pub fn bytes_sent(&self) -> u64 {
        self.inner.lock().bytes_sent
    }

    /// Total payload bytes received (same accounting as
    /// [`Meter::bytes_sent`]).
    pub fn bytes_received(&self) -> u64 {
        self.inner.lock().bytes_received
    }

    /// Total traffic in both directions.
    pub fn total_bytes(&self) -> u64 {
        let g = self.inner.lock();
        g.bytes_sent + g.bytes_received
    }

    /// Number of messages sent.
    pub fn messages_sent(&self) -> u64 {
        self.inner.lock().messages_sent
    }

    /// Number of messages received.
    pub fn messages_received(&self) -> u64 {
        self.inner.lock().messages_received
    }

    /// Precomputation pool depth: the sum of the per-kind gauge depths (0
    /// until [`Meter::set_pool_gauge`] is called).
    pub fn pool_depth(&self) -> u64 {
        let g = self.inner.lock();
        g.pool_kinds.values().map(|k| k.depth).sum()
    }

    /// Updates one artifact kind's pool gauge (a last-write-wins snapshot,
    /// unlike the monotonic traffic counters; keyed by the kind names
    /// precompute reservoirs report — `"garblings"`,
    /// `"zero_encryptions"`, …).
    pub fn set_pool_gauge(&self, kind: &'static str, depth: u64, fallback_draws: u64) {
        self.inner.lock().pool_kinds.insert(
            kind,
            PoolKindGauge {
                depth,
                fallback_draws,
            },
        );
    }

    /// One kind's pool gauge (zero if never set).
    pub fn pool_gauge(&self, kind: &str) -> PoolKindGauge {
        self.inner
            .lock()
            .pool_kinds
            .get(kind)
            .copied()
            .unwrap_or_default()
    }

    /// Every per-kind pool gauge set so far, sorted by kind name.
    pub fn pool_gauges(&self) -> Vec<(&'static str, PoolKindGauge)> {
        self.inner
            .lock()
            .pool_kinds
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Total pool-dry fallback draws across all kinds.
    pub fn fallback_draws(&self) -> u64 {
        self.inner
            .lock()
            .pool_kinds
            .values()
            .map(|k| k.fallback_draws)
            .sum()
    }

    /// Resets all four counters (bytes and messages, both directions), the
    /// pool depth gauge, and every per-kind pool gauge to zero in one atomic
    /// step — no partially-reset state is ever observable, even when other
    /// channels share this meter. Typical use is zeroing the setup-phase
    /// traffic before measuring the per-email phase.
    pub fn reset(&self) {
        *self.inner.lock() = MeterInner::default();
    }

    fn record_send(&self, n: usize) {
        let mut g = self.inner.lock();
        g.bytes_sent += n as u64;
        g.messages_sent += 1;
    }

    fn record_recv(&self, n: usize) {
        let mut g = self.inner.lock();
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
    fn per_kind_gauges_delegate_the_aggregate_and_count_fallbacks() {
        let meter = Meter::new();
        assert_eq!(meter.pool_depth(), 0);
        let clone = meter.clone();
        clone.set_pool_gauge("garblings", 4, 1);
        clone.set_pool_gauge("zero_encryptions", 3, 2);
        assert_eq!(
            meter.pool_depth(),
            7,
            "the aggregate is the per-kind sum, shared across clones"
        );
        assert_eq!(meter.pool_gauge("garblings").depth, 4);
        assert_eq!(meter.pool_gauge("garblings").fallback_draws, 1);
        assert_eq!(meter.pool_gauge("unset").depth, 0);
        assert_eq!(meter.fallback_draws(), 3);
        let gauges = meter.pool_gauges();
        assert_eq!(gauges.len(), 2);
        assert_eq!(gauges[0].0, "garblings", "sorted by kind name");
        meter.set_pool_gauge("garblings", 0, 5);
        assert_eq!(
            meter.pool_gauge("garblings").fallback_draws,
            5,
            "last write wins"
        );
        meter.reset();
        assert!(
            meter.pool_gauges().is_empty(),
            "reset clears per-kind gauges"
        );
        assert_eq!(meter.pool_depth(), 0);
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
        meter.set_pool_gauge("garblings", 5, 0);
        assert_eq!(meter.bytes_sent(), 3);
        assert_eq!(meter.bytes_received(), 1);
        meter.reset();
        assert_eq!(meter.pool_depth(), 0, "reset also zeroes the gauge");
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
