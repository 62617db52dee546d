//! Message-oriented two-party transport used by every interactive protocol in
//! Pretzel (GLLM secure dot products, oblivious transfer, Yao's garbled
//! circuits, and the end-to-end client/provider drivers).
//!
//! Three implementations are provided:
//!
//! * [`MemoryChannel`] — an in-process duplex pair built on crossbeam
//!   channels; used by unit/integration tests and by the benchmark harness
//!   (the paper measures CPU and bytes, not wire latency).
//! * [`TcpChannel`] — a length-prefixed framing layer over `std::net::TcpStream`,
//!   used by the `encrypted_mail_session` example to run client and provider
//!   as separate processes/threads talking over a socket.
//! * [`MeteredChannel`] — a decorator that counts bytes in each direction;
//!   this is how the "network transfers" columns of Figures 6, 11 and the
//!   §6.1/§6.3 numbers are produced (see the [`meter`] module docs for the
//!   exact counting semantics).
//!
//! [`PacedChannel`] is a further decorator that stalls a configurable delay
//! before every send — fault injection for slow-loris workload scenarios
//! (see the [`paced`] module docs).
//!
//! For serving many connections, [`TcpAcceptor`] wraps a listening socket
//! and yields one framed [`TcpChannel`] per inbound connection; the
//! `pretzel_server` mailroom builds its multi-session dispatch loop on it.
//!
//! The [`wire`] module makes the frame format itself versioned: explicit
//! [`ProtocolVersion`]s, version-negotiating handshake frames
//! ([`HandshakeOffer`]/[`HandshakeAck`]), and the checksummed [`V2Codec`]
//! applied via [`CodecChannel`] (`docs/WIRE.md` has the full frame
//! layouts).

#![warn(missing_docs)]

pub mod batch;
mod memory;
pub mod meter;
pub mod paced;
mod tcp;
pub mod wire;

pub use batch::{pack_frames, recv_rounds, send_rounds, unpack_frames};
pub use memory::{memory_pair, MemoryChannel};
pub use meter::{Meter, MeteredChannel, PoolKindGauge};
pub use paced::PacedChannel;
pub use tcp::{TcpAcceptor, TcpChannel};
pub use wire::{
    negotiate, Capabilities, CodecChannel, HandshakeAck, HandshakeError, HandshakeOffer,
    NegotiatedProfile, NegotiationPolicy, ProtocolVersion, V2Codec, WireCodec,
};

use std::fmt;

/// Errors surfaced by transport operations.
#[derive(Debug)]
pub enum TransportError {
    /// The peer closed the channel.
    Closed,
    /// An underlying I/O error (TCP channels).
    Io(std::io::Error),
    /// A frame exceeded the configured maximum size.
    FrameTooLarge {
        /// Size of the offending frame in bytes.
        size: usize,
        /// The configured maximum frame size.
        max: usize,
    },
    /// A coalesced batch frame failed structural validation (see
    /// [`batch::unpack_frames`]).
    MalformedBatch(String),
    /// A frame failed its negotiated codec's structural validation —
    /// version byte, declared length, or checksum (see [`wire::V2Codec`]).
    Codec(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => write!(f, "channel closed by peer"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::FrameTooLarge { size, max } => {
                write!(f, "frame of {size} bytes exceeds maximum {max}")
            }
            TransportError::MalformedBatch(why) => write!(f, "malformed batch frame: {why}"),
            TransportError::Codec(why) => write!(f, "codec frame validation failed: {why}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// Result alias for transport operations.
pub type Result<T> = std::result::Result<T, TransportError>;

/// A reliable, ordered, message-oriented duplex channel between two parties.
///
/// Protocols in this workspace are written against this trait so the same
/// code runs over in-memory channels (tests, benchmarks) and TCP (examples).
pub trait Channel: Send {
    /// Sends one message to the peer.
    fn send(&mut self, msg: &[u8]) -> Result<()>;

    /// Sends a message the caller no longer needs. Same wire behaviour as
    /// [`Channel::send`]; a transport that queues whole frames
    /// ([`MemoryChannel`]) takes the buffer instead of copying it, so a
    /// multi-megabyte frame is not resident twice while it is in flight.
    fn send_owned(&mut self, msg: Vec<u8>) -> Result<()> {
        self.send(&msg)
    }

    /// Receives the next message from the peer, blocking until available.
    fn recv(&mut self) -> Result<Vec<u8>>;

    /// Flushes any buffered data (no-op for unbuffered transports).
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Blanket implementation so `&mut C` and boxed channels are channels too.
impl<C: Channel + ?Sized> Channel for &mut C {
    fn send(&mut self, msg: &[u8]) -> Result<()> {
        (**self).send(msg)
    }
    fn send_owned(&mut self, msg: Vec<u8>) -> Result<()> {
        (**self).send_owned(msg)
    }
    fn recv(&mut self) -> Result<Vec<u8>> {
        (**self).recv()
    }
    fn flush(&mut self) -> Result<()> {
        (**self).flush()
    }
}

impl Channel for Box<dyn Channel> {
    fn send(&mut self, msg: &[u8]) -> Result<()> {
        (**self).send(msg)
    }
    fn send_owned(&mut self, msg: Vec<u8>) -> Result<()> {
        (**self).send_owned(msg)
    }
    fn recv(&mut self) -> Result<Vec<u8>> {
        (**self).recv()
    }
    fn flush(&mut self) -> Result<()> {
        (**self).flush()
    }
}

/// Runs a two-party protocol on an in-memory channel pair: `party_a` runs on
/// the calling thread, `party_b` on a spawned thread. Returns both outputs.
///
/// This is the harness used throughout the test suite and the per-email
/// benchmark drivers (client and provider genuinely run concurrently, as in
/// the paper's measurements, but on the same machine).
pub fn run_two_party<A, B, RA, RB>(party_a: A, party_b: B) -> (RA, RB)
where
    A: FnOnce(&mut MemoryChannel) -> RA + Send,
    B: FnOnce(&mut MemoryChannel) -> RB + Send + 'static,
    RA: Send,
    RB: Send + 'static,
{
    let (mut chan_a, mut chan_b) = memory_pair();
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || party_b(&mut chan_b));
        let ra = party_a(&mut chan_a);
        let rb = handle.join().expect("party B panicked");
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_two_party_ping_pong() {
        let (a_out, b_out) = run_two_party(
            |chan| {
                chan.send(b"ping").unwrap();
                chan.recv().unwrap()
            },
            |chan| {
                let msg = chan.recv().unwrap();
                chan.send(b"pong").unwrap();
                msg
            },
        );
        assert_eq!(a_out, b"pong");
        assert_eq!(b_out, b"ping");
    }

    #[test]
    fn boxed_channel_is_usable() {
        let (a, mut b) = memory_pair();
        let mut boxed: Box<dyn Channel> = Box::new(a);
        boxed.send(b"hello").unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
    }
}
