//! Provider **mailroom**: a multi-session serving layer over the Pretzel
//! protocols.
//!
//! The paper's provider serves millions of users, but the rest of this
//! workspace only drives one client/provider pair at a time through
//! [`pretzel_transport::run_two_party`]. This crate adds the missing serving
//! layer: a [`Mailroom`] accepts many concurrent client sessions over any
//! [`pretzel_transport::Channel`] (in-memory pairs for tests and benchmarks,
//! framed TCP via [`pretzel_transport::TcpAcceptor`] for real sockets), runs
//! each session through the spam / topic / virus / encrypted-search
//! protocols of [`pretzel_core`], and manages the whole lifecycle —
//! handshake, one-time setup whose state is reused across per-email rounds,
//! teardown.
//!
//! Architecture (see `docs/ARCHITECTURE.md` for the full layer diagram):
//!
//! * a **worker pool** of OS threads, each running complete sessions one at
//!   a time — sessions are independent, so throughput scales with workers
//!   until the machine runs out of cores;
//! * a **bounded intake queue** between the acceptor and the workers; a full
//!   queue *refuses* new sessions immediately ([`ACK_BUSY`]) instead of
//!   buffering without bound — backpressure, not memory growth;
//! * **per-session and fleet-wide accounting** via
//!   [`pretzel_transport::Meter`], keyed by [`SessionId`];
//! * **graceful shutdown**: [`Mailroom::shutdown`] drains queued and
//!   in-flight sessions, then reports.
//!
//! The matching client driver is [`MailroomClient`], used by
//! `examples/mailroom.rs`, the concurrency integration tests, and the
//! repo's benchmark (`benchmark/`) to spin up N simulated senders.
//!
//! # Wire protocol
//!
//! All framing below rides on the message-oriented [`Channel`] contract
//! (`u32` length-prefixed frames on TCP). The session handshake is
//! **versioned** (see `pretzel_transport::wire` and `docs/WIRE.md`): the
//! client offers a version range, the provider picks a version inside it or
//! refuses with a typed reason. This build speaks one generation, v3.
//!
//! ```text
//! client → provider   HandshakeOffer             [0x00 'P' 'Z', min, max,
//!                                                 wire_tag, variant,
//!                                                 capabilities:u64le]
//! provider → client   [ACK_ACCEPTED] | [ACK_BUSY]
//! provider → client   HandshakeAck               picked version + granted
//!                                                capabilities (or refusal)
//! …all further frames through the frame codec (header + CRC-32)…
//! …protocol setup (provider initiates; §3.3 joint randomness, model, OTs)…
//! repeat:
//!   client → provider [ROUND_EMAIL]              count = 1
//!   client → provider [ROUND_BATCH, n:u32le]     count = n, 1..=4096
//!   …then the module's online phase over `count` rounds
//! client → provider   [ROUND_BYE]                teardown
//! ```
//!
//! A first frame that is not a decodable offer, an unregistered wire tag, an
//! unknown AHE variant byte and a disjoint version range are each refused
//! with a [`HandshakeAck::Refuse`] before any set-up work, and fail only
//! that session.
//!
//! A round is a batch of one: both control frames feed the same
//! `process_batch(count)` call, `[ROUND_EMAIL]` being shorthand for
//! `count = 1`. The built-in modules exchange each direction's per-round
//! messages as **one** frame per batch, and its form follows from `count`
//! alone, which both ends hold (`pretzel_transport::{send_rounds,
//! recv_rounds}`): one round's message travels bare, `count > 1` messages
//! travel packed by `pretzel_transport::pack_frames`. [`MailroomClient`]
//! announces a single round as `[ROUND_EMAIL]` and only `n > 1` as
//! `[ROUND_BATCH, n]`; a hand-written `[ROUND_BATCH, 1]` is served like
//! `[ROUND_EMAIL]`, bare. [`MailroomClient::process_batch`] splits a batch
//! longer than [`MAX_BATCH_ROUNDS`] into exchanges of at most that many
//! rounds.
//!
//! The `wire_tag` byte is resolved through the mailroom's
//! [`pretzel_core::ProtocolRegistry`] — the four built-in modules by
//! default, plus anything registered via [`Mailroom::start_with_registry`].
//!
//! [`Channel`]: pretzel_transport::Channel

#![warn(missing_docs)]

mod client;
mod mailroom;
mod queue;

pub use client::{ClientSpec, ClientSpecBuilder, MailroomClient};
pub use mailroom::{
    serve_tcp_sessions, KindTotals, Mailroom, MailroomConfig, MailroomConfigBuilder,
    MailroomReport, SessionId, SessionState, SessionStats,
};
pub use pretzel_core::bank::{BankConfig, BankReport, ReservoirStats};
pub use queue::{BoundedQueue, PushError};

use pretzel_core::PretzelError;
use pretzel_transport::wire::HandshakeError;
use pretzel_transport::TransportError;

// Negotiation vocabulary, re-exported so mailroom users can build specs and
// inspect reports without importing `pretzel_transport` themselves.
pub use pretzel_transport::wire::{
    Capabilities, HandshakeAck, HandshakeOffer, NegotiatedProfile, NegotiationPolicy,
    ProtocolVersion,
};

/// Ack byte: the session was accepted and queued for a worker.
pub const ACK_ACCEPTED: u8 = 0x41;
/// Ack byte: the mailroom is at capacity (or shutting down); retry later.
pub const ACK_BUSY: u8 = 0x42;
/// Control byte opening one per-email round.
pub const ROUND_EMAIL: u8 = 1;
/// Control byte opening one batched round: followed by a little-endian
/// `u32` round count in the same frame.
pub const ROUND_BATCH: u8 = 2;
/// Control byte ending a session.
pub const ROUND_BYE: u8 = 0;
/// Upper bound on the rounds one [`ROUND_BATCH`] frame may announce — a
/// sanity cap so a malicious count cannot size provider allocations.
pub const MAX_BATCH_ROUNDS: usize = 4096;

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServerError {
    /// The provider refused the session (mailroom at capacity).
    Busy,
    /// The mailroom is shutting down and no longer accepts sessions.
    ShuttingDown,
    /// Intake rejected this submission because the queue was full; the
    /// client was told [`ACK_BUSY`]. Carries the rejected session's id.
    Backpressure(SessionId),
    /// The handshake failed: malformed offer, no version overlap, or
    /// unknown wire tag. Structured so callers can distinguish "speak
    /// another version" from "this function does not exist here".
    Handshake(HandshakeError),
    /// A round-control frame violated the session rules — an unknown
    /// control byte, or a degenerate or oversized batch count.
    Control(String),
    /// A protocol-layer failure inside a session.
    Pretzel(PretzelError),
    /// A transport failure outside any protocol (handshake I/O).
    Transport(TransportError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Busy => write!(f, "provider busy: session refused"),
            ServerError::ShuttingDown => write!(f, "mailroom is shutting down"),
            ServerError::Backpressure(id) => {
                write!(f, "intake queue full: session {id} rejected")
            }
            ServerError::Handshake(e) => write!(f, "handshake: {e}"),
            ServerError::Control(msg) => write!(f, "round control: {msg}"),
            ServerError::Pretzel(e) => write!(f, "protocol: {e}"),
            ServerError::Transport(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<PretzelError> for ServerError {
    fn from(e: PretzelError) -> Self {
        ServerError::Pretzel(e)
    }
}

impl From<TransportError> for ServerError {
    fn from(e: TransportError) -> Self {
        ServerError::Transport(e)
    }
}

impl From<HandshakeError> for ServerError {
    fn from(e: HandshakeError) -> Self {
        ServerError::Handshake(e)
    }
}
