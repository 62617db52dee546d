//! Pretzel: end-to-end encrypted email with provider-supplied functions.
//!
//! This crate is the paper's primary contribution (§2–§4): it composes the
//! substrate crates — `pretzel-e2e` (end-to-end encryption), `pretzel-rlwe`
//! and `pretzel-paillier` (additively homomorphic encryption), `pretzel-sdp`
//! (GLLM secure dot products with packing), `pretzel-gc` (Yao's garbled
//! circuits with OT extension), and `pretzel-classifiers` (linear models) —
//! into the two function modules the paper evaluates, plus the reference
//! systems they are compared against:
//!
//! * [`spam`] — private spam filtering: the client learns a single spam/ham
//!   bit per email, the provider learns nothing (§3.3, §4.1–§4.2, Figures
//!   7–9).
//! * [`topic`] — private topic extraction with decomposed classification: the
//!   provider learns a single topic index per email, the client's candidate
//!   set and email stay hidden (§4.3, Figure 5, Figures 10–14).
//! * [`virus`] — private virus scanning of attachments, one of the functions
//!   the paper lists as future work (§7); it reuses the spam machinery over a
//!   hashed byte n-gram feature space.
//! * [`ahe`] — the AHE endpoint those three share: key generation, the
//!   encrypted-model transfer and its validation, the client's dot product
//!   and blinding, the provider's decryption of the blinded result.
//! * [`noprivate`] — the NoPriv reference: a provider that classifies
//!   plaintext, the paper's status-quo comparator.
//! * [`costmodel`] — the analytic cost model of Figure 3.
//! * [`setup`] — joint randomness for AHE parameter generation (§3.3,
//!   footnote 3).
//! * [`replay`] — the per-sender replay defense of §4.4.
//! * [`config`] — parameter presets ("test" scale vs "paper" scale).
//! * [`search`] — provider-served encrypted keyword search over searchable
//!   symmetric encryption with RLWE-packed responses (the provider-side
//!   search the paper sketches as future work in §5, promoted to a full
//!   function module).
//! * [`registry`] — the function-module registry: object-safe
//!   [`FunctionModule`] descriptors keyed by wire tag, the extension point
//!   that makes a fifth provider function a registration instead of a core
//!   edit.
//! * [`session`] — uniform, session-reusable entry points over the
//!   registered function modules, used by the `pretzel_server` mailroom to
//!   multiplex many concurrent sessions; the online phase is one path —
//!   a coalesced batch of rounds, a single email being the batch of one.
//! * [`bank`] — precompute, once: the fleet-wide bank (per-kind artifact
//!   reservoirs kept full by background producer threads scheduled over a
//!   dependency DAG), the object-safe [`bank::PrecomputeSource`] trait every
//!   provider session draws through (work-stealing draws, counted inline
//!   fallbacks, an empty source when no bank runs), and the session-local
//!   stock of a client's explicit offline phase.

#![warn(missing_docs)]

pub mod ahe;
pub mod bank;
pub mod config;
pub mod costmodel;
pub mod noprivate;
pub mod registry;
pub mod replay;
pub mod search;
pub mod session;
pub mod setup;
pub mod spam;
pub mod topic;
pub mod virus;

pub use bank::{
    BankConfig, BankReport, PrecomputeBank, PrecomputeSource, ReservoirId, ReservoirSpec,
    ReservoirStats,
};
pub use config::{PretzelConfig, Scale};
pub use noprivate::NoPrivProvider;
pub use registry::{
    ClientContext, ClientModule, FunctionModule, ProtocolRegistry, ProviderModule, WireTag,
};
pub use replay::ReplayGuard;
pub use session::{ClientSession, EmailPayload, ProviderModelSuite, ProviderSession, Verdict};

/// Errors surfaced by the Pretzel function modules.
#[derive(Debug)]
pub enum PretzelError {
    /// Transport failure.
    Transport(pretzel_transport::TransportError),
    /// Garbled-circuit / OT failure.
    Gc(pretzel_gc::GcError),
    /// Secure dot-product failure.
    Sdp(pretzel_sdp::SdpError),
    /// Searchable-symmetric-encryption failure (search sessions).
    Sse(pretzel_sse::SseError),
    /// AHE failure.
    Ahe(String),
    /// A protocol message was malformed or out of order.
    Protocol(String),
    /// Replay detected (an email was fed to a function module twice).
    Replay {
        /// Sender whose duplicate-suppression window rejected the email.
        sender: String,
        /// The replayed message identifier.
        message_id: u64,
    },
}

impl std::fmt::Display for PretzelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PretzelError::Transport(e) => write!(f, "transport: {e}"),
            PretzelError::Gc(e) => write!(f, "garbled circuits: {e}"),
            PretzelError::Sdp(e) => write!(f, "secure dot product: {e}"),
            PretzelError::Sse(e) => write!(f, "searchable encryption: {e}"),
            PretzelError::Ahe(e) => write!(f, "AHE: {e}"),
            PretzelError::Protocol(e) => write!(f, "protocol: {e}"),
            PretzelError::Replay { sender, message_id } => {
                write!(f, "replay detected from {sender} (message {message_id})")
            }
        }
    }
}

impl std::error::Error for PretzelError {}

impl From<pretzel_transport::TransportError> for PretzelError {
    fn from(e: pretzel_transport::TransportError) -> Self {
        PretzelError::Transport(e)
    }
}

impl From<pretzel_gc::GcError> for PretzelError {
    fn from(e: pretzel_gc::GcError) -> Self {
        PretzelError::Gc(e)
    }
}

impl From<pretzel_sdp::SdpError> for PretzelError {
    fn from(e: pretzel_sdp::SdpError) -> Self {
        PretzelError::Sdp(e)
    }
}

impl From<pretzel_sse::SseError> for PretzelError {
    fn from(e: pretzel_sse::SseError) -> Self {
        PretzelError::Sse(e)
    }
}

/// Result alias for Pretzel operations.
pub type Result<T> = std::result::Result<T, PretzelError>;

/// Encodes a `u64` as 8 little-endian bytes (tiny helper for protocol
/// metadata messages).
pub(crate) fn u64_bytes(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

/// Decodes a `u64` from a protocol message.
pub(crate) fn parse_u64(bytes: &[u8]) -> Result<u64> {
    bytes
        .try_into()
        .map(u64::from_le_bytes)
        .map_err(|_| PretzelError::Protocol("expected an 8-byte integer message".into()))
}
