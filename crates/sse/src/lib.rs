//! Provider-side keyword search over encrypted email via searchable symmetric
//! encryption (SSE).
//!
//! The paper's keyword-search module (§5, Figure 15) is a purely client-side
//! inverted index; the paper notes that a *provider-side* solution — needed
//! when a user logs in from a new machine and has no local index — "could be
//! built on searchable symmetric encryption" and leaves it as future work.
//! This crate implements that extension so the repository covers it.
//!
//! The construction is a single-keyword, response-revealing-to-the-client SSE
//! scheme in the style of the classic inverted-index schemes (Curtmola et
//! al.; Cash et al.'s basic construction):
//!
//! * The client holds a 32-byte master key. For every keyword `w` it derives
//!   two subkeys with HMAC-SHA-256: a **label key** `K_l(w)` and a **value
//!   key** `K_v(w)`.
//! * The `c`-th email containing `w` is stored at the provider under the
//!   opaque label `HMAC(K_l(w), c)`, with a 16-byte [`SealedPosting`] as
//!   value: the email id XORed with an `HMAC(K_v(w), c ‖ "pad")` pad, then
//!   an 8-byte tag `HMAC(K_v(w), c ‖ sealed id)` that binds the sealed id to
//!   its keyword and position. The provider sees only uniformly
//!   random-looking labels and postings.
//! * To search, the client sends `K_l(w)` and `K_v(w)` for the queried word;
//!   the provider walks `c = 0, 1, 2, …` until a label misses and returns the
//!   decrypted email ids. (Sending `K_v(w)` lets the provider decrypt the ids
//!   of *matching* emails — the same information it necessarily learns when
//!   it is asked to fetch those emails — and keeps the protocol to one round
//!   trip. A response-hiding variant returns the sealed postings instead
//!   ([`server::EncryptedIndex::lookup_sealed`]), and the client checks each
//!   tag before opening the id ([`SseClient::open_results`]).)
//!
//! What the provider learns: the number of indexed (keyword, email) pairs,
//! the result count per query, and the access pattern across repeated
//! queries. It never learns keywords or email contents. This matches the
//! standard SSE leakage profile and is strictly less than the status quo
//! (plaintext search at the provider).
//!
//! The three pieces are:
//!
//! * [`SseClient`] — key material plus the per-keyword counters that make
//!   updates possible (client state is a few bytes per distinct keyword,
//!   far smaller than the full Figure 15 client-side index).
//! * [`EncryptedIndex`] — the provider-side store.
//! * [`SseClientEndpoint`] / [`SseProviderEndpoint`] — the two-message
//!   client/provider exchange over the same [`pretzel_transport::Channel`]
//!   abstraction the other function modules use.

#![warn(missing_docs)]

mod client;
mod protocol;
mod server;

pub use client::{SearchToken, SseClient, UpdateBatch};
pub use protocol::{SseClientEndpoint, SseProviderEndpoint};
pub use server::EncryptedIndex;

/// Identifier of an indexed email (matches `pretzel_search::DocId`).
pub type DocId = u64;

/// One stored posting: the sealed email id (8 bytes) followed by its tag
/// (8 bytes). Only the holder of the keyword's value key can open the id or
/// make a tag that verifies.
pub type SealedPosting = [u8; 16];

/// Errors surfaced by the SSE protocol endpoints.
#[derive(Debug)]
pub enum SseError {
    /// The underlying channel failed.
    Transport(pretzel_transport::TransportError),
    /// A peer sent a malformed message.
    Protocol(String),
}

impl std::fmt::Display for SseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SseError::Transport(e) => write!(f, "transport error: {e}"),
            SseError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for SseError {}

impl From<pretzel_transport::TransportError> for SseError {
    fn from(e: pretzel_transport::TransportError) -> Self {
        SseError::Transport(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SseError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_covers_both_variants() {
        let p = SseError::Protocol("bad".into());
        assert!(p.to_string().contains("bad"));
        let t = SseError::from(pretzel_transport::TransportError::Closed);
        assert!(t.to_string().contains("transport"));
    }
}
