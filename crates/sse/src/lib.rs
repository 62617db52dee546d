//! Provider-side keyword search over encrypted email via searchable symmetric
//! encryption (SSE).
//!
//! The paper's keyword-search module (§5, Figure 15) is a purely client-side
//! inverted index; the paper notes that a *provider-side* solution — needed
//! when a user logs in from a new machine and has no local index — "could be
//! built on searchable symmetric encryption" and leaves it as future work.
//! This crate is the substrate of that extension; `pretzel_core::search`
//! serves it as a function module.
//!
//! The construction is a single-keyword, response-hiding SSE scheme in the
//! style of the classic inverted-index schemes (Curtmola et al.; Cash et
//! al.'s basic construction):
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
//! * To search, the client hands over only `K_l(w)`
//!   ([`SseClient::label_key`]); the provider walks `c = 0, 1, 2, …` until a
//!   label misses and returns the sealed postings
//!   ([`EncryptedIndex::lookup_sealed`]). The client checks each tag before
//!   opening the id ([`SseClient::open_results`]). The value key never
//!   leaves the client.
//!
//! What the provider learns: the number of indexed (keyword, email) pairs,
//! the result count per query, and the access pattern across repeated
//! queries. It never learns keywords, email contents or the matching email
//! ids. This matches the standard SSE leakage profile and is strictly less
//! than the status quo (plaintext search at the provider).
//!
//! The two pieces are:
//!
//! * [`SseClient`] — key material plus the per-keyword counters that make
//!   updates possible (client state is a few bytes per distinct keyword,
//!   far smaller than the full Figure 15 client-side index).
//! * [`EncryptedIndex`] — the provider-side store.

#![warn(missing_docs)]

mod client;
mod server;

pub use client::{SseClient, UpdateBatch};
pub use server::EncryptedIndex;

/// Identifier of an indexed email (matches `pretzel_search::DocId`).
pub type DocId = u64;

/// One stored posting: the sealed email id (8 bytes) followed by its tag
/// (8 bytes). Only the holder of the keyword's value key can open the id or
/// make a tag that verifies.
pub type SealedPosting = [u8; 16];

/// Errors surfaced by the SSE scheme.
#[derive(Debug)]
pub enum SseError {
    /// A peer sent a malformed message.
    Protocol(String),
}

impl std::fmt::Display for SseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SseError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for SseError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SseError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_names_the_cause() {
        let p = SseError::Protocol("bad".into());
        assert!(p.to_string().contains("bad"));
    }
}
