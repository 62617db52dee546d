//! Two-party wiring of the SSE scheme over the transport abstraction.
//!
//! The exchange is deliberately simple — the privacy comes from what the
//! messages contain (opaque labels and ciphertexts), not from the transport:
//!
//! * `UPLOAD`: client → provider, a batch of `(label, sealed posting)`
//!   entries.
//! * `SEARCH`: client → provider, a per-keyword token; provider → client,
//!   the matching email ids.
//! * `CLOSE`: client → provider, ends the session.
//!
//! Wire format: one length-prefixed message per step (the `Channel` trait
//! already frames messages); the first byte is the message tag.

use pretzel_transport::Channel;

use crate::client::{SearchToken, SseClient, UpdateBatch};
use crate::server::EncryptedIndex;
use crate::{DocId, Result, SseError};

const TAG_UPLOAD: u8 = 0;
const TAG_SEARCH: u8 = 1;
const TAG_CLOSE: u8 = 2;

/// Client endpoint: wraps an [`SseClient`] and a channel to the provider.
pub struct SseClientEndpoint {
    state: SseClient,
}

impl SseClientEndpoint {
    /// Wraps existing client state.
    pub fn new(state: SseClient) -> Self {
        SseClientEndpoint { state }
    }

    /// Access to the underlying client state (keys and counters).
    pub fn state(&self) -> &SseClient {
        &self.state
    }

    /// Indexes an email and uploads its postings to the provider.
    pub fn index_and_upload<C: Channel>(
        &mut self,
        channel: &mut C,
        doc_id: DocId,
        body: &str,
    ) -> Result<usize> {
        let batch = self.state.index_email(doc_id, body);
        let mut msg = vec![TAG_UPLOAD];
        msg.extend_from_slice(&batch.to_wire_bytes());
        channel.send(&msg)?;
        Ok(batch.len())
    }

    /// Searches for a keyword at the provider and returns the matching email
    /// ids.
    pub fn search<C: Channel>(&self, channel: &mut C, keyword: &str) -> Result<Vec<DocId>> {
        let token = self.state.search_token(keyword);
        let mut msg = Vec::with_capacity(1 + 64);
        msg.push(TAG_SEARCH);
        msg.extend_from_slice(&token.label_key);
        msg.extend_from_slice(&token.value_key);
        channel.send(&msg)?;

        let reply = channel.recv()?;
        if reply.len() < 8 || !(reply.len() - 8).is_multiple_of(8) {
            return Err(SseError::Protocol("malformed search reply".into()));
        }
        // The count is the provider's claim, so it is compared against the
        // ids carried without multiplying it.
        let count = u64::from_le_bytes(reply[..8].try_into().expect("checked length"));
        if ((reply.len() - 8) / 8) as u64 != count {
            return Err(SseError::Protocol("search reply length mismatch".into()));
        }
        Ok(reply[8..]
            .chunks_exact(8)
            .map(|c| DocId::from_le_bytes(c.try_into().expect("chunked by 8")))
            .collect())
    }

    /// Tells the provider the session is over.
    pub fn close<C: Channel>(&self, channel: &mut C) -> Result<()> {
        channel.send(&[TAG_CLOSE])?;
        Ok(())
    }
}

/// Provider endpoint: owns the encrypted index and serves client requests.
#[derive(Default)]
pub struct SseProviderEndpoint {
    index: EncryptedIndex,
}

impl SseProviderEndpoint {
    /// Creates an endpoint with an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the stored index (for size accounting).
    pub fn index(&self) -> &EncryptedIndex {
        &self.index
    }

    /// Serves client messages until the client closes the session.
    /// Returns the number of requests handled (uploads + searches).
    pub fn serve<C: Channel>(&mut self, channel: &mut C) -> Result<usize> {
        let mut handled = 0usize;
        loop {
            let msg = channel.recv()?;
            match msg.first() {
                Some(&TAG_UPLOAD) => {
                    self.handle_upload(&msg[1..])?;
                    handled += 1;
                }
                Some(&TAG_SEARCH) => {
                    self.handle_search(channel, &msg[1..])?;
                    handled += 1;
                }
                Some(&TAG_CLOSE) => return Ok(handled),
                Some(other) => {
                    return Err(SseError::Protocol(format!("unknown message tag {other}")))
                }
                None => return Err(SseError::Protocol("empty message".into())),
            }
        }
    }

    fn handle_upload(&mut self, body: &[u8]) -> Result<()> {
        let batch = UpdateBatch::from_wire_bytes(body)?;
        self.index.apply(&batch);
        Ok(())
    }

    fn handle_search<C: Channel>(&mut self, channel: &mut C, body: &[u8]) -> Result<()> {
        if body.len() != 64 {
            return Err(SseError::Protocol("search token must be 64 bytes".into()));
        }
        let mut label_key = [0u8; 32];
        label_key.copy_from_slice(&body[..32]);
        let mut value_key = [0u8; 32];
        value_key.copy_from_slice(&body[32..]);
        let hits = self.index.lookup(&SearchToken {
            label_key,
            value_key,
        });
        let mut reply = Vec::with_capacity(8 + hits.len() * 8);
        reply.extend_from_slice(&(hits.len() as u64).to_le_bytes());
        for id in hits {
            reply.extend_from_slice(&id.to_le_bytes());
        }
        channel.send(&reply)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_transport::run_two_party;

    #[test]
    fn upload_then_search_round_trip() {
        let emails = [
            (1u64, "quarterly earnings report attached"),
            (2u64, "lunch at noon"),
            (3u64, "earnings call rescheduled"),
        ];
        let (provider_res, client_res) = run_two_party(
            |chan| {
                let mut provider = SseProviderEndpoint::new();
                let handled = provider.serve(chan)?;
                Ok::<_, SseError>((handled, provider.index().len()))
            },
            move |chan| {
                let mut client = SseClientEndpoint::new(SseClient::from_master_key([21u8; 32]));
                for (id, body) in emails {
                    client.index_and_upload(chan, id, body)?;
                }
                let mut earnings = client.search(chan, "earnings")?;
                earnings.sort_unstable();
                let lunch = client.search(chan, "lunch")?;
                let missing = client.search(chan, "nonexistent")?;
                client.close(chan)?;
                Ok::<_, SseError>((earnings, lunch, missing))
            },
        );
        let (handled, stored) = provider_res.unwrap();
        let (earnings, lunch, missing) = client_res.unwrap();
        assert_eq!(earnings, vec![1, 3]);
        assert_eq!(lunch, vec![2]);
        assert!(missing.is_empty());
        assert_eq!(handled, 6, "3 uploads + 3 searches");
        assert!(stored > 0);
    }

    #[test]
    fn provider_rejects_malformed_messages() {
        let (provider_res, _) = run_two_party(
            |chan| SseProviderEndpoint::new().serve(chan),
            |chan| {
                chan.send(&[99u8, 1, 2, 3]).unwrap();
            },
        );
        assert!(matches!(provider_res, Err(SseError::Protocol(_))));

        let (provider_res, _) = run_two_party(
            |chan| SseProviderEndpoint::new().serve(chan),
            |chan| {
                // UPLOAD claiming 5 entries but carrying none.
                let mut msg = vec![TAG_UPLOAD];
                msg.extend_from_slice(&5u64.to_le_bytes());
                chan.send(&msg).unwrap();
            },
        );
        assert!(matches!(provider_res, Err(SseError::Protocol(_))));

        let (provider_res, _) = run_two_party(
            |chan| SseProviderEndpoint::new().serve(chan),
            |chan| {
                // SEARCH with a short token.
                let msg = vec![TAG_SEARCH, 0, 1, 2];
                chan.send(&msg).unwrap();
            },
        );
        assert!(matches!(provider_res, Err(SseError::Protocol(_))));
    }

    #[test]
    fn a_reply_declaring_more_ids_than_it_carries_is_rejected() {
        // One id carried, 2^61 + 1 declared: `8 + count * 8` overflows to 16,
        // the reply's real length — a panic under debug overflow checks, and
        // one accepted id when the multiplication wraps.
        let (_, client_res) = run_two_party(
            |chan| {
                let _query = chan.recv().unwrap();
                let mut reply = ((1u64 << 61) + 1).to_le_bytes().to_vec();
                reply.extend_from_slice(&7u64.to_le_bytes());
                chan.send(&reply).unwrap();
            },
            |chan| {
                SseClientEndpoint::new(SseClient::from_master_key([23u8; 32]))
                    .search(chan, "anything")
            },
        );
        assert!(
            matches!(client_res, Err(SseError::Protocol(_))),
            "got {client_res:?}"
        );
    }

    #[test]
    fn provider_never_sees_keywords_or_plaintext_ids_in_uploads() {
        // Capture the raw upload bytes and check they contain neither the
        // keyword bytes nor the little-endian doc id.
        let (upload_bytes, _) = run_two_party(
            |chan| chan.recv().unwrap(),
            |chan| {
                let mut client = SseClientEndpoint::new(SseClient::from_master_key([22u8; 32]));
                client
                    .index_and_upload(chan, 0xDEADBEEF, "confidential merger")
                    .unwrap();
            },
        );
        let haystack = &upload_bytes[..];
        for needle in [&b"confidential"[..], &b"merger"[..]] {
            assert!(
                !haystack.windows(needle.len()).any(|w| w == needle),
                "keyword leaked into upload"
            );
        }
        let id_bytes = 0xDEADBEEFu64.to_le_bytes();
        assert!(
            !haystack.windows(8).any(|w| w == id_bytes),
            "doc id leaked into upload"
        );
    }
}
