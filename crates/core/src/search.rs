//! Provider-served encrypted keyword search as a Pretzel function module.
//!
//! The paper's keyword-search module (§5) is client-side; the provider-side
//! variant it sketches as future work is implemented by `pretzel_sse` as a
//! bare two-message protocol. This module promotes that protocol to a
//! first-class function module with the same `setup → process_batch` shape
//! as spam/topic/virus, so the `pretzel_server` mailroom can serve search
//! sessions next to classification sessions.
//!
//! Protocol (one session):
//!
//! * **Setup** sends no frames: the client samples a fresh SSE master key,
//!   the provider starts an empty index, and a reply's capacity is the
//!   protocol constant [`RESPONSE_CAPACITY`].
//! * **Per-round phase** — the client drives one of two operations per round:
//!   an **index** round uploads the postings of one email (opaque HMAC
//!   labels and tagged sealed ids, exactly the `pretzel_sse` update format),
//!   or a **query** round sends a 32-byte label key (response-hiding: the
//!   value key never leaves the client) and receives the true match count
//!   and up to [`RESPONSE_CAPACITY`] sealed postings, zero-padded to
//!   [`REPLY_LEN`] bytes. The client checks every returned posting's tag at
//!   its position and opens the ids locally.
//!
//! What the provider learns: posting counts, per-query result counts and the
//! access pattern — the standard SSE leakage. It never sees keywords, email
//! contents, or (thanks to response hiding) even the matching document ids.
//! Every reply has the same length, so a network observer does not learn
//! the per-query result count either. Each posting's tag is keyed by the
//! client's value key and bound to the posting's position, so a posting the
//! provider forges, substitutes, reorders or takes from another keyword is a
//! protocol error rather than a wrong id (`tests/adversarial.rs` pins both).

use rand::{Rng, RngCore};

use pretzel_sse::{DocId, EncryptedIndex, SealedPosting, SseClient, UpdateBatch};
use pretzel_transport::{recv_rounds, send_rounds, Channel};

use crate::registry::{ClientContext, ClientModule, FunctionModule, ProviderModule, WireTag};
use crate::session::{client_round, payload_mismatch, EmailPayload, ProviderModelSuite, Verdict};
use crate::spam::AheVariant;
use crate::{parse_u64, u64_bytes, PretzelError, Result};

/// Round-message tag: upload one email's encrypted postings.
const TAG_INDEX: u8 = 0;
/// Round-message tag: single-keyword query (32-byte label key follows).
const TAG_QUERY: u8 = 1;

/// Sealed postings one query reply carries. A keyword with more matches is
/// answered with its first this many, and the reply's count says how many
/// there were.
pub const RESPONSE_CAPACITY: usize = 255;

/// Bytes of one posting slot in a reply.
const POSTING_LEN: usize = std::mem::size_of::<SealedPosting>();

/// Length of every query reply: the `u64` match count, then
/// [`RESPONSE_CAPACITY`] posting slots, the unused ones zero.
pub const REPLY_LEN: usize = 8 + RESPONSE_CAPACITY * POSTING_LEN;

/// What a query round returned to the client. `total` is the provider's true
/// match count; when it exceeds `ids.len()` the result set was truncated to
/// the per-response capacity, and the client knows exactly how many matches
/// were dropped rather than mistaking a full response for an exact one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchResults {
    /// Ids of the returned matching emails (at most the response capacity).
    pub ids: Vec<DocId>,
    /// Total matching postings at the provider, before truncation.
    pub total: u64,
}

impl SearchResults {
    /// True when the provider had more matches than one response carries.
    pub fn truncated(&self) -> bool {
        self.total > self.ids.len() as u64
    }
}

/// Provider endpoint of the encrypted-search module: the session's
/// encrypted index.
#[derive(Default)]
pub struct SearchProvider {
    index: EncryptedIndex,
}

impl SearchProvider {
    /// A provider with an empty index (set-up exchanges no frames).
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the stored encrypted index (size accounting).
    pub fn index(&self) -> &EncryptedIndex {
        &self.index
    }

    /// Executes one operation message — an index upload or a query, as
    /// chosen by the client — and returns the reply bytes.
    fn handle_op(&mut self, msg: &[u8]) -> Result<Vec<u8>> {
        match msg.first() {
            Some(&TAG_INDEX) => {
                let batch = UpdateBatch::from_wire_bytes(&msg[1..])?;
                self.index.apply(&batch);
                Ok(u64_bytes(batch.len() as u64).to_vec())
            }
            Some(&TAG_QUERY) => {
                let label_key: &[u8; 32] = msg[1..].try_into().map_err(|_| {
                    PretzelError::Protocol("search query must carry a 32-byte label key".into())
                })?;
                let postings = self.index.lookup_sealed(label_key);
                let mut reply = vec![0u8; REPLY_LEN];
                reply[..8].copy_from_slice(&u64_bytes(postings.len() as u64));
                for (slot, posting) in reply[8..].chunks_exact_mut(POSTING_LEN).zip(&postings) {
                    slot.copy_from_slice(posting);
                }
                Ok(reply)
            }
            Some(other) => Err(PretzelError::Protocol(format!(
                "unknown search round tag {other}"
            ))),
            None => Err(PretzelError::Protocol("empty search round message".into())),
        }
    }
}

/// Client endpoint of the encrypted-search module.
pub struct SearchClient {
    sse: SseClient,
}

impl SearchClient {
    /// A client with a freshly sampled SSE master key (set-up exchanges no
    /// frames).
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        SearchClient {
            sse: SseClient::generate(rng),
        }
    }

    /// Client-side storage: the SSE master key and one counter per distinct
    /// keyword.
    pub fn storage_bytes(&self) -> usize {
        32 + self.sse.distinct_keywords() * 8
    }

    /// Distinct keywords indexed so far (the size of the client's sync
    /// state, see [`SseClient::distinct_keywords`]).
    pub fn distinct_keywords(&self) -> usize {
        self.sse.distinct_keywords()
    }

    /// Index round — a batch of one: encrypts one email body's postings
    /// under the SSE keys and uploads them. Returns the number of postings
    /// stored.
    pub fn index_email<C: Channel, R: Rng + ?Sized>(
        &mut self,
        channel: &mut C,
        doc_id: DocId,
        body: &str,
        rng: &mut R,
    ) -> Result<usize> {
        let op = EmailPayload::SearchIndex {
            doc_id,
            body: body.to_string(),
        };
        let verdict = client_round(self, channel, &op, rng)?;
        let Verdict::SearchIndexed { postings } = verdict else {
            unreachable!("an index round yields an index verdict, got {verdict:?}")
        };
        Ok(postings)
    }

    /// Builds one index round's request message, returning it with the
    /// number of postings it uploads. Advances the per-keyword SSE counters,
    /// so requests must reach the provider in build order.
    fn index_request(&mut self, doc_id: DocId, body: &str) -> (Vec<u8>, usize) {
        let batch = self.sse.index_email(doc_id, body);
        let mut msg = vec![TAG_INDEX];
        msg.extend_from_slice(&batch.to_wire_bytes());
        (msg, batch.len())
    }

    /// Validates an index round's acknowledgement against the upload size.
    fn check_index_ack(&self, reply: &[u8], uploaded: usize) -> Result<()> {
        let acked = parse_u64(reply)? as usize;
        if acked != uploaded {
            return Err(PretzelError::Protocol(format!(
                "provider acknowledged {acked} postings, uploaded {uploaded}"
            )));
        }
        Ok(())
    }

    /// Builds one query round's request message.
    fn query_request(&self, keyword: &str) -> Vec<u8> {
        let token = self.sse.search_token(keyword);
        let mut msg = Vec::with_capacity(1 + 32);
        msg.push(TAG_QUERY);
        msg.extend_from_slice(&token.label_key);
        msg
    }

    /// Query round — a batch of one: sends the keyword's label key and opens
    /// the fixed-size reply.
    ///
    /// A reply of any other length, or any returned posting whose tag fails,
    /// is a [`PretzelError::Protocol`] error — the client never returns a
    /// document id the provider made up or moved.
    pub fn query<C: Channel, R: Rng + ?Sized>(
        &mut self,
        channel: &mut C,
        keyword: &str,
        rng: &mut R,
    ) -> Result<SearchResults> {
        let op = EmailPayload::SearchQuery(keyword.to_string());
        let verdict = client_round(self, channel, &op, rng)?;
        let Verdict::SearchHits { ids, total } = verdict else {
            unreachable!("a query round yields search hits, got {verdict:?}")
        };
        Ok(SearchResults { ids, total })
    }

    /// Checks one query reply's length and the tag of every posting its
    /// count says it carries, then opens the ids.
    fn open_response(&self, keyword: &str, reply: &[u8]) -> Result<SearchResults> {
        if reply.len() != REPLY_LEN {
            return Err(PretzelError::Protocol(format!(
                "search reply of {} bytes, expected {REPLY_LEN}",
                reply.len()
            )));
        }
        let total = parse_u64(&reply[..8])?;
        let returned = total.min(RESPONSE_CAPACITY as u64) as usize;
        let postings: Vec<SealedPosting> = reply[8..]
            .chunks_exact(POSTING_LEN)
            .take(returned)
            .map(|posting| posting.try_into().expect("chunked by the posting length"))
            .collect();
        let ids = self
            .sse
            .open_results(keyword, &postings)
            .map_err(|e| PretzelError::Protocol(format!("search reply rejected: {e}")))?;
        Ok(SearchResults { ids, total })
    }
}

/// The registrable encrypted-keyword-search function module (wire tag 4).
pub struct SearchFunction;

impl SearchFunction {
    /// Handshake byte of the search module.
    pub const WIRE_TAG: WireTag = 4;
}

impl FunctionModule for SearchFunction {
    fn wire_tag(&self) -> WireTag {
        Self::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "search"
    }

    /// Search needs no trained model and no parameters, and its set-up
    /// sends nothing; the AHE variant byte is accepted but ignored.
    fn provider_setup(
        &self,
        _channel: &mut dyn Channel,
        _suite: &ProviderModelSuite,
        _variant: AheVariant,
        _rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ProviderModule>> {
        Ok(Box::new(SearchProvider::new()))
    }

    fn client_setup(
        &self,
        _channel: &mut dyn Channel,
        _ctx: &ClientContext,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ClientModule>> {
        Ok(Box::new(SearchClient::new(rng)))
    }
}

impl ProviderModule for SearchProvider {
    fn wire_tag(&self) -> WireTag {
        SearchFunction::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "search"
    }

    /// Serves `count` operations as one exchange: the operation messages
    /// arrive as one frame and the replies leave as one frame — two messages
    /// for the whole batch. A search round only produces the standard SSE
    /// leakage, not a per-round provider output. An empty batch exchanges no
    /// traffic.
    fn process_batch(
        &mut self,
        channel: &mut dyn Channel,
        count: usize,
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<Option<usize>>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let replies = recv_rounds(channel, count)?
            .iter()
            .map(|msg| self.handle_op(msg))
            .collect::<Result<Vec<_>>>()?;
        send_rounds(channel, &replies)?;
        Ok(vec![None; count])
    }
}

/// Per-round context a search client keeps between sending its requests and
/// parsing the replies.
enum PendingSearchOp<'a> {
    Index { uploaded: usize },
    Query { keyword: &'a str },
}

impl ClientModule for SearchClient {
    fn wire_tag(&self) -> WireTag {
        SearchFunction::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "search"
    }

    fn model_storage_bytes(&self) -> usize {
        self.storage_bytes()
    }

    /// Runs one index or query round per payload as one exchange: one
    /// frame of requests out, one frame of replies back. An empty batch
    /// exchanges no traffic.
    fn process_batch(
        &mut self,
        channel: &mut dyn Channel,
        payloads: &[EmailPayload],
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<Verdict>> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        // Build every round's request first (index requests advance the SSE
        // counters in payload order), then exchange two frames with the
        // provider.
        let mut requests = Vec::with_capacity(payloads.len());
        let mut pending = Vec::with_capacity(payloads.len());
        for payload in payloads {
            match payload {
                EmailPayload::SearchIndex { doc_id, body } => {
                    let (msg, uploaded) = self.index_request(*doc_id, body);
                    requests.push(msg);
                    pending.push(PendingSearchOp::Index { uploaded });
                }
                EmailPayload::SearchQuery(keyword) => {
                    requests.push(self.query_request(keyword));
                    pending.push(PendingSearchOp::Query { keyword });
                }
                other => return Err(payload_mismatch("search", other)),
            }
        }
        send_rounds(channel, &requests)?;
        let replies = recv_rounds(channel, pending.len())?;
        pending
            .into_iter()
            .zip(&replies)
            .map(|(op, reply)| match op {
                PendingSearchOp::Index { uploaded } => {
                    self.check_index_ack(reply, uploaded)?;
                    Ok(Verdict::SearchIndexed { postings: uploaded })
                }
                PendingSearchOp::Query { keyword } => {
                    let results = self.open_response(keyword, reply)?;
                    Ok(Verdict::SearchHits {
                        ids: results.ids,
                        total: results.total,
                    })
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_transport::run_two_party;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn search_round_trip_finds_exactly_the_matching_emails() {
        let (postings, results) = run_two_party(
            |chan| {
                let mut rng = StdRng::seed_from_u64(31);
                let mut provider = SearchProvider::new();
                for _ in 0..6 {
                    provider.process_batch(chan, 1, &mut rng).unwrap();
                }
                provider.index().len()
            },
            |chan| {
                let mut rng = StdRng::seed_from_u64(32);
                let mut client = SearchClient::new(&mut rng);
                assert_eq!(
                    client.storage_bytes(),
                    32,
                    "set-up keeps only the master key"
                );
                for (id, body) in [
                    (1, "quarterly earnings report attached"),
                    (2, "lunch at noon"),
                    (3, "earnings call rescheduled"),
                ] {
                    client.index_email(chan, id, body, &mut rng).unwrap();
                }
                let mut results = Vec::new();
                for kw in ["earnings", "lunch", "nonexistent"] {
                    let results_kw = client.query(chan, kw, &mut rng).unwrap();
                    assert_eq!(results_kw.total, results_kw.ids.len() as u64);
                    assert!(!results_kw.truncated());
                    results.push(results_kw.ids);
                }
                assert_eq!(client.distinct_keywords(), 9);
                results
            },
        );
        assert_eq!(results, vec![vec![1, 3], vec![2], vec![]]);
        assert_eq!(postings, 4 + 3 + 3, "one posting per distinct keyword");
    }

    /// No hits and more hits than one reply carries make replies of the
    /// same length; the larger set is cut to the capacity, in index order,
    /// and its count is the true total.
    #[test]
    fn replies_are_fixed_size_and_truncate_to_capacity_with_the_true_total() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut client = SearchClient::new(&mut rng);
        let mut provider = SearchProvider::new();
        let indexed = RESPONSE_CAPACITY as u64 + 3;
        for id in 0..indexed {
            let (msg, _) = client.index_request(id, "recurring newsletter");
            provider.handle_op(&msg).unwrap();
        }
        let none = provider.handle_op(&client.query_request("absent")).unwrap();
        let many = provider
            .handle_op(&client.query_request("recurring"))
            .unwrap();
        assert_eq!((none.len(), many.len()), (REPLY_LEN, REPLY_LEN));

        let empty = client.open_response("absent", &none).unwrap();
        assert_eq!((empty.ids.len(), empty.total), (0, 0));
        let results = client.open_response("recurring", &many).unwrap();
        assert_eq!(
            results.ids,
            (0..RESPONSE_CAPACITY as u64).collect::<Vec<_>>()
        );
        assert_eq!(results.total, indexed, "the true match count survives");
        assert!(results.truncated());
    }

    #[test]
    fn provider_rejects_malformed_round_messages() {
        let mut provider = SearchProvider::new();
        let mut short_upload = vec![TAG_INDEX];
        short_upload.extend_from_slice(&5u64.to_le_bytes());
        for bad in [
            vec![],
            vec![9u8, 1, 2],
            vec![TAG_QUERY, 1, 2, 3],
            short_upload,
        ] {
            let res = provider.handle_op(&bad);
            assert!(
                matches!(
                    res,
                    Err(PretzelError::Protocol(_))
                        | Err(PretzelError::Sse(pretzel_sse::SseError::Protocol(_)))
                ),
                "provider must reject {bad:?}, got {res:?}"
            );
        }
    }

    #[test]
    fn upload_count_overflow_is_rejected_not_panicking() {
        // An attacker-controlled posting count near u64::MAX must be a clean
        // protocol error: naive `count * 48` panics in debug builds and
        // wraps in release (letting a huge count masquerade as one entry).
        let mut provider = SearchProvider::new();
        for evil_count in [u64::MAX, 1 + (1u64 << 62)] {
            let mut msg = vec![TAG_INDEX];
            msg.extend_from_slice(&evil_count.to_le_bytes());
            msg.extend_from_slice(&[0u8; 48]); // one real entry
            let res = provider.handle_op(&msg);
            assert!(
                matches!(res, Err(PretzelError::Sse(_))),
                "count {evil_count} must be rejected, got {res:?}"
            );
        }
    }
}
