//! Provider-served encrypted keyword search as a Pretzel function module.
//!
//! The paper's keyword-search module (§5) is client-side; the provider-side
//! variant it sketches as future work is implemented by `pretzel_sse` as a
//! bare two-message protocol. This module promotes that protocol to a
//! first-class function module with the same shape as spam/topic/virus —
//! `setup → process_batch`, offline artifacts from a `PrecomputeSource` — so
//! the `pretzel_server` mailroom can serve search sessions next to
//! classification sessions.
//!
//! Protocol (one session):
//!
//! * **Setup** — commit–reveal joint randomness (§3.3 footnote 3) seeds the
//!   RLWE public polynomial `a`; the *client* generates the XPIR-BV key pair
//!   (it is the response recipient here, the reverse of the dot-product
//!   modules) and ships the public key; the provider confirms the agreed
//!   per-response capacity. Building [`pretzel_rlwe::Params`] precomputes the
//!   NTT twiddle tables once per session — every later encryption and
//!   decryption reuses them.
//! * **Offline phase** — at setup the provider registers a reservoir of
//!   encryptions of zero under the client's key (2 NTTs + noise sampling
//!   each) with its [`PrecomputeSource`]; a fleet bank's producers keep it
//!   stocked. The online query path then reduces to `stocked_zero +
//!   plaintext` — `n` modular additions, no NTT, no sampling — with inline
//!   encryption when the draw comes up dry. Stock depth never changes what a
//!   query returns, only its latency, matching the phase-split contract the
//!   other modules obey.
//! * **Per-round phase** — the client drives one of two operations per round:
//!   an **index** round uploads the encrypted postings of one email
//!   (opaque HMAC labels + sealed ids, exactly the `pretzel_sse` update
//!   format), or a **query** round sends a 32-byte label key
//!   (response-hiding: the value key never leaves the client) and receives
//!   the matching sealed postings packed into the slots of one RLWE
//!   ciphertext of fixed size, along with an encrypted checksum. The client
//!   decrypts, verifies the checksum, and opens the sealed ids locally.
//!
//! What the provider learns: posting counts, per-query result counts and the
//! access pattern — the standard SSE leakage. It never sees keywords, email
//! contents, or (thanks to response hiding) even the matching document ids.
//! The fixed-size RLWE response also hides the per-query result count from a
//! network observer, and the encrypted checksum makes response tampering or
//! truncation a detected protocol error rather than misdecoded results
//! (`tests/adversarial.rs` pins both).

use std::sync::Arc;

use rand::{Rng, RngCore};

use pretzel_primitives::sha256;
use pretzel_rlwe::{keygen, Ciphertext, Params, Plaintext, PublicKey, SecretKey};
use pretzel_sse::{DocId, EncryptedIndex, SseClient, UpdateBatch};
use pretzel_transport::{recv_rounds, send_rounds, Channel};

use crate::bank::{self, fingerprint64, Lease, PrecomputeSource, ReservoirId, ReservoirSpec};
use crate::config::PretzelConfig;
use crate::registry::{ClientContext, ClientModule, FunctionModule, ProviderModule, WireTag};
use crate::session::{client_round, payload_mismatch, EmailPayload, ProviderModelSuite, Verdict};
use crate::setup::{joint_randomness_initiator, joint_randomness_responder};
use crate::spam::AheVariant;
use crate::{parse_u64, u64_bytes, PretzelError, Result};

/// Round-message tag: upload one email's encrypted postings.
const TAG_INDEX: u8 = 0;
/// Round-message tag: single-keyword query (32-byte label key follows).
const TAG_QUERY: u8 = 1;

/// Each sealed 8-byte posting occupies this many 16-bit response slots.
const SLOTS_PER_POSTING: usize = 4;
/// Slots reserved besides the postings: the result count and two checksum
/// slots at the end of the ring.
const RESERVED_SLOTS: usize = 3;

/// Sealed postings one RLWE response ciphertext can carry for ring degree
/// `n`: slot 0 holds the result count, the last two slots the checksum, and
/// every posting takes four 16-bit slots in between.
pub fn response_capacity(params: &Params) -> usize {
    params.slots().saturating_sub(RESERVED_SLOTS) / SLOTS_PER_POSTING
}

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

/// Provider endpoint of the encrypted-search module.
pub struct SearchProvider {
    params: Params,
    /// The client's public key — responses are encrypted under it.
    pk: PublicKey,
    index: EncryptedIndex,
    capacity: usize,
    /// This session's reservoir of zero encryptions under the client's key.
    /// Key-dependent, so it is useless once the session is gone — the lease
    /// releases it then, and the bank retires it instead of producing for a
    /// dead key.
    zeros: Lease,
}

impl SearchProvider {
    /// Runs the setup phase as the provider: joint randomness, receive the
    /// client's RLWE public key, confirm the per-response capacity, and
    /// register the session's zero-encryption reservoir with `source` (the
    /// producer closure captures the client's public key, and the kind-level
    /// DAG schedules it after the fleet's shared key-independent stock).
    pub fn setup<C: Channel, R: Rng + ?Sized>(
        channel: &mut C,
        config: &PretzelConfig,
        source: &Arc<dyn PrecomputeSource>,
        rng: &mut R,
    ) -> Result<Self> {
        let _seed = joint_randomness_initiator(channel, rng)?;
        let params = config.rlwe_params();
        check_params(&params)?;
        let pk = PublicKey::from_bytes(&params, &channel.recv()?)
            .map_err(|e| PretzelError::Ahe(e.to_string()))?;
        let capacity = response_capacity(&params);
        channel.send(&u64_bytes(capacity as u64))?;
        let producer_pk = pk.clone();
        let zeros = Lease::register(
            source,
            ReservoirSpec::new(
                ReservoirId::zero_encryptions(fingerprint64(&pk.to_bytes())),
                Arc::new(move |rng: &mut dyn RngCore| {
                    Box::new(producer_pk.encrypt_zero(rng)) as bank::Artifact
                }),
            )
            .after(bank::KEY_INDEPENDENT_KINDS),
        );
        Ok(SearchProvider {
            params,
            pk,
            index: EncryptedIndex::new(),
            capacity,
            zeros,
        })
    }

    /// Read access to the stored encrypted index (size accounting).
    pub fn index(&self) -> &EncryptedIndex {
        &self.index
    }

    /// Executes one operation message — an index upload or a query, as
    /// chosen by the client — and returns the reply bytes.
    fn handle_op(&mut self, msg: &[u8], rng: &mut dyn RngCore) -> Result<Vec<u8>> {
        match msg.first() {
            Some(&TAG_INDEX) => {
                let batch = parse_upload(&msg[1..])?;
                self.index.apply(&batch);
                Ok(u64_bytes(batch.len() as u64).to_vec())
            }
            Some(&TAG_QUERY) => {
                if msg.len() != 1 + 32 {
                    return Err(PretzelError::Protocol(
                        "search query must carry a 32-byte label key".into(),
                    ));
                }
                let mut label_key = [0u8; 32];
                label_key.copy_from_slice(&msg[1..]);
                let sealed = self.index.lookup_sealed(&label_key);
                let returned = sealed.len().min(self.capacity);
                let slots = encode_response(&self.params, &sealed[..returned], sealed.len() as u64);
                let pt = Plaintext::encode(&self.params, &slots)
                    .map_err(|e| PretzelError::Ahe(e.to_string()))?;
                // Online path: add the plaintext onto a stocked encryption
                // of zero (`n` modular additions), or encrypt inline when
                // the draw comes up dry.
                let ct = match self.zeros.draw(|_: &Ciphertext| true) {
                    Some(zero) => self.pk.add_plain(&zero, &pt),
                    None => self.pk.encrypt(&pt, rng),
                };
                Ok(ct.to_bytes())
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
    params: Params,
    sk: SecretKey,
    sse: SseClient,
    capacity: usize,
}

impl SearchClient {
    /// Runs the setup phase as the client: joint randomness, RLWE keygen
    /// (the shared seed fixes the public polynomial `a`), ship the public
    /// key, verify the provider's capacity announcement, and derive a fresh
    /// SSE master key.
    pub fn setup<C: Channel, R: Rng + ?Sized>(
        channel: &mut C,
        config: &PretzelConfig,
        rng: &mut R,
    ) -> Result<Self> {
        let seed = joint_randomness_responder(channel, rng)?;
        let params = config.rlwe_params();
        check_params(&params)?;
        let (sk, pk) = keygen(&params, Some(&seed), rng);
        channel.send(&pk.to_bytes())?;
        let announced = parse_u64(&channel.recv()?)? as usize;
        let capacity = response_capacity(&params);
        if announced != capacity {
            return Err(PretzelError::Protocol(format!(
                "provider announced response capacity {announced}, expected {capacity}"
            )));
        }
        Ok(SearchClient {
            params,
            sk,
            sse: SseClient::generate(rng),
            capacity,
        })
    }

    /// Client-side storage: the SSE master key, one counter per distinct
    /// keyword, and the RLWE secret key.
    pub fn storage_bytes(&self) -> usize {
        32 + self.sse.distinct_keywords() * 8 + self.params.slots() * 8
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
        let mut msg = Vec::with_capacity(1 + 8 + batch.len() * 40);
        msg.push(TAG_INDEX);
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

    /// Query round — a batch of one: sends the keyword's label key, decrypts
    /// the fixed-size RLWE response, verifies its checksum, and opens the
    /// sealed ids.
    ///
    /// Any tampering with or truncation of the response fails decryption or
    /// the checksum and surfaces as a [`PretzelError::Protocol`] error — the
    /// client never returns misdecoded document ids.
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

    /// Decrypts and verifies one query response.
    fn open_response(&self, keyword: &str, reply: &[u8]) -> Result<SearchResults> {
        let ct = Ciphertext::from_bytes(&self.params, reply).map_err(|_| {
            PretzelError::Protocol("search response is not a well-formed ciphertext".into())
        })?;
        let slots = self.sk.decrypt_slots(&ct);
        let n = self.params.slots();
        let total = slots[0];
        let returned = (total as usize).min(self.capacity);
        let mut sealed = Vec::with_capacity(returned);
        for i in 0..returned {
            let mut bytes = [0u8; 8];
            for c in 0..SLOTS_PER_POSTING {
                let v = slots[1 + i * SLOTS_PER_POSTING + c];
                if v >= 1 << 16 {
                    return Err(PretzelError::Protocol(
                        "search response rejected: posting slot out of range".into(),
                    ));
                }
                bytes[2 * c..2 * c + 2].copy_from_slice(&(v as u16).to_le_bytes());
            }
            sealed.push(bytes);
        }
        let (c0, c1) = response_checksum(total, &sealed);
        if slots[n - 2] != c0 || slots[n - 1] != c1 {
            return Err(PretzelError::Protocol(
                "search response rejected: checksum mismatch".into(),
            ));
        }
        Ok(SearchResults {
            ids: self.sse.open_results(keyword, &sealed),
            total,
        })
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

    fn provider_setup(
        &self,
        mut channel: &mut dyn Channel,
        suite: &ProviderModelSuite,
        _variant: AheVariant,
        source: &Arc<dyn PrecomputeSource>,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ProviderModule>> {
        // Search needs no trained model — only the suite's parameter preset;
        // the AHE variant byte is accepted but ignored (search always runs
        // over RLWE).
        Ok(Box::new(SearchProvider::setup(
            &mut channel,
            &suite.config,
            source,
            rng,
        )?))
    }

    fn client_setup(
        &self,
        mut channel: &mut dyn Channel,
        ctx: &ClientContext,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ClientModule>> {
        Ok(Box::new(SearchClient::setup(
            &mut channel,
            &ctx.config,
            rng,
        )?))
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
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Option<usize>>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let replies = recv_rounds(channel, count)?
            .iter()
            .map(|msg| self.handle_op(msg, rng))
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

/// Both presets satisfy these; a hand-rolled config might not.
fn check_params(params: &Params) -> Result<()> {
    if params.plain_bits < 16 || params.slots() < RESERVED_SLOTS + SLOTS_PER_POSTING {
        return Err(PretzelError::Protocol(format!(
            "RLWE parameters too small for search responses \
             (need >= 16-bit slots and a ring degree >= {})",
            RESERVED_SLOTS + SLOTS_PER_POSTING
        )));
    }
    Ok(())
}

/// Parses the body of an index-round upload — the shared
/// [`UpdateBatch::to_wire_bytes`] format, with its count-vs-length check.
fn parse_upload(body: &[u8]) -> Result<UpdateBatch> {
    Ok(UpdateBatch::from_wire_bytes(body)?)
}

/// Lays a query response out over the ring's slots: the provider's *total*
/// match count in slot 0 (so a truncated result set is visible to the
/// client), four 16-bit chunks per returned sealed posting, and the checksum
/// in the last two slots. Unused slots stay zero, so every response is the
/// same size.
fn encode_response(params: &Params, sealed: &[[u8; 8]], total: u64) -> Vec<u64> {
    let n = params.slots();
    let mut slots = vec![0u64; n];
    // The total always fits a slot: plain_bits >= 16 and the encrypted index
    // cannot plausibly hold 2^16 postings for one keyword in these tests and
    // benches; clamp defensively anyway.
    slots[0] = total.min(params.t - 1);
    for (i, posting) in sealed.iter().enumerate() {
        for c in 0..SLOTS_PER_POSTING {
            slots[1 + i * SLOTS_PER_POSTING + c] =
                u16::from_le_bytes([posting[2 * c], posting[2 * c + 1]]) as u64;
        }
    }
    let (c0, c1) = response_checksum(slots[0], sealed);
    slots[n - 2] = c0;
    slots[n - 1] = c1;
    slots
}

/// 32-bit checksum over a response's total-count slot and returned sealed
/// postings, split into two 16-bit slots. A tampered RLWE ciphertext
/// decrypts to essentially uniform slots, so a forged response passes this
/// check with probability ~2⁻³², on top of the posting-slot range checks.
fn response_checksum(total: u64, sealed: &[[u8; 8]]) -> (u64, u64) {
    let mut data = Vec::with_capacity(8 + sealed.len() * 8);
    data.extend_from_slice(&total.to_le_bytes());
    for s in sealed {
        data.extend_from_slice(s);
    }
    let h = sha256(&data);
    (
        u16::from_le_bytes([h[0], h[1]]) as u64,
        u16::from_le_bytes([h[2], h[3]]) as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::{BankConfig, PrecomputeBank};
    use pretzel_transport::run_two_party;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    /// Runs three index and three query rounds with the provider's zero
    /// encryptions provisioned by a bank stocked with exactly `stock` of them
    /// (pure prefill, so it is never refilled), or by no bank at all. Checks
    /// the bank's books before returning what both parties saw.
    fn run_session(stock: Option<usize>) -> (usize, Vec<Vec<DocId>>) {
        let config = PretzelConfig::test();
        let config_client = config.clone();
        let bank = stock.map(|stock| {
            Arc::new(PrecomputeBank::start(
                BankConfig::default()
                    .target(bank::KIND_ZERO_ENCRYPTIONS, stock)
                    .watermarks(0, 100),
            ))
        });
        let provider_bank = bank.clone();
        let outcome = run_two_party(
            move |chan| {
                let mut rng = StdRng::seed_from_u64(31);
                let source = provider_bank
                    .as_ref()
                    .map_or_else(bank::empty_source, |b| b.handle());
                let mut provider = SearchProvider::setup(chan, &config, &source, &mut rng).unwrap();
                if let Some(bank) = &provider_bank {
                    assert!(bank.wait_until_full(Duration::from_secs(60)));
                }
                for _ in 0..6 {
                    provider.process_batch(chan, 1, &mut rng).unwrap();
                }
                provider.index().len()
            },
            move |chan| {
                let mut rng = StdRng::seed_from_u64(32);
                let mut client = SearchClient::setup(chan, &config_client, &mut rng).unwrap();
                assert!(client.storage_bytes() > 0);
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
                    let mut hits = results_kw.ids;
                    hits.sort_unstable();
                    results.push(hits);
                }
                assert_eq!(client.distinct_keywords(), 9);
                results
            },
        );
        if let (Some(bank), Some(stock)) = (bank, stock) {
            // The session is gone, so its reservoir was retired — with its
            // books kept: three queries, each drawn or fallen back.
            let report = bank.shutdown();
            let row = &report.reservoirs[0];
            assert_eq!(row.drawn, stock.min(3) as u64);
            assert_eq!(row.drawn + row.fallback_draws, 3);
            assert_eq!(row.produced, row.drawn + row.depth, "{row:?}");
        }
        outcome
    }

    #[test]
    fn search_round_trip_finds_exactly_the_matching_emails() {
        let (postings, results) = run_session(None);
        assert_eq!(results, vec![vec![1, 3], vec![2], vec![]]);
        assert_eq!(postings, 4 + 3 + 3, "one posting per distinct keyword");
    }

    #[test]
    fn provisioning_never_changes_results() {
        let no_bank = run_session(None);
        assert_eq!(run_session(Some(1)), no_bank, "a bank that runs dry");
        assert_eq!(run_session(Some(16)), no_bank, "a bank that never does");
    }

    #[test]
    fn oversized_result_sets_truncate_to_capacity_and_report_the_total() {
        let config = PretzelConfig::test();
        let capacity = response_capacity(&config.rlwe_params());
        let config_client = config.clone();
        let (_, results) = run_two_party(
            move |chan| {
                let mut rng = StdRng::seed_from_u64(33);
                let mut provider =
                    SearchProvider::setup(chan, &config, &bank::empty_source(), &mut rng).unwrap();
                for _ in 0..capacity + 4 {
                    provider.process_batch(chan, 1, &mut rng).unwrap();
                }
            },
            move |chan| {
                let mut rng = StdRng::seed_from_u64(34);
                let mut client = SearchClient::setup(chan, &config_client, &mut rng).unwrap();
                for id in 0..(capacity as u64) + 3 {
                    client
                        .index_email(chan, id, "recurring newsletter", &mut rng)
                        .unwrap();
                }
                client.query(chan, "recurring", &mut rng).unwrap()
            },
        );
        assert_eq!(
            results.ids.len(),
            capacity,
            "responses cap at the ring capacity"
        );
        assert_eq!(
            results.total,
            (capacity + 3) as u64,
            "the true match count still reaches the client"
        );
        assert!(results.truncated());
    }

    #[test]
    fn capacity_formula_reserves_count_and_checksum_slots() {
        let params = PretzelConfig::test().rlwe_params();
        let cap = response_capacity(&params);
        assert!(cap > 0);
        assert!(RESERVED_SLOTS + cap * SLOTS_PER_POSTING <= params.slots());
        assert!(RESERVED_SLOTS + (cap + 1) * SLOTS_PER_POSTING > params.slots());
    }

    #[test]
    fn provider_rejects_malformed_round_messages() {
        for bad in [vec![], vec![9u8, 1, 2], vec![TAG_QUERY, 1, 2, 3], {
            let mut m = vec![TAG_INDEX];
            m.extend_from_slice(&5u64.to_le_bytes());
            m
        }] {
            let config = PretzelConfig::test();
            let (provider_res, _) = run_two_party(
                move |chan| {
                    let mut rng = StdRng::seed_from_u64(35);
                    let mut provider =
                        SearchProvider::setup(chan, &config, &bank::empty_source(), &mut rng)
                            .unwrap();
                    provider.process_batch(chan, 1, &mut rng)
                },
                move |chan| {
                    let mut rng = StdRng::seed_from_u64(36);
                    let _client =
                        SearchClient::setup(chan, &PretzelConfig::test(), &mut rng).unwrap();
                    chan.send(&bad).unwrap();
                },
            );
            assert!(
                matches!(
                    provider_res,
                    Err(PretzelError::Protocol(_))
                        | Err(PretzelError::Sse(pretzel_sse::SseError::Protocol(_)))
                ),
                "provider must reject malformed round messages, got {provider_res:?}"
            );
        }
    }

    #[test]
    fn upload_count_overflow_is_rejected_not_panicking() {
        // An attacker-controlled posting count near u64::MAX must be a clean
        // protocol error: naive `count * 40` panics in debug builds and
        // wraps in release (letting `1 + 2^61` masquerade as one entry).
        for evil_count in [u64::MAX, 1 + (1u64 << 61)] {
            let config = PretzelConfig::test();
            let (provider_res, _) = run_two_party(
                move |chan| {
                    let mut rng = StdRng::seed_from_u64(37);
                    let mut provider =
                        SearchProvider::setup(chan, &config, &bank::empty_source(), &mut rng)
                            .unwrap();
                    provider.process_batch(chan, 1, &mut rng)
                },
                move |chan| {
                    let mut rng = StdRng::seed_from_u64(38);
                    let _client =
                        SearchClient::setup(chan, &PretzelConfig::test(), &mut rng).unwrap();
                    let mut msg = vec![TAG_INDEX];
                    msg.extend_from_slice(&evil_count.to_le_bytes());
                    msg.extend_from_slice(&[0u8; 40]); // one real entry
                    chan.send(&msg).unwrap();
                },
            );
            assert!(
                matches!(provider_res, Err(PretzelError::Sse(_))),
                "count {evil_count} must be rejected, got {provider_res:?}"
            );
        }
    }
}
