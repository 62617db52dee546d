//! Uniform, session-reusable entry points over the registered function
//! modules.
//!
//! A serving layer that multiplexes many client sessions (see the
//! `pretzel_server` mailroom) needs one dispatchable shape per endpoint
//! instead of module-specific types. [`ProviderSession`] and
//! [`ClientSession`] are that shape: thin wrappers over the object-safe
//! [`ProviderModule`] / [`ClientModule`] traits, produced by looking a
//! handshake [`WireTag`] up in a [`ProtocolRegistry`]. They contain **no**
//! per-kind dispatch — every protocol the registry knows (the four built-ins
//! and anything registered from outside, e.g. `examples/mailroom.rs`'s
//! attachment-analytics module) flows through the same code, and neither
//! wrapper changes a byte of any protocol's wire format.
//!
//! The lifecycle both wrappers model is the one §3.3/§4 prescribe: one
//! **setup** phase per (client, provider) pair — joint randomness, encrypted
//! model transfer, base OTs — whose state is then **reused** across an
//! arbitrary number of cheap per-email rounds. Every round makes its own
//! artifacts — garblings, Paillier randomizers — inline, on both sides;
//! nothing is made offline. The online phase is one body: `process_batch`
//! serves N emails in one coalesced exchange (far fewer frames than N
//! exchanges — see `pretzel_transport::batch`), and `process_round` is the
//! batch of one. Batching only moves work off the latency path — verdicts
//! are identical either way, which `tests/batching.rs` pins.

use rand::{Rng, RngCore};

use pretzel_classifiers::{LinearModel, NGramExtractor, SparseVector};
use pretzel_sse::DocId;
use pretzel_transport::Channel;

use crate::config::PretzelConfig;
use crate::registry::{ClientContext, ClientModule, ProtocolRegistry, ProviderModule, WireTag};
use crate::spam::AheVariant;
use crate::topic::CandidateMode;
use crate::Result;

/// Wire encoding of an [`AheVariant`] for session handshakes.
pub fn variant_byte(variant: AheVariant) -> u8 {
    match variant {
        AheVariant::Pretzel => 1,
        AheVariant::Baseline => 2,
    }
}

/// Decodes an [`AheVariant`] handshake byte. Byte 3 (the retired
/// per-row-packing ablation) is reserved and refused like any unknown byte.
pub fn variant_from_byte(b: u8) -> Result<AheVariant> {
    match b {
        1 => Ok(AheVariant::Pretzel),
        2 => Ok(AheVariant::Baseline),
        other => Err(crate::PretzelError::Protocol(format!(
            "unknown AHE variant byte {other}"
        ))),
    }
}

/// Everything a provider needs to serve the built-in modules: one trained
/// model per classification module plus the shared parameter preset.
/// Custom modules registered from outside receive the same suite and use
/// whatever subset applies (usually just [`ProviderModelSuite::config`]).
///
/// The suite is immutable once built, so a serving layer can share one
/// instance across all of its worker threads.
#[derive(Clone, Debug)]
pub struct ProviderModelSuite {
    /// Two-class spam model (class 1 = spam).
    pub spam: LinearModel,
    /// B-class topic model.
    pub topic: LinearModel,
    /// Candidate pruning mode used by topic sessions (must match the
    /// clients' configuration — it fixes the argmax circuit shape).
    pub topic_mode: CandidateMode,
    /// Two-class attachment model (class 1 = malicious).
    pub virus: LinearModel,
    /// Feature space of the virus model (public parameters, §2.1).
    pub virus_extractor: NGramExtractor,
    /// Protocol parameter preset shared by every session.
    pub config: PretzelConfig,
}

/// Provider endpoint of one live session: a registry-resolved
/// [`ProviderModule`] behind a uniform, module-agnostic surface.
pub struct ProviderSession {
    module: Box<dyn ProviderModule>,
}

impl ProviderSession {
    /// Runs the setup phase of the module registered under `tag` against
    /// the peer on `channel`, returning reusable per-session state. Unknown
    /// tags fail with the registry's [`crate::PretzelError::Protocol`].
    pub fn setup<C: Channel, R: Rng>(
        registry: &ProtocolRegistry,
        tag: WireTag,
        channel: &mut C,
        suite: &ProviderModelSuite,
        variant: AheVariant,
        rng: &mut R,
    ) -> Result<Self> {
        let module = registry.from_wire_tag(tag)?.provider_setup(
            as_dyn_channel(channel),
            suite,
            variant,
            as_dyn_rng(rng),
        )?;
        Ok(Self::from_module(module))
    }

    /// Wraps an already-set-up provider endpoint (for drivers that hold the
    /// module directly instead of going through a registry).
    pub fn from_module(module: Box<dyn ProviderModule>) -> Self {
        ProviderSession { module }
    }

    /// The handshake byte of the module this session runs.
    pub fn wire_tag(&self) -> WireTag {
        self.module.wire_tag()
    }

    /// Human-readable name of the module this session runs.
    pub fn display_name(&self) -> &'static str {
        self.module.display_name()
    }

    /// Runs one per-email round — a batch of one. Returns the module's
    /// per-round provider output — the topic index for topic sessions (the
    /// only built-in whose output goes to the provider, Guarantee 3) and
    /// `None` for the others.
    pub fn process_round<C: Channel, R: Rng>(
        &mut self,
        channel: &mut C,
        rng: &mut R,
    ) -> Result<Option<usize>> {
        provider_round(self.module.as_mut(), channel, rng)
    }

    /// Runs `count` rounds as one exchange against a client driving
    /// [`ClientSession::process_batch`] with the same count, returning one
    /// provider output per round.
    pub fn process_batch<C: Channel, R: Rng>(
        &mut self,
        channel: &mut C,
        count: usize,
        rng: &mut R,
    ) -> Result<Vec<Option<usize>>> {
        self.module
            .process_batch(as_dyn_channel(channel), count, as_dyn_rng(rng))
    }
}

/// One round's input as submitted to a client session: token counts for
/// spam/topic, raw bytes for virus scanning (the provider's extractor hashes
/// them), index/query operations for search sessions, and opaque bytes for
/// custom registered modules.
#[derive(Clone, Debug)]
pub enum EmailPayload {
    /// Sparse token counts over the model's feature space.
    Tokens(SparseVector),
    /// Raw attachment bytes.
    Attachment(Vec<u8>),
    /// Search session: index one email body under a stable document id.
    SearchIndex {
        /// Stable identifier the matching queries will return.
        doc_id: DocId,
        /// Decrypted email body to tokenize and index.
        body: String,
    },
    /// Search session: single-keyword query.
    SearchQuery(String),
    /// Module-defined bytes for custom registered functions (the closed
    /// variants above cover only the built-ins).
    Opaque(Vec<u8>),
}

/// What the client learned from one per-email round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Spam session: the one-bit verdict (Guarantee 2).
    Spam {
        /// `true` when the email was classified as spam.
        is_spam: bool,
    },
    /// Topic session: the candidate set the client submitted (the verdict
    /// itself — the chosen index — goes to the provider, Guarantee 3).
    Topic {
        /// Candidate topic indices submitted for the secure argmax.
        candidates: Vec<usize>,
    },
    /// Virus session: the one-bit verdict.
    Virus {
        /// `true` when the attachment was classified as malicious.
        is_malicious: bool,
    },
    /// Search session, index round: the upload was stored.
    SearchIndexed {
        /// Encrypted postings the round added to the provider's index.
        postings: usize,
    },
    /// Search session, query round: the matching document ids.
    SearchHits {
        /// Ids of the returned matching emails (at most one response's
        /// capacity).
        ids: Vec<DocId>,
        /// Total matches at the provider; `total > ids.len()` means the
        /// result set was truncated to the per-response capacity.
        total: u64,
    },
    /// Scalar output of a custom registered module.
    Custom {
        /// Wire tag of the module that produced the value.
        tag: WireTag,
        /// Module-defined scalar result.
        value: u64,
    },
}

/// Client endpoint of one live session, mirroring [`ProviderSession`].
pub struct ClientSession {
    module: Box<dyn ClientModule>,
}

impl ClientSession {
    /// Runs the setup phase of the module registered under `tag` against
    /// the provider on `channel`.
    pub fn setup<C: Channel, R: Rng>(
        registry: &ProtocolRegistry,
        tag: WireTag,
        channel: &mut C,
        ctx: &ClientContext,
        rng: &mut R,
    ) -> Result<Self> {
        let module = registry.from_wire_tag(tag)?.client_setup(
            as_dyn_channel(channel),
            ctx,
            as_dyn_rng(rng),
        )?;
        Ok(Self::from_module(module))
    }

    /// Wraps an already-set-up client endpoint.
    pub fn from_module(module: Box<dyn ClientModule>) -> Self {
        ClientSession { module }
    }

    /// The handshake byte of the module this session runs.
    pub fn wire_tag(&self) -> WireTag {
        self.module.wire_tag()
    }

    /// Human-readable name of the module this session runs.
    pub fn display_name(&self) -> &'static str {
        self.module.display_name()
    }

    /// Client-side storage consumed by the session state, in bytes: the
    /// encrypted model for the classification modules, the SSE master key
    /// and keyword counters for search sessions.
    pub fn model_storage_bytes(&self) -> usize {
        self.module.model_storage_bytes()
    }

    /// Runs one per-email round — a batch of one — with `payload`.
    pub fn process_round<C: Channel, R: Rng>(
        &mut self,
        channel: &mut C,
        payload: &EmailPayload,
        rng: &mut R,
    ) -> Result<Verdict> {
        client_round(self.module.as_mut(), channel, payload, rng)
    }

    /// Runs one round per payload as one exchange against a provider
    /// executing [`ProviderSession::process_batch`] with the same count.
    /// Every payload must match the session's module:
    /// [`EmailPayload::Tokens`] for spam/topic, [`EmailPayload::Attachment`]
    /// for virus scanning, [`EmailPayload::SearchIndex`] /
    /// [`EmailPayload::SearchQuery`] for search sessions, and whatever a
    /// custom module documents.
    pub fn process_batch<C: Channel, R: Rng>(
        &mut self,
        channel: &mut C,
        payloads: &[EmailPayload],
        rng: &mut R,
    ) -> Result<Vec<Verdict>> {
        self.module
            .process_batch(as_dyn_channel(channel), payloads, as_dyn_rng(rng))
    }
}

/// Short name of a payload's shape, for mismatch diagnostics.
pub(crate) fn payload_kind(payload: &EmailPayload) -> &'static str {
    match payload {
        EmailPayload::Tokens(_) => "tokens",
        EmailPayload::Attachment(_) => "attachment",
        EmailPayload::SearchIndex { .. } => "search-index",
        EmailPayload::SearchQuery(_) => "search-query",
        EmailPayload::Opaque(_) => "opaque",
    }
}

/// The error every built-in module raises for a payload of the wrong shape.
pub(crate) fn payload_mismatch(module: &str, payload: &EmailPayload) -> crate::PretzelError {
    crate::PretzelError::Protocol(format!(
        "{} payload does not match a {module} session",
        payload_kind(payload)
    ))
}

/// The token vectors of a batch for `module`, which accepts nothing else.
pub(crate) fn token_payloads<'a>(
    module: &str,
    payloads: &'a [EmailPayload],
) -> Result<Vec<&'a SparseVector>> {
    payloads
        .iter()
        .map(|p| match p {
            EmailPayload::Tokens(features) => Ok(features),
            other => Err(payload_mismatch(module, other)),
        })
        .collect()
}

/// One provider round: `module`'s online phase with a count of one. Every
/// per-email provider entry point is this call.
pub(crate) fn provider_round<C: Channel, R: Rng + ?Sized>(
    module: &mut dyn ProviderModule,
    channel: &mut C,
    mut rng: &mut R,
) -> Result<Option<usize>> {
    only(module.process_batch(channel, 1, &mut rng)?)
}

/// One client round: `module`'s online phase over a one-element slice.
/// Every per-email client entry point is this call.
pub(crate) fn client_round<C: Channel, R: Rng + ?Sized>(
    module: &mut dyn ClientModule,
    channel: &mut C,
    payload: &EmailPayload,
    mut rng: &mut R,
) -> Result<Verdict> {
    only(module.process_batch(channel, std::slice::from_ref(payload), &mut rng)?)
}

/// The one result of a batch of one. A module that answers one round with
/// any other number of results broke the [`ProviderModule`] /
/// [`ClientModule`] contract; that is an error, not a panic, because custom
/// modules are registered from outside this crate.
fn only<T>(mut results: Vec<T>) -> Result<T> {
    match (results.pop(), results.is_empty()) {
        (Some(result), true) => Ok(result),
        _ => Err(crate::PretzelError::Protocol(
            "a batch of one round must yield exactly one result".into(),
        )),
    }
}

/// Coerces a concrete channel to the object-safe form the module traits use.
fn as_dyn_channel<C: Channel>(channel: &mut C) -> &mut (dyn Channel + '_) {
    channel
}

/// Coerces a concrete RNG to the object-safe form the module traits use.
fn as_dyn_rng<R: RngCore>(rng: &mut R) -> &mut (dyn RngCore + '_) {
    rng
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchFunction;
    use crate::spam::SpamFunction;
    use crate::topic::TopicFunction;
    use crate::virus::VirusFunction;
    use crate::PretzelError;
    use pretzel_classifiers::nb::{GrNbTrainer, MultinomialNbTrainer};
    use pretzel_classifiers::{LabeledExample, Trainer};
    use pretzel_transport::run_two_party;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn example(pairs: &[(usize, u32)], label: usize) -> LabeledExample {
        LabeledExample {
            features: SparseVector::from_pairs(pairs.to_vec()),
            label,
        }
    }

    fn suite() -> ProviderModelSuite {
        let mut spam_corpus = Vec::new();
        let mut topic_corpus = Vec::new();
        for i in 0..20usize {
            spam_corpus.push(example(&[(i % 4, 2), ((i + 1) % 4, 1)], 1));
            spam_corpus.push(example(&[(4 + i % 4, 2), (4 + (i + 1) % 4, 1)], 0));
            for topic in 0..4usize {
                let base = topic * 4;
                topic_corpus.push(example(&[(base, 2), (base + 1 + i % 3, 1)], topic));
            }
        }
        let extractor = NGramExtractor::new(3, 256);
        let mut virus_corpus = Vec::new();
        for i in 0..20u8 {
            let bad = [0xde, 0xad, 0xbe, 0xef, 0xcc, 0xcc, 0xcc, i];
            virus_corpus.push(LabeledExample {
                features: extractor.extract(&bad),
                label: 1,
            });
            let good = format!("regular attachment number {i}");
            virus_corpus.push(LabeledExample {
                features: extractor.extract(good.as_bytes()),
                label: 0,
            });
        }
        ProviderModelSuite {
            spam: GrNbTrainer::default().train(&spam_corpus, 8, 2),
            topic: MultinomialNbTrainer::default().train(&topic_corpus, 16, 4),
            topic_mode: CandidateMode::Full,
            virus: GrNbTrainer::default().train(&virus_corpus, extractor.buckets, 2),
            virus_extractor: extractor,
            config: PretzelConfig::test(),
        }
    }

    fn roundtrip(tag: WireTag, payload: EmailPayload) -> (Option<usize>, Verdict) {
        let suite_p = suite();
        let config = suite_p.config.clone();
        let (provider_res, client_res) = run_two_party(
            move |chan| -> crate::Result<Option<usize>> {
                let registry = ProtocolRegistry::builtin();
                let mut rng = StdRng::seed_from_u64(11);
                let mut session = ProviderSession::setup(
                    &registry,
                    tag,
                    chan,
                    &suite_p,
                    AheVariant::Pretzel,
                    &mut rng,
                )?;
                assert_eq!(session.wire_tag(), tag);
                session.process_round(chan, &mut rng)
            },
            move |chan| -> crate::Result<Verdict> {
                let registry = ProtocolRegistry::builtin();
                let mut rng = StdRng::seed_from_u64(12);
                let ctx = ClientContext::new(config);
                let mut session = ClientSession::setup(&registry, tag, chan, &ctx, &mut rng)?;
                assert_eq!(session.wire_tag(), tag);
                assert!(session.model_storage_bytes() > 0);
                session.process_round(chan, &payload, &mut rng)
            },
        );
        (provider_res.unwrap(), client_res.unwrap())
    }

    #[test]
    fn spam_session_roundtrip() {
        let spammy = EmailPayload::Tokens(SparseVector::from_pairs(vec![(0, 3), (1, 1)]));
        let (provider_out, verdict) = roundtrip(SpamFunction::WIRE_TAG, spammy);
        assert_eq!(provider_out, None);
        assert_eq!(verdict, Verdict::Spam { is_spam: true });
    }

    #[test]
    fn topic_session_roundtrip() {
        let email = EmailPayload::Tokens(SparseVector::from_pairs(vec![(8, 3), (9, 1)]));
        let (provider_out, verdict) = roundtrip(TopicFunction::WIRE_TAG, email);
        assert_eq!(provider_out, Some(2), "topic 2 owns features 8..12");
        match verdict {
            Verdict::Topic { candidates } => assert!(candidates.contains(&2)),
            other => panic!("expected a topic verdict, got {other:?}"),
        }
    }

    #[test]
    fn virus_session_roundtrip() {
        let bad = EmailPayload::Attachment(vec![0xde, 0xad, 0xbe, 0xef, 0xcc, 0xcc, 0xcc, 0x01]);
        let (provider_out, verdict) = roundtrip(VirusFunction::WIRE_TAG, bad);
        assert_eq!(provider_out, None);
        assert_eq!(verdict, Verdict::Virus { is_malicious: true });
    }

    #[test]
    fn search_session_roundtrip() {
        let suite_p = suite();
        let config = suite_p.config.clone();
        let rounds = 3usize;
        let (provider_out, verdicts) = run_two_party(
            move |chan| -> crate::Result<Option<usize>> {
                let registry = ProtocolRegistry::builtin();
                let mut rng = StdRng::seed_from_u64(13);
                let mut session = ProviderSession::setup(
                    &registry,
                    SearchFunction::WIRE_TAG,
                    chan,
                    &suite_p,
                    AheVariant::Pretzel,
                    &mut rng,
                )?;
                assert_eq!(session.display_name(), "search");
                let mut last = None;
                for _ in 0..rounds {
                    last = session.process_round(chan, &mut rng)?;
                }
                Ok(last)
            },
            move |chan| -> crate::Result<Vec<Verdict>> {
                let registry = ProtocolRegistry::builtin();
                let mut rng = StdRng::seed_from_u64(14);
                let ctx = ClientContext::new(config);
                let mut session = ClientSession::setup(
                    &registry,
                    SearchFunction::WIRE_TAG,
                    chan,
                    &ctx,
                    &mut rng,
                )?;
                assert_eq!(session.wire_tag(), SearchFunction::WIRE_TAG);
                assert!(session.model_storage_bytes() > 0);
                let payloads = [
                    EmailPayload::SearchIndex {
                        doc_id: 7,
                        body: "encrypted budget spreadsheet".into(),
                    },
                    EmailPayload::SearchQuery("budget".into()),
                    EmailPayload::SearchQuery("absent".into()),
                ];
                payloads
                    .iter()
                    .map(|p| session.process_round(chan, p, &mut rng))
                    .collect()
            },
        );
        assert_eq!(provider_out.unwrap(), None);
        let verdicts = verdicts.unwrap();
        assert_eq!(verdicts[0], Verdict::SearchIndexed { postings: 3 });
        assert_eq!(
            verdicts[1],
            Verdict::SearchHits {
                ids: vec![7],
                total: 1
            }
        );
        assert_eq!(
            verdicts[2],
            Verdict::SearchHits {
                ids: vec![],
                total: 0
            }
        );
    }

    #[test]
    fn mismatched_payload_is_a_protocol_error() {
        let suite_p = suite();
        let config = suite_p.config.clone();
        let (_, client_res) = run_two_party(
            move |chan| {
                let registry = ProtocolRegistry::builtin();
                let mut rng = StdRng::seed_from_u64(21);
                let mut session = ProviderSession::setup(
                    &registry,
                    SpamFunction::WIRE_TAG,
                    chan,
                    &suite_p,
                    AheVariant::Pretzel,
                    &mut rng,
                )
                .unwrap();
                // The mismatch is caught client-side before any message is
                // sent, so the provider round must fail with a closed channel.
                assert!(session.process_round(chan, &mut rng).is_err());
            },
            move |chan| {
                let registry = ProtocolRegistry::builtin();
                let mut rng = StdRng::seed_from_u64(22);
                let ctx = ClientContext::new(config);
                let mut session =
                    ClientSession::setup(&registry, SpamFunction::WIRE_TAG, chan, &ctx, &mut rng)
                        .unwrap();
                session.process_round(chan, &EmailPayload::Attachment(vec![1, 2, 3]), &mut rng)
            },
        );
        assert!(matches!(client_res, Err(PretzelError::Protocol(_))));
    }

    #[test]
    fn unknown_tag_setup_fails_before_any_traffic() {
        let suite_p = suite();
        let registry = ProtocolRegistry::builtin();
        let (mut chan, _peer) = pretzel_transport::memory_pair();
        let mut rng = StdRng::seed_from_u64(31);
        let err = ProviderSession::setup(
            &registry,
            0xEE,
            &mut chan,
            &suite_p,
            AheVariant::Pretzel,
            &mut rng,
        );
        assert!(matches!(err, Err(PretzelError::Protocol(_))));
    }

    #[test]
    fn variant_bytes_roundtrip() {
        for variant in [AheVariant::Pretzel, AheVariant::Baseline] {
            assert_eq!(variant_from_byte(variant_byte(variant)).unwrap(), variant);
        }
        // 0 was never assigned; 3 is retired and reserved.
        for retired in [0, 3] {
            assert!(variant_from_byte(retired).is_err(), "byte {retired}");
        }
    }
}
