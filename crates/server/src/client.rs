//! Client-side driver for mailroom sessions.
//!
//! A [`MailroomClient`] is one simulated (or real) sender: it performs the
//! session handshake, runs the client half of the one-time setup, then
//! submits emails in batches via [`MailroomClient::process_batch`] — one
//! email is a batch of one — reusing the session state exactly as the
//! provider does. Examples, the concurrency tests and the repo's benchmark
//! (`benchmark/`) spin up N of these on N channels to put concurrent load on
//! a [`crate::Mailroom`].

use std::sync::Arc;

use rand::Rng;

use pretzel_classifiers::{LinearModel, SparseVector};
use pretzel_core::registry::{ClientContext, FunctionModule, WireTag};
use pretzel_core::search::SearchFunction;
use pretzel_core::session::{variant_byte, ClientSession, EmailPayload, Verdict};
use pretzel_core::spam::{AheVariant, SpamFunction};
use pretzel_core::topic::{CandidateMode, TopicFunction};
use pretzel_core::virus::VirusFunction;
use pretzel_core::{PretzelConfig, PretzelError};
use pretzel_transport::wire::{
    Capabilities, CodecChannel, HandshakeAck, HandshakeError, HandshakeOffer, NegotiatedProfile,
    ProtocolVersion,
};
use pretzel_transport::Channel;

use crate::{
    ServerError, ACK_ACCEPTED, ACK_BUSY, MAX_BATCH_ROUNDS, ROUND_BATCH, ROUND_BYE, ROUND_EMAIL,
};

/// Everything a client needs to open one session: which function module to
/// run (built-in or custom-registered — the provider's registry must know
/// its wire tag) and the client-side setup parameters, which must agree
/// with the provider's configuration (the parameter preset and, for topic
/// sessions, the candidate mode — both fix the shapes of ciphertexts and
/// circuits).
#[derive(Clone)]
pub struct ClientSpec {
    /// The function module this session runs.
    pub module: Arc<dyn FunctionModule>,
    /// Client-side setup parameters (preset, AHE variant, topic knobs).
    pub ctx: ClientContext,
}

impl std::fmt::Debug for ClientSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientSpec")
            .field("module", &self.module.display_name())
            .field("wire_tag", &self.module.wire_tag())
            .field("ctx", &self.ctx)
            .finish()
    }
}

impl ClientSpec {
    /// Spec for an encrypted-keyword-search session (search uses no AHE:
    /// the variant byte is carried but ignored); everything else goes
    /// through [`ClientSpecBuilder`].
    pub fn search(config: PretzelConfig) -> Self {
        ClientSpecBuilder::search(config).build()
    }
}

/// Builder for a [`ClientSpec`]: pick a function module, then adjust the
/// context knobs before [`ClientSpecBuilder::build`].
///
/// ```
/// # use pretzel_server::ClientSpecBuilder;
/// # use pretzel_core::topic::CandidateMode;
/// # let config = pretzel_core::PretzelConfig::test();
/// let spec = ClientSpecBuilder::topic(config)
///     .topic_mode(CandidateMode::Full)
///     .build();
/// ```
#[derive(Clone, Debug)]
pub struct ClientSpecBuilder {
    spec: ClientSpec,
}

impl ClientSpecBuilder {
    /// Builder for any function module (built-in or custom-registered).
    pub fn for_module(module: Arc<dyn FunctionModule>, config: PretzelConfig) -> Self {
        ClientSpecBuilder {
            spec: ClientSpec {
                module,
                ctx: ClientContext::new(config),
            },
        }
    }

    /// Builder for a spam-filtering session.
    pub fn spam(config: PretzelConfig) -> Self {
        Self::for_module(Arc::new(SpamFunction), config)
    }

    /// Builder for a topic-extraction session.
    pub fn topic(config: PretzelConfig) -> Self {
        Self::for_module(Arc::new(TopicFunction), config)
    }

    /// Builder for a virus-scanning session.
    pub fn virus(config: PretzelConfig) -> Self {
        Self::for_module(Arc::new(VirusFunction), config)
    }

    /// Builder for an encrypted-keyword-search session.
    pub fn search(config: PretzelConfig) -> Self {
        Self::for_module(Arc::new(SearchFunction), config)
    }

    /// Selects the AHE variant.
    pub fn variant(mut self, variant: AheVariant) -> Self {
        self.spec.ctx.variant = variant;
        self
    }

    /// Selects the candidate mode for topic sessions.
    pub fn topic_mode(mut self, mode: CandidateMode) -> Self {
        self.spec.ctx.topic_mode = mode;
        self
    }

    /// Supplies the local candidate-selection model for topic sessions.
    pub fn candidate_model(mut self, model: Option<LinearModel>) -> Self {
        self.spec.ctx.candidate_model = model;
        self
    }

    /// Finalizes the spec.
    pub fn build(self) -> ClientSpec {
        self.spec
    }
}

/// One live client session against a mailroom.
pub struct MailroomClient<C: Channel> {
    channel: CodecChannel<C>,
    session: ClientSession,
    profile: NegotiatedProfile,
    emails: u64,
}

impl<C: Channel> MailroomClient<C> {
    /// Opens a session: sends a [`HandshakeOffer`] for every version this
    /// build speaks, waits for the accept/busy ack and the provider's
    /// [`HandshakeAck`] picking the version, then runs the client half of
    /// the protocol setup through the frame codec.
    ///
    /// Returns [`ServerError::Busy`] when the mailroom refused the session
    /// (bounded-queue backpressure) — the call returns promptly rather than
    /// waiting for capacity. A structured refusal (malformed offer, unknown
    /// tag or AHE variant, no version overlap) surfaces as
    /// [`ServerError::Handshake`].
    pub fn connect<R: Rng>(
        mut channel: C,
        spec: &ClientSpec,
        rng: &mut R,
    ) -> Result<Self, ServerError> {
        let request = HandshakeOffer {
            min_version: ProtocolVersion::MIN.as_byte(),
            max_version: ProtocolVersion::MAX.as_byte(),
            wire_tag: spec.module.wire_tag(),
            variant: variant_byte(spec.ctx.variant),
            capabilities: Capabilities::KNOWN,
        }
        .encode();
        // A refused session may already have been hung up on by the
        // provider (the busy ack is buffered, the channel closed), in which
        // case the handshake send fails — drain the ack before deciding
        // which error to surface.
        let send_result = channel.send(&request);
        let ack = match channel.recv() {
            Ok(ack) => ack,
            Err(recv_err) => {
                return Err(match send_result {
                    Err(send_err) => send_err.into(),
                    Ok(()) => recv_err.into(),
                })
            }
        };
        match ack.as_slice() {
            [ACK_ACCEPTED] => {}
            [ACK_BUSY] => return Err(ServerError::Busy),
            other => {
                return Err(ServerError::Handshake(HandshakeError::Malformed(format!(
                    "unexpected ack frame {other:?}"
                ))))
            }
        }
        let profile = match HandshakeAck::decode(&channel.recv()?)? {
            HandshakeAck::Accept {
                version,
                capabilities,
            } => NegotiatedProfile {
                version,
                capabilities,
            },
            HandshakeAck::Refuse(err) => return Err(ServerError::Handshake(err)),
        };
        let mut channel = CodecChannel::new(channel);
        let module = spec.module.client_setup(&mut channel, &spec.ctx, rng)?;
        Ok(MailroomClient {
            channel,
            session: ClientSession::from_module(module),
            profile,
            emails: 0,
        })
    }

    /// The profile the provider acked: protocol version and granted
    /// capabilities.
    pub fn negotiated(&self) -> NegotiatedProfile {
        self.profile
    }

    /// Wire tag of the function module this session runs.
    pub fn wire_tag(&self) -> WireTag {
        self.session.wire_tag()
    }

    /// Human-readable name of the function module this session runs.
    pub fn display_name(&self) -> &'static str {
        self.session.display_name()
    }

    /// Client-side storage consumed by the encrypted model, in bytes.
    pub fn model_storage_bytes(&self) -> usize {
        self.session.model_storage_bytes()
    }

    /// Emails submitted so far on this session.
    pub fn emails_sent(&self) -> u64 {
        self.emails
    }

    /// Submits one email for a secure per-email round — a batch of one.
    pub fn process<R: Rng>(
        &mut self,
        payload: &EmailPayload,
        rng: &mut R,
    ) -> Result<Verdict, ServerError> {
        let mut verdicts = self.process_batch(std::slice::from_ref(payload), rng)?;
        verdicts
            .pop()
            .ok_or_else(|| ServerError::Control("a batch of one round yielded no verdict".into()))
    }

    /// Submits a batch of emails: one control frame announces the rounds,
    /// then the session's module runs its online phase over all of them (see
    /// [`pretzel_core::ClientModule::process_batch`]). A batch of one is
    /// announced as `[ROUND_EMAIL]`, `n > 1` rounds as `[ROUND_BATCH, n]`. A
    /// batch longer than [`MAX_BATCH_ROUNDS`] goes out as several exchanges
    /// of at most that many rounds. An empty batch is a no-op.
    pub fn process_batch<R: Rng>(
        &mut self,
        payloads: &[EmailPayload],
        rng: &mut R,
    ) -> Result<Vec<Verdict>, ServerError> {
        let mut verdicts = Vec::with_capacity(payloads.len());
        for rounds in payloads.chunks(MAX_BATCH_ROUNDS) {
            match rounds.len() {
                1 => self.channel.send(&[ROUND_EMAIL])?,
                n => {
                    let mut frame = [ROUND_BATCH, 0, 0, 0, 0];
                    frame[1..].copy_from_slice(&(n as u32).to_le_bytes());
                    self.channel.send(&frame)?;
                }
            }
            verdicts.extend(self.session.process_batch(&mut self.channel, rounds, rng)?);
            self.emails += rounds.len() as u64;
        }
        Ok(verdicts)
    }

    /// Convenience for spam sessions: classify one email's token counts.
    pub fn classify_spam<R: Rng>(
        &mut self,
        features: &SparseVector,
        rng: &mut R,
    ) -> Result<bool, ServerError> {
        match self.process(&EmailPayload::Tokens(features.clone()), rng)? {
            Verdict::Spam { is_spam } => Ok(is_spam),
            other => Err(ServerError::Pretzel(PretzelError::Protocol(format!(
                "expected a spam verdict, got {other:?}"
            )))),
        }
    }

    /// Convenience for topic sessions: run one extraction round, returning
    /// the candidate set that was submitted (the chosen index goes to the
    /// provider, per Guarantee 3).
    pub fn extract_topic<R: Rng>(
        &mut self,
        features: &SparseVector,
        rng: &mut R,
    ) -> Result<Vec<usize>, ServerError> {
        match self.process(&EmailPayload::Tokens(features.clone()), rng)? {
            Verdict::Topic { candidates } => Ok(candidates),
            other => Err(ServerError::Pretzel(PretzelError::Protocol(format!(
                "expected a topic verdict, got {other:?}"
            )))),
        }
    }

    /// Convenience for virus sessions: scan one attachment.
    pub fn scan_attachment<R: Rng>(
        &mut self,
        attachment: &[u8],
        rng: &mut R,
    ) -> Result<bool, ServerError> {
        match self.process(&EmailPayload::Attachment(attachment.to_vec()), rng)? {
            Verdict::Virus { is_malicious } => Ok(is_malicious),
            other => Err(ServerError::Pretzel(PretzelError::Protocol(format!(
                "expected a virus verdict, got {other:?}"
            )))),
        }
    }

    /// Convenience for search sessions: index one email body under `doc_id`
    /// at the provider, returning the number of encrypted postings stored.
    pub fn index_email<R: Rng>(
        &mut self,
        doc_id: u64,
        body: &str,
        rng: &mut R,
    ) -> Result<usize, ServerError> {
        let payload = EmailPayload::SearchIndex {
            doc_id,
            body: body.to_string(),
        };
        match self.process(&payload, rng)? {
            Verdict::SearchIndexed { postings } => Ok(postings),
            other => Err(ServerError::Pretzel(PretzelError::Protocol(format!(
                "expected a search-index verdict, got {other:?}"
            )))),
        }
    }

    /// Convenience for search sessions: run one single-keyword query round,
    /// returning the ids of the matching indexed emails.
    pub fn search_keyword<R: Rng>(
        &mut self,
        keyword: &str,
        rng: &mut R,
    ) -> Result<Vec<u64>, ServerError> {
        match self.process(&EmailPayload::SearchQuery(keyword.to_string()), rng)? {
            Verdict::SearchHits { ids, .. } => Ok(ids),
            other => Err(ServerError::Pretzel(PretzelError::Protocol(format!(
                "expected search hits, got {other:?}"
            )))),
        }
    }

    /// Ends the session cleanly (provider marks it completed) and returns
    /// the underlying channel, unwrapped from the session's codec.
    pub fn finish(mut self) -> Result<C, ServerError> {
        self.channel.send(&[ROUND_BYE])?;
        self.channel.flush()?;
        Ok(self.channel.into_inner())
    }
}
