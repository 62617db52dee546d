//! Batched rounds are an optimization, not a semantic change: a mixed
//! four-kind fleet served in coalesced batches must produce byte-identical
//! verdicts to the same fleet served one round at a time, however its
//! offline artifacts are provisioned (no bank, a bank that runs dry
//! mid-run, a prefilled bank), under fixed seeds — and the bank's books
//! must balance. A round is a batch of one: submitting one payload through
//! `process_batch` is indistinguishable on the wire from `process`, and an
//! explicit `[ROUND_BATCH, 1]` is served like `[ROUND_EMAIL]`; a batch past
//! the per-frame cap goes out in capped exchanges. Also pins the registry
//! contract end to end: unknown wire tags are clean errors through the
//! whole mailroom stack, and a custom-registered module serves alongside
//! the built-ins.

use std::sync::Arc;

use pretzel::classifiers::SparseVector;
use pretzel::core::bank::PrecomputeSource;
use pretzel::core::registry::{
    ClientContext, ClientModule, FunctionModule, ProtocolRegistry, ProviderModule, WireTag,
};
use pretzel::core::session::{EmailPayload, Verdict};
use pretzel::core::spam::{AheVariant, SpamClient, SpamFunction};
use pretzel::core::topic::CandidateMode;
use pretzel::core::{PretzelConfig, PretzelError, ProviderModelSuite};
use pretzel::server::{
    ClientSpec, ClientSpecBuilder, Mailroom, MailroomConfig, SessionState, ACK_ACCEPTED,
    MAX_BATCH_ROUNDS, ROUND_BATCH, ROUND_BYE, ROUND_EMAIL,
};
use pretzel::transport::wire::{
    Capabilities, CodecChannel, HandshakeAck, HandshakeError, HandshakeOffer, ProtocolVersion,
};
use pretzel::transport::{memory_pair, Channel, MemoryChannel};
use rand::rngs::StdRng;
use rand::RngCore;

mod common;
use common::{
    assert_conservation, connect_client, ling_suite, settle_bank, test_rng, FleetRecord, Provision,
};

const ROUNDS_PER_SESSION: usize = 3;

/// The four per-kind payload scripts of the mixed fleet, in the order the
/// sessions are submitted.
fn scripts() -> Vec<(ClientSpec, Vec<EmailPayload>)> {
    let config = PretzelConfig::test();
    let spam_email = |a: usize| {
        EmailPayload::Tokens(SparseVector::from_pairs(vec![
            (a % 7, 3),
            (a % 11 + 2, 1),
            (7, 2),
        ]))
    };
    let attachment =
        |i: u8| EmailPayload::Attachment([0x4d, 0x5a, 0x90, 0x00, 0xde, 0xad, i].to_vec());
    vec![
        (
            // Baseline variant so the client's Paillier randomizer stock is
            // on the batched path too.
            ClientSpecBuilder::spam(config.clone())
                .variant(AheVariant::Baseline)
                .build(),
            (0..ROUNDS_PER_SESSION).map(spam_email).collect(),
        ),
        (
            ClientSpecBuilder::topic(config.clone())
                .topic_mode(CandidateMode::Full)
                .build(),
            (0..ROUNDS_PER_SESSION).map(spam_email).collect(),
        ),
        (
            ClientSpecBuilder::virus(config.clone()).build(),
            (0..ROUNDS_PER_SESSION as u8).map(attachment).collect(),
        ),
        (
            ClientSpec::search(config),
            vec![
                EmailPayload::SearchIndex {
                    doc_id: 42,
                    body: "quarterly budget spreadsheet attached".into(),
                },
                EmailPayload::SearchQuery("budget".into()),
                EmailPayload::SearchQuery("absent".into()),
            ],
        ),
    ]
}

/// How a client hands its script to the mailroom.
#[derive(Clone, Copy)]
enum Submit {
    /// One `process` call per payload.
    Singly,
    /// One `process_batch` call per payload, a one-element slice each.
    BatchesOfOne,
    /// One `process_batch` call for the whole script.
    OneBatch,
}

/// Serves the mixed fleet sequentially on one worker (deterministic RNG
/// streams), each client submitting its rounds as `submit` says.
fn run_fleet(provision: Provision, submit: Submit) -> FleetRecord {
    let mailroom = Mailroom::start(
        ling_suite(),
        provision
            .configure(
                MailroomConfig::builder()
                    .workers(1)
                    .queue_capacity(4)
                    .rng_seed(0xBA7C4),
            )
            .build(),
    );
    settle_bank(&mailroom);

    let mut verdicts = Vec::new();
    for (s, (spec, payloads)) in scripts().into_iter().enumerate() {
        let mut rng = test_rng(500 + s as u64);
        let mut client = connect_client(&mailroom, &spec, &mut rng);
        settle_bank(&mailroom);
        client.precompute(provision.client_budget(), &mut rng);
        let submitted = match submit {
            Submit::Singly => payloads
                .iter()
                .map(|payload| client.process(payload, &mut rng).unwrap())
                .collect(),
            Submit::BatchesOfOne => payloads
                .chunks(1)
                .flat_map(|one| client.process_batch(one, &mut rng).unwrap())
                .collect(),
            Submit::OneBatch => client.process_batch(&payloads, &mut rng).unwrap(),
        };
        verdicts.extend(submitted.iter().map(|verdict| format!("{verdict:?}")));
        assert_eq!(client.emails_sent(), payloads.len() as u64);
        client.finish().unwrap();
    }

    let report = mailroom.shutdown();
    assert_eq!(report.completed(), 4, "all four sessions must complete");
    assert_conservation(&report);
    match provision {
        Provision::NoBank => {
            assert!(report.reservoirs.is_empty());
            assert_eq!(report.fallback_draws_total(), 0, "nothing to draw from");
        }
        Provision::BankRunsDry => assert!(
            report.fallback_draws_total() > 0,
            "one artifact per reservoir cannot cover three rounds"
        ),
        Provision::Prefilled => {
            assert_eq!(report.fallback_draws_total(), 0, "stocked past demand");
            let drawn: u64 = report.reservoirs.iter().map(|r| r.drawn).sum();
            // 3 spam + 3 virus garblings, 2 search-query zero encryptions.
            assert_eq!(drawn, 8, "every provider-side draw was served");
        }
    }
    FleetRecord::new(verdicts, &report)
}

/// The batching acceptance test: batched and sequential serving produce
/// byte-identical verdicts under every provisioning, and within each mode
/// the meter counts do not depend on it.
#[test]
fn batched_rounds_match_sequential_under_every_provisioning() {
    let [seq_none, seq_dry, seq_full] = Provision::ALL.map(|p| run_fleet(p, Submit::Singly));
    let [batch_none, batch_dry, batch_full] =
        Provision::ALL.map(|p| run_fleet(p, Submit::OneBatch));

    assert_eq!(
        seq_none.verdicts, batch_none.verdicts,
        "batched verdicts must equal sequential verdicts"
    );
    assert_eq!(seq_none.emails_total, batch_none.emails_total);

    // Provisioning only moves work off the latency path: same verdicts, same
    // wire traffic, in both serving modes.
    for (none, dry, full) in [
        (&seq_none, &seq_dry, &seq_full),
        (&batch_none, &batch_dry, &batch_full),
    ] {
        assert_eq!(none.verdicts, dry.verdicts, "a bank running dry mid-run");
        assert_eq!(none.verdicts, full.verdicts, "a prefilled bank");
        assert_eq!(none.meters, dry.meters);
        assert_eq!(none.meters, full.meters);
    }

    // Batching coalesces frames: strictly fewer messages than sequential
    // serving of the same rounds, for every session.
    for (seq, batch) in seq_none.meters.iter().zip(&batch_none.meters) {
        assert_eq!(seq.0, batch.0, "same kind order");
        assert_eq!(seq.1, batch.1, "same round counts");
        assert!(
            batch.4 < seq.4,
            "kind {:?}: batch must exchange fewer messages ({} vs {})",
            seq.0,
            batch.4,
            seq.4
        );
    }
}

// ---------------------------------------------------------------------------
// A round is a batch of one.
// ---------------------------------------------------------------------------

/// Handing one payload to `process_batch` is the same exchange as
/// `process`: same verdicts, same bytes each way, same message count, for
/// every kind.
#[test]
fn a_batch_of_one_is_a_single_round_on_the_wire() {
    let singly = run_fleet(Provision::NoBank, Submit::Singly);
    let batches_of_one = run_fleet(Provision::NoBank, Submit::BatchesOfOne);
    assert_eq!(singly, batches_of_one);
}

/// The offer this build's client sends for `wire_tag` (Pretzel variant).
fn offer(wire_tag: WireTag) -> Vec<u8> {
    HandshakeOffer {
        min_version: ProtocolVersion::MIN.as_byte(),
        max_version: ProtocolVersion::MAX.as_byte(),
        wire_tag,
        variant: 1,
        capabilities: Capabilities::NONE,
    }
    .encode()
}

/// Opens a spam session by hand — offer, acks, codec, the client half of
/// the setup — so a test can write its own round-control frames. Returns
/// the session id, the codec-wrapped channel and the spam endpoint.
fn raw_batch_session(
    mailroom: &Mailroom,
    rng: &mut StdRng,
) -> (u64, CodecChannel<MemoryChannel>, SpamClient) {
    let (provider_end, mut client_end) = memory_pair();
    let id = mailroom.submit(provider_end).unwrap();
    client_end.send(&offer(SpamFunction::WIRE_TAG)).unwrap();
    assert_eq!(client_end.recv().unwrap(), vec![ACK_ACCEPTED]);
    let ack = HandshakeAck::decode(&client_end.recv().unwrap()).unwrap();
    assert!(
        matches!(ack, HandshakeAck::Accept { .. }),
        "expected an accept, got {ack:?}"
    );
    let mut channel = CodecChannel::new(client_end);
    let client = SpamClient::setup(
        &mut channel,
        &PretzelConfig::test(),
        AheVariant::Pretzel,
        rng,
    )
    .unwrap();
    (id, channel, client)
}

fn batch_frame(count: u32) -> [u8; 5] {
    let mut frame = [ROUND_BATCH, 0, 0, 0, 0];
    frame[1..].copy_from_slice(&count.to_le_bytes());
    frame
}

fn spam_mailroom() -> Mailroom {
    Mailroom::start(
        ling_suite(),
        MailroomConfig::builder()
            .workers(1)
            .queue_capacity(4)
            .rng_seed(0xB47)
            .build(),
    )
}

/// No client in the tree announces a single round as `[ROUND_BATCH, 1]`
/// any more, but a peer that does is served — and served bare: the blob
/// `SpamClient::classify` sends carries no batch envelope.
#[test]
fn an_explicit_batch_of_one_is_served_bare() {
    let mailroom = spam_mailroom();
    let mut rng = test_rng(91);
    let (id, mut channel, mut client) = raw_batch_session(&mailroom, &mut rng);
    let email = SparseVector::from_pairs(vec![(0, 3), (7, 2)]);

    channel.send(&batch_frame(1)).unwrap();
    let announced_as_batch = client.classify(&mut channel, &email, &mut rng).unwrap();
    channel.send(&[ROUND_EMAIL]).unwrap();
    let announced_as_email = client.classify(&mut channel, &email, &mut rng).unwrap();
    assert_eq!(announced_as_batch, announced_as_email);
    channel.send(&[ROUND_BYE]).unwrap();
    channel.flush().unwrap();

    let report = mailroom.shutdown();
    let session = report.sessions.iter().find(|s| s.id == id).unwrap();
    assert_eq!(session.state, SessionState::Completed);
    assert_eq!(session.emails, 2);
}

/// The provider refuses a zero count and a count above the cap.
#[test]
fn the_provider_refuses_degenerate_batch_counts() {
    let mailroom = spam_mailroom();
    let mut rng = test_rng(92);
    let mut ids = Vec::new();
    for count in [0, MAX_BATCH_ROUNDS as u32 + 1] {
        let (id, mut channel, _client) = raw_batch_session(&mailroom, &mut rng);
        channel.send(&batch_frame(count)).unwrap();
        channel.flush().unwrap();
        ids.push((id, count));
    }
    let report = mailroom.shutdown();
    for (id, count) in ids {
        let session = report.sessions.iter().find(|s| s.id == id).unwrap();
        assert!(
            matches!(&session.state, SessionState::Failed(why) if why.contains("batch round count")),
            "count {count}: got {:?}",
            session.state
        );
        assert_eq!(session.emails, 0);
    }
}

// ---------------------------------------------------------------------------
// Registry contract, end to end.
// ---------------------------------------------------------------------------

/// A minimal custom module: the provider echoes each opaque payload's length.
struct EchoLenFunction;

impl EchoLenFunction {
    const WIRE_TAG: WireTag = 9;
}

impl FunctionModule for EchoLenFunction {
    fn wire_tag(&self) -> WireTag {
        Self::WIRE_TAG
    }
    fn display_name(&self) -> &'static str {
        "echo-len"
    }
    fn provider_setup(
        &self,
        _channel: &mut dyn Channel,
        _suite: &ProviderModelSuite,
        _variant: AheVariant,
        _source: &Arc<dyn PrecomputeSource>,
        _rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ProviderModule>, PretzelError> {
        Ok(Box::new(EchoLenProvider))
    }
    fn client_setup(
        &self,
        _channel: &mut dyn Channel,
        _ctx: &ClientContext,
        _rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ClientModule>, PretzelError> {
        Ok(Box::new(EchoLenClient))
    }
}

struct EchoLenProvider;

impl ProviderModule for EchoLenProvider {
    fn wire_tag(&self) -> WireTag {
        EchoLenFunction::WIRE_TAG
    }
    fn display_name(&self) -> &'static str {
        "echo-len"
    }
    fn process_batch(
        &mut self,
        channel: &mut dyn Channel,
        count: usize,
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<Option<usize>>, PretzelError> {
        for _ in 0..count {
            let msg = channel.recv()?;
            channel.send(&(msg.len() as u64).to_le_bytes())?;
        }
        Ok(vec![None; count])
    }
}

struct EchoLenClient;

impl EchoLenClient {
    fn round(channel: &mut dyn Channel, payload: &EmailPayload) -> Result<Verdict, PretzelError> {
        let EmailPayload::Opaque(bytes) = payload else {
            return Err(PretzelError::Protocol("echo-len takes opaque bytes".into()));
        };
        channel.send(bytes)?;
        let reply = channel.recv()?;
        let value = u64::from_le_bytes(
            reply
                .get(..8)
                .and_then(|b| b.try_into().ok())
                .ok_or_else(|| PretzelError::Protocol("bad echo reply".into()))?,
        );
        Ok(Verdict::Custom {
            tag: EchoLenFunction::WIRE_TAG,
            value,
        })
    }
}

impl ClientModule for EchoLenClient {
    fn wire_tag(&self) -> WireTag {
        EchoLenFunction::WIRE_TAG
    }
    fn display_name(&self) -> &'static str {
        "echo-len"
    }
    fn model_storage_bytes(&self) -> usize {
        0
    }
    fn process_batch(
        &mut self,
        channel: &mut dyn Channel,
        payloads: &[EmailPayload],
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<Verdict>, PretzelError> {
        payloads
            .iter()
            .map(|payload| Self::round(channel, payload))
            .collect()
    }
}

/// Every module registered in a registry — built-ins and customs alike —
/// resolves back to itself through its wire tag.
#[test]
fn wire_tag_round_trip_is_exhaustive_over_the_registry() {
    let registry = ProtocolRegistry::builtin()
        .with_module(Arc::new(EchoLenFunction))
        .unwrap();
    assert_eq!(registry.wire_tags(), vec![1, 2, 3, 4, 9]);
    for module in registry.modules() {
        let tag = module.wire_tag();
        let resolved = registry.from_wire_tag(tag).unwrap();
        assert_eq!(resolved.wire_tag(), tag, "from_wire_tag(wire_tag(k)) == k");
        assert_eq!(resolved.display_name(), module.display_name());
    }
    // Unknown tags and duplicate registrations are clean protocol errors.
    assert!(matches!(
        registry.from_wire_tag(0xEE),
        Err(PretzelError::Protocol(_))
    ));
    let mut registry = registry;
    assert!(matches!(
        registry.register(Arc::new(EchoLenFunction)),
        Err(PretzelError::Protocol(_))
    ));
}

/// A handshake carrying a tag the mailroom's registry does not serve fails
/// that session cleanly (and only that session); a registered custom module
/// serves end to end, batch path included.
#[test]
fn mailroom_serves_registered_modules_and_rejects_unknown_tags() {
    let registry = ProtocolRegistry::builtin()
        .with_module(Arc::new(EchoLenFunction))
        .unwrap();
    let mailroom = Mailroom::start_with_registry(
        ling_suite(),
        registry,
        MailroomConfig {
            workers: 1,
            queue_capacity: 4,
            rng_seed: 0x7A6,
            ..MailroomConfig::default()
        },
    );

    // Session 1: a wire tag nobody registered. The worker refuses it at
    // handshake with a typed ack.
    let (provider_end, mut bad_client) = memory_pair();
    let bad_id = mailroom.submit(provider_end).unwrap();
    bad_client.send(&offer(0xEE)).unwrap();
    assert_eq!(bad_client.recv().unwrap(), vec![ACK_ACCEPTED]);
    assert_eq!(
        HandshakeAck::decode(&bad_client.recv().unwrap()).unwrap(),
        HandshakeAck::Refuse(HandshakeError::UnknownTag { tag: 0xEE })
    );

    // Session 2: the custom module, driven through the normal client stack
    // (its batch is a loop over rounds — it has nothing to coalesce).
    let mut rng = test_rng(77);
    let spec =
        ClientSpecBuilder::for_module(Arc::new(EchoLenFunction), PretzelConfig::test()).build();
    let mut client = connect_client(&mailroom, &spec, &mut rng);
    assert_eq!(client.wire_tag(), EchoLenFunction::WIRE_TAG);
    assert_eq!(client.display_name(), "echo-len");
    let payloads = vec![
        EmailPayload::Opaque(vec![1, 2, 3]),
        EmailPayload::Opaque(vec![0; 10]),
    ];
    let verdicts = client.process_batch(&payloads, &mut rng).unwrap();
    assert_eq!(
        verdicts,
        vec![
            Verdict::Custom { tag: 9, value: 3 },
            Verdict::Custom { tag: 9, value: 10 },
        ]
    );
    client.finish().unwrap();

    let report = mailroom.shutdown();
    let bad = report.sessions.iter().find(|s| s.id == bad_id).unwrap();
    assert!(
        matches!(bad.state, pretzel::server::SessionState::Failed(_)),
        "unknown tag must fail the session, got {:?}",
        bad.state
    );
    assert_eq!(bad.kind, None, "an unresolved tag is never recorded");
    let good = report
        .sessions
        .iter()
        .find(|s| s.kind == Some(EchoLenFunction::WIRE_TAG))
        .unwrap();
    assert_eq!(good.kind_name, Some("echo-len"));
    assert_eq!(good.emails, 2);
}

/// A zero-round batch never reaches the provider: the client treats it as a
/// no-op, so only a hand-written `[ROUND_BATCH, 0]` (refused above) can
/// announce one.
#[test]
fn degenerate_batch_counts_are_rejected() {
    let mailroom = Mailroom::start(
        ling_suite(),
        MailroomConfig {
            workers: 1,
            queue_capacity: 2,
            rng_seed: 0xB47,
            ..MailroomConfig::default()
        },
    );
    let mut rng = test_rng(88);
    let spec = ClientSpecBuilder::spam(PretzelConfig::test()).build();
    let mut client = connect_client(&mailroom, &spec, &mut rng);

    // Empty batches are a client-side no-op: no traffic, no verdicts.
    let messages = mailroom.fleet_meter().messages_received();
    assert!(client.process_batch(&[], &mut rng).unwrap().is_empty());
    assert_eq!(client.emails_sent(), 0);
    assert_eq!(mailroom.fleet_meter().messages_received(), messages);

    // The session is still healthy afterwards.
    client
        .classify_spam(&SparseVector::from_pairs(vec![(0, 2)]), &mut rng)
        .unwrap();
    client.finish().unwrap();
    let report = mailroom.shutdown();
    assert_eq!(report.completed(), 1);
}

/// Serves `payloads` on one echo-len session, through one `process_batch`
/// call or one `process` call each; returns the verdicts, the client's
/// email count and the messages the session exchanged.
fn echo_session(payloads: &[EmailPayload], batched: bool) -> (Vec<Verdict>, u64, u64) {
    let registry = ProtocolRegistry::builtin()
        .with_module(Arc::new(EchoLenFunction))
        .unwrap();
    let mailroom = Mailroom::start_with_registry(
        ling_suite(),
        registry,
        MailroomConfig::builder().workers(1).rng_seed(0xC4B).build(),
    );
    let mut rng = test_rng(79);
    let spec =
        ClientSpecBuilder::for_module(Arc::new(EchoLenFunction), PretzelConfig::test()).build();
    let mut client = connect_client(&mailroom, &spec, &mut rng);
    let verdicts = if batched {
        client.process_batch(payloads, &mut rng).unwrap()
    } else {
        payloads
            .iter()
            .map(|payload| client.process(payload, &mut rng).unwrap())
            .collect()
    };
    let emails = client.emails_sent();
    client.finish().unwrap();
    let report = mailroom.shutdown();
    assert_eq!(report.completed(), 1);
    assert_eq!(report.emails_total, payloads.len() as u64);
    (verdicts, emails, report.sessions[0].messages)
}

/// A batch longer than `MAX_BATCH_ROUNDS` is split into capped exchanges,
/// not refused: its verdicts equal one `process` call per payload, and it
/// costs exactly two control frames.
#[test]
fn a_batch_over_the_cap_is_served_in_capped_exchanges() {
    let payloads: Vec<EmailPayload> = (0..MAX_BATCH_ROUNDS + 1)
        .map(|i| EmailPayload::Opaque(vec![0; i % 17]))
        .collect();
    let (batched, batched_emails, batched_messages) = echo_session(&payloads, true);
    let (singly, singly_emails, singly_messages) = echo_session(&payloads, false);
    assert_eq!(batched, singly);
    assert_eq!(batched_emails, MAX_BATCH_ROUNDS as u64 + 1);
    assert_eq!(singly_emails, MAX_BATCH_ROUNDS as u64 + 1);
    assert_eq!(
        singly_messages - batched_messages,
        payloads.len() as u64 - 2,
        "one control frame per round singly, two for the whole batch"
    );
}
