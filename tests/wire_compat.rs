//! Wire-compatibility pins for the versioned protocol.
//!
//! Three layers of protection:
//!
//! 1. **Golden bytes** — committed hex fixtures under `tests/golden/` pin
//!    the exact encoding of codec frames (header + CRC-32) and every
//!    handshake offer/ack shape. Any drift in encoded bytes fails here before it can
//!    strand deployed peers.
//! 2. **Properties** — the codec round-trips arbitrary payloads.
//! 3. **Adversarial handshakes** against a live mailroom — truncated
//!    offers, out-of-range version spans, inverted spans, unknown AHE
//!    variant bytes, and unknown capability bits (which must be IGNORED,
//!    not rejected: forward compatibility is what lets an old provider
//!    serve a newer client).

use pretzel::classifiers::nb::GrNbTrainer;
use pretzel::classifiers::{LabeledExample, NGramExtractor, SparseVector, Trainer};
use pretzel::core::topic::CandidateMode;
use pretzel::core::{PretzelConfig, ProviderModelSuite};
use pretzel::datasets::ling_spam_like;
use pretzel::server::{
    ClientSpecBuilder, Mailroom, MailroomClient, MailroomConfig, ServerError, SessionState,
    ACK_ACCEPTED,
};
use pretzel::transport::wire::{
    crc32, negotiate, Capabilities, HandshakeAck, HandshakeError, HandshakeOffer,
    NegotiationPolicy, ProtocolVersion, V2Codec, WireCodec, HANDSHAKE_MAGIC, OFFER_LEN,
};
use pretzel::transport::{memory_pair, Channel, TransportError};
use proptest::prelude::*;

mod common;
use common::test_rng;

// ---------------------------------------------------------------------------
// Golden fixtures
// ---------------------------------------------------------------------------

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex"))
        .collect()
}

/// Parses a fixture file of `|`-separated hex columns, skipping comments.
fn fixture_rows(name: &str) -> Vec<Vec<String>> {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden fixture {path} must be committed: {e}"));
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split('|').map(str::to_string).collect())
        .collect()
}

#[test]
fn golden_v2_frames_match_the_pinned_encoding() {
    let rows = fixture_rows("wire_v2.txt");
    assert!(!rows.is_empty());
    for row in rows {
        let [name, payload, frame] = row.as_slice() else {
            panic!("bad fixture row {row:?}");
        };
        let (payload, frame) = (unhex(payload), unhex(frame));
        assert_eq!(V2Codec.encode(&payload), frame, "{name}: encode drifted");
        assert_eq!(
            V2Codec.decode(&frame).unwrap(),
            payload,
            "{name}: decode drifted"
        );
    }
}

#[test]
fn golden_handshake_frames_match_the_pinned_encoding() {
    let mut frames = std::collections::HashMap::new();
    for row in fixture_rows("handshake.txt") {
        let [name, frame] = row.as_slice() else {
            panic!("bad fixture row {row:?}");
        };
        frames.insert(name.clone(), unhex(frame));
    }

    // Offers encode (and decode) to the pinned bytes: what this build's
    // clients send, and what clients of the retired generations sent.
    let offer = |min_version, max_version, wire_tag, capabilities| HandshakeOffer {
        min_version,
        max_version,
        wire_tag,
        variant: 1,
        capabilities,
    };
    let current = [
        (
            "offer_spam_v3_only_nocaps",
            offer(3, 3, 1, Capabilities::NONE),
        ),
        (
            "offer_search_v3_only_nocaps",
            offer(3, 3, 4, Capabilities::NONE),
        ),
        (
            "offer_spam_v2_to_v3_nocaps",
            offer(2, 3, 1, Capabilities::NONE),
        ),
    ];
    let retired = [
        (
            "offer_spam_v2_only_nocaps",
            offer(2, 2, 1, Capabilities::NONE),
        ),
        (
            "offer_search_v2_only_nocaps",
            offer(2, 2, 4, Capabilities::NONE),
        ),
        (
            "offer_spam_v1_to_v2_batch",
            offer(1, 2, 1, Capabilities::from_bits(1)),
        ),
    ];
    for (name, offer) in current.iter().chain(&retired) {
        assert_eq!(offer.encode(), frames[*name], "{name}: encode drifted");
        assert_eq!(
            HandshakeOffer::decode(&frames[*name]).unwrap(),
            *offer,
            "{name}: decode drifted"
        );
    }
    // The current offers negotiate v3; the retired ones are refused with
    // this build's span.
    let policy = NegotiationPolicy::default();
    for (name, offer) in &current {
        assert_eq!(
            negotiate(offer, &policy).map(|p| p.version),
            Ok(ProtocolVersion::V3),
            "{name}"
        );
    }
    for (name, offer) in &retired {
        assert!(
            matches!(
                negotiate(offer, &policy),
                Err(HandshakeError::VersionMismatch {
                    supported_min: 3,
                    supported_max: 3,
                    ..
                })
            ),
            "{name}"
        );
    }

    // Every ack shape this build emits.
    let cases: [(&str, HandshakeAck); 4] = [
        (
            "ack_accept_v3_nocaps",
            HandshakeAck::Accept {
                version: ProtocolVersion::V3,
                capabilities: Capabilities::NONE,
            },
        ),
        (
            "ack_refuse_version_mismatch_3_3",
            HandshakeAck::Refuse(HandshakeError::VersionMismatch {
                offered_min: 0,
                offered_max: 0,
                supported_min: 3,
                supported_max: 3,
            }),
        ),
        (
            "ack_refuse_unknown_tag_0xee",
            HandshakeAck::Refuse(HandshakeError::UnknownTag { tag: 0xEE }),
        ),
        (
            "ack_refuse_malformed",
            HandshakeAck::Refuse(HandshakeError::Malformed(
                "provider judged the offer malformed".into(),
            )),
        ),
    ];
    for (name, ack) in cases {
        assert_eq!(ack.encode(), frames[name], "{name}: encode drifted");
        assert_eq!(
            HandshakeAck::decode(&frames[name]).unwrap(),
            ack,
            "{name}: decode drifted"
        );
    }

    // Refusals an older provider sent still parse: they name its span.
    for (name, min, max) in [
        ("ack_refuse_version_mismatch_2_2", 2, 2),
        ("ack_refuse_version_mismatch_1_2", 1, 2),
    ] {
        assert_eq!(
            HandshakeAck::decode(&frames[name]).unwrap(),
            HandshakeAck::Refuse(HandshakeError::VersionMismatch {
                offered_min: 0,
                offered_max: 0,
                supported_min: min,
                supported_max: max,
            }),
            "{name}"
        );
    }
    // The retired capability bit is masked out of an accept.
    assert_eq!(
        HandshakeAck::decode(&frames["ack_accept_v3_batch"]).unwrap(),
        HandshakeAck::Accept {
            version: ProtocolVersion::V3,
            capabilities: Capabilities::NONE,
        }
    );
    // An accept of a retired version, and the retired "capability refused"
    // status, fail to parse.
    for name in [
        "ack_accept_v2_nocaps",
        "ack_accept_v2_batch",
        "ack_refuse_capability_batch",
    ] {
        assert!(
            matches!(
                HandshakeAck::decode(&frames[name]),
                Err(HandshakeError::Malformed(_))
            ),
            "{name}"
        );
    }
}

#[test]
fn serving_constants_are_frozen() {
    // These byte values are on the wire of every deployed peer.
    assert_eq!(pretzel::server::ACK_ACCEPTED, 0x41);
    assert_eq!(pretzel::server::ACK_BUSY, 0x42);
    assert_eq!(pretzel::server::ROUND_BYE, 0);
    assert_eq!(pretzel::server::ROUND_EMAIL, 1);
    assert_eq!(pretzel::server::ROUND_BATCH, 2);
    assert_eq!(HANDSHAKE_MAGIC, [0x00, b'P', b'Z']);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The v2 codec round-trips arbitrary payloads through its framed,
    /// checksummed encoding.
    #[test]
    fn v2_codec_round_trips_arbitrary_payloads(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let frame = V2Codec.encode(&payload);
        prop_assert_eq!(frame.len(), payload.len() + 10);
        prop_assert_eq!(V2Codec.decode(&frame).unwrap(), payload);
    }
}

// ---------------------------------------------------------------------------
// Adversarial handshakes against a live mailroom
// ---------------------------------------------------------------------------

fn small_suite() -> ProviderModelSuite {
    let mut spec = ling_spam_like(0.08);
    spec.shared_vocab = 60;
    spec.class_vocab = 30;
    spec.doc_len = (10, 30);
    let corpus = spec.generate();
    let model = GrNbTrainer::default().train(&corpus.examples, corpus.num_features, 2);

    let extractor = NGramExtractor::new(3, 64);
    let virus_examples: Vec<LabeledExample> = (0..8u8)
        .flat_map(|i| {
            let bad = [0x4d, 0x5a, 0x90, 0x00, 0xde, 0xad, i];
            let good = format!("plain attachment {i}");
            [
                LabeledExample {
                    features: extractor.extract(&bad),
                    label: 1,
                },
                LabeledExample {
                    features: extractor.extract(good.as_bytes()),
                    label: 0,
                },
            ]
        })
        .collect();
    let virus_model = GrNbTrainer::default().train(&virus_examples, extractor.buckets, 2);

    ProviderModelSuite {
        spam: model.clone(),
        topic: model,
        topic_mode: CandidateMode::Full,
        virus: virus_model,
        virus_extractor: extractor,
        config: PretzelConfig::test(),
    }
}

fn one_worker_mailroom() -> Mailroom {
    Mailroom::start(
        small_suite(),
        MailroomConfig::builder()
            .workers(1)
            .queue_capacity(4)
            .rng_seed(0x317E)
            .build(),
    )
}

/// Sends a raw first frame and returns the provider's negotiation ack (the
/// intake ack is drained and asserted first).
fn raw_handshake(mailroom: &Mailroom, first_frame: &[u8]) -> (u64, HandshakeAck) {
    let (provider_end, mut client_end) = memory_pair();
    let id = mailroom.submit(provider_end).unwrap();
    client_end.send(first_frame).unwrap();
    assert_eq!(client_end.recv().unwrap(), vec![ACK_ACCEPTED]);
    let ack = HandshakeAck::decode(&client_end.recv().unwrap()).unwrap();
    (id, ack)
}

#[test]
fn truncated_offers_fail_only_their_session() {
    let mailroom = one_worker_mailroom();

    // Magic plus a partial body: recognizably an offer, structurally short.
    let mut truncated = HANDSHAKE_MAGIC.to_vec();
    truncated.extend_from_slice(&[1, 2]);
    assert!(truncated.len() < OFFER_LEN);
    let (bad_id, ack) = raw_handshake(&mailroom, &truncated);
    assert!(
        matches!(ack, HandshakeAck::Refuse(HandshakeError::Malformed(_))),
        "got {ack:?}"
    );

    // The mailroom still serves a healthy session afterwards.
    let (provider_end, client_end) = memory_pair();
    let ok_id = mailroom.submit(provider_end).unwrap();
    let mut rng = test_rng(41);
    let spec = ClientSpecBuilder::spam(PretzelConfig::test()).build();
    let mut client = MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
    client
        .classify_spam(&SparseVector::from_pairs(vec![(0, 2)]), &mut rng)
        .unwrap();
    client.finish().unwrap();

    let report = mailroom.shutdown();
    let bad = report.sessions.iter().find(|s| s.id == bad_id).unwrap();
    assert!(matches!(bad.state, SessionState::Failed(_)));
    let ok = report.sessions.iter().find(|s| s.id == ok_id).unwrap();
    assert_eq!(ok.state, SessionState::Completed);
}

#[test]
fn out_of_range_version_spans_get_a_structured_mismatch() {
    let mailroom = one_worker_mailroom();
    // A client from the future that dropped v3 support entirely.
    let offer = HandshakeOffer {
        min_version: 7,
        max_version: 9,
        wire_tag: 1,
        variant: 1,
        capabilities: Capabilities::NONE,
    };
    let (_, ack) = raw_handshake(&mailroom, &offer.encode());
    match ack {
        HandshakeAck::Refuse(HandshakeError::VersionMismatch {
            supported_min,
            supported_max,
            ..
        }) => {
            assert_eq!(supported_min, ProtocolVersion::MIN.as_byte());
            assert_eq!(supported_max, ProtocolVersion::MAX.as_byte());
        }
        other => panic!("expected a version mismatch refusal, got {other:?}"),
    }
    mailroom.shutdown();
}

#[test]
fn inverted_and_zero_version_spans_are_malformed() {
    let mailroom = one_worker_mailroom();
    for (min, max) in [(2, 1), (0, 2)] {
        let offer = HandshakeOffer {
            min_version: min,
            max_version: max,
            wire_tag: 1,
            variant: 1,
            capabilities: Capabilities::NONE,
        };
        let (_, ack) = raw_handshake(&mailroom, &offer.encode());
        assert!(
            matches!(ack, HandshakeAck::Refuse(HandshakeError::Malformed(_))),
            "span {min}..={max} must be malformed, got {ack:?}"
        );
    }
    mailroom.shutdown();
}

#[test]
fn unknown_capability_bits_are_ignored_not_rejected() {
    let mailroom = one_worker_mailroom();
    // A newer client advertising capability bits this build has never heard
    // of (the retired bit 0 among them): negotiation must succeed and grant
    // only the known intersection, which is empty.
    let offer = HandshakeOffer {
        min_version: 1,
        max_version: 3,
        wire_tag: 1,
        variant: 1,
        capabilities: Capabilities::from_bits((1 << 40) | (1 << 17) | 1),
    };
    let (_, ack) = raw_handshake(&mailroom, &offer.encode());
    assert_eq!(
        ack,
        HandshakeAck::Accept {
            version: ProtocolVersion::V3,
            capabilities: Capabilities::NONE,
        }
    );
    mailroom.shutdown();
}

#[test]
fn offers_with_trailing_bytes_from_the_future_still_negotiate() {
    let mailroom = one_worker_mailroom();
    let (provider_end, mut client_end) = memory_pair();
    mailroom.submit(provider_end).unwrap();

    // A longer offer from a future build: extra fields after the known 15
    // bytes are ignored by the decoder.
    let mut frame = HandshakeOffer {
        min_version: 1,
        max_version: 3,
        wire_tag: 1,
        variant: 1,
        capabilities: Capabilities::NONE,
    }
    .encode();
    frame.extend_from_slice(&[0xAB; 9]);
    client_end.send(&frame).unwrap();
    assert_eq!(client_end.recv().unwrap(), vec![ACK_ACCEPTED]);
    let ack = HandshakeAck::decode(&client_end.recv().unwrap()).unwrap();
    assert_eq!(
        ack,
        HandshakeAck::Accept {
            version: ProtocolVersion::V3,
            capabilities: Capabilities::NONE,
        }
    );
    // Hang up instead of running setup: the worker must notice and fail
    // only this session (shutdown would otherwise wait on it forever).
    drop(client_end);
    mailroom.shutdown();
}

/// A client channel that rewrites the AHE variant byte of the first frame
/// it sends — the handshake offer — so the real client stack can be driven
/// into offering a variant no build defines.
struct ForgeVariant<C> {
    inner: C,
    variant: Option<u8>,
}

impl<C: Channel> Channel for ForgeVariant<C> {
    fn send(&mut self, msg: &[u8]) -> Result<(), TransportError> {
        let mut msg = msg.to_vec();
        if let Some(variant) = self.variant.take() {
            msg[6] = variant;
        }
        self.inner.send(&msg)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.inner.recv()
    }
}

#[test]
fn unknown_variant_bytes_are_refused_before_the_ack() {
    let mailroom = one_worker_mailroom();
    let spec = ClientSpecBuilder::spam(PretzelConfig::test()).build();
    let mut failed = Vec::new();
    for variant in [0u8, 4, 0xFF] {
        // On the wire: a typed refusal, not an accept.
        let offer = HandshakeOffer {
            min_version: 3,
            max_version: 3,
            wire_tag: 1,
            variant,
            capabilities: Capabilities::NONE,
        };
        let (raw_id, ack) = raw_handshake(&mailroom, &offer.encode());
        assert!(
            matches!(ack, HandshakeAck::Refuse(HandshakeError::Malformed(_))),
            "variant {variant}: got {ack:?}"
        );
        failed.push(raw_id);

        // Through the client stack: a handshake error, not a dead channel
        // in the middle of set-up.
        let (provider_end, client_end) = memory_pair();
        failed.push(mailroom.submit(provider_end).unwrap());
        let forged = ForgeVariant {
            inner: client_end,
            variant: Some(variant),
        };
        let mut rng = test_rng(43);
        match MailroomClient::connect(forged, &spec, &mut rng) {
            Err(ServerError::Handshake(HandshakeError::Malformed(_))) => {}
            Err(other) => panic!("variant {variant}: expected a handshake refusal, got {other}"),
            Ok(_) => panic!("variant {variant}: an unknown variant must not be accepted"),
        }
    }

    // The next session completes.
    let (provider_end, client_end) = memory_pair();
    let ok_id = mailroom.submit(provider_end).unwrap();
    let mut rng = test_rng(44);
    let mut client = MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
    client
        .classify_spam(&SparseVector::from_pairs(vec![(0, 2)]), &mut rng)
        .unwrap();
    client.finish().unwrap();

    let report = mailroom.shutdown();
    for id in failed {
        let session = report.sessions.iter().find(|s| s.id == id).unwrap();
        assert!(
            matches!(&session.state, SessionState::Failed(why) if why.contains("variant")),
            "session {id}: got {:?}",
            session.state
        );
        assert_eq!(session.kind, None, "a refused session is never recorded");
    }
    let ok = report.sessions.iter().find(|s| s.id == ok_id).unwrap();
    assert_eq!(ok.state, SessionState::Completed);
}
