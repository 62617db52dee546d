//! Rolling-upgrade discipline for the versioned wire protocol: a body
//! change is a version step that deletes its predecessor, and a peer of the
//! retired generation gets a clean, typed refusal — not a museum of old
//! bodies. v4 replaced v3 when search replies lost their RLWE envelope, v3
//! replaced v2 when the Yao bodies moved to two-row half-gates tables, and
//! v2 replaced v1's bare handshake. One live mailroom meets each shape of
//! retired or forward-looking first frame: the retired bare
//! `[wire_tag, variant]` handshake, an offer for v2 only, an offer spanning
//! v1 and v2, an offer for v3 only, an offer spanning v3 and the current
//! v4, and an offer carrying the retired capability bit next to one from
//! the future. Only the refused sessions fail, the session after each case
//! completes, and the per-kind report still reconciles with the fleet
//! meters.

use pretzel::classifiers::SparseVector;
use pretzel::core::registry::{ClientContext, ProtocolRegistry};
use pretzel::core::session::{ClientSession, EmailPayload};
use pretzel::core::spam::SpamFunction;
use pretzel::core::PretzelConfig;
use pretzel::server::{
    ClientSpecBuilder, Mailroom, MailroomConfig, SessionState, ACK_ACCEPTED, ROUND_BYE, ROUND_EMAIL,
};
use pretzel::transport::wire::{
    Capabilities, CodecChannel, HandshakeAck, HandshakeError, HandshakeOffer, ProtocolVersion,
};
use pretzel::transport::{memory_pair, Channel};

mod common;
use common::{connect_client, ling_suite, test_rng};

fn spam_email() -> EmailPayload {
    EmailPayload::Tokens(SparseVector::from_pairs(vec![(0, 3), (7, 2)]))
}

fn offer(min_version: u8, max_version: u8, capabilities: u64) -> Vec<u8> {
    HandshakeOffer {
        min_version,
        max_version,
        wire_tag: SpamFunction::WIRE_TAG,
        variant: 1,
        capabilities: Capabilities::from_bits(capabilities),
    }
    .encode()
}

#[test]
fn the_retired_generation_is_refused_cleanly() {
    let mailroom = Mailroom::start(
        ling_suite(),
        MailroomConfig::builder()
            .workers(1)
            .queue_capacity(4)
            .rng_seed(0x0116_2ADE)
            .build(),
    );
    let spec = ClientSpecBuilder::spam(PretzelConfig::test()).build();
    let accept = HandshakeAck::Accept {
        version: ProtocolVersion::V4,
        capabilities: Capabilities::NONE,
    };
    let retired_span = HandshakeAck::Refuse(HandshakeError::VersionMismatch {
        offered_min: 0,
        offered_max: 0,
        supported_min: 4,
        supported_max: 4,
    });
    let cases: [(&str, Vec<u8>, HandshakeAck); 6] = [
        (
            "retired bare handshake",
            vec![SpamFunction::WIRE_TAG, 1],
            HandshakeAck::Refuse(HandshakeError::Malformed(
                "provider judged the offer malformed".into(),
            )),
        ),
        ("retired v2 only", offer(2, 2, 0), retired_span.clone()),
        ("retired v1 and v2", offer(1, 2, 0), retired_span.clone()),
        ("retired v3 only", offer(3, 3, 0), retired_span),
        ("retired v3 and current v4", offer(3, 4, 0), accept.clone()),
        (
            "retired and future capability bits",
            offer(4, 4, (1 << 40) | 1),
            accept.clone(),
        ),
    ];

    let mut refused = Vec::new();
    for (s, (case, first_frame, expected)) in cases.into_iter().enumerate() {
        let mut rng = test_rng(700 + s as u64);
        let (provider_end, mut client_end) = memory_pair();
        let id = mailroom.submit(provider_end).unwrap();
        client_end.send(&first_frame).unwrap();
        assert_eq!(client_end.recv().unwrap(), vec![ACK_ACCEPTED], "{case}");
        let ack = HandshakeAck::decode(&client_end.recv().unwrap()).unwrap();
        assert_eq!(ack, expected, "{case}");

        if ack == accept {
            // An accepted session is an ordinary v4 session from here on.
            let mut channel = CodecChannel::new(client_end);
            let mut session = ClientSession::setup(
                &ProtocolRegistry::builtin(),
                SpamFunction::WIRE_TAG,
                &mut channel,
                &ClientContext::new(PretzelConfig::test()),
                &mut rng,
            )
            .unwrap();
            channel.send(&[ROUND_EMAIL]).unwrap();
            session
                .process_round(&mut channel, &spam_email(), &mut rng)
                .unwrap();
            channel.send(&[ROUND_BYE]).unwrap();
            channel.flush().unwrap();
        } else {
            refused.push(id);
        }

        // The session after each case completes.
        let mut client = connect_client(&mailroom, &spec, &mut rng);
        client.process(&spam_email(), &mut rng).unwrap();
        client.finish().unwrap();
    }

    let report = mailroom.shutdown();
    assert_eq!(report.sessions.len(), 12);
    for session in &report.sessions {
        if refused.contains(&session.id) {
            assert!(
                matches!(session.state, SessionState::Failed(_)),
                "session {}: {:?}",
                session.id,
                session.state
            );
            assert_eq!(session.kind, None, "a refused session is never recorded");
            assert_eq!(session.version, None);
        } else {
            assert_eq!(session.state, SessionState::Completed, "{}", session.id);
            assert_eq!(session.version, Some(ProtocolVersion::V4));
            assert_eq!(session.capabilities, Capabilities::NONE);
            assert_eq!(session.emails, 1);
        }
    }
    assert_eq!(refused.len(), 4);

    // Per-kind totals plus the refused sessions' handshake bytes reproduce
    // the fleet meters.
    let by_kind = report.by_kind();
    assert_eq!(by_kind.len(), 1);
    let mut totals = by_kind[0].1;
    assert_eq!(totals.sessions, 8);
    assert_eq!(totals.emails, report.emails_total);
    for session in report.sessions.iter().filter(|s| s.kind.is_none()) {
        totals.bytes_sent += session.bytes_sent;
        totals.bytes_received += session.bytes_received;
        totals.messages += session.messages;
    }
    assert_eq!(totals.bytes_sent, report.fleet_bytes_sent);
    assert_eq!(totals.bytes_received, report.fleet_bytes_received);
    assert_eq!(totals.messages, report.fleet_messages);
}
