//! Concurrency edges of the provider mailroom: teardown mid-protocol,
//! bounded-queue backpressure, and a fixed-seed 16-session fleet whose
//! verdicts must match the single-session baseline.

use std::time::{Duration, Instant};

use pretzel::classifiers::SparseVector;
use pretzel::core::spam::SpamFunction;
use pretzel::core::spam::{AheVariant, SpamClient, SpamProvider};
use pretzel::core::topic::CandidateMode;
use pretzel::core::{PretzelConfig, WireTag};
use pretzel::server::{
    ClientSpec, ClientSpecBuilder, Mailroom, MailroomClient, MailroomConfig, ServerError,
    SessionState,
};
use pretzel::transport::wire::{Capabilities, HandshakeOffer, ProtocolVersion};
use pretzel::transport::{memory_pair, run_two_party, Channel};

mod common;
use common::{ling_suite_with_test_split, test_rng};

#[test]
fn teardown_mid_protocol_fails_one_session_not_the_mailroom() {
    let (suite, emails) = ling_suite_with_test_split();
    let mailroom = Mailroom::start(
        suite,
        MailroomConfig {
            workers: 1,
            queue_capacity: 4,
            rng_seed: 0xDEAD,
            ..MailroomConfig::default()
        },
    );

    // Session A: a full, clean session — handshake, setup, one email, BYE.
    let (provider_end, client_end) = memory_pair();
    let a_id = mailroom.submit(provider_end).unwrap();
    let mut rng = test_rng(40);
    let spec = ClientSpecBuilder::spam(PretzelConfig::test()).build();
    let mut client = MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
    client.classify_spam(&emails[0].features, &mut rng).unwrap();
    client.finish().unwrap();

    // Session B vanishes mid-protocol: after a successful setup and one
    // classified email it announces another round and drops the channel, so
    // the worker is left blocking inside the per-email protocol.
    let (provider_end, mut client_end) = memory_pair();
    let b_id = mailroom.submit(provider_end).unwrap();
    let mut rng_b = test_rng(41);
    let mut client_b = {
        let spec = ClientSpecBuilder::spam(PretzelConfig::test()).build();
        // Borrow the channel so we can send a raw frame after the driver.
        MailroomClient::connect(&mut client_end, &spec, &mut rng_b).unwrap()
    };
    client_b
        .classify_spam(&emails[1].features, &mut rng_b)
        .unwrap();
    drop(client_b);
    client_end.send(&[pretzel::server::ROUND_EMAIL]).unwrap();
    drop(client_end); // worker reads the control frame, then the channel dies

    // Session C on the same mailroom must still be served end to end.
    let (provider_end, client_end) = memory_pair();
    let c_id = mailroom.submit(provider_end).unwrap();
    let mut rng_c = test_rng(42);
    let spec = ClientSpecBuilder::spam(PretzelConfig::test()).build();
    let mut client_c = MailroomClient::connect(client_end, &spec, &mut rng_c).unwrap();
    client_c
        .classify_spam(&emails[2].features, &mut rng_c)
        .unwrap();
    client_c.finish().unwrap();

    let report = mailroom.shutdown();
    let state = |id| {
        report
            .sessions
            .iter()
            .find(|s| s.id == id)
            .unwrap()
            .state
            .clone()
    };
    assert_eq!(state(a_id), SessionState::Completed);
    assert!(
        matches!(state(b_id), SessionState::Failed(_)),
        "dropping mid-protocol must fail the session, got {:?}",
        state(b_id)
    );
    assert_eq!(
        state(c_id),
        SessionState::Completed,
        "a failed session must not poison later ones"
    );
    assert_eq!(report.completed(), 2);
}

#[test]
fn full_queue_rejects_immediately_instead_of_blocking() {
    let (suite, _) = ling_suite_with_test_split();
    let mailroom = Mailroom::start(
        suite,
        MailroomConfig {
            workers: 1,
            queue_capacity: 1,
            rng_seed: 0xBEEF,
            ..MailroomConfig::default()
        },
    );

    // Session A occupies the single worker: it handshakes and then stalls
    // inside setup (the worker blocks waiting for the client's seed).
    let (provider_end, mut stalled_client) = memory_pair();
    let a_id = mailroom.submit(provider_end).unwrap();
    let offer = HandshakeOffer {
        min_version: ProtocolVersion::MIN.as_byte(),
        max_version: ProtocolVersion::MAX.as_byte(),
        wire_tag: SpamFunction::WIRE_TAG,
        variant: 1,
        capabilities: Capabilities::NONE,
    };
    stalled_client.send(&offer.encode()).unwrap();
    let wait_start = Instant::now();
    while mailroom.session_stats(a_id).unwrap().state != SessionState::Active {
        assert!(
            wait_start.elapsed() < Duration::from_secs(10),
            "worker never picked up session A"
        );
        std::thread::yield_now();
    }

    // Session B fills the queue's single slot.
    let (provider_end, _b_client) = memory_pair();
    mailroom.submit(provider_end).unwrap();

    // Session C must be rejected NOW — no blocking on worker availability.
    let (provider_end, c_client) = memory_pair();
    let start = Instant::now();
    let err = mailroom.submit(provider_end);
    assert!(
        matches!(err, Err(ServerError::Backpressure(_))),
        "expected backpressure, got {err:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "rejection must be immediate, took {:?}",
        start.elapsed()
    );

    // And the refused client observes Busy through the normal driver path.
    let mut rng = test_rng(50);
    let spec = ClientSpecBuilder::spam(PretzelConfig::test()).build();
    match MailroomClient::connect(c_client, &spec, &mut rng) {
        Err(ServerError::Busy) => {}
        Err(other) => panic!("expected Busy, got error: {other}"),
        Ok(_) => panic!("expected Busy, got an accepted session"),
    }

    // Unblock everything so shutdown can drain: the stalled clients vanish.
    drop(stalled_client);
    drop(_b_client);
    let report = mailroom.shutdown();
    // A failed (client vanished mid-setup); B failed (never handshook before
    // its client dropped); C rejected at intake.
    assert_eq!(report.completed(), 0);
    assert_eq!(
        report
            .sessions
            .iter()
            .filter(|s| s.state == SessionState::Rejected)
            .count(),
        1
    );
}

/// 16 concurrent fixed-seed sessions: every session's verdicts must equal
/// the verdicts of the same emails classified through a plain two-party
/// single-session exchange with the same model and parameters.
#[test]
fn sixteen_concurrent_sessions_match_the_single_session_baseline() {
    const SESSIONS: usize = 16;
    const EMAILS_PER_SESSION: usize = 3;

    let (suite, test_emails) = ling_suite_with_test_split();
    assert!(test_emails.len() >= SESSIONS * EMAILS_PER_SESSION);
    let inboxes: Vec<Vec<SparseVector>> = (0..SESSIONS)
        .map(|s| {
            (0..EMAILS_PER_SESSION)
                .map(|e| test_emails[s * EMAILS_PER_SESSION + e].features.clone())
                .collect()
        })
        .collect();

    // Single-session baseline: one plain client/provider pair per inbox,
    // driven directly over run_two_party (no mailroom involved).
    let config = PretzelConfig::test();
    let baseline: Vec<Vec<bool>> = inboxes
        .iter()
        .enumerate()
        .map(|(s, inbox)| {
            let model = suite.spam.clone();
            let provider_cfg = config.clone();
            let client_cfg = config.clone();
            let inbox = inbox.clone();
            let (provider_res, verdicts) = run_two_party(
                move |chan| -> pretzel::core::Result<()> {
                    let mut rng = test_rng(600 + s as u64);
                    let mut provider = SpamProvider::setup(
                        chan,
                        &model,
                        &provider_cfg,
                        AheVariant::Pretzel,
                        &mut rng,
                    )?;
                    for _ in 0..EMAILS_PER_SESSION {
                        provider.process_email(chan, &mut rng)?;
                    }
                    Ok(())
                },
                move |chan| -> pretzel::core::Result<Vec<bool>> {
                    let mut rng = test_rng(700 + s as u64);
                    let mut client =
                        SpamClient::setup(chan, &client_cfg, AheVariant::Pretzel, &mut rng)?;
                    inbox
                        .iter()
                        .map(|email| client.classify(chan, email, &mut rng))
                        .collect()
                },
            );
            provider_res.unwrap();
            verdicts.unwrap()
        })
        .collect();

    // The fleet: 16 concurrent sessions against one mailroom.
    let mailroom = Mailroom::start(
        suite,
        MailroomConfig {
            workers: 4,
            queue_capacity: SESSIONS,
            rng_seed: 0xF1EE7,
            ..MailroomConfig::default()
        },
    );
    let handles: Vec<_> = inboxes
        .iter()
        .enumerate()
        .map(|(s, inbox)| {
            let (provider_end, client_end) = memory_pair();
            mailroom.submit(provider_end).unwrap();
            let spec = ClientSpecBuilder::spam(config.clone()).build();
            let inbox = inbox.clone();
            std::thread::spawn(move || {
                let mut rng = test_rng(800 + s as u64);
                let mut client = MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
                let verdicts: Vec<bool> = inbox
                    .iter()
                    .map(|email| client.classify_spam(email, &mut rng).unwrap())
                    .collect();
                client.finish().unwrap();
                verdicts
            })
        })
        .collect();
    let fleet: Vec<Vec<bool>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for (s, (fleet_verdicts, baseline_verdicts)) in fleet.iter().zip(baseline.iter()).enumerate() {
        assert_eq!(
            fleet_verdicts, baseline_verdicts,
            "session {s}: concurrent verdicts diverged from the single-session baseline"
        );
    }

    let report = mailroom.shutdown();
    assert_eq!(report.completed(), SESSIONS);
    assert_eq!(report.emails_total, (SESSIONS * EMAILS_PER_SESSION) as u64);
    // Both verdict bits and the verdict *distribution* must be non-trivial:
    // a corpus split 95/5 ham/spam should not classify all one way.
    let spam_count: usize = fleet.iter().flatten().filter(|&&v| v).count();
    assert!(spam_count < SESSIONS * EMAILS_PER_SESSION);
}

/// 16 concurrent sessions spanning all four protocol kinds on one mailroom:
/// every session completes, and the per-kind meter totals of
/// `MailroomReport::by_kind` sum exactly to the fleet-wide report.
#[test]
fn mixed_fleet_of_all_four_kinds_reconciles_per_kind_accounting() {
    const PER_KIND: usize = 4;

    let (suite, emails) = ling_suite_with_test_split();
    let config = PretzelConfig::test();
    let mailroom = Mailroom::start(
        suite,
        MailroomConfig {
            workers: 4,
            queue_capacity: 4 * PER_KIND,
            rng_seed: 0x4B1D,
            ..MailroomConfig::default()
        },
    );

    let handles: Vec<_> = (0..4 * PER_KIND)
        .map(|i| {
            let (provider_end, client_end) = memory_pair();
            mailroom.submit(provider_end).unwrap();
            let config = config.clone();
            let email = emails[i].features.clone();
            std::thread::spawn(move || {
                let mut rng = test_rng(900 + i as u64);
                match i % 4 {
                    0 => {
                        let spec = ClientSpecBuilder::spam(config).build();
                        let mut client =
                            MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
                        client.classify_spam(&email, &mut rng).unwrap();
                        client.classify_spam(&email, &mut rng).unwrap();
                        client.finish().unwrap();
                    }
                    1 => {
                        let spec = ClientSpecBuilder::topic(config)
                            .topic_mode(CandidateMode::Full)
                            .build();
                        let mut client =
                            MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
                        client.extract_topic(&email, &mut rng).unwrap();
                        client.extract_topic(&email, &mut rng).unwrap();
                        client.finish().unwrap();
                    }
                    2 => {
                        let spec = ClientSpecBuilder::virus(config).build();
                        let mut client =
                            MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
                        client
                            .scan_attachment(b"MZ\x90\x00attachment payload", &mut rng)
                            .unwrap();
                        client.scan_attachment(b"meeting notes", &mut rng).unwrap();
                        client.finish().unwrap();
                    }
                    _ => {
                        let spec = ClientSpec::search(config);
                        let mut client =
                            MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
                        client
                            .index_email(i as u64, "expense report for the offsite", &mut rng)
                            .unwrap();
                        let hits = client.search_keyword("offsite", &mut rng).unwrap();
                        assert_eq!(hits, vec![i as u64]);
                        client.finish().unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let report = mailroom.shutdown();
    assert_eq!(report.completed(), 4 * PER_KIND);

    let by_kind = report.by_kind();
    let kinds: Vec<WireTag> = by_kind.iter().map(|(k, _)| *k).collect();
    assert_eq!(
        kinds,
        vec![1, 2, 3, 4],
        "by_kind reports spam/topic/virus/search in wire-tag order"
    );
    for (kind, totals) in &by_kind {
        assert_eq!(totals.sessions, PER_KIND, "tag {kind}: session count");
        assert_eq!(
            totals.emails,
            2 * PER_KIND as u64,
            "tag {kind}: round count"
        );
        assert!(
            totals.bytes_sent > 0 && totals.bytes_received > 0,
            "tag {kind}"
        );
    }

    // The per-kind split is a partition: each axis sums to the fleet totals.
    assert_eq!(
        by_kind.iter().map(|(_, t)| t.emails).sum::<u64>(),
        report.emails_total
    );
    assert_eq!(
        by_kind.iter().map(|(_, t)| t.bytes_sent).sum::<u64>(),
        report.fleet_bytes_sent
    );
    assert_eq!(
        by_kind.iter().map(|(_, t)| t.bytes_received).sum::<u64>(),
        report.fleet_bytes_received
    );
    assert_eq!(
        by_kind.iter().map(|(_, t)| t.messages).sum::<u64>(),
        report.fleet_messages
    );
}
