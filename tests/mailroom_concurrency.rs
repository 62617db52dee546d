//! Concurrency edges of the provider mailroom: teardown mid-protocol,
//! bounded-queue backpressure, a fixed-seed 16-session fleet whose
//! verdicts must match the single-session baseline, and a mixed fleet of
//! all four kinds that must give the same verdicts and accounting over
//! memory pairs and over loopback TCP.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use pretzel::classifiers::SparseVector;
use pretzel::core::spam::SpamFunction;
use pretzel::core::spam::{AheVariant, SpamClient, SpamProvider};
use pretzel::core::topic::CandidateMode;
use pretzel::core::{EmailPayload, PretzelConfig, Verdict, WireTag};
use pretzel::server::{
    serve_tcp_sessions, ClientSpec, ClientSpecBuilder, Mailroom, MailroomClient, MailroomConfig,
    MailroomReport, ServerError, SessionState,
};
use pretzel::transport::wire::{Capabilities, HandshakeOffer, ProtocolVersion};
use pretzel::transport::{memory_pair, run_two_party, Channel, TcpAcceptor, TcpChannel};

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

/// Sessions per protocol kind in the mixed fleet.
const PER_KIND: usize = 4;

/// Runs 16 concurrent sessions spanning all four protocol kinds on one
/// mailroom, each on a channel from `connect`, while `accept` runs beside
/// the clients (the TCP accept loop; nothing for memory pairs). Returns each
/// session's verdicts in fleet order, not arrival order, and the shutdown
/// report.
fn run_mixed_fleet<C: Channel + 'static>(
    connect: impl Fn(&Mailroom) -> C + Sync,
    accept: impl FnOnce(&Mailroom) + Send,
) -> (Vec<Vec<Verdict>>, MailroomReport) {
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
    let verdicts = std::thread::scope(|scope| {
        let (mailroom, connect) = (&mailroom, &connect);
        scope.spawn(move || accept(mailroom));
        let handles: Vec<_> = (0..4 * PER_KIND)
            .map(|i| {
                let tokens = EmailPayload::Tokens(emails[i].features.clone());
                let (spec, payloads) = match i % 4 {
                    0 => (
                        ClientSpecBuilder::spam(config.clone()).build(),
                        vec![tokens.clone(), tokens],
                    ),
                    1 => (
                        ClientSpecBuilder::topic(config.clone())
                            .topic_mode(CandidateMode::Full)
                            .build(),
                        vec![tokens.clone(), tokens],
                    ),
                    2 => (
                        ClientSpecBuilder::virus(config.clone()).build(),
                        vec![
                            EmailPayload::Attachment(b"MZ\x90\x00attachment payload".to_vec()),
                            EmailPayload::Attachment(b"meeting notes".to_vec()),
                        ],
                    ),
                    _ => (
                        ClientSpec::search(config.clone()),
                        vec![
                            EmailPayload::SearchIndex {
                                doc_id: i as u64,
                                body: "expense report for the offsite".to_string(),
                            },
                            EmailPayload::SearchQuery("offsite".to_string()),
                        ],
                    ),
                };
                scope.spawn(move || {
                    let mut rng = test_rng(900 + i as u64);
                    let mut client =
                        MailroomClient::connect(connect(mailroom), &spec, &mut rng).unwrap();
                    let verdicts: Vec<Verdict> = payloads
                        .iter()
                        .map(|payload| client.process(payload, &mut rng).unwrap())
                        .collect();
                    client.finish().unwrap();
                    verdicts
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    (verdicts, mailroom.shutdown())
}

/// The mixed fleet's run over memory pairs, made once and shared by the
/// tests that check it and compare against it.
fn memory_fleet() -> &'static (Vec<Vec<Verdict>>, MailroomReport) {
    static RUN: OnceLock<(Vec<Vec<Verdict>>, MailroomReport)> = OnceLock::new();
    RUN.get_or_init(|| {
        run_mixed_fleet(
            |mailroom| {
                let (provider_end, client_end) = memory_pair();
                mailroom.submit(provider_end).unwrap();
                client_end
            },
            |_| {},
        )
    })
}

/// Every session of a mixed fleet completed, and the per-kind meter totals
/// of `MailroomReport::by_kind` sum exactly to the fleet-wide report.
fn assert_reconciles(report: &MailroomReport) {
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

    // The per-kind split is a partition: each axis sums to the fleet
    // totals.
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

/// The mixed fleet over memory pairs: every session completes, the per-kind
/// accounting reconciles with the fleet totals, and each search session
/// finds its own email and no other.
#[test]
fn mixed_fleet_of_all_four_kinds_reconciles_per_kind_accounting() {
    let (verdicts, report) = memory_fleet();
    for (i, verdicts) in verdicts.iter().enumerate().skip(3).step_by(4) {
        assert_eq!(
            verdicts[1],
            Verdict::SearchHits {
                ids: vec![i as u64],
                total: 1
            },
            "session {i}: a search session finds its own email and no other"
        );
    }
    assert_reconciles(report);
}

/// The same mixed fleet through `TcpAcceptor` and `serve_tcp_sessions`: its
/// accounting reconciles too, and it gives the memory-pair run's verdicts,
/// search hits and per-kind accounting. TCP accept order is up to the OS, so
/// this also pins that nothing a client sees depends on which session id its
/// connection drew.
#[test]
fn mixed_fleet_over_tcp_matches_memory_pairs() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap();
    let (tcp_verdicts, tcp) = run_mixed_fleet(
        |_| TcpChannel::connect(addr).unwrap(),
        |mailroom| {
            let accepted = serve_tcp_sessions(mailroom, &acceptor, 4 * PER_KIND);
            assert_eq!(accepted, 4 * PER_KIND, "every connection is accepted");
        },
    );
    assert_reconciles(&tcp);

    let (memory_verdicts, memory) = memory_fleet();
    assert_eq!(
        &tcp_verdicts, memory_verdicts,
        "the transport must not change a verdict or a hit list"
    );
    assert_eq!(
        tcp.by_kind(),
        memory.by_kind(),
        "the transport must not change per-kind rounds, bytes or messages"
    );
}
