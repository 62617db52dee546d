//! Concurrent-drain stress for the fleet precompute bank: 64 sessions hammer
//! one garbling reservoir whose target (8) is far below total demand, so
//! draws race the producers' refills the whole run. Fixed seeds must
//! reproduce the verdict transcript exactly (the bank/fallback split may
//! differ run to run, the protocol output may not), and the shutdown
//! accounting must conserve artifacts: everything produced was either handed
//! out once or is still stocked — nothing lost, nothing issued twice.
//!
//! That provisioning never changes verdicts or wire traffic — no bank, a
//! bank that runs dry mid-run, a prefilled bank — is pinned fleet-wide by
//! `tests/batching.rs` and `tests/search_pipeline.rs`.

use pretzel::classifiers::SparseVector;
use pretzel::core::bank::KIND_GARBLINGS;
use pretzel::core::PretzelConfig;
use pretzel::server::{
    BankConfig, ClientSpecBuilder, Mailroom, MailroomClient, MailroomConfig, MailroomReport,
};
use pretzel::transport::memory_pair;

mod common;
use common::{assert_conservation, ling_suite, test_rng};

/// One pass of the 64-session drain: every session hammers the same
/// under-provisioned garbling reservoir while the producers refill it.
/// Returns the index-ordered verdict transcript and the shutdown report.
fn storm() -> (Vec<String>, MailroomReport) {
    const SESSIONS: usize = 64;
    const EMAILS: usize = 2;

    let mailroom = Mailroom::start(
        ling_suite(),
        MailroomConfig::builder()
            .workers(8)
            .queue_capacity(SESSIONS)
            .rng_seed(0xD2A1_4BA4)
            // Target 8 against 128 emails of demand: the reservoir runs dry
            // and refills continuously, so banked draws, low-watermark
            // re-arms, and inline fallbacks all interleave under contention.
            .bank(
                BankConfig::default()
                    .rng_seed(0x5702_4142)
                    .producer_threads(2)
                    .target(KIND_GARBLINGS, 8),
            )
            .build(),
    );

    let config = PretzelConfig::test();
    let spam_email = SparseVector::from_pairs(vec![(0, 3), (1, 1), (2, 2), (7, 1)]);
    let mut transcripts: Vec<(usize, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let (provider_end, client_end) = memory_pair();
                mailroom
                    .submit(provider_end)
                    .expect("queue sized for fleet");
                let spec = ClientSpecBuilder::spam(config.clone()).build();
                let spam_email = spam_email.clone();
                scope.spawn(move || {
                    let mut rng = test_rng(3000 + i as u64);
                    let mut client =
                        MailroomClient::connect(client_end, &spec, &mut rng).expect("connect");
                    let mut verdicts = Vec::with_capacity(EMAILS);
                    for _ in 0..EMAILS {
                        let is_spam = client.classify_spam(&spam_email, &mut rng).unwrap();
                        verdicts.push(format!("spam[{i}]:{is_spam}"));
                    }
                    client.finish().unwrap();
                    (i, verdicts)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    transcripts.sort_by_key(|(i, _)| *i);

    let report = mailroom.shutdown();
    assert_eq!(report.completed(), SESSIONS, "no session may be lost");
    assert_eq!(report.emails_total, (SESSIONS * EMAILS) as u64);
    let verdicts = transcripts.into_iter().flat_map(|(_, v)| v).collect();
    (verdicts, report)
}

/// The concurrent-drain stress pin: 64 sessions × 2 emails against a
/// target-8 reservoir, run twice under the same seeds.
#[test]
fn sixty_four_sessions_draining_one_reservoir_stay_deterministic() {
    let (first, first_report) = storm();
    let (second, _) = storm();

    assert_eq!(
        first, second,
        "fixed seeds must reproduce the 64-session transcript even though \
         the bank/fallback split is timing-dependent"
    );

    assert_conservation(&first_report);
    let garblings_drawn: u64 = first_report
        .reservoirs
        .iter()
        .filter(|r| r.kind == KIND_GARBLINGS)
        .map(|r| r.drawn)
        .sum();
    assert!(
        garblings_drawn > 0,
        "the storm must actually exercise banked draws"
    );
}
