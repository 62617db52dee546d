//! Concurrent-drain stress for the fleet precompute bank: 64 search sessions
//! run at once on 8 workers, each draining its own zero-encryption reservoir
//! while 2 producers refill all of them. A reservoir's target (4) is below
//! its session's demand (6 queries), so draws race refills, and sessions
//! retire their reservoirs while production for the others is in flight.
//! Fixed seeds must reproduce the verdict transcript exactly (the
//! bank/fallback split may differ run to run, the protocol output may not),
//! and every retired reservoir's books must balance: everything produced was
//! either handed out once or was still stocked when it retired.
//!
//! That provisioning never changes verdicts or wire traffic — no bank, a
//! bank that runs dry mid-run, a prefilled bank — is pinned fleet-wide by
//! `tests/batching.rs` and `tests/search_pipeline.rs`.

use pretzel::core::bank::KIND_ZERO_ENCRYPTIONS;
use pretzel::core::session::EmailPayload;
use pretzel::core::PretzelConfig;
use pretzel::server::{
    BankConfig, ClientSpec, Mailroom, MailroomClient, MailroomConfig, MailroomReport,
};
use pretzel::transport::memory_pair;

mod common;
use common::{assert_conservation, test_rng, tiny_suite};

const SESSIONS: usize = 64;
const QUERIES: usize = 6;

/// One session's script: two index rounds, then queries alternating between
/// indexed and absent keywords.
fn script(session: u64) -> Vec<EmailPayload> {
    let mut ops = vec![
        EmailPayload::SearchIndex {
            doc_id: session * 10,
            body: "quarterly budget review".into(),
        },
        EmailPayload::SearchIndex {
            doc_id: session * 10 + 1,
            body: "budget offsite agenda".into(),
        },
    ];
    let keywords = ["budget", "absent", "offsite"];
    ops.extend((0..QUERIES).map(|q| EmailPayload::SearchQuery(keywords[q % 3].into())));
    ops
}

/// One pass of the 64-session drain. Returns the index-ordered verdict
/// transcript and the shutdown report.
fn storm() -> (Vec<String>, MailroomReport) {
    let mailroom = Mailroom::start(
        tiny_suite(),
        MailroomConfig::builder()
            .workers(8)
            .queue_capacity(SESSIONS)
            .rng_seed(0xD2A1_4BA4)
            .bank(
                BankConfig::default()
                    .rng_seed(0x5702_4142)
                    .producer_threads(2)
                    .target(4),
            )
            .build(),
    );

    let spec = ClientSpec::search(PretzelConfig::test());
    let mut transcripts: Vec<(usize, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let (provider_end, client_end) = memory_pair();
                mailroom
                    .submit(provider_end)
                    .expect("queue sized for fleet");
                let spec = &spec;
                scope.spawn(move || {
                    let mut rng = test_rng(3000 + i as u64);
                    let mut client =
                        MailroomClient::connect(client_end, spec, &mut rng).expect("connect");
                    let verdicts = script(i as u64)
                        .iter()
                        .map(|op| {
                            let verdict = client.process(op, &mut rng).unwrap();
                            format!("search[{i}]:{verdict:?}")
                        })
                        .collect();
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
    assert_eq!(report.emails_total, (SESSIONS * script(0).len()) as u64);
    let verdicts = transcripts.into_iter().flat_map(|(_, v)| v).collect();
    (verdicts, report)
}

/// The concurrent-drain stress pin: 64 sessions × 6 queries against
/// target-4 reservoirs, run twice under the same seeds.
#[test]
fn sixty_four_search_sessions_draining_their_own_reservoirs_stay_deterministic() {
    let (first, first_report) = storm();
    let (second, second_report) = storm();

    assert_eq!(
        first, second,
        "fixed seeds must reproduce the 64-session transcript even though \
         the bank/fallback split is timing-dependent"
    );

    for report in [&first_report, &second_report] {
        assert_eq!(
            report.reservoirs.len(),
            SESSIONS,
            "one reservoir per session"
        );
        assert!(report
            .reservoirs
            .iter()
            .all(|r| r.kind == KIND_ZERO_ENCRYPTIONS));
        assert_conservation(report);
        let drawn: u64 = report.reservoirs.iter().map(|r| r.drawn).sum();
        let dry: u64 = report.reservoirs.iter().map(|r| r.fallback_draws).sum();
        assert_eq!(
            drawn + dry,
            (SESSIONS * QUERIES) as u64,
            "every query drew or fell back"
        );
        assert!(drawn > 0, "the storm must actually exercise banked draws");
    }
}
