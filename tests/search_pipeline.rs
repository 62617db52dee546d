//! Encrypted keyword search through the serving stack (the tentpole
//! acceptance test): a fixed script of index and query rounds is run
//! directly over the in-process `ProviderSession`/`ClientSession` endpoints
//! and through a `Mailroom` with no bank (every response encrypted inline),
//! a bank holding one zero encryption (it runs dry after the first query),
//! and a bank stocked past the whole run (no response is ever encrypted
//! inline). All runs must produce byte-identical verdict transcripts, and
//! the bank's books must balance: precompute is a latency knob, never a
//! semantics knob, and the mailroom adds no observable behaviour over the
//! bare protocol.

use pretzel::core::search::SearchFunction;
use pretzel::core::session::{ClientSession, EmailPayload, ProviderSession, Verdict};
use pretzel::core::spam::AheVariant;
use pretzel::core::spam::SpamFunction;
use pretzel::core::{ClientContext, PretzelConfig, ProtocolRegistry, WireTag};
use pretzel::server::{ClientSpec, ClientSpecBuilder, Mailroom, MailroomConfig};
use pretzel::transport::run_two_party;

mod common;
use common::{assert_conservation, connect_client, settle_bank, test_rng, tiny_suite, Provision};

/// One client seed drives every run, so the SSE master key — and therefore
/// every label, sealed id, and verdict — is identical across runs.
const CLIENT_SEED: u64 = 90;
/// Query rounds in [`script`] — each takes one zero encryption.
const QUERIES: u64 = 4;

fn mailbox() -> Vec<(u64, &'static str)> {
    vec![
        (1, "quarterly budget review meeting tomorrow"),
        (2, "free pills discount offer budget"),
        (3, "meeting notes and budget discussion"),
        (4, "lunch menu attached"),
    ]
}

fn script() -> Vec<EmailPayload> {
    let mut ops: Vec<EmailPayload> = mailbox()
        .into_iter()
        .map(|(doc_id, body)| EmailPayload::SearchIndex {
            doc_id,
            body: body.into(),
        })
        .collect();
    for kw in ["budget", "meeting", "lunch", "nonexistent"] {
        ops.push(EmailPayload::SearchQuery(kw.into()));
    }
    ops
}

/// Renders a verdict transcript; equality of these strings is the
/// byte-identical acceptance criterion.
fn render(verdicts: &[Verdict]) -> Vec<String> {
    verdicts.iter().map(|v| format!("{v:?}")).collect()
}

/// Runs the script over bare in-process sessions: no mailroom, no bank.
fn run_direct() -> Vec<String> {
    let suite_p = tiny_suite();
    let config = suite_p.config.clone();
    let rounds = script().len();
    let (provider_res, client_res) = run_two_party(
        move |chan| -> pretzel::core::Result<()> {
            let mut rng = test_rng(91);
            let registry = ProtocolRegistry::builtin();
            let mut session = ProviderSession::setup(
                &registry,
                SearchFunction::WIRE_TAG,
                chan,
                &suite_p,
                AheVariant::Pretzel,
                &mut rng,
            )?;
            for _ in 0..rounds {
                session.process_round(chan, &mut rng)?;
            }
            Ok(())
        },
        move |chan| -> pretzel::core::Result<Vec<Verdict>> {
            let mut rng = test_rng(CLIENT_SEED);
            let registry = ProtocolRegistry::builtin();
            let ctx = ClientContext::new(config);
            let mut session =
                ClientSession::setup(&registry, SearchFunction::WIRE_TAG, chan, &ctx, &mut rng)?;
            script()
                .iter()
                .map(|op| session.process_round(chan, op, &mut rng))
                .collect()
        },
    );
    provider_res.unwrap();
    render(&client_res.unwrap())
}

/// Runs the same script through a mailroom provisioned as given.
fn run_mailroom(provision: Provision) -> Vec<String> {
    let mailroom = Mailroom::start(
        tiny_suite(),
        provision
            .configure(
                MailroomConfig::builder()
                    .workers(1)
                    .queue_capacity(2)
                    .rng_seed(0x5EA2C4),
            )
            .build(),
    );
    let mut rng = test_rng(CLIENT_SEED);
    let spec = ClientSpec::search(PretzelConfig::test());
    let mut client = connect_client(&mailroom, &spec, &mut rng);
    settle_bank(&mailroom);
    let verdicts: Vec<Verdict> = script()
        .iter()
        .map(|op| client.process(op, &mut rng).unwrap())
        .collect();
    client.finish().unwrap();

    let report = mailroom.shutdown();
    assert_eq!(report.completed(), 1);
    assert_eq!(report.emails_total, script().len() as u64);
    let stats = &report.sessions[0];
    assert_eq!(stats.kind, Some(SearchFunction::WIRE_TAG));
    assert_conservation(&report);
    let drawn: u64 = report.reservoirs.iter().map(|r| r.drawn).sum();
    let (expect_drawn, expect_fallbacks) = match provision {
        Provision::NoBank => (0, 0),
        Provision::BankRunsDry => (1, QUERIES - 1),
        Provision::Prefilled => (QUERIES, 0),
    };
    assert_eq!(
        (drawn, stats.fallback_draws),
        (expect_drawn, expect_fallbacks),
        "{provision:?}: every query either drew a stocked zero encryption or fell back"
    );
    render(&verdicts)
}

/// The acceptance criterion: mailroom-served search verdicts are
/// byte-identical to the direct in-process protocol under every
/// provisioning.
#[test]
fn mailroom_search_matches_direct_protocol_under_every_provisioning() {
    let baseline = run_direct();

    // Sanity: the transcript itself is correct against the plaintext truth.
    assert_eq!(
        baseline,
        vec![
            format!("{:?}", Verdict::SearchIndexed { postings: 5 }),
            format!("{:?}", Verdict::SearchIndexed { postings: 5 }),
            format!("{:?}", Verdict::SearchIndexed { postings: 5 }),
            format!("{:?}", Verdict::SearchIndexed { postings: 3 }),
            format!(
                "{:?}",
                Verdict::SearchHits {
                    ids: vec![1, 2, 3],
                    total: 3
                }
            ),
            format!(
                "{:?}",
                Verdict::SearchHits {
                    ids: vec![1, 3],
                    total: 2
                }
            ),
            format!(
                "{:?}",
                Verdict::SearchHits {
                    ids: vec![4],
                    total: 1
                }
            ),
            format!(
                "{:?}",
                Verdict::SearchHits {
                    ids: vec![],
                    total: 0
                }
            ),
        ]
    );

    for provision in Provision::ALL {
        assert_eq!(
            run_mailroom(provision),
            baseline,
            "mailroom-served search ({provision:?}) diverged from the direct protocol"
        );
    }
}

/// A search session coexists with classification sessions on one mailroom,
/// and the per-kind report splits them correctly.
#[test]
fn search_and_spam_sessions_share_one_mailroom() {
    use pretzel::classifiers::SparseVector;

    let mailroom = Mailroom::start(
        tiny_suite(),
        MailroomConfig {
            workers: 2,
            queue_capacity: 4,
            rng_seed: 0xC0FE,
            ..MailroomConfig::default()
        },
    );

    let mut rng = test_rng(93);
    let mut search_client = connect_client(
        &mailroom,
        &ClientSpec::search(PretzelConfig::test()),
        &mut rng,
    );
    search_client
        .index_email(8, "tax season reminder", &mut rng)
        .unwrap();
    assert_eq!(
        search_client.search_keyword("tax", &mut rng).unwrap(),
        vec![8]
    );

    let mut rng_s = test_rng(94);
    let mut spam_client = connect_client(
        &mailroom,
        &ClientSpecBuilder::spam(PretzelConfig::test()).build(),
        &mut rng_s,
    );
    let email = SparseVector::from_pairs(vec![(0, 3), (1, 1)]);
    spam_client.classify_spam(&email, &mut rng_s).unwrap();

    search_client.finish().unwrap();
    spam_client.finish().unwrap();

    let report = mailroom.shutdown();
    assert_eq!(report.completed(), 2);
    let by_kind = report.by_kind();
    let kinds: Vec<WireTag> = by_kind.iter().map(|(k, _)| *k).collect();
    assert_eq!(
        kinds,
        vec![SpamFunction::WIRE_TAG, SearchFunction::WIRE_TAG]
    );
    let emails: u64 = by_kind.iter().map(|(_, t)| t.emails).sum();
    assert_eq!(emails, report.emails_total);
}
