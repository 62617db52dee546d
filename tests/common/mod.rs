//! Shared helpers for the integration tests: the fixed-seed RNG streams,
//! the deterministic Ling-spam-shaped model suites, and the fleet-record
//! plumbing that every mailroom suite previously duplicated.
//!
//! Each integration test binary compiles its own copy of this module and
//! uses a different subset of it, so unused-item lints are suppressed
//! file-wide rather than per-binary.
#![allow(dead_code)]

use pretzel::classifiers::nb::GrNbTrainer;
use pretzel::classifiers::{LabeledExample, NGramExtractor, SparseVector, Trainer};
use pretzel::core::bank::{KIND_GARBLINGS, KIND_ZERO_ENCRYPTIONS};
use pretzel::core::topic::CandidateMode;
use pretzel::core::{PretzelConfig, ProviderModelSuite, WireTag};
use pretzel::datasets::ling_spam_like;
use pretzel::server::{
    BankConfig, ClientSpec, Mailroom, MailroomClient, MailroomConfigBuilder, MailroomReport,
};
use pretzel::transport::{memory_pair, MemoryChannel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fixed-seed RNG (satellite of the CI bootstrap): integration tests must be
/// reproducible run to run, so every call site gets its own deterministic
/// stream instead of ambient `thread_rng` entropy.
pub fn test_rng(stream: u64) -> StdRng {
    StdRng::seed_from_u64(0x5EED_C0DE ^ (stream << 32))
}

/// The deterministic virus model every suite shares: it lives in the
/// extractor's bucket space, not the token vocabulary, so it needs its own
/// tiny training set of magic-prefixed "malware" against benign text.
fn virus_model(extractor: &NGramExtractor) -> pretzel::classifiers::LinearModel {
    let virus_examples: Vec<LabeledExample> = (0..20u8)
        .flat_map(|i| {
            let mut bad = vec![0x4d, 0x5a, 0x90, 0x00, 0xde, 0xad];
            bad.push(i);
            let good = format!("meeting notes attachment {i}");
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
    GrNbTrainer::default().train(&virus_examples, extractor.buckets, 2)
}

/// The shrunk Ling-spam-shaped corpus spec shared by every fleet suite: the
/// vocabulary is cut down so that dozens of protocol setups stay fast.
fn ling_corpus() -> pretzel::datasets::Corpus {
    let mut spec = ling_spam_like(0.08);
    spec.shared_vocab = 120;
    spec.class_vocab = 60;
    spec.doc_len = (20, 60);
    spec.generate()
}

/// The provider model suite used by the batching, phase-split, and
/// retired-generation fleets: spam/topic trained on the full shrunk Ling-spam
/// corpus, plus the shared deterministic virus model.
pub fn ling_suite() -> ProviderModelSuite {
    let corpus = ling_corpus();
    let model = GrNbTrainer::default().train(&corpus.examples, corpus.num_features, 2);
    let extractor = NGramExtractor::new(3, 64);
    let virus = virus_model(&extractor);
    ProviderModelSuite {
        spam: model.clone(),
        topic: model,
        topic_mode: CandidateMode::Full,
        virus,
        virus_extractor: extractor,
        config: PretzelConfig::test(),
    }
}

/// The concurrency-suite variant of [`ling_suite`]: trains on a 60/40
/// train/test split and hands back the held-out test emails so sessions can
/// classify mail the model never saw.
pub fn ling_suite_with_test_split() -> (ProviderModelSuite, Vec<LabeledExample>) {
    let corpus = ling_corpus();
    let (train, test) = corpus.train_test_split(0.6, 7);
    let model = GrNbTrainer::default().train(&train, corpus.num_features, 2);
    let extractor = NGramExtractor::new(3, 64);
    let virus = virus_model(&extractor);
    let suite = ProviderModelSuite {
        spam: model.clone(),
        topic: model,
        topic_mode: CandidateMode::Full,
        virus,
        virus_extractor: extractor,
        config: PretzelConfig::test(),
    };
    (suite, test)
}

/// A minimal untrained-quality suite for tests that only exercise the
/// search module (which ignores the models and uses just the config).
pub fn tiny_suite() -> ProviderModelSuite {
    let examples: Vec<LabeledExample> = (0..8)
        .map(|i| LabeledExample {
            features: SparseVector::from_pairs(vec![(i % 4, 2u32)]),
            label: i % 2,
        })
        .collect();
    let model = GrNbTrainer::default().train(&examples, 4, 2);
    ProviderModelSuite {
        spam: model.clone(),
        topic: model.clone(),
        topic_mode: CandidateMode::Full,
        virus: model,
        virus_extractor: NGramExtractor::new(3, 64),
        config: PretzelConfig::test(),
    }
}

/// One per-session meter row: `(kind, emails, bytes_sent, bytes_received,
/// messages)`, in submission order.
pub type MeterRow = (Option<WireTag>, u64, u64, u64, u64);

/// Extracts the per-session meter rows a fleet run must keep invariant.
pub fn meter_rows(report: &MailroomReport) -> Vec<MeterRow> {
    report
        .sessions
        .iter()
        .map(|s| (s.kind, s.emails, s.bytes_sent, s.bytes_received, s.messages))
        .collect()
}

/// Everything observable about one fleet run that an optimization knob
/// (batching, provisioning) must not change: the
/// verdict transcript and the per-session round/byte accounting.
#[derive(Debug, PartialEq, Eq)]
pub struct FleetRecord {
    pub verdicts: Vec<String>,
    pub meters: Vec<MeterRow>,
    pub emails_total: u64,
}

impl FleetRecord {
    /// Pairs a client-side verdict transcript with the shutdown report's
    /// meter rows.
    pub fn new(verdicts: Vec<String>, report: &MailroomReport) -> Self {
        FleetRecord {
            verdicts,
            meters: meter_rows(report),
            emails_total: report.emails_total,
        }
    }
}

/// How a fleet's offline artifacts are provisioned — the sweep every
/// "precompute is a latency knob, never a semantics knob" test runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provision {
    /// No bank: both sides make every artifact inline.
    NoBank,
    /// A bank holding one artifact per reservoir that no draw ever refills
    /// (its low watermark rounds to zero; only a new registration re-arms
    /// production), so every session runs it dry after one draw; clients
    /// stock one round.
    BankRunsDry,
    /// A bank, and client stocks, provisioned past the whole run's demand.
    Prefilled,
}

impl Provision {
    /// The three provisioning modes, in sweep order.
    pub const ALL: [Provision; 3] = [
        Provision::NoBank,
        Provision::BankRunsDry,
        Provision::Prefilled,
    ];
    /// Reservoir target of [`Provision::Prefilled`], and its client budget:
    /// larger than any test fleet's demand on one reservoir, with the low
    /// watermark (a quarter) below what those fleets leave, so production
    /// never restarts mid-run.
    pub const AMPLE: usize = 32;

    /// Adds this mode's bank (if any) to a mailroom config.
    pub fn configure(self, builder: MailroomConfigBuilder) -> MailroomConfigBuilder {
        let target = match self {
            Provision::NoBank => return builder,
            Provision::BankRunsDry => 1,
            Provision::Prefilled => Self::AMPLE,
        };
        builder.bank(
            BankConfig::default()
                .rng_seed(0xF1EE7)
                .producer_threads(1)
                .target(KIND_GARBLINGS, target)
                .target(KIND_ZERO_ENCRYPTIONS, target),
        )
    }

    /// Rounds a client's explicit offline phase should stock in this mode.
    pub fn client_budget(self) -> usize {
        match self {
            Provision::NoBank => 0,
            Provision::BankRunsDry => 1,
            Provision::Prefilled => Self::AMPLE,
        }
    }
}

/// Call after starting the mailroom and after each connect: returns once
/// the bank (if any) has filled every registered reservoir — the fleet's,
/// then the new session's own — to its target at least once. From then on a
/// run's draw/fallback split is fixed by the targets, not by producer
/// timing, and no first fill is in flight when a session's reservoir is
/// retired.
pub fn settle_bank(mailroom: &Mailroom) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !mailroom
        .bank_report()
        .reservoirs
        .iter()
        .all(|r| r.produced >= r.target as u64)
    {
        assert!(
            std::time::Instant::now() < deadline,
            "bank never filled its reservoirs"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// The bank's conservation law at shutdown: every artifact ever produced
/// was handed out exactly once or is still stocked. A lost artifact breaks
/// the equality one way, a double hand-out the other. Vacuous without a
/// bank (no rows).
pub fn assert_conservation(report: &MailroomReport) {
    for row in &report.reservoirs {
        assert_eq!(
            row.produced,
            row.drawn + row.depth,
            "artifact lost or double-issued: {row:?}"
        );
    }
}

/// The submit-then-connect boilerplate of every memory-channel fleet test:
/// hands one fresh memory pair to the mailroom and drives the client end
/// through the handshake.
pub fn connect_client(
    mailroom: &Mailroom,
    spec: &ClientSpec,
    rng: &mut StdRng,
) -> MailroomClient<MemoryChannel> {
    let (provider_end, client_end) = memory_pair();
    mailroom.submit(provider_end).unwrap();
    MailroomClient::connect(client_end, spec, rng).unwrap()
}
