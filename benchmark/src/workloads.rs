//! The six mailroom workloads and the inputs each generates from a seed.
//!
//! A workload fixes everything about the load except the seed: transport,
//! worker count, bank on/off, session count (= generator threads, 2 — fixed
//! here, not read from the host), model shape and email length. All run the
//! paper's parameters (`PretzelConfig::paper()`); `Scale::Smoke` shrinks them
//! for the unit tests and `--smoke`.
//!
//! Inputs (models, payloads, client RNG seeds, the plaintext expectations the
//! oracle checks against) are generated **before** the timed window; the
//! serving stack receives only these generated inputs.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pretzel_bench::synthetic_model;
use pretzel_classifiers::{LinearModel, NGramExtractor, SparseVector};
use pretzel_core::session::EmailPayload;
use pretzel_core::spam::AheVariant;
use pretzel_core::topic::CandidateMode;
use pretzel_core::{PretzelConfig, ProviderModelSuite};
use pretzel_server::{ClientSpec, ClientSpecBuilder};

use crate::oracle::{Expected, Oracle};

/// Generator threads (= concurrent client sessions) of every workload.
pub const GENERATORS: usize = 2;

/// How channels between clients and the mailroom are made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `pretzel_transport::memory_pair`.
    Memory,
    /// Framed TCP over the loopback interface (no real link is crossed).
    Tcp,
}

/// The four built-in function modules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Spam filtering (wire tag 1).
    Spam,
    /// Topic extraction (wire tag 2).
    Topic,
    /// Virus scanning (wire tag 3).
    Virus,
    /// Encrypted keyword search (wire tag 4).
    Search,
}

impl Kind {
    /// Lower-case name, as used in metric names (`core.<kind>.…`).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Spam => "spam",
            Kind::Topic => "topic",
            Kind::Virus => "virus",
            Kind::Search => "search",
        }
    }
}

/// Session order of one churn cycle.
pub const CHURN_KINDS: [Kind; 4] = [Kind::Spam, Kind::Topic, Kind::Virus, Kind::Search];

/// How sessions come and go during the timed window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// [`GENERATORS`] long-lived sessions of one kind, connected before the
    /// window; each generator submits `batch` emails per call (1 = the
    /// sequential `process` path, more = `process_batch`).
    Steady {
        /// The function module every session runs.
        kind: Kind,
        /// Emails per client call.
        batch: usize,
    },
    /// Short sessions inside the window: each generator runs whole cycles of
    /// [`CHURN_KINDS`], every session `connect` → [`churn_batches`] ×
    /// `process_batch(batch)` → `finish`.
    Churn {
        /// Emails per call.
        batch: usize,
    },
}

/// `process_batch` calls of one churn session. The four kinds' round times
/// form four clusters (search < spam < topic < virus); with equal counts the
/// median round would sit on the edge between two of them and jump from run
/// to run. With 4-2-2-2 the median round is the median of the spam cluster
/// and p90 the median of the virus cluster.
pub fn churn_batches(kind: Kind) -> usize {
    match kind {
        Kind::Search => 4,
        Kind::Spam | Kind::Topic | Kind::Virus => 2,
    }
}

/// Paper-scale parameters, or the shrunken ones for `--smoke` and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// `PretzelConfig::paper()` and the model shapes in [`Workload`].
    Paper,
    /// `PretzelConfig::test()`, models capped at 256 features / 16 topics.
    Smoke,
}

/// One workload: a name, the reason it exists, and the load shape.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Which layers do most of the work here and which do little.
    pub why: &'static str,
    /// Session lifecycle during the window.
    pub flow: Flow,
    /// AHE variant of the classification sessions.
    pub variant: AheVariant,
    /// Spam model features N (topic and virus models use 4096 × 128 / 4096).
    pub spam_features: usize,
    /// Distinct features per spam/topic email, the paper's L.
    pub email_features: usize,
    /// Client ↔ mailroom transport.
    pub transport: Transport,
    /// Mailroom worker threads.
    pub workers: usize,
    /// Whether the fleet precompute bank runs (`BankConfig::default()`).
    pub bank: bool,
}

/// Topic model: categories B and candidate topics B′ (paper §4.3, fig10).
const TOPIC_CATEGORIES: usize = 128;
const TOPIC_FEATURES: usize = 4096;
const VIRUS_BUCKETS: usize = 4096;
const ATTACHMENT_BYTES: usize = 2048;
/// Synthetic emails carry frequencies 1..=15 (`freq_bits` = 4).
const MAX_FREQ: u32 = 15;

/// The benchmark's workloads, in reporting order.
pub fn all() -> [Workload; 6] {
    [
        Workload {
            name: "spam_long",
            why: "L=692 spam over memory channels: the client dot product (sdp/rlwe \
                  rotate-scale-add) is ~94% of CPU; gc, transport, bank and queue do little",
            flow: Flow::Steady {
                kind: Kind::Spam,
                batch: 1,
            },
            variant: AheVariant::Pretzel,
            spam_features: 4096,
            email_features: 692,
            transport: Transport::Memory,
            workers: 2,
            bank: false,
        },
        Workload {
            name: "spam_short_bank",
            why: "L=32 spam over loopback TCP with the live bank: rlwe decrypt, gc \
                  garble/eval, OT extension, small-frame transport and bank draws dominate; \
                  sdp does little",
            flow: Flow::Steady {
                kind: Kind::Spam,
                batch: 1,
            },
            variant: AheVariant::Pretzel,
            spam_features: 4096,
            email_features: 32,
            transport: Transport::Tcp,
            workers: 2,
            bank: true,
        },
        Workload {
            name: "topic_batch",
            why: "B=128 topics, 20 candidates, process_batch(8) over TCP: 20-way argmax \
                  circuit, 600-OT extension, ~600 KB/email; gc and bulk transport dominate, \
                  bank unused",
            flow: Flow::Steady {
                kind: Kind::Topic,
                batch: 8,
            },
            variant: AheVariant::Pretzel,
            spam_features: 4096,
            email_features: 32,
            transport: Transport::Tcp,
            workers: 2,
            bank: false,
        },
        Workload {
            name: "baseline_short",
            why: "Paillier-1024 Baseline spam, N=1024, L=32: the only round path where \
                  paillier and bignum (CRT decrypt, r^n, mul_plain) do the work; rlwe does \
                  none",
            flow: Flow::Steady {
                kind: Kind::Spam,
                batch: 1,
            },
            variant: AheVariant::Baseline,
            spam_features: 1024,
            email_features: 32,
            transport: Transport::Memory,
            workers: 2,
            bank: false,
        },
        Workload {
            name: "search_rw",
            why: "alternating index writes and keyword queries on a growing mailbox, TCP, bank \
                  on: ~200 us ops, so per-frame transport/codec/CRC, SSE and the \
                  zero-encryption reservoir dominate; no classification crypto",
            flow: Flow::Steady {
                kind: Kind::Search,
                batch: 1,
            },
            variant: AheVariant::Pretzel,
            spam_features: 4096,
            email_features: 32,
            transport: Transport::Tcp,
            workers: 2,
            bank: true,
        },
        Workload {
            name: "mixed_churn",
            why: "short spam/topic/virus/search sessions back-to-back (connect, 2-4 batches, \
                  finish): set-up dominated - base OTs, model encryption and transfer, \
                  handshake, teardown; steady-state layers do little",
            flow: Flow::Churn { batch: 8 },
            variant: AheVariant::Pretzel,
            spam_features: 4096,
            email_features: 32,
            transport: Transport::Memory,
            workers: 2,
            bank: false,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// One session a generator drives: its client spec, the payloads in order,
/// and what the oracle expects for each.
pub struct SessionScript {
    /// The function module of the session.
    pub kind: Kind,
    /// Client-side setup parameters.
    pub spec: ClientSpec,
    /// Payloads in submission order.
    pub payloads: Vec<EmailPayload>,
    /// Plaintext expectation per payload.
    pub expected: Vec<Expected>,
    /// Whether the generator may wrap around to the first payload when it
    /// runs out (classification emails are independent; search ops are not —
    /// document ids must stay unique, so a search script is sized to outlast
    /// the window instead).
    pub cyclic: bool,
}

/// Everything one generator thread needs.
pub struct GeneratorScript {
    /// Seed of the client-side RNG (key generation, blinding, OT choices).
    pub rng_seed: u64,
    /// Steady flows: one session. Churn: one per [`CHURN_KINDS`] entry,
    /// replayed every cycle.
    pub sessions: Vec<SessionScript>,
}

/// The generated inputs of one run.
pub struct Inputs {
    /// Provider models and parameter preset.
    pub suite: ProviderModelSuite,
    /// `MailroomConfig::rng_seed` (and the bank's), derived from the seed.
    pub provider_seed: u64,
    /// One script per generator thread.
    pub generators: Vec<GeneratorScript>,
}

struct Shapes {
    config: PretzelConfig,
    spam_features: usize,
    email_features: usize,
    topic_features: usize,
    topic_categories: usize,
    topic_mode: CandidateMode,
    virus_buckets: usize,
    attachment_bytes: usize,
}

impl Shapes {
    fn of(w: &Workload, scale: Scale) -> Shapes {
        let config = match scale {
            Scale::Paper => PretzelConfig::paper(),
            Scale::Smoke => PretzelConfig::test(),
        };
        let cap = |n: usize, smoke: usize| match scale {
            Scale::Paper => n,
            Scale::Smoke => n.min(smoke),
        };
        Shapes {
            topic_mode: CandidateMode::Decomposed(config.candidate_topics),
            config,
            spam_features: cap(w.spam_features, 256),
            email_features: cap(w.email_features, 48),
            topic_features: cap(TOPIC_FEATURES, 256),
            topic_categories: cap(TOPIC_CATEGORIES, 16),
            virus_buckets: cap(VIRUS_BUCKETS, 256),
            attachment_bytes: cap(ATTACHMENT_BYTES, 256),
        }
    }
}

/// A sparse email with exactly `l` distinct features of `0..n` and
/// frequencies `1..=MAX_FREQ`. (`pretzel_datasets::synthetic_features` walks
/// a `HashSet`, whose order — and so which frequency lands on which feature —
/// changes from process to process; the benchmark needs the same seed to give
/// the same inputs.)
fn sparse_email(n: usize, l: usize, rng: &mut StdRng) -> SparseVector {
    let l = l.min(n);
    let mut chosen = BTreeSet::new();
    while chosen.len() < l {
        chosen.insert(rng.gen_range(0..n));
    }
    SparseVector::from_pairs(
        chosen
            .into_iter()
            .map(|i| (i, rng.gen_range(1..=MAX_FREQ)))
            .collect(),
    )
}

fn attachment(bytes: usize, rng: &mut StdRng) -> Vec<u8> {
    (0..bytes).map(|_| rng.gen_range(0..=255u8)).collect()
}

/// Search ops alternate an index upload and a query for a term of the
/// document just uploaded. Bodies carry mostly-unique terms, so posting lists
/// stay short and round cost stays flat as the mailbox grows; `folder{k}` is
/// shared by four consecutive documents so some queries return several hits.
fn search_ops(count: usize, salt: u64) -> Vec<EmailPayload> {
    (0..count)
        .map(|op| {
            let doc = (op / 2) as u64;
            if op % 2 == 0 {
                EmailPayload::SearchIndex {
                    doc_id: doc,
                    body: format!("message{salt}x{doc} invoice{salt}x{doc} folder{}", doc / 4),
                }
            } else if doc % 8 == 7 {
                EmailPayload::SearchQuery(format!("folder{}", doc / 4))
            } else {
                EmailPayload::SearchQuery(format!("invoice{salt}x{doc}"))
            }
        })
        .collect()
}

fn candidate_model(provider: &LinearModel, rng: &mut StdRng) -> LinearModel {
    // The public candidate model is a noisy copy of the provider's, so the
    // true argmax is usually among the candidates, as §4.3 intends.
    let mut model = provider.clone();
    for row in &mut model.weights {
        for w in row.iter_mut() {
            *w += rng.gen_range(-0.5..0.5f64);
        }
    }
    model
}

/// Generates the run's inputs from `seed`. `search_ops_per_session` sizes the
/// (non-cyclic) search scripts; classification scripts hold
/// `emails_per_session` distinct emails and cycle.
pub fn generate(
    w: &Workload,
    scale: Scale,
    seed: u64,
    emails_per_session: usize,
    search_ops_per_session: usize,
) -> Inputs {
    let shapes = Shapes::of(w, scale);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7072_6574_7a65_6c00); // "pretzel"
    let model_seed = |rng: &mut StdRng| rng.gen_range(0..u64::MAX);

    // Steady flows serve one kind; the other models stay tiny so set-up time
    // is the measured kind's own.
    let needs = |kind: Kind| match w.flow {
        Flow::Steady { kind: k, .. } => k == kind,
        Flow::Churn { .. } => true,
    };
    let spam = if needs(Kind::Spam) {
        synthetic_model(shapes.spam_features, 2, model_seed(&mut rng))
    } else {
        synthetic_model(16, 2, model_seed(&mut rng))
    };
    let topic = if needs(Kind::Topic) {
        synthetic_model(
            shapes.topic_features,
            shapes.topic_categories,
            model_seed(&mut rng),
        )
    } else {
        synthetic_model(16, 4, model_seed(&mut rng))
    };
    let virus_buckets = if needs(Kind::Virus) {
        shapes.virus_buckets
    } else {
        16
    };
    let virus = synthetic_model(virus_buckets, 2, model_seed(&mut rng));
    let topic_candidates = needs(Kind::Topic).then(|| candidate_model(&topic, &mut rng));
    let suite = ProviderModelSuite {
        spam,
        topic,
        topic_mode: shapes.topic_mode,
        virus,
        virus_extractor: NGramExtractor::new(3, virus_buckets),
        config: shapes.config.clone(),
    };
    let oracle = Oracle::new(&suite);

    let session = |kind: Kind, count: usize, salt: u64, rng: &mut StdRng| -> SessionScript {
        let config = shapes.config.clone();
        let (spec, payloads) = match kind {
            Kind::Spam => (
                ClientSpecBuilder::spam(config).variant(w.variant).build(),
                (0..count)
                    .map(|_| {
                        EmailPayload::Tokens(sparse_email(
                            shapes.spam_features,
                            shapes.email_features,
                            rng,
                        ))
                    })
                    .collect::<Vec<_>>(),
            ),
            Kind::Topic => (
                ClientSpecBuilder::topic(config)
                    .variant(w.variant)
                    .topic_mode(shapes.topic_mode)
                    .candidate_model(topic_candidates.clone())
                    .build(),
                (0..count)
                    .map(|_| {
                        EmailPayload::Tokens(sparse_email(
                            shapes.topic_features,
                            shapes.email_features.min(32),
                            rng,
                        ))
                    })
                    .collect(),
            ),
            Kind::Virus => (
                ClientSpecBuilder::virus(config).variant(w.variant).build(),
                (0..count)
                    .map(|_| EmailPayload::Attachment(attachment(shapes.attachment_bytes, rng)))
                    .collect(),
            ),
            Kind::Search => (ClientSpec::search(config), search_ops(count, salt)),
        };
        let expected = oracle.expectations(kind, &payloads);
        SessionScript {
            kind,
            spec,
            payloads,
            expected,
            cyclic: kind != Kind::Search,
        }
    };

    let generators = (0..GENERATORS)
        .map(|g| {
            let rng_seed = rng.gen_range(0..u64::MAX);
            let sessions = match w.flow {
                Flow::Steady { kind, .. } => {
                    let count = if kind == Kind::Search {
                        search_ops_per_session
                    } else {
                        emails_per_session
                    };
                    vec![session(kind, count, g as u64, &mut rng)]
                }
                Flow::Churn { batch } => CHURN_KINDS
                    .iter()
                    .map(|&kind| session(kind, churn_batches(kind) * batch, g as u64, &mut rng))
                    .collect(),
            };
            GeneratorScript { rng_seed, sessions }
        })
        .collect();

    Inputs {
        suite,
        provider_seed: seed ^ 0x4d41_494c_524f_4f4d, // "MAILROOM"
        generators,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_lookup_works() {
        let names: BTreeSet<_> = all().iter().map(|w| w.name).collect();
        assert_eq!(names.len(), all().len());
        assert!(by_name("spam_long").is_some());
        assert!(by_name("nope").is_none());
        for w in all() {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
        }
    }

    #[test]
    fn same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        let w = by_name("spam_long").unwrap();
        let payload = |seed| match &generate(&w, Scale::Smoke, seed, 4, 4).generators[1].sessions[0]
            .payloads[3]
        {
            EmailPayload::Tokens(v) => v.clone(),
            other => panic!("unexpected payload {other:?}"),
        };
        assert_eq!(payload(7), payload(7));
        assert_ne!(payload(7), payload(8));
        assert_eq!(payload(7).len(), 48);
    }

    #[test]
    fn churn_scripts_cover_every_kind_once_per_cycle() {
        let w = by_name("mixed_churn").unwrap();
        let inputs = generate(&w, Scale::Smoke, 1, 4, 4);
        assert_eq!(inputs.generators.len(), GENERATORS);
        for g in &inputs.generators {
            let kinds: Vec<Kind> = g.sessions.iter().map(|s| s.kind).collect();
            assert_eq!(kinds, CHURN_KINDS);
            assert!(g
                .sessions
                .iter()
                .all(|s| s.payloads.len() == 8 * churn_batches(s.kind)));
        }
    }
}
