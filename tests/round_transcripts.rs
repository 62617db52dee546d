//! Content pins for the online phase: the SHA-256 of every frame, in both
//! directions, that a session exchanges under fixed RNG seeds.
//!
//! The golden codec fixtures (`wire_compat`) pin frame *encodings* and the
//! fleet records (`batching`) pin frame *counts and sizes*; neither
//! notices a round that sends different bytes of the same
//! length. This suite does: for each built-in module it runs one session
//! through [`ProviderSession`] / [`ClientSession`] at `PretzelConfig::test()`
//! with both parties on fixed `StdRng` streams — once as three single
//! rounds, once as one batch of three — and compares every frame's
//! direction, length and digest against `tests/golden/round_transcripts.txt`.
//!
//! Regenerate (only when a wire change is intended) with
//! `BLESS_ROUND_TRANSCRIPTS=1 cargo test --test round_transcripts`.

use pretzel::classifiers::nb::{GrNbTrainer, MultinomialNbTrainer};
use pretzel::classifiers::{LabeledExample, NGramExtractor, SparseVector, Trainer};
use pretzel::core::search::SearchFunction;
use pretzel::core::spam::{AheVariant, SpamFunction};
use pretzel::core::topic::{CandidateMode, TopicFunction};
use pretzel::core::virus::VirusFunction;
use pretzel::core::{
    ClientContext, ClientSession, EmailPayload, PretzelConfig, ProtocolRegistry,
    ProviderModelSuite, ProviderSession, WireTag,
};
use pretzel::primitives::sha256;
use pretzel::transport::{run_two_party, Channel, MemoryChannel, TransportError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rounds per case: three singles, or one batch of three.
const ROUNDS: usize = 3;

/// Records `direction|length|sha256` of every frame crossing the client's
/// end of the channel. One party's view is totally ordered and sees both
/// directions, so it is the whole transcript.
struct Recorder<'a> {
    inner: &'a mut MemoryChannel,
    frames: Vec<String>,
}

/// Lower-case hex SHA-256 of `data`.
fn digest(data: &[u8]) -> String {
    sha256(data).iter().map(|b| format!("{b:02x}")).collect()
}

impl Recorder<'_> {
    fn note(&mut self, direction: char, frame: &[u8]) {
        self.frames
            .push(format!("{direction}|{}|{}", frame.len(), digest(frame)));
    }
}

impl Channel for Recorder<'_> {
    fn send(&mut self, msg: &[u8]) -> Result<(), TransportError> {
        self.note('>', msg);
        self.inner.send(msg)
    }

    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        let msg = self.inner.recv()?;
        self.note('<', &msg);
        Ok(msg)
    }
}

fn example(pairs: &[(usize, u32)], label: usize) -> LabeledExample {
    LabeledExample {
        features: SparseVector::from_pairs(pairs.to_vec()),
        label,
    }
}

/// A small deterministic suite: spam over 8 features, 4 topics over 16
/// (topic `t` owns features `4t..4t+4`), virus over 64 n-gram buckets.
/// Returns the suite and the public candidate model decomposed topic
/// sessions prune with.
fn suite() -> (ProviderModelSuite, pretzel::classifiers::LinearModel) {
    let mut spam_corpus = Vec::new();
    let mut topic_corpus = Vec::new();
    for i in 0..20usize {
        spam_corpus.push(example(&[(i % 4, 2), ((i + 1) % 4, 1)], 1));
        spam_corpus.push(example(&[(4 + i % 4, 2), (4 + (i + 1) % 4, 1)], 0));
        for topic in 0..4usize {
            let base = topic * 4;
            topic_corpus.push(example(&[(base, 2), (base + 1 + i % 3, 1)], topic));
        }
    }
    let extractor = NGramExtractor::new(3, 64);
    let mut virus_corpus = Vec::new();
    for i in 0..20u8 {
        virus_corpus.push(LabeledExample {
            features: extractor.extract(&[0xde, 0xad, 0xbe, 0xef, 0xcc, 0xcc, 0xcc, i]),
            label: 1,
        });
        virus_corpus.push(LabeledExample {
            features: extractor.extract(format!("regular attachment number {i}").as_bytes()),
            label: 0,
        });
    }
    let candidate_model = MultinomialNbTrainer::default().train(&topic_corpus[..40], 16, 4);
    let suite = ProviderModelSuite {
        spam: GrNbTrainer::default().train(&spam_corpus, 8, 2),
        topic: MultinomialNbTrainer::default().train(&topic_corpus, 16, 4),
        topic_mode: CandidateMode::Full,
        virus: GrNbTrainer::default().train(&virus_corpus, extractor.buckets, 2),
        virus_extractor: extractor,
        config: PretzelConfig::test(),
    };
    (suite, candidate_model)
}

fn tokens(pairs: &[(usize, u32)]) -> EmailPayload {
    EmailPayload::Tokens(SparseVector::from_pairs(pairs.to_vec()))
}

/// One pinned session shape.
struct Case {
    name: &'static str,
    tag: WireTag,
    variant: AheVariant,
    topic_mode: CandidateMode,
    payloads: [EmailPayload; ROUNDS],
}

fn cases() -> Vec<Case> {
    let spam_mail = || {
        [
            tokens(&[(0, 3), (1, 1), (2, 1)]),
            tokens(&[(4, 2), (5, 2), (6, 1)]),
            tokens(&[(1, 2), (3, 2)]),
        ]
    };
    let topic_mail = || {
        [
            tokens(&[(8, 3), (9, 1)]),
            tokens(&[(12, 2), (13, 2)]),
            tokens(&[(0, 2), (1, 1), (2, 1)]),
        ]
    };
    let case = |name, tag, variant, topic_mode, payloads| Case {
        name,
        tag,
        variant,
        topic_mode,
        payloads,
    };
    vec![
        case(
            "spam_pretzel",
            SpamFunction::WIRE_TAG,
            AheVariant::Pretzel,
            CandidateMode::Full,
            spam_mail(),
        ),
        case(
            "spam_baseline",
            SpamFunction::WIRE_TAG,
            AheVariant::Baseline,
            CandidateMode::Full,
            spam_mail(),
        ),
        case(
            "topic_decomposed",
            TopicFunction::WIRE_TAG,
            AheVariant::Pretzel,
            CandidateMode::Decomposed(2),
            topic_mail(),
        ),
        case(
            "topic_full",
            TopicFunction::WIRE_TAG,
            AheVariant::Pretzel,
            CandidateMode::Full,
            topic_mail(),
        ),
        case(
            "virus",
            VirusFunction::WIRE_TAG,
            AheVariant::Pretzel,
            CandidateMode::Full,
            [
                EmailPayload::Attachment(vec![0xde, 0xad, 0xbe, 0xef, 0xcc, 0xcc, 0xcc, 0x01]),
                EmailPayload::Attachment(b"regular attachment number 77".to_vec()),
                EmailPayload::Attachment(vec![0xcc; 12]),
            ],
        ),
        case(
            "search",
            SearchFunction::WIRE_TAG,
            AheVariant::Pretzel,
            CandidateMode::Full,
            [
                EmailPayload::SearchIndex {
                    doc_id: 7,
                    body: "encrypted budget spreadsheet".into(),
                },
                EmailPayload::SearchQuery("budget".into()),
                EmailPayload::SearchQuery("absent".into()),
            ],
        ),
    ]
}

/// Runs one session of `case` (setup, then the rounds single or batched)
/// and returns its transcript lines, each prefixed `case/mode|`: the setup
/// phase folded into one line (frame count and the digest of its frame
/// lines — this suite is about rounds), then one line per online frame.
fn transcript(case: &Case, batched: bool) -> Vec<String> {
    let (mut suite, candidate_model) = suite();
    suite.topic_mode = case.topic_mode;
    let mut ctx = ClientContext::new(suite.config.clone());
    ctx.variant = case.variant;
    ctx.topic_mode = case.topic_mode;
    ctx.candidate_model = Some(candidate_model);
    let (tag, variant) = (case.tag, case.variant);
    let payloads = case.payloads.clone();

    let (provider_res, frames) = run_two_party(
        move |chan| -> pretzel::core::Result<()> {
            let registry = ProtocolRegistry::builtin();
            let mut rng = StdRng::seed_from_u64(0x5EED_0001);
            let mut session =
                ProviderSession::setup(&registry, tag, chan, &suite, variant, &mut rng)?;
            if batched {
                session.process_batch(chan, ROUNDS, &mut rng)?;
            } else {
                for _ in 0..ROUNDS {
                    session.process_round(chan, &mut rng)?;
                }
            }
            Ok(())
        },
        move |chan| -> pretzel::core::Result<(usize, Vec<String>)> {
            let registry = ProtocolRegistry::builtin();
            let mut rng = StdRng::seed_from_u64(0x5EED_0002);
            let mut chan = Recorder {
                inner: chan,
                frames: Vec::new(),
            };
            let mut session = ClientSession::setup(&registry, tag, &mut chan, &ctx, &mut rng)?;
            let setup_frames = chan.frames.len();
            if batched {
                session.process_batch(&mut chan, &payloads, &mut rng)?;
            } else {
                for payload in &payloads {
                    session.process_round(&mut chan, payload, &mut rng)?;
                }
            }
            Ok((setup_frames, chan.frames))
        },
    );
    provider_res.unwrap_or_else(|e| panic!("{}: provider failed: {e}", case.name));
    let (setup_frames, frames) =
        frames.unwrap_or_else(|e| panic!("{}: client failed: {e}", case.name));
    let (setup, online) = frames.split_at(setup_frames);
    let mode = if batched { "batch" } else { "single" };
    let setup_line = format!(
        "setup|{setup_frames} frames|{}",
        digest(setup.join("\n").as_bytes())
    );
    std::iter::once(setup_line)
        .chain(
            online
                .iter()
                .enumerate()
                .map(|(i, frame)| format!("{i:02}|{frame}")),
        )
        .map(|line| format!("{}/{mode}|{line}", case.name))
        .collect()
}

const HEADER: &str = "\
# Round transcripts of one session per case (setup, then 3 single rounds or one
# batch of 3) at PretzelConfig::test(), provider StdRng seed 0x5EED0001, client
# 0x5EED0002. Setup is one line: case/mode|setup|frame count|sha256 of its frame
# lines. Then one line per online frame:
# case/mode|index|direction (> client sends, < client receives)|bytes|sha256
# Regenerate with BLESS_ROUND_TRANSCRIPTS=1 cargo test --test round_transcripts
";

#[test]
fn every_frame_matches_the_pinned_transcript() {
    let mut lines = Vec::new();
    for case in cases() {
        for batched in [false, true] {
            lines.extend(transcript(&case, batched));
        }
    }
    let path = format!(
        "{}/tests/golden/round_transcripts.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("BLESS_ROUND_TRANSCRIPTS").is_some() {
        std::fs::write(&path, format!("{HEADER}{}\n", lines.join("\n"))).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden transcript {path} must be committed: {e}"));
    let golden: Vec<&str> = golden
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    for (got, want) in lines.iter().zip(&golden) {
        assert_eq!(got, want, "first frame that moved");
    }
    assert_eq!(lines.len(), golden.len(), "frame count moved");
}
