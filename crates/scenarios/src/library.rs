//! The named scenarios.
//!
//! Each scenario is a pure `(params, seed) → ScenarioPlan` compiler modeled
//! on an operational failure mode of a multi-tenant provider:
//!
//! | name | gadget |
//! |------|--------|
//! | `steady` | uniform arrivals, uniform sizes — the control group |
//! | `bursty-arrivals` | synchronized waves hammer the intake queue |
//! | `heavy-tail-email-sizes` | Pareto-sized emails starve short ones |
//! | `session-churn` | clients vanish mid-protocol with no goodbye |
//! | `slow-loris` | stalling clients pin workers between frames |
//! | `mixed-fleet-skew` | all four built-ins + a custom module at skewed ratios |
//!
//! The per-session RNG streams are split from the scenario seed with the
//! same golden-ratio multiply the mailroom uses for its provider streams,
//! so no two sessions share a stream and every draw is reproducible.

use std::collections::BTreeMap;
use std::time::Duration;

use pretzel_classifiers::SparseVector;
use pretzel_core::session::EmailPayload;
use pretzel_core::topic::CandidateMode;
use pretzel_core::PretzelConfig;
use pretzel_server::{ClientSpec, ClientSpecBuilder, MailroomConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::custom::DigestFunction;
use crate::plan::{RoundOp, ScenarioPlan, SessionEnd, SessionPlan};
use crate::{Scenario, ScenarioConfig, SCENARIO_NUM_FEATURES};

/// Splits one per-session seed out of the scenario seed (same golden-ratio
/// constant as the mailroom's per-session provider streams).
fn session_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A spam/topic email: `tokens` draws over the scenario vocabulary,
/// deduplicated into a sparse count vector.
fn token_email(rng: &mut StdRng, tokens: usize) -> EmailPayload {
    let mut counts: BTreeMap<usize, u32> = BTreeMap::new();
    for _ in 0..tokens {
        let feature = rng.gen_range(0..SCENARIO_NUM_FEATURES);
        *counts.entry(feature).or_insert(0) += 1;
    }
    EmailPayload::Tokens(SparseVector::from_pairs(counts.into_iter().collect()))
}

/// A virus-scan attachment of `len` bytes; even draws get a malware-like
/// magic prefix so both verdict branches appear in transcripts.
fn attachment_email(rng: &mut StdRng, len: usize) -> EmailPayload {
    let mut bytes = if rng.gen_bool(0.5) {
        vec![0x4d, 0x5a, 0x90, 0x00, 0xde, 0xad]
    } else {
        b"meeting notes ".to_vec()
    };
    while bytes.len() < len {
        bytes.push(rng.gen_range(0..=255u32) as u8);
    }
    bytes.truncate(len.max(1));
    EmailPayload::Attachment(bytes)
}

/// Draws an integer from a truncated Pareto: `x_min * u^(-1/alpha)` capped
/// at `x_max`. With `alpha` slightly above 1, most draws hug `x_min` while
/// a fat tail reaches the cap — the canonical heavy-tail size model.
fn pareto(rng: &mut StdRng, x_min: usize, x_max: usize, alpha: f64) -> usize {
    // Uniform in (0, 1]; avoids 0 so the power is finite.
    let u = rng.gen_range(1..=1_000_000) as f64 / 1_000_000.0;
    let x = x_min as f64 * u.powf(-1.0 / alpha);
    (x as usize).clamp(x_min, x_max)
}

/// Search scripts: index a few documents, then query terms that alternate
/// between indexed and absent words.
fn search_payloads(rng: &mut StdRng, rounds: usize, doc_base: u64) -> Vec<EmailPayload> {
    const WORDS: [&str; 8] = [
        "budget",
        "invoice",
        "quarterly",
        "offsite",
        "roadmap",
        "payroll",
        "audit",
        "launch",
    ];
    let mut payloads = Vec::with_capacity(rounds);
    for round in 0..rounds {
        if round % 2 == 0 {
            let a = WORDS[rng.gen_range(0..WORDS.len())];
            let b = WORDS[rng.gen_range(0..WORDS.len())];
            payloads.push(EmailPayload::SearchIndex {
                doc_id: doc_base + round as u64,
                body: format!("{a} {b} attachment"),
            });
        } else {
            let term = if rng.gen_bool(0.75) {
                WORDS[rng.gen_range(0..WORDS.len())].to_string()
            } else {
                "absent".to_string()
            };
            payloads.push(EmailPayload::SearchQuery(term));
        }
    }
    payloads
}

/// Opaque payloads for the custom digest module.
fn digest_payloads(rng: &mut StdRng, rounds: usize) -> Vec<EmailPayload> {
    (0..rounds)
        .map(|_| {
            let len = rng.gen_range(8..64usize);
            let bytes = (0..len)
                .map(|_| rng.gen_range(0..=255u32) as u8)
                .collect::<Vec<u8>>();
            EmailPayload::Opaque(bytes)
        })
        .collect()
}

fn spam_spec() -> ClientSpec {
    ClientSpecBuilder::spam(PretzelConfig::test()).build()
}

fn spec_for_kind(kind: &'static str) -> ClientSpec {
    let config = PretzelConfig::test();
    let builder = match kind {
        "spam" => ClientSpecBuilder::spam(config),
        "topic" => ClientSpecBuilder::topic(config).topic_mode(CandidateMode::Full),
        "virus" => ClientSpecBuilder::virus(config),
        "search" => ClientSpecBuilder::search(config),
        "digest" => ClientSpecBuilder::for_module(std::sync::Arc::new(DigestFunction), config),
        other => panic!("unknown scenario kind {other}"),
    };
    builder.build()
}

fn fleet_mailroom(seed: u64, sessions: usize) -> MailroomConfig {
    MailroomConfig::builder()
        .workers(sessions.clamp(1, 4))
        .queue_capacity(sessions.max(1))
        .rng_seed(seed)
        .build()
}

/// Uniform arrivals, uniform email sizes: the control group every other
/// scenario is compared against.
pub struct Steady(pub ScenarioConfig);

impl Scenario for Steady {
    fn name(&self) -> &'static str {
        "steady"
    }
    fn summary(&self) -> &'static str {
        "uniform spam fleet, no arrival skew (control group)"
    }
    fn plan(&self, seed: u64) -> ScenarioPlan {
        let sessions = (0..self.0.sessions)
            .map(|i| {
                let client_seed = session_seed(seed, i);
                let mut rng = StdRng::seed_from_u64(client_seed);
                SessionPlan {
                    label: "spam",
                    spec: spam_spec(),
                    client_seed,
                    arrival_delay: Duration::ZERO,
                    frame_pace: Duration::ZERO,
                    rounds: (0..self.0.rounds)
                        .map(|_| RoundOp::One(token_email(&mut rng, 16)))
                        .collect(),
                    end: SessionEnd::Finish,
                }
            })
            .collect();
        ScenarioPlan {
            mailroom: fleet_mailroom(seed, self.0.sessions),
            sessions,
        }
    }
}

/// Synchronized arrival waves: the whole fleet lands on the intake queue in
/// a few bursts instead of trickling in.
pub struct BurstyArrivals(pub ScenarioConfig);

impl BurstyArrivals {
    const BURSTS: usize = 3;
    const BURST_GAP: Duration = Duration::from_millis(20);
}

impl Scenario for BurstyArrivals {
    fn name(&self) -> &'static str {
        "bursty-arrivals"
    }
    fn summary(&self) -> &'static str {
        "fleet arrives in synchronized waves that hammer the intake queue"
    }
    fn plan(&self, seed: u64) -> ScenarioPlan {
        let per_burst = self.0.sessions.div_ceil(Self::BURSTS);
        let sessions = (0..self.0.sessions)
            .map(|i| {
                let client_seed = session_seed(seed, i);
                let mut rng = StdRng::seed_from_u64(client_seed);
                let payloads = (0..self.0.rounds)
                    .map(|_| token_email(&mut rng, 16))
                    .collect();
                SessionPlan {
                    label: "spam",
                    spec: spam_spec(),
                    client_seed,
                    arrival_delay: Self::BURST_GAP * (i / per_burst) as u32,
                    frame_pace: Duration::ZERO,
                    rounds: vec![RoundOp::Batch(payloads)],
                    end: SessionEnd::Finish,
                }
            })
            .collect();
        ScenarioPlan {
            // Two workers so each wave genuinely queues.
            mailroom: MailroomConfig::builder()
                .workers(2)
                .queue_capacity(self.0.sessions.max(1))
                .rng_seed(seed)
                .build(),
            sessions,
        }
    }
}

/// Email sizes drawn from a truncated Pareto — alternating token-heavy spam
/// emails and byte-heavy virus attachments, so a few giants dominate the
/// work while most emails are small.
pub struct HeavyTailSizes(pub ScenarioConfig);

impl HeavyTailSizes {
    const MAX_TOKENS: usize = 400;
    const MAX_ATTACHMENT: usize = 4096;
    const ALPHA: f64 = 1.15;
}

impl Scenario for HeavyTailSizes {
    fn name(&self) -> &'static str {
        "heavy-tail-email-sizes"
    }
    fn summary(&self) -> &'static str {
        "Pareto-sized emails: a fat tail of giants among mostly-small mail"
    }
    fn plan(&self, seed: u64) -> ScenarioPlan {
        let sessions = (0..self.0.sessions)
            .map(|i| {
                let client_seed = session_seed(seed, i);
                let mut rng = StdRng::seed_from_u64(client_seed);
                let spammy = i % 2 == 0;
                let rounds = (0..self.0.rounds)
                    .map(|_| {
                        if spammy {
                            let tokens = pareto(&mut rng, 8, Self::MAX_TOKENS, Self::ALPHA);
                            RoundOp::One(token_email(&mut rng, tokens))
                        } else {
                            let len = pareto(&mut rng, 16, Self::MAX_ATTACHMENT, Self::ALPHA);
                            RoundOp::One(attachment_email(&mut rng, len))
                        }
                    })
                    .collect();
                SessionPlan {
                    label: if spammy { "spam" } else { "virus" },
                    spec: spec_for_kind(if spammy { "spam" } else { "virus" }),
                    client_seed,
                    arrival_delay: Duration::ZERO,
                    frame_pace: Duration::ZERO,
                    rounds,
                    end: SessionEnd::Finish,
                }
            })
            .collect();
        ScenarioPlan {
            mailroom: fleet_mailroom(seed, self.0.sessions),
            sessions,
        }
    }
}

/// Connect/teardown churn: every other session vanishes mid-protocol with
/// no goodbye frame, and one session abandons immediately after its
/// handshake — the provider must fail those sessions without poisoning the
/// rest of the fleet.
pub struct SessionChurn(pub ScenarioConfig);

impl Scenario for SessionChurn {
    fn name(&self) -> &'static str {
        "session-churn"
    }
    fn summary(&self) -> &'static str {
        "clients vanish mid-protocol; orderly peers must be unaffected"
    }
    fn plan(&self, seed: u64) -> ScenarioPlan {
        let mut sessions: Vec<SessionPlan> = (0..self.0.sessions)
            .map(|i| {
                let client_seed = session_seed(seed, i);
                let mut rng = StdRng::seed_from_u64(client_seed);
                let abandons = i % 2 == 1;
                let rounds = if abandons {
                    self.0.rounds.div_ceil(2)
                } else {
                    self.0.rounds
                };
                SessionPlan {
                    label: "spam",
                    spec: spam_spec(),
                    client_seed,
                    arrival_delay: Duration::ZERO,
                    frame_pace: Duration::ZERO,
                    rounds: (0..rounds)
                        .map(|_| RoundOp::One(token_email(&mut rng, 16)))
                        .collect(),
                    end: if abandons {
                        SessionEnd::Abandon
                    } else {
                        SessionEnd::Finish
                    },
                }
            })
            .collect();
        // One client that handshakes and vanishes before any round.
        sessions.push(SessionPlan {
            label: "spam",
            spec: spam_spec(),
            client_seed: session_seed(seed, self.0.sessions),
            arrival_delay: Duration::ZERO,
            frame_pace: Duration::ZERO,
            rounds: Vec::new(),
            end: SessionEnd::Abandon,
        });
        ScenarioPlan {
            mailroom: fleet_mailroom(seed, self.0.sessions + 1),
            sessions,
        }
    }
}

/// Stalling clients: a quarter of the fleet sleeps between every frame,
/// pinning a worker for the whole stretch of a near-idle session while the
/// well-behaved majority competes for what remains.
pub struct SlowLoris(pub ScenarioConfig);

impl SlowLoris {
    const PACE: Duration = Duration::from_millis(2);
}

impl Scenario for SlowLoris {
    fn name(&self) -> &'static str {
        "slow-loris"
    }
    fn summary(&self) -> &'static str {
        "stalling clients pin workers between frames"
    }
    fn plan(&self, seed: u64) -> ScenarioPlan {
        let loris = (self.0.sessions / 4).max(1);
        let sessions = (0..self.0.sessions)
            .map(|i| {
                let client_seed = session_seed(seed, i);
                let mut rng = StdRng::seed_from_u64(client_seed);
                SessionPlan {
                    label: "spam",
                    spec: spam_spec(),
                    client_seed,
                    arrival_delay: Duration::ZERO,
                    frame_pace: if i < loris {
                        Self::PACE
                    } else {
                        Duration::ZERO
                    },
                    rounds: (0..self.0.rounds)
                        .map(|_| RoundOp::One(token_email(&mut rng, 16)))
                        .collect(),
                    end: SessionEnd::Finish,
                }
            })
            .collect();
        ScenarioPlan {
            // Few workers relative to the fleet so a pinned worker hurts.
            mailroom: MailroomConfig::builder()
                .workers((self.0.sessions / 2).max(2))
                .queue_capacity(self.0.sessions.max(1))
                .rng_seed(seed)
                .build(),
            sessions,
        }
    }
}

/// The full zoo: all four built-in kinds plus the custom digest module at
/// skewed ratios on the same mailroom. Everything submits through
/// `process_batch`.
pub struct MixedFleetSkew(pub ScenarioConfig);

impl MixedFleetSkew {
    /// Skewed kind ratio over a 10-session cycle: spam-heavy, with every
    /// kind (including the custom module) inside the first five slots so
    /// even tiny configs cover the whole registry.
    const PATTERN: [&'static str; 10] = [
        "spam", "search", "digest", "virus", "topic", "spam", "spam", "topic", "virus", "spam",
    ];
}

impl Scenario for MixedFleetSkew {
    fn name(&self) -> &'static str {
        "mixed-fleet-skew"
    }
    fn summary(&self) -> &'static str {
        "all built-ins + custom module at skewed ratios"
    }
    fn plan(&self, seed: u64) -> ScenarioPlan {
        let sessions = (0..self.0.sessions)
            .map(|i| {
                let client_seed = session_seed(seed, i);
                let mut rng = StdRng::seed_from_u64(client_seed);
                let kind = Self::PATTERN[i % Self::PATTERN.len()];
                let payloads = match kind {
                    "search" => search_payloads(&mut rng, self.0.rounds, i as u64 * 100),
                    "digest" => digest_payloads(&mut rng, self.0.rounds),
                    "virus" => (0..self.0.rounds)
                        .map(|_| attachment_email(&mut rng, 32))
                        .collect(),
                    _ => (0..self.0.rounds)
                        .map(|_| token_email(&mut rng, 16))
                        .collect(),
                };
                let rounds = vec![RoundOp::Batch(payloads)];
                SessionPlan {
                    label: kind,
                    spec: spec_for_kind(kind),
                    client_seed,
                    arrival_delay: Duration::ZERO,
                    frame_pace: Duration::ZERO,
                    rounds,
                    end: SessionEnd::Finish,
                }
            })
            .collect();
        ScenarioPlan {
            mailroom: fleet_mailroom(seed, self.0.sessions),
            sessions,
        }
    }
}
