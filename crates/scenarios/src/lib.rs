//! Named, seeded workload scenarios for the Pretzel mailroom.
//!
//! The repo's benchmark (`benchmark/`) measures friendly workloads. This
//! crate supplies the adversarial half as *test* workloads: a library of
//! **scenarios** — steady-state control, bursty arrivals, heavy-tailed
//! email sizes, session churn, slow-loris stalls, and a skewed mixed fleet
//! with a custom module — each a pure function
//! from `(params, seed)` to a fully materialized [`ScenarioPlan`], executed
//! by a shared [`run_scenario`] runner over memory channels or loopback
//! TCP.
//!
//! The consumer is `tests/scenario_determinism.rs` (and this crate's own
//! tests): same seed ⇒ identical [`DeterminismFingerprint`] (verdict bytes
//! and meter totals), even over real sockets. Nothing here is timed; see
//! `docs/BENCHMARKS.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod custom;
pub mod library;
pub mod plan;
pub mod runner;

use pretzel_classifiers::nb::GrNbTrainer;
use pretzel_classifiers::{LabeledExample, NGramExtractor, Trainer};
use pretzel_core::registry::ProtocolRegistry;
use pretzel_core::topic::CandidateMode;
use pretzel_core::{PretzelConfig, ProviderModelSuite};
use pretzel_datasets::ling_spam_like;

pub use custom::{DigestFunction, DIGEST_WIRE_TAG};
pub use library::{
    BurstyArrivals, HeavyTailSizes, MixedFleetSkew, SessionChurn, SlowLoris, Steady,
};
pub use plan::{RoundOp, ScenarioPlan, SessionEnd, SessionPlan};
pub use runner::{
    run_scenario, DeterminismFingerprint, RunOptions, ScenarioOutcome, TransportMode,
};

/// Feature-space size of the scenario corpus (`shared_vocab + 2 *
/// class_vocab` of the ling-spam-like spec in [`scenario_suite`]); token
/// emails draw their features from this range.
pub const SCENARIO_NUM_FEATURES: usize = 240;

/// Size knobs shared by every scenario: how many client sessions the fleet
/// has and how many email rounds each submits. Scenario-specific knobs
/// (burst counts, pacing, budgets) are fixed constants of each scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// Client sessions in the fleet.
    pub sessions: usize,
    /// Email rounds per session (scenarios may scale this internally, e.g.
    /// the storm doubles it; the exact counts appear in the plan).
    pub rounds: usize,
}

impl ScenarioConfig {
    /// Smoke-test size: five sessions (enough for the mixed fleet to cover
    /// all five kinds), two rounds each.
    pub fn tiny() -> Self {
        ScenarioConfig {
            sessions: 5,
            rounds: 2,
        }
    }
}

/// A named, seeded workload generator.
///
/// Implementations must keep [`Scenario::plan`] pure: two calls with the
/// same seed (on the same params) must produce identical plans. The runner
/// and the determinism tests both lean on this.
pub trait Scenario: Send + Sync {
    /// Stable identifier (`steady`, `bursty-arrivals`, …).
    fn name(&self) -> &'static str;

    /// One-line description.
    fn summary(&self) -> &'static str;

    /// Compiles the seeded plan (see [`ScenarioPlan`]).
    fn plan(&self, seed: u64) -> ScenarioPlan;
}

/// All scenarios at `config` size, in canonical order.
pub fn all_scenarios(config: ScenarioConfig) -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(library::Steady(config)),
        Box::new(library::BurstyArrivals(config)),
        Box::new(library::HeavyTailSizes(config)),
        Box::new(library::SessionChurn(config)),
        Box::new(library::SlowLoris(config)),
        Box::new(library::MixedFleetSkew(config)),
    ]
}

/// The provider model suite every scenario is served from: the same
/// ling-spam-like corpus and byte-ngram virus model the integration tests
/// use, at test scale. Deterministic — the dataset generator is seeded by
/// the spec.
pub fn scenario_suite() -> ProviderModelSuite {
    let mut spec = ling_spam_like(0.08);
    spec.shared_vocab = 120;
    spec.class_vocab = 60;
    spec.doc_len = (20, 60);
    let corpus = spec.generate();
    debug_assert_eq!(corpus.num_features, SCENARIO_NUM_FEATURES);
    let model = GrNbTrainer::default().train(&corpus.examples, corpus.num_features, 2);

    let extractor = NGramExtractor::new(3, 64);
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
    let virus_model = GrNbTrainer::default().train(&virus_examples, extractor.buckets, 2);

    ProviderModelSuite {
        spam: model.clone(),
        topic: model,
        topic_mode: CandidateMode::Full,
        virus: virus_model,
        virus_extractor: extractor,
        config: PretzelConfig::test(),
    }
}

/// The registry scenarios are served against: the four built-ins plus the
/// custom [`DigestFunction`] (wire tag [`DIGEST_WIRE_TAG`]).
pub fn scenario_registry() -> ProtocolRegistry {
    ProtocolRegistry::builtin()
        .with_module(std::sync::Arc::new(DigestFunction))
        .expect("digest wire tag must not collide with a built-in")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_are_unique_and_cover_the_issue_list() {
        let scenarios = all_scenarios(ScenarioConfig::tiny());
        let names: Vec<&str> = scenarios.iter().map(|s| s.name()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate scenario name");
        for required in [
            "steady",
            "bursty-arrivals",
            "heavy-tail-email-sizes",
            "session-churn",
            "slow-loris",
            "mixed-fleet-skew",
        ] {
            assert!(names.contains(&required), "missing scenario {required}");
        }
    }

    #[test]
    fn plans_are_pure_functions_of_seed_and_params() {
        for scenario in all_scenarios(ScenarioConfig::tiny()) {
            let a = scenario.plan(42);
            let b = scenario.plan(42);
            assert_eq!(a.sessions.len(), b.sessions.len(), "{}", scenario.name());
            assert_eq!(a.total_emails(), b.total_emails(), "{}", scenario.name());
            for (x, y) in a.sessions.iter().zip(&b.sessions) {
                assert_eq!(x.client_seed, y.client_seed, "{}", scenario.name());
                assert_eq!(x.email_count(), y.email_count(), "{}", scenario.name());
                assert_eq!(x.arrival_delay, y.arrival_delay, "{}", scenario.name());
                assert_eq!(x.frame_pace, y.frame_pace, "{}", scenario.name());
                assert_eq!(x.end, y.end, "{}", scenario.name());
            }
            // Different seed must change at least the per-session streams.
            let c = scenario.plan(43);
            assert!(
                a.sessions
                    .iter()
                    .zip(&c.sessions)
                    .any(|(x, y)| x.client_seed != y.client_seed),
                "{}: seed must reach the session streams",
                scenario.name()
            );
        }
    }

    #[test]
    fn churn_plans_mix_orderly_and_abandoning_sessions() {
        let plan = library::SessionChurn(ScenarioConfig::tiny()).plan(7);
        assert!(plan.expected_failed() >= 2, "churn needs abandonments");
        assert!(plan.expected_completed() >= 2, "churn needs survivors");
        assert!(
            plan.sessions
                .iter()
                .any(|s| s.rounds.is_empty() && s.end == SessionEnd::Abandon),
            "one client must vanish straight after its handshake"
        );
    }

    #[test]
    fn mixed_fleet_covers_every_kind_and_both_generations() {
        let plan = library::MixedFleetSkew(ScenarioConfig::tiny()).plan(7);
        let labels: Vec<&str> = plan.sessions.iter().map(|s| s.label).collect();
        for kind in ["spam", "topic", "virus", "search", "digest"] {
            assert!(labels.contains(&kind), "mixed fleet missing {kind}");
        }
    }

    #[test]
    fn steady_runs_to_a_clean_fleet_over_memory_channels() {
        let scenario = library::Steady(ScenarioConfig::tiny());
        let outcome = run_scenario(&scenario, 7, &RunOptions::default());
        assert_eq!(outcome.completed, ScenarioConfig::tiny().sessions);
        assert_eq!(outcome.failed, 0);
        assert_eq!(
            outcome.fingerprint.emails_total,
            (ScenarioConfig::tiny().sessions * ScenarioConfig::tiny().rounds) as u64
        );
    }
}
