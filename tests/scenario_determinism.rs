//! Seeded scenarios are reproducible end to end: running the same scenario
//! with the same seed twice — including over real loopback TCP, where
//! accept order and thread scheduling are up to the OS — must produce
//! byte-identical verdict transcripts and identical fleet meter totals.
//! The [`pretzel::scenarios::DeterminismFingerprint`] carries both, so one
//! equality assert covers the whole observable surface.

use pretzel::scenarios::{
    run_scenario, MixedFleetSkew, RunOptions, Scenario, ScenarioConfig, SessionChurn, TransportMode,
};

/// The richest scenario — all five module kinds, batched submissions —
/// repeated over loopback TCP. TCP is the adversarial
/// transport here: accept order is OS-scheduled, so this pins that verdict
/// collection is keyed by plan order, not arrival order.
#[test]
fn mixed_fleet_over_tcp_is_reproducible() {
    let scenario = MixedFleetSkew(ScenarioConfig::tiny());
    let options = RunOptions {
        transport: TransportMode::Tcp,
    };
    let first = run_scenario(&scenario, 41, &options);
    let second = run_scenario(&scenario, 41, &options);
    assert_eq!(
        first.fingerprint, second.fingerprint,
        "same scenario + same seed over TCP must be byte-identical"
    );
    assert!(first.completed > 0);

    // A different seed must actually change the event stream — otherwise
    // the fingerprint equality above would be vacuous.
    let other = run_scenario(&scenario, 42, &options);
    assert_ne!(
        first.fingerprint.verdict_digest, other.fingerprint.verdict_digest,
        "different seeds must produce different transcripts"
    );
}

/// Churny fleets (mid-protocol abandons, an extra zero-round drop) are
/// exactly as reproducible as clean ones, and the memory transport agrees
/// with itself run to run.
#[test]
fn session_churn_over_memory_is_reproducible() {
    let scenario = SessionChurn(ScenarioConfig::tiny());
    let options = RunOptions::default();
    let first = run_scenario(&scenario, 23, &options);
    let second = run_scenario(&scenario, 23, &options);
    assert_eq!(first.fingerprint, second.fingerprint);
    assert_eq!(first.completed, second.completed);
    assert_eq!(first.failed, second.failed);
    assert!(
        first.failed > 0,
        "{} must exercise the abandon path",
        scenario.name()
    );
}
