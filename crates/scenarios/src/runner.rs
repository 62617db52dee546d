//! Executes a compiled [`ScenarioPlan`](crate::ScenarioPlan) against a
//! live mailroom.
//!
//! The runner is the only impure part of the scenario stack: it spawns one
//! thread per planned session, connects each over the selected transport
//! (in-process memory channels or loopback TCP), applies the plan's arrival
//! delays and frame pacing, submits the scripted rounds, and tears down as
//! scripted — orderly goodbye or mid-protocol abandonment. It collects each
//! session's verdicts **client-side, in plan order**, so the transcript is
//! independent of the provider's accept/scheduling order; fleet meter
//! totals are order-independent sums. Together those form the
//! [`DeterminismFingerprint`] that the reproducibility tests rely on.

use pretzel_core::registry::WireTag;
use pretzel_server::{serve_tcp_sessions, KindTotals, Mailroom, MailroomClient, SessionState};
use pretzel_transport::{memory_pair, Channel, PacedChannel, TcpAcceptor, TcpChannel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::custom::fnv64;
use crate::plan::{RoundOp, SessionEnd, SessionPlan};
use crate::{scenario_registry, scenario_suite, Scenario};

/// Which transport the fleet connects over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportMode {
    /// In-process crossbeam channel pairs (no sockets; the default).
    #[default]
    Memory,
    /// Loopback TCP through [`TcpAcceptor`]/[`serve_tcp_sessions`] — real
    /// sockets, real framing, used by the determinism tests.
    Tcp,
}

/// Options for [`run_scenario`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Transport the fleet connects over.
    pub transport: TransportMode,
}

/// The reproducible subset of a scenario run: everything here must be
/// byte-identical across two runs with the same seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeterminismFingerprint {
    /// FNV-1a digest of the newline-joined verdict transcript.
    pub verdict_digest: u64,
    /// Per-session verdict lines, flattened in plan order.
    pub verdicts: Vec<String>,
    /// Fleet-wide emails served.
    pub emails_total: u64,
    /// Fleet payload bytes provider→clients.
    pub fleet_bytes_sent: u64,
    /// Fleet payload bytes clients→provider.
    pub fleet_bytes_received: u64,
    /// Fleet messages in both directions.
    pub fleet_messages: u64,
    /// Per-kind meter totals (sessions, emails, bytes, messages), ordered
    /// by wire tag.
    pub by_kind: Vec<(WireTag, KindTotals)>,
}

/// What one scenario run produced.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// Seed the plan was compiled from.
    pub seed: u64,
    /// Sessions the provider recorded as completed.
    pub completed: usize,
    /// Sessions the provider recorded as failed (abandonments).
    pub failed: usize,
    /// The reproducible measurement surface.
    pub fingerprint: DeterminismFingerprint,
}

/// Drives one planned session over an established channel and returns its
/// verdict transcript.
fn drive_session<C: Channel>(channel: C, plan: &SessionPlan) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(plan.client_seed);
    let paced = PacedChannel::new(channel, plan.frame_pace);
    let mut client = MailroomClient::connect(paced, &plan.spec, &mut rng)
        .unwrap_or_else(|e| panic!("scenario client connect ({}): {e}", plan.label));
    let mut transcript = Vec::new();
    for op in &plan.rounds {
        match op {
            RoundOp::One(payload) => {
                let verdict = client
                    .process(payload, &mut rng)
                    .unwrap_or_else(|e| panic!("scenario round ({}): {e}", plan.label));
                transcript.push(format!("{}/{verdict:?}", plan.label));
            }
            RoundOp::Batch(payloads) => {
                let verdicts = client
                    .process_batch(payloads, &mut rng)
                    .unwrap_or_else(|e| panic!("scenario batch ({}): {e}", plan.label));
                for verdict in verdicts {
                    transcript.push(format!("{}/{verdict:?}", plan.label));
                }
            }
        }
    }
    match plan.end {
        SessionEnd::Finish => {
            client
                .finish()
                .unwrap_or_else(|e| panic!("scenario finish ({}): {e}", plan.label));
        }
        SessionEnd::Abandon => client.abandon(),
    }
    transcript
}

/// Compiles `scenario` with `seed` and executes it, returning the outcome.
///
/// The mailroom always serves the scenario registry (the four built-ins
/// plus the custom digest module), so any scenario may script any kind.
///
/// # Panics
/// Panics if any session errors, or if the provider's completed/failed
/// accounting disagrees with the plan — a scenario run that silently lost
/// sessions would make its fingerprint meaningless.
pub fn run_scenario(scenario: &dyn Scenario, seed: u64, options: &RunOptions) -> ScenarioOutcome {
    let plan = scenario.plan(seed);
    let mailroom =
        Mailroom::start_with_registry(scenario_suite(), scenario_registry(), plan.mailroom.clone());

    let transcripts: Vec<Vec<String>> = match options.transport {
        TransportMode::Memory => std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .sessions
                .iter()
                .map(|session| {
                    let mailroom = &mailroom;
                    scope.spawn(move || {
                        if !session.arrival_delay.is_zero() {
                            std::thread::sleep(session.arrival_delay);
                        }
                        let (provider_end, client_end) = memory_pair();
                        mailroom
                            .submit(provider_end)
                            .unwrap_or_else(|e| panic!("scenario submit: {e}"));
                        drive_session(client_end, session)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scenario client thread panicked"))
                .collect()
        }),
        TransportMode::Tcp => {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind loopback acceptor");
            let addr = acceptor.local_addr().expect("acceptor local addr");
            let fleet_size = plan.sessions.len();
            std::thread::scope(|scope| {
                let accept_loop = {
                    let mailroom = &mailroom;
                    let acceptor = &acceptor;
                    scope.spawn(move || serve_tcp_sessions(mailroom, acceptor, fleet_size))
                };
                let handles: Vec<_> = plan
                    .sessions
                    .iter()
                    .map(|session| {
                        scope.spawn(move || {
                            if !session.arrival_delay.is_zero() {
                                std::thread::sleep(session.arrival_delay);
                            }
                            let channel =
                                TcpChannel::connect(addr).expect("connect loopback scenario");
                            drive_session(channel, session)
                        })
                    })
                    .collect();
                let transcripts: Vec<Vec<String>> = handles
                    .into_iter()
                    .map(|h| h.join().expect("scenario client thread panicked"))
                    .collect();
                let accepted = accept_loop.join().expect("acceptor thread panicked");
                assert_eq!(
                    accepted, fleet_size,
                    "every planned session must be accepted"
                );
                transcripts
            })
        }
    };
    let report = mailroom.shutdown();

    let verdicts: Vec<String> = transcripts.into_iter().flatten().collect();
    let verdict_digest = fnv64(verdicts.join("\n").as_bytes());
    let completed = report.completed();
    let failed = report
        .sessions
        .iter()
        .filter(|s| matches!(s.state, SessionState::Failed(_)))
        .count();
    assert_eq!(
        completed,
        plan.expected_completed(),
        "{}: completed sessions diverge from the plan",
        scenario.name()
    );
    assert_eq!(
        failed,
        plan.expected_failed(),
        "{}: failed sessions diverge from the plan",
        scenario.name()
    );
    assert_eq!(
        report.emails_total,
        plan.total_emails(),
        "{}: served emails diverge from the plan",
        scenario.name()
    );

    ScenarioOutcome {
        name: scenario.name(),
        seed,
        completed,
        failed,
        fingerprint: DeterminismFingerprint {
            verdict_digest,
            verdicts,
            emails_total: report.emails_total,
            fleet_bytes_sent: report.fleet_bytes_sent,
            fleet_bytes_received: report.fleet_bytes_received,
            fleet_messages: report.fleet_messages,
            by_kind: report.by_kind(),
        },
    }
}
