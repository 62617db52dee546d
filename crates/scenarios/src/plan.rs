//! The deterministic intermediate representation of a scenario run.
//!
//! A [`Scenario`](crate::Scenario) compiles its parameters plus a seed into
//! a [`ScenarioPlan`]: a mailroom configuration and one [`SessionPlan`] per
//! client, fully materialized — every payload, every arrival delay, every
//! teardown decision is decided *before* anything runs. The runner then
//! merely executes the plan. This split is what makes the reproducibility
//! guarantee checkable: the plan is a pure function of `(params, seed)`, so
//! any nondeterminism observed downstream must live in the serving stack,
//! which is exactly what `tests/scenario_determinism.rs` pins.

use std::time::Duration;

use pretzel_core::session::EmailPayload;
use pretzel_server::{ClientSpec, MailroomConfig};

/// One client-side submission step.
pub enum RoundOp {
    /// A single email round ([`MailroomClient::process`]).
    ///
    /// [`MailroomClient::process`]: pretzel_server::MailroomClient::process
    One(EmailPayload),
    /// A coalesced batch ([`MailroomClient::process_batch`]).
    ///
    /// [`MailroomClient::process_batch`]: pretzel_server::MailroomClient::process_batch
    Batch(Vec<EmailPayload>),
}

impl RoundOp {
    /// Number of emails this op submits.
    pub fn email_count(&self) -> u64 {
        match self {
            RoundOp::One(_) => 1,
            RoundOp::Batch(payloads) => payloads.len() as u64,
        }
    }
}

/// How a session ends after its rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// Orderly goodbye ([`MailroomClient::finish`]); the provider records
    /// the session as completed.
    ///
    /// [`MailroomClient::finish`]: pretzel_server::MailroomClient::finish
    Finish,
    /// The channel is dropped mid-protocol with no goodbye frame
    /// ([`MailroomClient::abandon`]); the provider records the session as
    /// failed. Used by churn scenarios.
    ///
    /// [`MailroomClient::abandon`]: pretzel_server::MailroomClient::abandon
    Abandon,
}

/// Everything one client will do, decided up front.
pub struct SessionPlan {
    /// Human-readable kind label, prefixed onto each verdict transcript
    /// line (`"spam/Spam(false)"`).
    pub label: &'static str,
    /// The client's protocol spec (function module, version bounds,
    /// capabilities, batching preference).
    pub spec: ClientSpec,
    /// Seed of this client's private RNG stream.
    pub client_seed: u64,
    /// How long after scenario start this client connects.
    pub arrival_delay: Duration,
    /// Per-frame send stall injected via
    /// [`PacedChannel`](pretzel_transport::PacedChannel); zero for
    /// well-behaved clients.
    pub frame_pace: Duration,
    /// The submission script.
    pub rounds: Vec<RoundOp>,
    /// Orderly or abusive teardown.
    pub end: SessionEnd,
}

impl SessionPlan {
    /// Total emails this session submits.
    pub fn email_count(&self) -> u64 {
        self.rounds.iter().map(RoundOp::email_count).sum()
    }
}

/// A compiled scenario: mailroom tuning plus the full fleet script.
pub struct ScenarioPlan {
    /// Provider-side configuration (workers, queue depth, precompute
    /// budget, RNG seed).
    pub mailroom: MailroomConfig,
    /// One entry per client, in submission order.
    pub sessions: Vec<SessionPlan>,
}

impl ScenarioPlan {
    /// Sessions that end with an orderly goodbye.
    pub fn expected_completed(&self) -> usize {
        self.sessions
            .iter()
            .filter(|s| s.end == SessionEnd::Finish)
            .count()
    }

    /// Sessions that abandon mid-protocol (recorded as failed by the
    /// provider).
    pub fn expected_failed(&self) -> usize {
        self.sessions
            .iter()
            .filter(|s| s.end == SessionEnd::Abandon)
            .count()
    }

    /// Total emails across the fleet.
    pub fn total_emails(&self) -> u64 {
        self.sessions.iter().map(SessionPlan::email_count).sum()
    }
}
