//! The provider mailroom: a worker pool serving many concurrent sessions.
//!
//! Lifecycle of one session, as seen from the provider:
//!
//! 1. **Intake** — [`Mailroom::submit`] receives a connected [`Channel`]
//!    (from a [`pretzel_transport::TcpAcceptor`], a
//!    [`pretzel_transport::memory_pair`], or anything else). The channel is
//!    wrapped in two [`MeteredChannel`] layers — a per-session meter and the
//!    fleet-wide meter — registered under a fresh [`SessionId`], and offered
//!    to the bounded work queue. A full queue refuses the session on the
//!    spot: the client receives [`crate::ACK_BUSY`] and the submit call
//!    returns [`ServerError::Backpressure`]. Otherwise the client receives
//!    [`crate::ACK_ACCEPTED`] inside the same queue-slot reservation, so the
//!    ack can never race the capacity check.
//! 2. **Handshake** — a worker pops the session and reads the first frame,
//!    which must be a [`HandshakeOffer`]. The worker picks the newest
//!    version inside the offered range, resolves the function-module wire
//!    tag through the registry and the [`AheVariant`] byte, and acks — or
//!    refuses with a structured [`HandshakeError`] that fails only this
//!    session, before any set-up work. All later frames travel through the
//!    checksummed frame codec.
//! 3. **Setup reuse** — the worker runs the protocol's setup phase once
//!    (joint randomness, encrypted model transfer, base OTs) and keeps the
//!    resulting [`ProviderSession`] for the whole session.
//! 4. **Per-email rounds** — the client drives rounds with control frames:
//!    [`crate::ROUND_EMAIL`] starts one secure classification over the
//!    established session state; [`crate::ROUND_BATCH`] (carrying a `u32`
//!    count) starts one coalesced batch of rounds;
//!    [`crate::ROUND_BYE`] ends the session. Every round makes what it needs
//!    inline; no session draws precomputed artifacts. A fleet precompute
//!    bank can still be configured ([`MailroomConfigBuilder::bank`]) — the
//!    repo's benchmark does — but nothing registers a reservoir with it.
//! 5. **Teardown** — on `BYE` the session completes; on any error (including
//!    the client vanishing mid-protocol) it is marked failed, the worker
//!    drops the channel and simply moves on to the next queued session — one
//!    misbehaving client never takes the mailroom down.
//!
//! [`Mailroom::shutdown`] closes the intake, lets queued and in-flight
//! sessions finish, joins every worker, and returns a [`MailroomReport`]
//! with per-session and fleet-wide accounting.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pretzel_core::bank::{BankConfig, BankReport, PrecomputeBank, ReservoirStats};
use pretzel_core::registry::{ProtocolRegistry, WireTag};
use pretzel_core::session::{variant_from_byte, ProviderModelSuite, ProviderSession};
use pretzel_core::spam::AheVariant;
use pretzel_transport::wire::{
    negotiate, Capabilities, CodecChannel, HandshakeAck, HandshakeError, HandshakeOffer,
    NegotiationPolicy, ProtocolVersion,
};
use pretzel_transport::{Channel, Meter, MeteredChannel, TcpAcceptor};

use crate::queue::{BoundedQueue, PushError};
use crate::{
    ServerError, ACK_ACCEPTED, ACK_BUSY, MAX_BATCH_ROUNDS, ROUND_BATCH, ROUND_BYE, ROUND_EMAIL,
};

/// Identifier of one client session, unique within a mailroom's lifetime.
pub type SessionId = u64;

/// Tuning knobs for a [`Mailroom`].
#[derive(Clone, Debug)]
pub struct MailroomConfig {
    /// Number of worker threads serving sessions concurrently.
    pub workers: usize,
    /// Capacity of the bounded intake queue. Together with `workers` this
    /// caps provider-side memory: at most `workers` active plus
    /// `queue_capacity` waiting sessions exist at any moment.
    pub queue_capacity: usize,
    /// Base seed for the per-session provider RNG streams (each session
    /// derives its own stream from this and its [`SessionId`], so runs are
    /// reproducible given a fixed seed and submission order).
    pub rng_seed: u64,
    /// Fleet-wide precompute bank. `Some` starts its producer threads, which
    /// stay idle: no session registers a reservoir or draws from one. The
    /// knob stays because the repo's benchmark sets it.
    pub bank: Option<BankConfig>,
}

impl MailroomConfig {
    /// Starts a [`MailroomConfigBuilder`] seeded with the defaults —
    /// preferred over filling the struct literally, since new tuning knobs
    /// are added over time.
    pub fn builder() -> MailroomConfigBuilder {
        MailroomConfigBuilder {
            config: MailroomConfig::default(),
        }
    }
}

impl Default for MailroomConfig {
    fn default() -> Self {
        MailroomConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_capacity: 64,
            rng_seed: 0x4d41_494c_524f_4f4d, // "MAILROOM"
            bank: None,
        }
    }
}

/// Builder for a [`MailroomConfig`]; see [`MailroomConfig::builder`].
#[derive(Clone, Debug)]
pub struct MailroomConfigBuilder {
    config: MailroomConfig,
}

impl MailroomConfigBuilder {
    /// Sets the number of worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the intake queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Sets the base seed for per-session provider RNG streams.
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.config.rng_seed = seed;
        self
    }

    /// Starts the fleet-wide precompute bank with the given configuration
    /// (see [`MailroomConfig::bank`]: no session draws from it).
    pub fn bank(mut self, bank: BankConfig) -> Self {
        self.config.bank = Some(bank);
        self
    }

    /// Finalizes the config.
    pub fn build(self) -> MailroomConfig {
        self.config
    }
}

/// Where a session is in its lifecycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// Accepted and waiting for a worker.
    Queued,
    /// A worker is running the protocol.
    Active,
    /// The client said goodbye after zero or more rounds.
    Completed,
    /// The session aborted; the payload is a human-readable reason
    /// (handshake garbage, protocol error, client disconnect, …).
    Failed(String),
    /// Refused at intake because the queue was full.
    Rejected,
}

/// Snapshot of one session's accounting.
#[derive(Clone, Debug)]
pub struct SessionStats {
    /// The session's identifier.
    pub id: SessionId,
    /// Wire tag of the function module the session ran (`None` until the
    /// handshake has been read, or if it never resolved).
    pub kind: Option<WireTag>,
    /// Display name of the module behind [`SessionStats::kind`], resolved
    /// from the mailroom's registry at handshake time.
    pub kind_name: Option<&'static str>,
    /// Protocol version the session negotiated (`None` until the handshake
    /// resolved).
    pub version: Option<ProtocolVersion>,
    /// Capability bits granted to the session.
    pub capabilities: Capabilities,
    /// Lifecycle state at snapshot time.
    pub state: SessionState,
    /// Per-email rounds completed so far.
    pub emails: u64,
    /// Topic indices output to the provider (topic sessions only; spam and
    /// virus sessions reveal nothing to the provider).
    pub topics: Vec<usize>,
    /// Payload bytes sent provider→client on this session's channel.
    pub bytes_sent: u64,
    /// Payload bytes received client→provider.
    pub bytes_received: u64,
    /// Messages exchanged in both directions.
    pub messages: u64,
    /// Always 0: no session draws from a bank reservoir. The field stays
    /// because the repo's benchmark builds this struct literally.
    pub pool_depth: u64,
    /// Always empty, for the same reason as [`SessionStats::pool_depth`].
    pub pools: Vec<(&'static str, PoolKindGauge)>,
    /// Always 0, for the same reason as [`SessionStats::pool_depth`].
    pub fallback_draws: u64,
}

/// One artifact kind's reservoir gauge, the element type of
/// [`SessionStats::pools`] (which no session fills any more).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolKindGauge {
    /// Stocked artifacts of this kind.
    pub depth: u64,
    /// Draws that found the reservoir dry.
    pub fallback_draws: u64,
}

struct SessionRecord {
    kind: Option<WireTag>,
    kind_name: Option<&'static str>,
    version: Option<ProtocolVersion>,
    capabilities: Capabilities,
    state: SessionState,
    emails: u64,
    topics: Vec<usize>,
    meter: Meter,
}

impl SessionRecord {
    fn stats(&self, id: SessionId) -> SessionStats {
        SessionStats {
            id,
            kind: self.kind,
            kind_name: self.kind_name,
            version: self.version,
            capabilities: self.capabilities,
            state: self.state.clone(),
            emails: self.emails,
            topics: self.topics.clone(),
            bytes_sent: self.meter.bytes_sent(),
            bytes_received: self.meter.bytes_received(),
            messages: self.meter.messages_sent() + self.meter.messages_received(),
            pool_depth: 0,
            pools: Vec::new(),
            fallback_draws: 0,
        }
    }
}

/// The channel type sessions travel the queue as: the submitted transport,
/// boxed, wrapped in the per-session then the fleet meter.
type SessionChannel = MeteredChannel<MeteredChannel<Box<dyn Channel>>>;

struct QueuedSession {
    id: SessionId,
    channel: SessionChannel,
}

struct Shared {
    suite: ProviderModelSuite,
    registry: ProtocolRegistry,
    queue: BoundedQueue<QueuedSession>,
    records: Mutex<HashMap<SessionId, SessionRecord>>,
    fleet: Meter,
    next_id: AtomicU64,
    emails_total: AtomicU64,
    accepting: AtomicBool,
    rng_seed: u64,
}

impl Shared {
    /// Recovers a poisoned lock (`docs/ARCHITECTURE.md`, "Lock poisoning"):
    /// every holder writes whole fields, so the records stay readable.
    fn records(&self) -> MutexGuard<'_, HashMap<SessionId, SessionRecord>> {
        self.records.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn with_record<R>(&self, id: SessionId, f: impl FnOnce(&mut SessionRecord) -> R) -> Option<R> {
        self.records().get_mut(&id).map(f)
    }
}

/// Aggregate accounting for all sessions of one function module (keyed by
/// its wire tag) — the rows of [`MailroomReport::by_kind`]. Summing the
/// totals across kinds (plus any sessions that never parsed a handshake)
/// reproduces the fleet-wide counters, which
/// `tests/mailroom_concurrency.rs` pins for a mixed fleet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTotals {
    /// Sessions that handshook as this kind.
    pub sessions: usize,
    /// Per-email rounds served.
    pub emails: u64,
    /// Payload bytes sent provider→client.
    pub bytes_sent: u64,
    /// Payload bytes received client→provider.
    pub bytes_received: u64,
    /// Messages exchanged in both directions.
    pub messages: u64,
}

impl KindTotals {
    fn absorb(&mut self, s: &SessionStats) {
        self.sessions += 1;
        self.emails += s.emails;
        self.bytes_sent += s.bytes_sent;
        self.bytes_received += s.bytes_received;
        self.messages += s.messages;
    }
}

/// Final accounting returned by [`Mailroom::shutdown`].
#[derive(Clone, Debug)]
pub struct MailroomReport {
    /// Every session ever submitted, in submission order.
    pub sessions: Vec<SessionStats>,
    /// Total per-email rounds served across all sessions.
    pub emails_total: u64,
    /// Fleet-wide payload bytes sent provider→client.
    pub fleet_bytes_sent: u64,
    /// Fleet-wide payload bytes received client→provider.
    pub fleet_bytes_received: u64,
    /// Fleet-wide messages in both directions.
    pub fleet_messages: u64,
    /// Always 0, like every [`SessionStats::pool_depth`]; kept because the
    /// repo's benchmark builds this struct literally.
    pub pool_depth_total: u64,
    /// Final per-reservoir accounting of the fleet precompute bank, drained
    /// at shutdown. Empty: no session registers a reservoir.
    pub reservoirs: Vec<ReservoirStats>,
}

impl MailroomReport {
    /// Sessions that reached [`SessionState::Completed`].
    pub fn completed(&self) -> usize {
        self.sessions
            .iter()
            .filter(|s| s.state == SessionState::Completed)
            .count()
    }

    /// Per-kind aggregation of the fleet, keyed by wire tag in wire-tag
    /// order (open-ended: any registered module appears here, not just the
    /// built-ins). Kinds no session ran are omitted; sessions whose
    /// handshake never resolved (kind `None`) are excluded, so a
    /// garbage-handshake session can make the per-kind sums fall short of
    /// the fleet meters.
    pub fn by_kind(&self) -> Vec<(WireTag, KindTotals)> {
        let mut by_tag: std::collections::BTreeMap<WireTag, KindTotals> =
            std::collections::BTreeMap::new();
        for s in &self.sessions {
            if let Some(tag) = s.kind {
                by_tag.entry(tag).or_default().absorb(s);
            }
        }
        by_tag.into_iter().collect()
    }

    /// Average payload bytes per served email across the fleet (0 when no
    /// email was served).
    pub fn bytes_per_email(&self) -> f64 {
        if self.emails_total == 0 {
            return 0.0;
        }
        (self.fleet_bytes_sent + self.fleet_bytes_received) as f64 / self.emails_total as f64
    }
}

/// A multi-session provider serving every function module in its registry
/// (spam, topic, virus and encrypted search by default — see
/// [`Mailroom::start_with_registry`] for custom modules) over any
/// [`Channel`] through a worker pool with bounded intake.
pub struct Mailroom {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    bank: Option<PrecomputeBank>,
}

impl Mailroom {
    /// Starts the worker pool serving the four built-in function modules.
    /// `suite` holds the trained models every session is served from; it is
    /// shared read-only across workers.
    pub fn start(suite: ProviderModelSuite, config: MailroomConfig) -> Self {
        Self::start_with_registry(suite, ProtocolRegistry::builtin(), config)
    }

    /// Starts the worker pool with an explicit function-module registry —
    /// the extension point for serving custom protocols: register a module
    /// (see [`pretzel_core::FunctionModule`]) and every worker dispatches
    /// its wire tag without any mailroom changes.
    pub fn start_with_registry(
        suite: ProviderModelSuite,
        registry: ProtocolRegistry,
        config: MailroomConfig,
    ) -> Self {
        assert!(config.workers >= 1, "a mailroom needs at least one worker");
        let bank = config.bank.clone().map(PrecomputeBank::start);
        let shared = Arc::new(Shared {
            suite,
            registry,
            queue: BoundedQueue::new(config.queue_capacity),
            records: Mutex::new(HashMap::new()),
            fleet: Meter::new(),
            next_id: AtomicU64::new(0),
            emails_total: AtomicU64::new(0),
            accepting: AtomicBool::new(true),
            rng_seed: config.rng_seed,
        });
        let workers = (0..config.workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mailroom-worker-{idx}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn mailroom worker")
            })
            .collect();
        Mailroom {
            shared,
            workers,
            bank,
        }
    }

    /// Submits a connected client channel as a new session.
    ///
    /// Never blocks. On success the client has already received
    /// [`ACK_ACCEPTED`] and a worker will pick the session up; the returned
    /// id can be used with [`Mailroom::session_stats`]. When the intake
    /// queue is full the client receives [`ACK_BUSY`] (best effort), the
    /// session is recorded as [`SessionState::Rejected`], and
    /// [`ServerError::Backpressure`] is returned.
    pub fn submit<C: Channel + 'static>(&self, channel: C) -> Result<SessionId, ServerError> {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let session_meter = Meter::new();
        let boxed: Box<dyn Channel> = Box::new(channel);
        let mut channel = MeteredChannel::with_meter(
            MeteredChannel::with_meter(boxed, self.shared.fleet.clone()),
            session_meter.clone(),
        );
        if !self.shared.accepting.load(Ordering::SeqCst) {
            let _ = channel.send(&[ACK_BUSY]);
            return Err(ServerError::ShuttingDown);
        }
        self.shared.records().insert(
            id,
            SessionRecord {
                kind: None,
                kind_name: None,
                version: None,
                capabilities: Capabilities::NONE,
                state: SessionState::Queued,
                emails: 0,
                topics: Vec::new(),
                meter: session_meter,
            },
        );
        let queued = QueuedSession { id, channel };
        match self.shared.queue.try_push_with(queued, |session| {
            // Runs inside the reserved slot: the ack cannot lie about
            // capacity. A send failure just means the client is already
            // gone; the worker will notice on handshake.
            let _ = session.channel.send(&[ACK_ACCEPTED]);
        }) {
            Ok(()) => Ok(id),
            Err(PushError::Full(mut session)) => {
                let _ = session.channel.send(&[ACK_BUSY]);
                self.shared
                    .with_record(id, |r| r.state = SessionState::Rejected);
                Err(ServerError::Backpressure(id))
            }
            // Closed means shutdown won the race since the `accepting` check
            // above — report that, not a retryable backpressure condition.
            Err(PushError::Closed(mut session)) => {
                let _ = session.channel.send(&[ACK_BUSY]);
                self.shared
                    .with_record(id, |r| r.state = SessionState::Rejected);
                Err(ServerError::ShuttingDown)
            }
        }
    }

    /// Snapshot of one session's stats.
    pub fn session_stats(&self, id: SessionId) -> Option<SessionStats> {
        self.shared.with_record(id, |r| r.stats(id))
    }

    /// Snapshot of every session, in submission order.
    pub fn stats(&self) -> Vec<SessionStats> {
        let records = self.shared.records();
        let mut stats: Vec<SessionStats> = records.iter().map(|(&id, r)| r.stats(id)).collect();
        stats.sort_by_key(|s| s.id);
        stats
    }

    /// Total per-email rounds served so far, fleet-wide.
    pub fn emails_processed(&self) -> u64 {
        self.shared.emails_total.load(Ordering::Relaxed)
    }

    /// Handle to the fleet-wide meter (shared counters over every session's
    /// traffic; see [`Meter`] for the counting semantics).
    pub fn fleet_meter(&self) -> Meter {
        self.shared.fleet.clone()
    }

    /// Sessions currently waiting in the intake queue.
    pub fn queued_sessions(&self) -> usize {
        self.shared.queue.len()
    }

    /// Live snapshot of the fleet precompute bank's reservoirs. Empty: no
    /// session registers one (the repo's benchmark still reads it).
    pub fn bank_report(&self) -> BankReport {
        self.bank.as_ref().map(|b| b.report()).unwrap_or_default()
    }

    /// Blocks until every live bank reservoir reaches its target or the
    /// timeout elapses; returns whether the bank is full. With no reservoir
    /// ever registered it returns `true` at once; it stays because the
    /// repo's benchmark calls it.
    pub fn wait_until_bank_full(&self, timeout: Duration) -> bool {
        self.bank
            .as_ref()
            .is_none_or(|b| b.wait_until_full(timeout))
    }

    /// Graceful shutdown: refuses new submissions, serves every queued and
    /// in-flight session to completion, joins the workers, and returns the
    /// final accounting.
    pub fn shutdown(mut self) -> MailroomReport {
        self.shared.accepting.store(false, Ordering::SeqCst);
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Drain the bank after the workers: producer threads park and join,
        // and the final per-reservoir accounting lands in the report.
        let reservoirs = self
            .bank
            .take()
            .map(|bank| bank.shutdown().reservoirs)
            .unwrap_or_default();
        MailroomReport {
            sessions: self.stats(),
            emails_total: self.shared.emails_total.load(Ordering::Relaxed),
            fleet_bytes_sent: self.shared.fleet.bytes_sent(),
            fleet_bytes_received: self.shared.fleet.bytes_received(),
            fleet_messages: self.shared.fleet.messages_sent()
                + self.shared.fleet.messages_received(),
            pool_depth_total: 0,
            reservoirs,
        }
    }
}

impl Drop for Mailroom {
    /// Closes the intake so workers can drain and exit. Does **not** join
    /// them (a blocking drop could deadlock a test driving a client on the
    /// same thread); use [`Mailroom::shutdown`] for an orderly join.
    fn drop(&mut self) {
        self.shared.accepting.store(false, Ordering::SeqCst);
        self.shared.queue.close();
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(mut session) = shared.queue.pop() {
        let id = session.id;
        shared.with_record(id, |r| r.state = SessionState::Active);
        match run_session(shared, id, &mut session.channel) {
            Ok(()) => {
                shared.with_record(id, |r| r.state = SessionState::Completed);
            }
            Err(e) => {
                shared.with_record(id, |r| r.state = SessionState::Failed(e.to_string()));
            }
        }
        // The channel drops here; a client stuck mid-round observes Closed.
    }
}

/// Reads the session's first frame, which must be a [`HandshakeOffer`], and
/// settles it in wire order: the version range first (it decides how the
/// rest of the offer reads), then the wire tag, then the AHE variant. The
/// outcome goes back on the wire as a [`HandshakeAck`] — every refusal
/// included (best effort — the peer may already be gone) — before any
/// set-up work, so a refused session fails alone and its client sees
/// [`ServerError::Handshake`]. An accepted session is recorded under its
/// kind and profile.
fn handshake(
    shared: &Shared,
    id: SessionId,
    channel: &mut SessionChannel,
) -> Result<(WireTag, AheVariant), ServerError> {
    let first = channel.recv()?;
    let refuse = |channel: &mut SessionChannel, err: HandshakeError| -> ServerError {
        let _ = channel.send(&HandshakeAck::Refuse(err.clone()).encode());
        let _ = channel.flush();
        ServerError::Handshake(err)
    };
    let offer = match HandshakeOffer::decode(&first) {
        Ok(offer) => offer,
        Err(e) => return Err(refuse(channel, e)),
    };
    let profile = match negotiate(&offer, &NegotiationPolicy::default()) {
        Ok(profile) => profile,
        Err(e) => return Err(refuse(channel, e)),
    };
    let Ok(module) = shared.registry.from_wire_tag(offer.wire_tag) else {
        return Err(refuse(
            channel,
            HandshakeError::UnknownTag {
                tag: offer.wire_tag,
            },
        ));
    };
    let Ok(variant) = variant_from_byte(offer.variant) else {
        return Err(refuse(
            channel,
            HandshakeError::Malformed(format!("unknown AHE variant byte {}", offer.variant)),
        ));
    };
    channel.send(
        &HandshakeAck::Accept {
            version: profile.version,
            capabilities: profile.capabilities,
        }
        .encode(),
    )?;
    channel.flush()?;
    shared.with_record(id, |r| {
        r.kind = Some(offer.wire_tag);
        r.kind_name = Some(module.display_name());
        r.version = Some(profile.version);
        r.capabilities = profile.capabilities;
    });
    Ok((offer.wire_tag, variant))
}

fn run_session(
    shared: &Shared,
    id: SessionId,
    channel: &mut SessionChannel,
) -> Result<(), ServerError> {
    let (tag, variant) = handshake(shared, id, channel)?;

    // Every post-handshake frame travels through the frame codec.
    let mut channel = CodecChannel::new(channel);

    // One independent, reproducible randomness stream per session.
    let mut rng = StdRng::seed_from_u64(shared.rng_seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut session = ProviderSession::setup(
        &shared.registry,
        tag,
        &mut channel,
        &shared.suite,
        variant,
        &mut rng,
    )?;

    // Records one or more served rounds in the session and fleet counters.
    let account = |outputs: &[Option<usize>]| {
        shared
            .emails_total
            .fetch_add(outputs.len() as u64, Ordering::Relaxed);
        shared.with_record(id, |r| {
            r.emails += outputs.len() as u64;
            r.topics.extend(outputs.iter().flatten());
        });
    };

    loop {
        let control = channel.recv()?;
        // `[ROUND_EMAIL]` is a batch of one; `[ROUND_BATCH, n]` names its
        // count.
        let count = match control.as_slice() {
            [ROUND_BYE] => return Ok(()),
            [ROUND_EMAIL] => 1,
            [ROUND_BATCH, count @ ..] if count.len() == 4 => {
                let count = u32::from_le_bytes(count.try_into().expect("4-byte count")) as usize;
                if count == 0 || count > MAX_BATCH_ROUNDS {
                    return Err(ServerError::Control(format!(
                        "batch round count {count} outside 1..={MAX_BATCH_ROUNDS}"
                    )));
                }
                count
            }
            other => {
                return Err(ServerError::Control(format!(
                    "unknown round control frame {other:?}"
                )));
            }
        };
        let outputs = session.process_batch(&mut channel, count, &mut rng)?;
        account(&outputs);
    }
}

/// Accepts up to `max_sessions` TCP connections and submits each to the
/// mailroom. Returns the number of sessions actually accepted (backpressure
/// rejections are refused on the wire but still consume an accept slot).
///
/// This is the glue for a socket-serving provider:
///
/// ```no_run
/// # use pretzel_server::{serve_tcp_sessions, Mailroom, MailroomConfig};
/// # use pretzel_transport::TcpAcceptor;
/// # fn demo(suite: pretzel_core::ProviderModelSuite) {
/// let mailroom = Mailroom::start(suite, MailroomConfig::default());
/// let acceptor = TcpAcceptor::bind("127.0.0.1:7878").unwrap();
/// let accepted = serve_tcp_sessions(&mailroom, &acceptor, 1000);
/// println!("served {accepted} sessions");
/// # }
/// ```
pub fn serve_tcp_sessions(
    mailroom: &Mailroom,
    acceptor: &TcpAcceptor,
    max_sessions: usize,
) -> usize {
    let mut accepted = 0;
    for _ in 0..max_sessions {
        match acceptor.accept() {
            Ok((channel, _peer)) => {
                if mailroom.submit(channel).is_ok() {
                    accepted += 1;
                }
            }
            Err(_) => break,
        }
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientSpec, ClientSpecBuilder, MailroomClient};
    use pretzel_classifiers::nb::{GrNbTrainer, MultinomialNbTrainer};
    use pretzel_classifiers::{LabeledExample, NGramExtractor, SparseVector, Trainer};
    use pretzel_core::search::SearchFunction;
    use pretzel_core::spam::SpamFunction;
    use pretzel_core::topic::{CandidateMode, TopicFunction};
    use pretzel_core::virus::VirusFunction;
    use pretzel_core::PretzelConfig;
    use pretzel_transport::{memory_pair, TcpChannel};

    fn example(pairs: &[(usize, u32)], label: usize) -> LabeledExample {
        LabeledExample {
            features: SparseVector::from_pairs(pairs.to_vec()),
            label,
        }
    }

    pub(crate) fn test_suite() -> ProviderModelSuite {
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
        let extractor = NGramExtractor::new(3, 256);
        let mut virus_corpus = Vec::new();
        for i in 0..20u8 {
            let bad = [0xde, 0xad, 0xbe, 0xef, 0xcc, 0xcc, 0xcc, i];
            virus_corpus.push(LabeledExample {
                features: extractor.extract(&bad),
                label: 1,
            });
            let good = format!("regular attachment number {i}");
            virus_corpus.push(LabeledExample {
                features: extractor.extract(good.as_bytes()),
                label: 0,
            });
        }
        ProviderModelSuite {
            spam: GrNbTrainer::default().train(&spam_corpus, 8, 2),
            topic: MultinomialNbTrainer::default().train(&topic_corpus, 16, 4),
            topic_mode: CandidateMode::Full,
            virus: GrNbTrainer::default().train(&virus_corpus, extractor.buckets, 2),
            virus_extractor: extractor,
            config: PretzelConfig::test(),
        }
    }

    fn small_config(workers: usize, queue: usize) -> MailroomConfig {
        MailroomConfig {
            workers,
            queue_capacity: queue,
            rng_seed: 7,
            ..MailroomConfig::default()
        }
    }

    #[test]
    fn serves_a_spam_session_over_memory_channels() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mailroom = Mailroom::start(test_suite(), small_config(1, 4));
        let (provider_end, client_end) = memory_pair();
        let id = mailroom.submit(provider_end).unwrap();

        let mut rng = StdRng::seed_from_u64(1);
        let spec = ClientSpecBuilder::spam(PretzelConfig::test()).build();
        let mut client = MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
        assert!(client.model_storage_bytes() > 0);
        let spammy = SparseVector::from_pairs(vec![(0, 3), (1, 1)]);
        let hammy = SparseVector::from_pairs(vec![(4, 2), (5, 2)]);
        assert!(client.classify_spam(&spammy, &mut rng).unwrap());
        assert!(!client.classify_spam(&hammy, &mut rng).unwrap());
        assert_eq!(client.emails_sent(), 2);
        client.finish().unwrap();

        let report = mailroom.shutdown();
        assert_eq!(report.emails_total, 2);
        assert_eq!(report.completed(), 1);
        let stats = &report.sessions[0];
        assert_eq!(stats.id, id);
        assert_eq!(stats.kind, Some(SpamFunction::WIRE_TAG));
        assert_eq!(stats.kind_name, Some("spam"));
        assert_eq!(stats.state, SessionState::Completed);
        assert_eq!(stats.emails, 2);
        assert!(stats.bytes_sent > 0, "provider ships the encrypted model");
        assert!(stats.bytes_received > 0);
        assert!(report.bytes_per_email() > 0.0);
        assert_eq!(
            report.fleet_bytes_sent, stats.bytes_sent,
            "one session: fleet meter equals the session meter"
        );
    }

    #[test]
    fn serves_a_search_session_with_per_kind_accounting() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mailroom = Mailroom::start(test_suite(), small_config(1, 4));
        let (provider_end, client_end) = memory_pair();
        let id = mailroom.submit(provider_end).unwrap();

        let mut rng = StdRng::seed_from_u64(5);
        let spec = ClientSpec::search(PretzelConfig::test());
        let mut client = MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
        assert_eq!(client.wire_tag(), SearchFunction::WIRE_TAG);
        assert_eq!(client.display_name(), "search");
        assert!(client.model_storage_bytes() > 0);
        assert_eq!(
            client
                .index_email(10, "project pretzel kickoff agenda", &mut rng)
                .unwrap(),
            4
        );
        client
            .index_email(11, "pretzel budget spreadsheet", &mut rng)
            .unwrap();
        let mut hits = client.search_keyword("pretzel", &mut rng).unwrap();
        hits.sort_unstable();
        assert_eq!(hits, vec![10, 11]);
        assert!(client
            .search_keyword("absent", &mut rng)
            .unwrap()
            .is_empty());
        client.finish().unwrap();

        let report = mailroom.shutdown();
        let stats = report.sessions.iter().find(|s| s.id == id).unwrap();
        assert_eq!(stats.kind, Some(SearchFunction::WIRE_TAG));
        assert_eq!(stats.state, SessionState::Completed);
        assert_eq!(stats.emails, 4, "2 index rounds + 2 query rounds");

        let by_kind = report.by_kind();
        assert_eq!(by_kind.len(), 1);
        let (kind, totals) = by_kind[0];
        assert_eq!(kind, SearchFunction::WIRE_TAG);
        assert_eq!(totals.sessions, 1);
        assert_eq!(totals.emails, 4);
        assert_eq!(totals.bytes_sent, report.fleet_bytes_sent);
        assert_eq!(totals.bytes_received, report.fleet_bytes_received);
        assert_eq!(totals.messages, report.fleet_messages);
    }

    #[test]
    fn topic_session_outputs_land_in_provider_stats() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mailroom = Mailroom::start(test_suite(), small_config(1, 4));
        let (provider_end, client_end) = memory_pair();
        let id = mailroom.submit(provider_end).unwrap();

        let mut rng = StdRng::seed_from_u64(2);
        let spec = crate::ClientSpecBuilder::topic(PretzelConfig::test())
            .topic_mode(CandidateMode::Full)
            .build();
        let mut client = MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
        // Topic 2 owns features 8..12 in the test suite's corpus.
        let email = SparseVector::from_pairs(vec![(8, 3), (9, 1)]);
        let candidates = client.extract_topic(&email, &mut rng).unwrap();
        assert!(candidates.contains(&2));
        client.finish().unwrap();

        let report = mailroom.shutdown();
        let stats = report.sessions.iter().find(|s| s.id == id).unwrap();
        assert_eq!(stats.kind, Some(TopicFunction::WIRE_TAG));
        assert_eq!(stats.topics, vec![2], "the provider learned the topic");
    }

    #[test]
    fn serves_sessions_over_tcp() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mailroom = Mailroom::start(test_suite(), small_config(2, 8));
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();

        let client_thread = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(3);
            let spec = ClientSpecBuilder::virus(PretzelConfig::test()).build();
            let chan = TcpChannel::connect(addr).unwrap();
            let mut client = MailroomClient::connect(chan, &spec, &mut rng).unwrap();
            let bad = vec![0xde, 0xad, 0xbe, 0xef, 0xcc, 0xcc, 0xcc, 0x01];
            let verdict = client.scan_attachment(&bad, &mut rng).unwrap();
            client.finish().unwrap();
            verdict
        });

        let accepted = serve_tcp_sessions(&mailroom, &acceptor, 1);
        assert_eq!(accepted, 1);
        assert!(
            client_thread.join().unwrap(),
            "malicious attachment flagged"
        );

        let report = mailroom.shutdown();
        assert_eq!(report.completed(), 1);
        assert_eq!(report.sessions[0].kind, Some(VirusFunction::WIRE_TAG));
    }

    #[test]
    fn garbage_handshake_fails_the_session_not_the_mailroom() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mailroom = Mailroom::start(test_suite(), small_config(1, 4));

        // Session 1: nonsense handshake byte.
        let (provider_end, mut client_end) = memory_pair();
        let bad_id = mailroom.submit(provider_end).unwrap();
        client_end.send(&[0xFF, 0xFF]).unwrap();
        assert_eq!(client_end.recv().unwrap(), vec![ACK_ACCEPTED]);

        // Session 2 on the same mailroom still works end to end.
        let (provider_end, client_end) = memory_pair();
        let ok_id = mailroom.submit(provider_end).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let spec = ClientSpecBuilder::spam(PretzelConfig::test()).build();
        let mut client = MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
        let spammy = SparseVector::from_pairs(vec![(0, 3), (1, 1)]);
        assert!(client.classify_spam(&spammy, &mut rng).unwrap());
        client.finish().unwrap();

        let report = mailroom.shutdown();
        let bad = report.sessions.iter().find(|s| s.id == bad_id).unwrap();
        assert!(matches!(bad.state, SessionState::Failed(_)));
        let ok = report.sessions.iter().find(|s| s.id == ok_id).unwrap();
        assert_eq!(ok.state, SessionState::Completed);
    }

    #[test]
    fn default_spec_negotiates_v4() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mailroom = Mailroom::start(test_suite(), small_config(1, 4));
        let (provider_end, client_end) = memory_pair();
        let id = mailroom.submit(provider_end).unwrap();

        let mut rng = StdRng::seed_from_u64(11);
        let spec = ClientSpecBuilder::spam(PretzelConfig::test()).build();
        let mut client = MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
        let profile = client.negotiated();
        assert_eq!(profile.version, ProtocolVersion::V4);
        assert_eq!(profile.capabilities, Capabilities::NONE);
        let spammy = SparseVector::from_pairs(vec![(0, 3), (1, 1)]);
        assert!(client.classify_spam(&spammy, &mut rng).unwrap());
        client.finish().unwrap();

        let report = mailroom.shutdown();
        let stats = report.sessions.iter().find(|s| s.id == id).unwrap();
        assert_eq!(stats.version, Some(ProtocolVersion::V4));
        assert_eq!(stats.capabilities, Capabilities::NONE);
    }

    #[test]
    fn unknown_tag_offer_is_refused_with_a_structured_ack() {
        use pretzel_transport::wire::{HandshakeAck, HandshakeError, HandshakeOffer};

        let mailroom = Mailroom::start(test_suite(), small_config(1, 4));
        let (provider_end, mut client_end) = memory_pair();
        let id = mailroom.submit(provider_end).unwrap();

        let offer = HandshakeOffer {
            min_version: 1,
            max_version: 4,
            wire_tag: 0xEE,
            variant: 1,
            capabilities: Capabilities::KNOWN,
        };
        client_end.send(&offer.encode()).unwrap();
        assert_eq!(client_end.recv().unwrap(), vec![ACK_ACCEPTED]);
        let ack = HandshakeAck::decode(&client_end.recv().unwrap()).unwrap();
        assert_eq!(
            ack,
            HandshakeAck::Refuse(HandshakeError::UnknownTag { tag: 0xEE })
        );

        let report = mailroom.shutdown();
        let stats = report.sessions.iter().find(|s| s.id == id).unwrap();
        assert!(matches!(stats.state, SessionState::Failed(_)));
    }

    /// Serves `sessions` on a bankless mailroom, then on a banked one (one
    /// worker, fixed seeds), returning each run's verdicts and report.
    fn inline_and_banked(
        sessions: impl Fn(&Mailroom) -> Vec<String>,
    ) -> [(Vec<String>, MailroomReport); 2] {
        [None, Some(BankConfig::default().rng_seed(0xBA2C).target(8))].map(|bank| {
            let mut builder = MailroomConfig::builder()
                .workers(1)
                .queue_capacity(4)
                .rng_seed(7);
            if let Some(bank) = bank {
                builder = builder.bank(bank);
            }
            let mailroom = Mailroom::start(test_suite(), builder.build());
            let verdicts = sessions(&mailroom);
            (verdicts, mailroom.shutdown())
        })
    }

    /// Per-session wire accounting: `(kind, emails, sent, received, messages)`.
    fn meter_rows(report: &MailroomReport) -> Vec<(Option<WireTag>, u64, u64, u64, u64)> {
        report
            .sessions
            .iter()
            .map(|s| (s.kind, s.emails, s.bytes_sent, s.bytes_received, s.messages))
            .collect()
    }

    /// No module draws from the bank: a banked mailroom serving spam, virus
    /// and search registers no reservoir, and its verdicts and per-session
    /// bytes are the bankless run's.
    #[test]
    fn a_banked_mailroom_registers_no_reservoir_and_changes_nothing() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let [(inline_verdicts, inline_report), (bank_verdicts, bank_report)] =
            inline_and_banked(|mailroom| {
                let mut verdicts = Vec::new();
                let (provider_end, client_end) = memory_pair();
                mailroom.submit(provider_end).unwrap();
                let mut rng = StdRng::seed_from_u64(21);
                let spec = ClientSpecBuilder::spam(PretzelConfig::test()).build();
                let mut client = MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
                for email in [vec![(0, 3), (1, 1)], vec![(4, 2), (5, 2)]] {
                    let email = SparseVector::from_pairs(email);
                    let verdict = client.classify_spam(&email, &mut rng).unwrap();
                    verdicts.push(format!("spam:{verdict}"));
                }
                client.finish().unwrap();

                let (provider_end, client_end) = memory_pair();
                mailroom.submit(provider_end).unwrap();
                let mut rng = StdRng::seed_from_u64(23);
                let spec = ClientSpecBuilder::virus(PretzelConfig::test()).build();
                let mut client = MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
                for attachment in [
                    &[0xde, 0xad, 0xbe, 0xef, 0xcc, 0xcc, 0xcc, 0x01][..],
                    b"regular attachment number 3",
                ] {
                    let verdict = client.scan_attachment(attachment, &mut rng).unwrap();
                    verdicts.push(format!("virus:{verdict}"));
                }
                client.finish().unwrap();

                let (provider_end, client_end) = memory_pair();
                mailroom.submit(provider_end).unwrap();
                let mut rng = StdRng::seed_from_u64(22);
                let spec = ClientSpec::search(PretzelConfig::test());
                let mut client = MailroomClient::connect(client_end, &spec, &mut rng).unwrap();
                assert!(
                    mailroom.wait_until_bank_full(Duration::ZERO),
                    "no reservoir to fill"
                );
                client
                    .index_email(10, "project pretzel kickoff agenda", &mut rng)
                    .unwrap();
                for keyword in ["pretzel", "absent"] {
                    let hits = client.search_keyword(keyword, &mut rng).unwrap();
                    verdicts.push(format!("search:{hits:?}"));
                }
                client.finish().unwrap();
                verdicts
            });

        assert_eq!(
            inline_verdicts,
            [
                "spam:true",
                "spam:false",
                "virus:true",
                "virus:false",
                "search:[10]",
                "search:[]"
            ]
        );
        assert_eq!(inline_verdicts, bank_verdicts);
        assert_eq!(meter_rows(&inline_report), meter_rows(&bank_report));
        assert!(
            bank_report.reservoirs.is_empty(),
            "nothing registered: {:?}",
            bank_report.reservoirs
        );
        assert!(bank_report
            .sessions
            .iter()
            .all(|s| s.pools.is_empty() && s.pool_depth == 0 && s.fallback_draws == 0));
        assert_eq!(bank_report.pool_depth_total, 0);
    }

    #[test]
    fn shutdown_refuses_new_submissions() {
        let mailroom = Mailroom::start(test_suite(), small_config(1, 4));
        let shared = Arc::clone(&mailroom.shared);
        let report = mailroom.shutdown();
        assert_eq!(report.sessions.len(), 0);
        // The queue is closed; a late submit must be refused cleanly.
        let mailroom = Mailroom {
            shared,
            workers: Vec::new(),
            bank: None,
        };
        let (provider_end, mut client_end) = memory_pair();
        assert!(matches!(
            mailroom.submit(provider_end),
            Err(ServerError::ShuttingDown)
        ));
        assert_eq!(client_end.recv().unwrap(), vec![ACK_BUSY]);
    }
}
