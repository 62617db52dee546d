//! Drives one workload against the real serving stack and measures it from
//! outside.
//!
//! One run = `setups` set-ups (`Mailroom::start` → bank → initial `connect`s →
//! bank full), of which the last is kept and measured for `seconds`. Load is **closed-loop**: each generator thread owns one client
//! and sends its next request only when the previous reply arrived, as a mail
//! client does. The timed window opens at a barrier after set-up and closes
//! when the last in-flight call returns.

use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use pretzel_core::session::{EmailPayload, Verdict};
use pretzel_core::BankConfig;
use pretzel_server::{
    BankReport, Mailroom, MailroomClient, MailroomConfig, MailroomReport, SessionState,
};
use pretzel_transport::{memory_pair, Channel, Meter, MeteredChannel, TcpAcceptor, TcpChannel};

use crate::oracle::{verdict_matches, Oracle};
use crate::procfs::{self, ProviderCpu};
use crate::stats::median;
use crate::trace::{now_ns, EventLog, SessionTrace, TracingChannel};
use crate::workloads::{
    churn_batches, Flow, GeneratorScript, Inputs, Kind, SessionScript, Transport, Workload,
    CHURN_KINDS,
};

/// How long set-up waits for the bank's reservoirs to fill before the window
/// opens anyway (the shortfall then shows as fallback draws).
const BANK_FILL_TIMEOUT: Duration = Duration::from_secs(20);

/// What one set-up cost.
#[derive(Clone, Debug, Default)]
pub struct SetupSample {
    /// Workload start → window barrier.
    pub setup_s: f64,
    /// Frame bytes of one `connect` (model transfer + OT set-up), mean over
    /// the initial sessions.
    pub setup_bytes_per_session: f64,
    /// `MailroomClient::model_storage_bytes`, mean over the initial sessions.
    pub client_storage_bytes: f64,
    /// Each initial session's `connect` duration.
    pub connect_ms: Vec<f64>,
}

/// Bank counters read from `Mailroom::bank_report` over the window.
#[derive(Clone, Copy, Debug, Default)]
pub struct BankObserved {
    /// Artifacts sessions drew from the bank.
    pub draws: u64,
    /// Draws that found a reservoir dry.
    pub fallbacks: u64,
    /// Stock over all reservoirs when the window closed.
    pub depth_at_end: u64,
}

/// What the timed window measured.
#[derive(Clone, Debug, Default)]
pub struct WindowResult {
    /// Window wall time: barrier → the last generator's last reply.
    pub window_s: f64,
    /// Sum over generators of (its emails / its own barrier → last reply
    /// time). Equals emails / `window_s` when the generators stop together;
    /// when one runs on alone for a while (churn stops at cycle boundaries),
    /// the tail it spends alone does not dilute the rate.
    pub emails_per_s: f64,
    /// Emails whose call returned `Ok`.
    pub emails: u64,
    /// Emails submitted.
    pub attempted: u64,
    /// Emails whose call failed, whose verdict was wrong, or whose session
    /// the provider did not complete.
    pub failed: u64,
    /// Duration of every `process` / `process_batch` call, ascending.
    pub round_ns: Vec<u64>,
    /// On-CPU time of the generator threads.
    pub client_cpu_ns: u64,
    /// On-CPU time of the provider's threads.
    pub provider_cpu: ProviderCpu,
    /// Encoded frame bytes crossing the client ends, both directions. (The
    /// mailroom's fleet meter counts the same frames, but a provider-side
    /// reading races the last set-up frame still in flight at the barrier;
    /// the client ends are read by the threads that drive them.)
    pub net_bytes: u64,
    /// Frames crossing the client ends, both directions.
    pub messages: u64,
    /// Bank counters; `None` on bank-less workloads.
    pub bank: Option<BankObserved>,
    /// Sessions opened inside the window (churn), with their set-up costs.
    pub churn_setups: Vec<SetupSample>,
    /// Resident set growth from the eighth churn session to the window's end.
    pub rss_growth_mib: f64,
    /// `Mailroom::shutdown` duration.
    pub shutdown_ms: f64,
    /// Sessions the provider completed / did not complete.
    pub sessions_completed: u64,
    /// See `sessions_completed`.
    pub sessions_failed: u64,
    /// Channel-boundary traces (traced runs only).
    pub traces: Vec<SessionTrace>,
}

/// One run's outcome.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Every sampled set-up, the measured one last.
    pub setups: Vec<SetupSample>,
    /// The measured window.
    pub window: WindowResult,
}

impl RunResult {
    /// Median set-up time over the run's set-ups.
    pub fn setup_s(&self) -> f64 {
        median(&self.setups.iter().map(|s| s.setup_s).collect::<Vec<_>>())
    }
}

/// Run parameters that are not part of the workload definition.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Length of the timed window.
    pub seconds: f64,
    /// Set-ups per run: the first of several is discarded, the last one is
    /// measured, `setup_s` is the median of all but the first.
    pub setups: usize,
    /// Wrap both channel ends in a [`TracingChannel`].
    pub traced: bool,
    /// Replace the deadline by a call count per generator (steady flows) or
    /// a cycle count (churn), so byte and message counts repeat exactly:
    /// `--smoke` and the determinism tests.
    pub calls: Option<usize>,
}

type ClientChannel = Box<dyn Channel>;

/// The emails of one topic session: payload index and submitted candidates.
type TopicSubmissions = Vec<(usize, Vec<usize>)>;

/// Results a generator thread hands back.
#[derive(Default)]
struct GeneratorLog {
    round_ns: Vec<u64>,
    emails: u64,
    attempted: u64,
    failed: u64,
    cpu_ns: u64,
    net_bytes: u64,
    messages: u64,
    end: Option<Instant>,
    /// Per topic session: the payload index and submitted candidates of each
    /// email, in order — settled against the provider's report afterwards.
    topic_sessions: Vec<(usize, TopicSubmissions)>,
    churn_setups: Vec<SetupSample>,
    traces: Vec<SessionTrace>,
    /// Set when a call failed: the generator stopped early.
    error: Option<String>,
}

/// Everything both ends of a new session need.
struct Wiring {
    client_end: ClientChannel,
    client_meter: Meter,
    trace: Option<(EventLog, EventLog)>,
    submit_ns: u64,
    /// The id the mailroom gave the session (its index in the report).
    session: u64,
}

/// Opens channels to the mailroom: memory pairs are submitted directly, TCP
/// connections go through the acceptor like a socket-serving provider.
struct Connector<'a> {
    mailroom: &'a Mailroom,
    acceptor: Option<TcpAcceptor>,
    traced: bool,
    /// Serializes connect+accept so the accepted socket is the caller's.
    tcp_turn: Mutex<()>,
}

impl<'a> Connector<'a> {
    fn new(mailroom: &'a Mailroom, transport: Transport, traced: bool) -> Self {
        let acceptor = (transport == Transport::Tcp)
            .then(|| TcpAcceptor::bind("127.0.0.1:0").expect("bind a loopback port"));
        Connector {
            mailroom,
            acceptor,
            traced,
            tcp_turn: Mutex::new(()),
        }
    }

    /// Hands the provider end to the mailroom; returns the session's id.
    fn submit<C: Channel + 'static>(&self, provider_end: C, log: Option<EventLog>) -> u64 {
        let submitted = match log {
            Some(log) => self.mailroom.submit(TracingChannel::new(provider_end, log)),
            None => self.mailroom.submit(provider_end),
        };
        submitted.expect("the intake queue is sized for the workload")
    }

    fn open(&self) -> Wiring {
        let trace = self
            .traced
            .then(|| (EventLog::default(), EventLog::default()));
        let provider_log = trace.as_ref().map(|(_, p)| p.clone());
        let (raw, session): (ClientChannel, u64) = match &self.acceptor {
            None => {
                let (provider_end, client_end) = memory_pair();
                let session = self.submit(provider_end, provider_log);
                (Box::new(client_end), session)
            }
            Some(acceptor) => {
                let _turn = self.tcp_turn.lock().expect("tcp turn poisoned");
                let addr = acceptor.local_addr().expect("acceptor address");
                let client_end = TcpChannel::connect(addr).expect("connect over loopback");
                let (provider_end, _) = acceptor.accept().expect("accept over loopback");
                let session = self.submit(provider_end, provider_log);
                (Box::new(client_end), session)
            }
        };
        let submit_ns = now_ns();
        let metered = MeteredChannel::new(raw);
        let client_meter = metered.meter();
        let client_end: ClientChannel = match &trace {
            Some((client_log, _)) => Box::new(TracingChannel::new(metered, client_log.clone())),
            None => Box::new(metered),
        };
        Wiring {
            client_end,
            client_meter,
            trace,
            submit_ns,
            session,
        }
    }
}

/// Bytes and frames a meter has seen, both directions.
fn traffic(meter: &Meter) -> (u64, u64) {
    (
        meter.total_bytes(),
        meter.messages_sent() + meter.messages_received(),
    )
}

/// One connected session as the generator sees it.
struct Live {
    client: MailroomClient<ClientChannel>,
    /// The mailroom's id for the session (its index in the report).
    session: u64,
    meter: Meter,
    setup: SetupSample,
    trace: Option<SessionTrace>,
    logs: Option<(EventLog, EventLog)>,
}

fn connect(
    connector: &Connector,
    script: &SessionScript,
    rng: &mut StdRng,
) -> Result<Live, String> {
    let wiring = connector.open();
    let start = (Instant::now(), now_ns());
    let client = MailroomClient::connect(wiring.client_end, &script.spec, rng)
        .map_err(|e| format!("connect: {e}"))?;
    let connect_ms = start.0.elapsed().as_secs_f64() * 1e3;
    let setup = SetupSample {
        setup_s: 0.0,
        setup_bytes_per_session: traffic(&wiring.client_meter).0 as f64,
        client_storage_bytes: client.model_storage_bytes() as f64,
        connect_ms: vec![connect_ms],
    };
    let trace = wiring.trace.is_some().then(|| SessionTrace {
        session: wiring.session,
        submit_ns: wiring.submit_ns,
        connect: (start.1, now_ns()),
        ..SessionTrace::default()
    });
    Ok(Live {
        client,
        session: wiring.session,
        meter: wiring.client_meter,
        setup,
        trace,
        logs: wiring.trace,
    })
}

impl Live {
    /// Says goodbye and, on traced runs, collects both ends' events.
    fn finish(self) -> Option<SessionTrace> {
        let _ = self.client.finish();
        let (mut trace, (client_log, provider_log)) = self.trace.zip(self.logs)?;
        trace.client = client_log.take();
        trace.provider = provider_log.take();
        Some(trace)
    }
}

/// Submits payloads `batch` at a time until `stop` says so, checking every
/// verdict. Returns whether the session is still usable.
fn drive(
    live: &mut Live,
    script: &SessionScript,
    batch: usize,
    rng: &mut StdRng,
    log: &mut GeneratorLog,
    topic: &mut TopicSubmissions,
    mut stop: impl FnMut(usize) -> bool,
) -> bool {
    let mut cursor = 0usize;
    let mut calls = 0usize;
    while !stop(calls) {
        if cursor + batch > script.payloads.len() {
            if !script.cyclic {
                break; // a search script ran out: end this generator early
            }
            cursor = 0;
        }
        let payloads = &script.payloads[cursor..cursor + batch];
        log.attempted += batch as u64;
        let (t0, n0) = (Instant::now(), now_ns());
        let result: Result<Vec<Verdict>, _> = if batch == 1 {
            live.client.process(&payloads[0], rng).map(|v| vec![v])
        } else {
            live.client.process_batch(payloads, rng)
        };
        log.round_ns.push(t0.elapsed().as_nanos() as u64);
        if let Some(trace) = &mut live.trace {
            trace.rounds.push((n0, now_ns()));
        }
        calls += 1;
        match result {
            Ok(verdicts) => {
                log.emails += verdicts.len() as u64;
                for (offset, verdict) in verdicts.into_iter().enumerate() {
                    if !verdict_matches(&script.expected[cursor + offset], &verdict) {
                        log.failed += 1;
                    }
                    if let Verdict::Topic { candidates } = verdict {
                        topic.push((cursor + offset, candidates));
                    }
                }
            }
            Err(e) => {
                log.failed += batch as u64;
                log.error = Some(format!("{} round: {e}", script.kind.name()));
                return false;
            }
        }
        cursor += batch;
    }
    true
}

/// When a generator stops submitting.
#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    After(usize),
}

/// Barriers and the shared stop condition of the measured set-up.
struct Sync {
    connected: Barrier,
    start: Barrier,
    done: Barrier,
    stop: Mutex<Option<Stop>>,
}

impl Sync {
    fn stop(&self) -> Stop {
        self.stop
            .lock()
            .expect("stop poisoned")
            .expect("the stop condition is set before the start barrier")
    }
}

fn steady_generator(
    connector: &Connector,
    script: &GeneratorScript,
    batch: usize,
    measure: bool,
    sync: &Sync,
) -> (GeneratorLog, Option<SetupSample>) {
    let mut log = GeneratorLog::default();
    let mut rng = StdRng::seed_from_u64(script.rng_seed);
    let session = &script.sessions[0];
    let connected = connect(connector, session, &mut rng);
    sync.connected.wait();
    let mut live = match connected {
        Ok(live) => live,
        Err(e) => {
            // A session that never opened fails the run even if the other
            // generator's emails all pass.
            log.attempted += batch as u64;
            log.failed += batch as u64;
            log.error = Some(e);
            if measure {
                sync.start.wait();
                sync.done.wait();
            }
            return (log, None);
        }
    };
    let setup = live.setup.clone();
    if !measure {
        live.finish();
        return (log, Some(setup));
    }
    sync.start.wait();
    let stop = sync.stop();
    let cpu0 = procfs::thread_self_cpu_ns();
    let (bytes0, messages0) = traffic(&live.meter);
    let mut topic = Vec::new();
    drive(
        &mut live,
        session,
        batch,
        &mut rng,
        &mut log,
        &mut topic,
        |calls| match stop {
            Stop::At(deadline) => Instant::now() >= deadline,
            Stop::After(limit) => calls >= limit,
        },
    );
    log.cpu_ns = procfs::thread_self_cpu_ns() - cpu0;
    log.end = Some(Instant::now());
    let (bytes1, messages1) = traffic(&live.meter);
    (log.net_bytes, log.messages) = (bytes1 - bytes0, messages1 - messages0);
    if session.kind == Kind::Topic {
        log.topic_sessions.push((live.session as usize, topic));
    }
    sync.done.wait();
    log.traces.extend(live.finish());
    (log, Some(setup))
}

/// One cycle of churn: a session of every kind, generator `g` starting `g`
/// kinds in so the generators do not set up the same kind at the same time.
/// Returns whether every call succeeded.
fn churn_cycle(
    connector: &Connector,
    script: &GeneratorScript,
    g: usize,
    batch: usize,
    rng: &mut StdRng,
    log: &mut GeneratorLog,
) -> bool {
    for step in 0..CHURN_KINDS.len() {
        let session = &script.sessions[(step + g) % CHURN_KINDS.len()];
        let batches = churn_batches(session.kind);
        let mut live = match connect(connector, session, rng) {
            Ok(live) => live,
            Err(e) => {
                log.attempted += (batches * batch) as u64;
                log.failed += (batches * batch) as u64;
                log.error = Some(e);
                return false;
            }
        };
        log.churn_setups.push(live.setup.clone());
        let mut topic = Vec::new();
        let ok = drive(&mut live, session, batch, rng, log, &mut topic, |calls| {
            calls >= batches
        });
        if session.kind == Kind::Topic {
            log.topic_sessions.push((live.session as usize, topic));
        }
        let meter = live.meter.clone();
        log.traces.extend(live.finish());
        let (bytes, messages) = traffic(&meter);
        log.net_bytes += bytes;
        log.messages += messages;
        if !ok {
            return false;
        }
    }
    true
}

/// Churn set-up is one warm-up cycle per generator (caches filled, lazy
/// initialisation done, allocator grown); the window then runs whole cycles
/// only, so every run serves the same mix of kinds and per-email byte counts
/// repeat.
fn churn_generator(
    connector: &Connector,
    script: &GeneratorScript,
    g: usize,
    batch: usize,
    measure: bool,
    sync: &Sync,
) -> GeneratorLog {
    let mut rng = StdRng::seed_from_u64(script.rng_seed);
    let mut warm_up = GeneratorLog::default();
    let warm = churn_cycle(connector, script, g, batch, &mut rng, &mut warm_up);
    sync.connected.wait();
    // The warm-up's emails are not part of the window, but its failures and
    // its topic sessions (settled against the report) still count.
    let mut log = GeneratorLog {
        failed: warm_up.failed,
        error: warm_up.error,
        topic_sessions: warm_up.topic_sessions,
        ..GeneratorLog::default()
    };
    if !measure {
        return log;
    }
    sync.start.wait();
    let stop = sync.stop();
    let mut cycles = 0usize;
    let cpu0 = procfs::thread_self_cpu_ns();
    while warm
        && match stop {
            Stop::At(deadline) => Instant::now() < deadline,
            Stop::After(limit) => cycles < limit,
        }
    {
        cycles += 1;
        if !churn_cycle(connector, script, g, batch, &mut rng, &mut log) {
            break;
        }
    }
    log.cpu_ns = procfs::thread_self_cpu_ns() - cpu0;
    log.end = Some(Instant::now());
    sync.done.wait();
    log
}

fn mailroom_config(w: &Workload, inputs: &Inputs) -> MailroomConfig {
    let builder = MailroomConfig::builder()
        .workers(w.workers)
        .rng_seed(inputs.provider_seed);
    if w.bank {
        builder
            .bank(BankConfig::default().rng_seed(inputs.provider_seed ^ 0x4241_4e4b))
            .build()
    } else {
        builder.build()
    }
}

/// Counts what the provider's report says went wrong, and settles the topic
/// rounds: every index the provider learned must be the reference argmax over
/// the candidates the client submitted.
fn settle_report(
    report: &MailroomReport,
    inputs: &Inputs,
    logs: &[GeneratorLog],
    flow: Flow,
    window: &mut WindowResult,
) {
    for s in &report.sessions {
        if s.state == SessionState::Completed {
            window.sessions_completed += 1;
        } else {
            window.sessions_failed += 1;
            window.failed += 1;
        }
    }
    let oracle = Oracle::new(&inputs.suite);
    for (g, log) in logs.iter().enumerate() {
        for (session_id, submissions) in &log.topic_sessions {
            let script = match flow {
                Flow::Steady { .. } => &inputs.generators[g].sessions[0],
                Flow::Churn { .. } => inputs.generators[g]
                    .sessions
                    .iter()
                    .find(|s| s.kind == Kind::Topic)
                    .expect("churn scripts hold a topic session"),
            };
            let learned = &report.sessions[*session_id].topics;
            if learned.len() != submissions.len() {
                window.failed += learned.len().abs_diff(submissions.len()) as u64;
            }
            for ((payload, candidates), got) in submissions.iter().zip(learned) {
                let EmailPayload::Tokens(features) = &script.payloads[*payload] else {
                    unreachable!("topic payloads are token vectors");
                };
                if oracle.topic_reference(features, candidates) != Some(*got) {
                    window.failed += 1;
                }
            }
        }
    }
}

/// One set-up and, when `measure` is set, the timed window after it.
fn run_once(
    w: &Workload,
    inputs: &Inputs,
    options: &RunOptions,
    measure: bool,
) -> (SetupSample, Option<WindowResult>) {
    let setup_start = Instant::now();
    let mailroom = Mailroom::start(inputs.suite.clone(), mailroom_config(w, inputs));
    let connector = Connector::new(&mailroom, w.transport, options.traced && measure);
    let generators = inputs.generators.len();
    let sync = Sync {
        connected: Barrier::new(generators + 1),
        start: Barrier::new(generators + 1),
        done: Barrier::new(generators + 1),
        stop: Mutex::new(None),
    };

    let (setup, window, logs, window_start) = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .generators
            .iter()
            .enumerate()
            .map(|(g, script)| {
                let (connector, sync) = (&connector, &sync);
                scope.spawn(move || match w.flow {
                    Flow::Steady { batch, .. } => {
                        steady_generator(connector, script, batch, measure, sync)
                    }
                    Flow::Churn { batch } => (
                        churn_generator(connector, script, g, batch, measure, sync),
                        None,
                    ),
                })
            })
            .collect();

        sync.connected.wait();
        if w.bank {
            mailroom.wait_until_bank_full(BANK_FILL_TIMEOUT);
        }
        let setup_s = setup_start.elapsed().as_secs_f64();
        // Churn: the warm-up cycles are the first eight sessions.
        let rss_after_setup = procfs::rss_mib();

        let mut window_start = None;
        let window = measure.then(|| {
            let mut window = WindowResult::default();
            let cpu0 = procfs::provider_cpu();
            let bank0 = mailroom.bank_report();
            let start = Instant::now();
            window_start = Some(start);
            *sync.stop.lock().expect("stop poisoned") = Some(match options.calls {
                Some(calls) => Stop::After(calls),
                None => Stop::At(start + Duration::from_secs_f64(options.seconds)),
            });
            sync.start.wait();
            sync.done.wait();
            // Every generator is parked at `done`: the provider is idle.
            window.provider_cpu = procfs::provider_cpu().since(&cpu0);
            if w.bank {
                let bank1 = mailroom.bank_report();
                let fallbacks =
                    |r: &BankReport| -> u64 { r.reservoirs.iter().map(|s| s.fallback_draws).sum() };
                window.bank = Some(BankObserved {
                    draws: bank1.drawn_total() - bank0.drawn_total(),
                    fallbacks: fallbacks(&bank1) - fallbacks(&bank0),
                    depth_at_end: bank1.reservoirs.iter().map(|s| s.depth).sum(),
                });
            }
            if matches!(w.flow, Flow::Churn { .. }) {
                window.rss_growth_mib = procfs::rss_mib() - rss_after_setup;
            }
            window
        });

        let mut setups = Vec::new();
        let mut logs = Vec::new();
        for handle in handles {
            let (log, setup) = handle.join().expect("generator thread panicked");
            setups.extend(setup);
            logs.push(log);
        }
        let mean = |f: fn(&SetupSample) -> f64| {
            if setups.is_empty() {
                0.0
            } else {
                setups.iter().map(f).sum::<f64>() / setups.len() as f64
            }
        };
        let setup = SetupSample {
            setup_s,
            setup_bytes_per_session: mean(|s| s.setup_bytes_per_session),
            client_storage_bytes: mean(|s| s.client_storage_bytes),
            connect_ms: setups.iter().flat_map(|s| s.connect_ms.clone()).collect(),
        };
        (setup, window, logs, window_start)
    });

    let shutdown_start = Instant::now();
    let report = mailroom.shutdown();
    let shutdown_ms = shutdown_start.elapsed().as_secs_f64() * 1e3;

    let window = window.map(|mut window| {
        let start = window_start.expect("measured runs record their window start");
        window.shutdown_ms = shutdown_ms;
        for log in &logs {
            window.round_ns.extend(&log.round_ns);
            window.emails += log.emails;
            window.attempted += log.attempted;
            window.failed += log.failed;
            window.client_cpu_ns += log.cpu_ns;
            window.net_bytes += log.net_bytes;
            window.messages += log.messages;
            window.churn_setups.extend(log.churn_setups.iter().cloned());
            window.traces.extend(log.traces.iter().cloned());
            if let Some(e) = &log.error {
                eprintln!("benchmark: {}: {e}", w.name);
            }
            if let Some(end) = log.end {
                let active_s = end.duration_since(start).as_secs_f64();
                window.window_s = window.window_s.max(active_s);
                window.emails_per_s += log.emails as f64 / active_s.max(1e-9);
            }
        }
        window.round_ns.sort_unstable();
        settle_report(&report, inputs, &logs, w.flow, &mut window);
        window
    });
    (setup, window)
}

/// Runs `w`: `options.setups` set-ups, the last one measured. When several
/// are made the first is a throw-away — a process's first set-up is cold
/// (untouched pages, lazily built tables; 1.0 s against 0.5 s warm) — and
/// `setup_s` is the median of the rest.
pub fn run(w: &Workload, inputs: &Inputs, options: &RunOptions) -> RunResult {
    let setups = options.setups.max(1);
    let mut result = RunResult::default();
    for i in 0..setups {
        let (setup, window) = run_once(w, inputs, options, i + 1 == setups);
        if i > 0 || setups == 1 {
            result.setups.push(setup);
        }
        if let Some(window) = window {
            result.window = window;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Scale};

    fn smoke(name: &str, seed: u64, traced: bool) -> RunResult {
        let w = workloads::by_name(name).expect("known workload");
        let inputs = workloads::generate(&w, Scale::Smoke, seed, 64, 64);
        let calls = if matches!(w.flow, Flow::Churn { .. }) {
            1
        } else {
            4
        };
        let options = RunOptions {
            seconds: 0.0,
            setups: 1,
            traced,
            calls: Some(calls),
        };
        run(&w, &inputs, &options)
    }

    #[test]
    fn every_workload_runs_clean_at_smoke_scale() {
        for w in workloads::all() {
            let result = smoke(w.name, 3, false);
            let win = &result.window;
            assert_eq!(win.failed, 0, "{}", w.name);
            assert!(
                win.attempted > 0 && win.emails == win.attempted,
                "{}",
                w.name
            );
            assert_eq!(win.sessions_failed, 0, "{}", w.name);
            assert_eq!(win.bank.is_some(), w.bank, "{}", w.name);
            assert!(win.net_bytes > 0 && win.messages > 0, "{}", w.name);
            assert!(result.setup_s() > 0.0, "{}", w.name);
        }
    }

    #[test]
    fn the_same_seed_repeats_every_count_on_bank_less_workloads() {
        for name in ["spam_long", "topic_batch", "baseline_short"] {
            let (a, b) = (smoke(name, 5, false), smoke(name, 5, false));
            let counts = |r: &RunResult| {
                let s = r.setups.last().expect("one set-up");
                (
                    r.window.emails,
                    r.window.net_bytes,
                    r.window.messages,
                    s.setup_bytes_per_session.to_bits(),
                    s.client_storage_bytes.to_bits(),
                )
            };
            assert_eq!(counts(&a), counts(&b), "{name}");
        }
    }

    #[test]
    fn a_traced_run_tiles_every_round() {
        for name in ["spam_short_bank", "mixed_churn"] {
            let result = smoke(name, 9, true);
            assert_eq!(result.window.failed, 0, "{name}");
            let traces = &result.window.traces;
            assert!(!traces.is_empty(), "{name}");
            let totals = crate::trace::totals(traces);
            assert_eq!(
                totals.rounds as usize,
                result.window.round_ns.len(),
                "{name}"
            );
            assert_eq!(totals.attributed_ns(), totals.round_ns, "{name}");
            assert!(traces.iter().all(|t| t.queue_wait_ns().is_some()), "{name}");
            // The decorator sees the same frames the client meter counts,
            // minus each session's set-up and goodbye.
            assert!(
                totals.bytes > 0 && totals.bytes <= result.window.net_bytes,
                "{name}"
            );
        }
    }

    #[test]
    fn a_wrong_topic_index_in_the_report_is_counted() {
        let w = workloads::by_name("topic_batch").expect("known workload");
        let inputs = workloads::generate(&w, Scale::Smoke, 2, 16, 0);
        let features = match &inputs.generators[0].sessions[0].payloads[0] {
            EmailPayload::Tokens(f) => f.clone(),
            other => panic!("unexpected payload {other:?}"),
        };
        let oracle = Oracle::new(&inputs.suite);
        let candidates = vec![0, 1, 2];
        let truth = oracle.topic_reference(&features, &candidates).unwrap();
        let session = |topics: Vec<usize>| pretzel_server::SessionStats {
            id: 0,
            kind: Some(2),
            kind_name: Some("topic"),
            version: None,
            capabilities: pretzel_server::Capabilities::NONE,
            state: SessionState::Completed,
            emails: 1,
            topics,
            bytes_sent: 0,
            bytes_received: 0,
            messages: 0,
            pool_depth: 0,
            pools: Vec::new(),
            fallback_draws: 0,
        };
        let report = |topics: Vec<usize>| MailroomReport {
            sessions: vec![session(topics)],
            emails_total: 1,
            fleet_bytes_sent: 0,
            fleet_bytes_received: 0,
            fleet_messages: 0,
            pool_depth_total: 0,
            reservoirs: Vec::new(),
        };
        let logs = [GeneratorLog {
            topic_sessions: vec![(0, vec![(0, candidates)])],
            ..GeneratorLog::default()
        }];
        let settle = |topics: Vec<usize>| {
            let mut window = WindowResult::default();
            settle_report(&report(topics), &inputs, &logs, w.flow, &mut window);
            window.failed
        };
        assert_eq!(settle(vec![truth]), 0);
        assert_eq!(settle(vec![(truth + 1) % 3]), 1);
        assert_eq!(settle(vec![]), 1);
    }
}
