//! Channel-boundary tracing: a [`Channel`] decorator the benchmark owns, and
//! the spans built from what it records.
//!
//! In a traced run both ends of every session are wrapped in a
//! [`TracingChannel`] — the client end handed to `MailroomClient::connect`,
//! the provider end handed to `Mailroom::submit` — which records one event
//! per `send`/`recv` (start, end, bytes) in memory. Nothing inside the
//! program is instrumented (ROADMAP item 1 will add that); the split *below*
//! the channel boundary is modelled from probe unit costs in `model.rs`.
//!
//! Spans form this tree, `session` and `round` carrying their ids:
//!
//! ```text
//! session
//! ├─ connect
//! └─ round                       one process / process_batch call
//!    ├─ client.compute           gaps between the client's channel calls
//!    ├─ client.send
//!    └─ client.recv_wait         the client blocked in recv; inside it,
//!       ├─ provider.compute      gaps between the provider's channel calls
//!       ├─ provider.send
//!       └─ provider.recv_wait    both sides waiting: the frame is in flight
//!                                or its reader has not been scheduled yet
//! ```
//!
//! The children of a span tile it, so a round's time is exactly the sum of
//! its leaves' self times: that is the blocking path of the round. Provider
//! work that overlaps client compute is off that path and reported apart
//! (`provider_overlap_ns`).

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use pretzel_bench::JsonValue;
use pretzel_transport::{Channel, Result};

/// Nanoseconds since the process-wide trace epoch (first use).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A channel call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `send` — ends when the frame is handed to the transport.
    Send,
    /// `recv` — starts when the caller blocks, ends when a frame arrived.
    Recv,
}

/// One recorded channel call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Which call.
    pub call: Call,
    /// Start, in [`now_ns`] time.
    pub start_ns: u64,
    /// End, in [`now_ns`] time.
    pub end_ns: u64,
    /// Frame bytes as seen at this boundary (encoded frames: the decorator
    /// sits below the session codec).
    pub bytes: u64,
}

/// The events of one channel end. Each end is driven by one thread at a
/// time, so the lock is never contended; it exists because the provider end
/// is owned (and dropped) by a mailroom worker.
#[derive(Clone, Default)]
pub struct EventLog(Arc<Mutex<Vec<Event>>>);

impl EventLog {
    fn push(&self, event: Event) {
        self.0.lock().expect("event log poisoned").push(event);
    }

    /// Takes the recorded events out of the log.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.0.lock().expect("event log poisoned"))
    }
}

/// Records every `send`/`recv` crossing it into an [`EventLog`].
pub struct TracingChannel<C: Channel> {
    inner: C,
    log: EventLog,
}

impl<C: Channel> TracingChannel<C> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: C, log: EventLog) -> Self {
        TracingChannel { inner, log }
    }
}

impl<C: Channel> Channel for TracingChannel<C> {
    fn send(&mut self, msg: &[u8]) -> Result<()> {
        let start_ns = now_ns();
        self.inner.send(msg)?;
        self.log.push(Event {
            call: Call::Send,
            start_ns,
            end_ns: now_ns(),
            bytes: msg.len() as u64,
        });
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>> {
        let start_ns = now_ns();
        let msg = self.inner.recv()?;
        self.log.push(Event {
            call: Call::Recv,
            start_ns,
            end_ns: now_ns(),
            bytes: msg.len() as u64,
        });
        Ok(msg)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }
}

/// Everything recorded about one traced session.
#[derive(Clone, Debug, Default)]
pub struct SessionTrace {
    /// Session number within the run.
    pub session: u64,
    /// `submit` return → the provider end's first `recv` (a worker picked
    /// the session up), if the provider end was ever read.
    pub submit_ns: u64,
    /// The `connect` call.
    pub connect: (u64, u64),
    /// Each `process` / `process_batch` call, in order.
    pub rounds: Vec<(u64, u64)>,
    /// Client-end channel events.
    pub client: Vec<Event>,
    /// Provider-end channel events.
    pub provider: Vec<Event>,
}

impl SessionTrace {
    /// How long the session waited in the intake queue.
    pub fn queue_wait_ns(&self) -> Option<u64> {
        let first = self.provider.iter().find(|e| e.call == Call::Recv)?;
        Some(first.start_ns.saturating_sub(self.submit_ns))
    }
}

/// One span. `parent` indexes the same span list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span name (see the module docs for the tree).
    pub name: &'static str,
    /// Start, in [`now_ns`] time.
    pub start_ns: u64,
    /// End, in [`now_ns`] time.
    pub end_ns: u64,
    /// Index of the parent span, `None` for `session`.
    pub parent: Option<usize>,
    /// Session the span belongs to.
    pub session: u64,
    /// Round within the session, for `round` and its descendants.
    pub round: Option<u64>,
    /// Frame bytes moved by a send/recv_wait span.
    pub bytes: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of it its children
/// cover (children are clipped to the parent; siblings never overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            let start = span.start_ns.max(spans[p].start_ns);
            let end = span.end_ns.min(spans[p].end_ns);
            own[p] = own[p].saturating_sub(end.saturating_sub(start));
        }
    }
    own
}

struct SpanBuilder {
    spans: Vec<Span>,
    session: u64,
}

/// Span names of one side's timeline.
struct SideNames {
    compute: &'static str,
    send: &'static str,
    recv_wait: &'static str,
}

const CLIENT: SideNames = SideNames {
    compute: "client.compute",
    send: "client.send",
    recv_wait: "client.recv_wait",
};

const PROVIDER: SideNames = SideNames {
    compute: "provider.compute",
    send: "provider.send",
    recv_wait: "provider.recv_wait",
};

impl SpanBuilder {
    fn push(
        &mut self,
        name: &'static str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<usize>,
        round: Option<u64>,
        bytes: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            session: self.session,
            round,
            bytes,
        });
        self.spans.len() - 1
    }

    /// Tiles `[start, end]` under `parent` with one span per event that
    /// overlaps it (clipped) and a compute span for every gap. Returns the
    /// indices of the recv spans so the caller can nest inside them.
    fn tile(
        &mut self,
        events: &[Event],
        (start, end): (u64, u64),
        parent: usize,
        round: u64,
        names: &SideNames,
    ) -> Vec<usize> {
        let SideNames {
            compute,
            send,
            recv_wait,
        } = *names;
        let mut recvs = Vec::new();
        let mut cursor = start;
        for e in events {
            if e.end_ns <= start || e.start_ns >= end {
                continue;
            }
            let (s, t) = (e.start_ns.max(cursor), e.end_ns.min(end));
            if s > cursor {
                self.push(compute, (cursor, s), Some(parent), Some(round), 0);
            }
            if t > s {
                let name = match e.call {
                    Call::Send => send,
                    Call::Recv => recv_wait,
                };
                let idx = self.push(name, (s, t), Some(parent), Some(round), e.bytes);
                if e.call == Call::Recv {
                    recvs.push(idx);
                }
            }
            cursor = cursor.max(t);
        }
        if end > cursor {
            self.push(compute, (cursor, end), Some(parent), Some(round), 0);
        }
        recvs
    }
}

/// Builds the span tree of one traced session.
pub fn build_spans(trace: &SessionTrace) -> Vec<Span> {
    let mut b = SpanBuilder {
        spans: Vec::new(),
        session: trace.session,
    };
    let session_end = trace.rounds.last().map_or(trace.connect.1, |r| r.1);
    let root = b.push("session", (trace.connect.0, session_end), None, None, 0);
    b.push("connect", trace.connect, Some(root), None, 0);
    for (r, &interval) in trace.rounds.iter().enumerate() {
        let r = r as u64;
        let round = b.push("round", interval, Some(root), Some(r), 0);
        let waits = b.tile(&trace.client, interval, round, r, &CLIENT);
        for wait in waits {
            let inside = (b.spans[wait].start_ns, b.spans[wait].end_ns);
            b.tile(&trace.provider, inside, wait, r, &PROVIDER);
        }
    }
    b.spans
}

/// Per-run totals over every traced session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceTotals {
    /// Sum of `round` span durations.
    pub round_ns: u64,
    /// Self time by span name, over the descendants of `round` spans.
    pub self_ns: Vec<(&'static str, u64)>,
    /// Provider compute + send that overlapped client compute or send
    /// (off the blocking path).
    pub provider_overlap_ns: u64,
    /// Provider time blocked in `recv` over the traced window, all of it
    /// (the blocking path only holds the part inside client waits).
    pub provider_recv_wait_ns: u64,
    /// Frames crossing the client end inside rounds.
    pub messages: u64,
    /// Frame bytes crossing the client end inside rounds.
    pub bytes: u64,
    /// `round` spans.
    pub rounds: u64,
    /// Sum over sessions of first round start → last round end.
    pub window_ns: u64,
}

impl TraceTotals {
    /// Self time of one span name.
    pub fn self_of(&self, name: &str) -> u64 {
        self.self_ns
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, ns)| *ns)
    }

    /// Sum of the leaves' self times — equals `round_ns` when the tiling
    /// holds (the acceptance check).
    pub fn attributed_ns(&self) -> u64 {
        LEAVES.iter().map(|name| self.self_of(name)).sum()
    }
}

/// Leaf span names of the blocking path, in reporting order.
pub const LEAVES: [&str; 5] = [
    "client.compute",
    "client.send",
    "provider.compute",
    "provider.send",
    "provider.recv_wait",
];

fn overlap(a: (u64, u64), b: (u64, u64)) -> u64 {
    a.1.min(b.1).saturating_sub(a.0.max(b.0))
}

/// Aggregates the traces of a run.
pub fn totals(traces: &[SessionTrace]) -> TraceTotals {
    let mut t = TraceTotals::default();
    let mut by_name: Vec<(&'static str, u64)> = Vec::new();
    for trace in traces {
        let spans = build_spans(trace);
        let own = self_times(&spans);
        for (span, &ns) in spans.iter().zip(&own) {
            if span.round.is_none() {
                continue;
            }
            if span.name == "round" {
                t.round_ns += span.duration_ns();
                t.rounds += 1;
            }
            if matches!(span.name, "client.send" | "client.recv_wait") {
                t.messages += 1;
                t.bytes += span.bytes;
            }
            match by_name.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, total)) => *total += ns,
                None => by_name.push((span.name, ns)),
            }
        }
        let Some(window) = trace
            .rounds
            .first()
            .zip(trace.rounds.last())
            .map(|(a, b)| (a.0, b.1))
        else {
            continue;
        };
        // Provider busy time = the window minus its recv waits; the part of
        // it not inside a client wait overlapped client work.
        let recv_wait: u64 = trace
            .provider
            .iter()
            .filter(|e| e.call == Call::Recv)
            .map(|e| overlap((e.start_ns, e.end_ns), window))
            .sum();
        t.provider_recv_wait_ns += recv_wait;
        t.window_ns += window.1 - window.0;
        let busy = (window.1 - window.0).saturating_sub(recv_wait);
        let on_path: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| matches!(s.name, "provider.compute" | "provider.send"))
            .map(|(_, &ns)| ns)
            .sum();
        t.provider_overlap_ns += busy.saturating_sub(on_path);
    }
    t.self_ns = by_name;
    t
}

/// Renders spans as the JSON array a results file carries.
pub fn spans_json(spans: &[Span]) -> JsonValue {
    JsonValue::Arr(
        spans
            .iter()
            .map(|s| {
                JsonValue::obj([
                    ("name", JsonValue::Str(s.name.into())),
                    ("start_ns", JsonValue::Int(s.start_ns)),
                    ("end_ns", JsonValue::Int(s.end_ns)),
                    (
                        "parent",
                        s.parent
                            .map_or(JsonValue::Num(f64::NAN), |p| JsonValue::Int(p as u64)),
                    ),
                    ("session", JsonValue::Int(s.session)),
                    (
                        "round",
                        s.round.map_or(JsonValue::Num(f64::NAN), JsonValue::Int),
                    ),
                    ("bytes", JsonValue::Int(s.bytes)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_transport::memory_pair;

    fn ev(call: Call, start_ns: u64, end_ns: u64) -> Event {
        Event {
            call,
            start_ns,
            end_ns,
            bytes: 10,
        }
    }

    #[test]
    fn self_time_is_duration_minus_clipped_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            session: 0,
            round: None,
            bytes: 0,
        };
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 110, 130, Some(0)),
            span("b", 150, 260, Some(0)), // sticks out: clipped to 150..200
            span("a.1", 115, 120, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 50, 20 - 5, 110, 5]);
    }

    #[test]
    fn a_round_is_tiled_by_its_leaves() {
        // Client: compute 0..10, send 10..12, wait 12..40, compute 40..50.
        // Provider: waiting since before the round until 14 (frame in
        // flight 12..14), compute 14..30, send 30..33, waits again from 33.
        let trace = SessionTrace {
            session: 3,
            submit_ns: 0,
            connect: (0, 0),
            rounds: vec![(0, 50)],
            client: vec![ev(Call::Send, 10, 12), ev(Call::Recv, 12, 40)],
            provider: vec![
                ev(Call::Recv, 0, 14),
                ev(Call::Send, 30, 33),
                ev(Call::Recv, 33, 90),
            ],
        };
        let t = totals(std::slice::from_ref(&trace));
        assert_eq!(t.round_ns, 50);
        assert_eq!(t.rounds, 1);
        assert_eq!(t.self_of("client.compute"), 20);
        assert_eq!(t.self_of("client.send"), 2);
        assert_eq!(t.self_of("client.recv_wait"), 0); // fully tiled
        assert_eq!(t.self_of("provider.recv_wait"), 2 + 7);
        assert_eq!(t.self_of("provider.compute"), 16);
        assert_eq!(t.self_of("provider.send"), 3);
        assert_eq!(t.attributed_ns(), t.round_ns);
        assert_eq!(t.messages, 2);
        assert_eq!(t.bytes, 20);
        // Provider was busy 14..33 only, all of it inside the client's wait.
        assert_eq!(t.provider_overlap_ns, 0);
        assert_eq!(t.provider_recv_wait_ns, 14 + 17);

        let spans = build_spans(&trace);
        assert_eq!(spans[0].name, "session");
        assert!(spans.iter().skip(2).all(|s| s.round == Some(0)));
        assert!(spans.iter().all(|s| s.session == 3));
        let wait = spans.iter().position(|s| s.name == "client.recv_wait");
        assert!(spans
            .iter()
            .filter(|s| s.name.starts_with("provider."))
            .all(|s| s.parent == wait));
    }

    #[test]
    fn provider_work_during_client_compute_is_off_the_blocking_path() {
        // The provider computes 5..25 while the client computes 0..20.
        let trace = SessionTrace {
            rounds: vec![(0, 40)],
            client: vec![ev(Call::Recv, 20, 40)],
            provider: vec![
                ev(Call::Recv, 0, 5),
                ev(Call::Send, 25, 26),
                ev(Call::Recv, 26, 40),
            ],
            ..SessionTrace::default()
        };
        let t = totals(&[trace]);
        assert_eq!(t.self_of("client.compute"), 20);
        assert_eq!(t.self_of("provider.compute"), 5); // 20..25
        assert_eq!(t.self_of("provider.send"), 1);
        assert_eq!(t.provider_overlap_ns, 15); // 5..20
        assert_eq!(t.attributed_ns(), 40);
    }

    #[test]
    fn the_decorator_records_both_directions_and_queue_wait() {
        let (a, b) = memory_pair();
        let (log_a, log_b) = (EventLog::default(), EventLog::default());
        let mut a = TracingChannel::new(a, log_a.clone());
        let mut b = TracingChannel::new(b, log_b.clone());
        a.send(b"hello").unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        b.send(b"hi").unwrap();
        assert_eq!(a.recv().unwrap(), b"hi");
        let (ea, eb) = (log_a.take(), log_b.take());
        assert_eq!(
            ea.iter().map(|e| (e.call, e.bytes)).collect::<Vec<_>>(),
            vec![(Call::Send, 5), (Call::Recv, 2)]
        );
        assert_eq!(eb[0].call, Call::Recv);
        assert!(ea.iter().chain(&eb).all(|e| e.end_ns >= e.start_ns));
        let trace = SessionTrace {
            submit_ns: eb[0].start_ns.saturating_sub(7),
            provider: eb,
            ..SessionTrace::default()
        };
        assert!(trace.queue_wait_ns().unwrap() <= 7);
        assert!(log_a.take().is_empty());
    }
}
