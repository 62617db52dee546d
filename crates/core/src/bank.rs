//! The fleet-wide precompute bank with background production.
//!
//! **No production code draws from it.** Every built-in module makes what
//! its rounds need inline, so nothing is left to stock. The bank stays only
//! because the repo's benchmark (`benchmark/src/{probes,runner}.rs`)
//! configures it and prices production and a draw; the benchmark-only
//! change that stops doing so is what lets this module go. A mailroom
//! started with `MailroomConfigBuilder::bank` runs its producer threads
//! idle.
//!
//! * **Reservoirs.** Artifacts are stored in reservoirs keyed by
//!   [`ReservoirId`] — an artifact *kind* plus a 64-bit *fingerprint* binding
//!   the reservoir to its parameters. The benchmark's probe registers one
//!   reservoir of garbled spam circuits ([`KIND_GARBLINGS`]).
//! * **Background producers.** [`PrecomputeBank::start`] spawns producer
//!   threads that keep reservoirs filled to their targets using idle cores,
//!   always topping up the reservoir with the largest relative deficit, and
//!   park on a condvar once every reservoir is full — they never spin
//!   against the serving path.
//! * **Watermark hysteresis.** A reservoir is refilled once a draw dips it
//!   below a quarter of its target, and then back up to the target; draws
//!   above that mark cost no production CPU.
//! * **One lock per reservoir.** A reservoir's queue and its counters live
//!   under one mutex, so every snapshot — live or taken when its last
//!   registration is released — balances: `produced == drawn + depth`.
//! * **Inline fallback, counted.** [`PrecomputeSource::draw`] returns `None`
//!   when a reservoir is dry; callers fall back to producing inline and
//!   report it via [`PrecomputeSource::record_fallback`], making pool-dry
//!   events directly observable ([`BankReport`]).
//!
//! Consumption goes through the object-safe [`PrecomputeSource`] trait
//! ([`PrecomputeBank::handle`]).

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Kind name for precomputed garbled circuits. No built-in module registers
/// it; it stays because the benchmark's bank probe
/// (`benchmark/src/probes.rs`) prices production with garblings.
pub const KIND_GARBLINGS: &str = "garblings";

/// A type-erased precomputed artifact. Callers downcast to the concrete type
/// they registered the producer for.
pub type Artifact = Box<dyn Any + Send>;

/// A producer closure: given an RNG, manufactures one artifact. Runs on bank
/// producer threads, so it must be `Send + Sync` and self-contained.
pub type Producer = Arc<dyn Fn(&mut dyn RngCore) -> Artifact + Send + Sync>;

/// Identifies one reservoir: an artifact kind plus a parameter fingerprint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReservoirId {
    /// Artifact kind — one of the `KIND_*` constants (or a custom name for
    /// modules registered from outside the core crate).
    pub kind: &'static str,
    /// Binds the reservoir to its parameters (for garblings, the circuit's
    /// fingerprint).
    pub fingerprint: u64,
}

impl ReservoirId {
    /// A reservoir id for `kind` with parameter fingerprint `fingerprint`.
    pub fn new(kind: &'static str, fingerprint: u64) -> Self {
        ReservoirId { kind, fingerprint }
    }

    /// Garblings for the circuit with the given fingerprint. Kept for the
    /// benchmark's bank probe (`benchmark/src/probes.rs`); no built-in
    /// module draws garblings.
    pub fn garblings(fingerprint: u64) -> Self {
        Self::new(KIND_GARBLINGS, fingerprint)
    }
}

impl fmt::Display for ReservoirId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{:016x}", self.kind, self.fingerprint)
    }
}

/// Everything the bank needs to own a reservoir: identity, an optional
/// target depth override, and the producer closure.
#[derive(Clone)]
pub struct ReservoirSpec {
    /// Which reservoir this spec describes.
    pub id: ReservoirId,
    /// Target depth; `None` uses the bank's [`BankConfig::target`].
    pub target: Option<usize>,
    /// Manufactures one artifact.
    pub producer: Producer,
}

impl ReservoirSpec {
    /// A spec with the bank's default target.
    pub fn new(id: ReservoirId, producer: Producer) -> Self {
        ReservoirSpec {
            id,
            target: None,
            producer,
        }
    }

    /// Overrides the reservoir's target depth (the benchmark's bank probe,
    /// `benchmark/src/probes.rs`, sets one).
    pub fn with_target(mut self, target: usize) -> Self {
        self.target = Some(target);
        self
    }
}

impl fmt::Debug for ReservoirSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReservoirSpec")
            .field("id", &self.id)
            .field("target", &self.target)
            .finish_non_exhaustive()
    }
}

/// Object-safe handle through which precomputed artifacts are registered
/// and drawn, with an inline fallback when a draw returns `None`.
pub trait PrecomputeSource: Send + Sync {
    /// Registers (or re-registers) a reservoir. Registration is refcounted:
    /// a second registration of the same id shares the reservoir and raises
    /// its target to the maximum requested.
    fn register(&self, spec: ReservoirSpec);

    /// Drops one registration of `id`; the last release retires the
    /// reservoir (its accounting is kept for the final report).
    fn release(&self, id: &ReservoirId);

    /// Draws one artifact; `None` when dry (caller falls back inline and
    /// should call [`record_fallback`](PrecomputeSource::record_fallback)).
    fn draw(&self, id: &ReservoirId) -> Option<Artifact>;

    /// Current depth of `id`'s reservoir; `None` if the source holds no such
    /// reservoir.
    fn depth(&self, id: &ReservoirId) -> Option<usize>;

    /// Records that a draw came up dry and the caller produced inline.
    fn record_fallback(&self, id: &ReservoirId);
}

/// Bank tuning: producer threads, reservoir target, producer seed. A
/// reservoir is refilled once it drops below a quarter of its target, and
/// back up to the target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BankConfig {
    /// Background producer threads (each with its own seeded RNG).
    pub producer_threads: usize,
    /// Target depth for reservoirs without an explicit target.
    pub target: usize,
    /// Seed for the producer threads' RNGs.
    pub rng_seed: u64,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig {
            producer_threads: 1,
            target: 32,
            rng_seed: 0x4241_4e4b_5052_4543, // "BANKPREC"
        }
    }
}

impl BankConfig {
    /// Sets the number of producer threads.
    pub fn producer_threads(mut self, n: usize) -> Self {
        self.producer_threads = n.max(1);
        self
    }

    /// Sets the target depth of reservoirs registered without one.
    pub fn target(mut self, n: usize) -> Self {
        self.target = n;
        self
    }

    /// Seeds the producer RNGs.
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }
}

/// A reservoir's stock and books, kept together under one lock.
#[derive(Default)]
struct Books {
    ready: VecDeque<Artifact>,
    target: usize,
    /// Hysteresis arm: producers fill this reservoir only while set. Armed
    /// on registration (and re-registration), cleared once the stock reaches
    /// the target, re-armed when a draw dips it below a quarter of the
    /// target — so a reservoir drained partway costs no production CPU.
    producing: bool,
    /// Production slots reserved by producers, so concurrent producers
    /// never overshoot the target.
    in_flight: usize,
    produced: u64,
    drawn: u64,
    fallback_draws: u64,
    refs: usize,
}

impl Books {
    fn low_mark(&self) -> usize {
        self.target / 4
    }
}

struct Reservoir {
    id: ReservoirId,
    producer: Producer,
    books: Mutex<Books>,
}

impl Reservoir {
    fn books(&self) -> MutexGuard<'_, Books> {
        self.books
            .lock()
            .expect("a thread panicked holding a reservoir lock")
    }

    fn stats(&self, books: &Books) -> ReservoirStats {
        ReservoirStats {
            kind: self.id.kind,
            fingerprint: self.id.fingerprint,
            target: books.target,
            depth: books.ready.len() as u64,
            produced: books.produced,
            drawn: books.drawn,
            fallback_draws: books.fallback_draws,
        }
    }

    /// Stocks an artifact a producer finished. One finished after the
    /// reservoir retired lands where nothing can reach it and is dropped,
    /// uncounted, with the reservoir: the retired row is a snapshot.
    fn stock(&self, artifact: Artifact) {
        let mut books = self.books();
        books.in_flight -= 1;
        books.ready.push_back(artifact);
        books.produced += 1;
    }
}

struct BankInner {
    cfg: BankConfig,
    reservoirs: Mutex<BTreeMap<ReservoirId, Arc<Reservoir>>>,
    /// Reservoirs retired by their last `release`, kept for the final report.
    retired: Mutex<Vec<ReservoirStats>>,
    /// Fallbacks recorded against ids that were never registered.
    orphan_fallbacks: Mutex<BTreeMap<ReservoirId, u64>>,
    work: Condvar,
    work_lock: Mutex<()>,
    shutdown: AtomicBool,
}

impl BankInner {
    fn wake(&self) {
        let _guard = self.work_lock.lock().unwrap();
        self.work.notify_all();
    }

    /// Picks the armed reservoir with the largest relative deficit and
    /// reserves one production slot on it.
    fn pick_work(&self) -> Option<Arc<Reservoir>> {
        let map = self.reservoirs.lock().unwrap();
        let mut best: Option<(usize, &Arc<Reservoir>)> = None;
        for res in map.values() {
            let mut books = res.books();
            let filled = books.ready.len() + books.in_flight;
            if filled >= books.target {
                books.producing = false;
                continue;
            }
            if !books.producing {
                continue;
            }
            let deficit_pm = (books.target - filled) * 1000 / books.target;
            if best.is_none_or(|(b, _)| deficit_pm > b) {
                best = Some((deficit_pm, res));
            }
        }
        // Still under the map lock, so no other producer picked in between.
        best.map(|(_, res)| {
            res.books().in_flight += 1;
            Arc::clone(res)
        })
    }

    fn get(&self, id: &ReservoirId) -> Option<Arc<Reservoir>> {
        self.reservoirs.lock().unwrap().get(id).cloned()
    }
}

/// Cloneable, object-safe handle onto a running [`PrecomputeBank`] — the
/// concrete [`PrecomputeSource`] sessions are handed.
#[derive(Clone)]
pub struct BankHandle {
    inner: Arc<BankInner>,
}

impl PrecomputeSource for BankHandle {
    fn register(&self, spec: ReservoirSpec) {
        let target = spec.target.unwrap_or(self.inner.cfg.target);
        {
            let mut map = self.inner.reservoirs.lock().unwrap();
            match map.get(&spec.id) {
                Some(res) => {
                    let mut books = res.books();
                    books.refs += 1;
                    books.target = books.target.max(target);
                    // Re-arm: a raised target may have reopened a deficit
                    // (a no-op arm is cleared on the next producer scan).
                    books.producing = true;
                }
                None => {
                    let books = Books {
                        target,
                        producing: true,
                        refs: 1,
                        ..Books::default()
                    };
                    let res = Reservoir {
                        id: spec.id,
                        producer: spec.producer,
                        books: Mutex::new(books),
                    };
                    map.insert(spec.id, Arc::new(res));
                }
            }
        }
        self.inner.wake();
    }

    fn release(&self, id: &ReservoirId) {
        let mut map = self.inner.reservoirs.lock().unwrap();
        let Some(res) = map.get(id) else {
            return;
        };
        let mut books = res.books();
        books.refs -= 1;
        if books.refs == 0 {
            let row = res.stats(&books);
            drop(books);
            map.remove(id);
            self.inner.retired.lock().unwrap().push(row);
        }
    }

    fn draw(&self, id: &ReservoirId) -> Option<Artifact> {
        let res = self.inner.get(id)?;
        let mut books = res.books();
        let artifact = books.ready.pop_front()?;
        books.drawn += 1;
        if books.ready.len() < books.low_mark() && !books.producing {
            books.producing = true;
            drop(books);
            self.inner.wake();
        }
        Some(artifact)
    }

    fn depth(&self, id: &ReservoirId) -> Option<usize> {
        self.inner.get(id).map(|res| res.books().ready.len())
    }

    fn record_fallback(&self, id: &ReservoirId) {
        match self.inner.get(id) {
            Some(res) => res.books().fallback_draws += 1,
            None => {
                *self
                    .inner
                    .orphan_fallbacks
                    .lock()
                    .unwrap()
                    .entry(*id)
                    .or_insert(0) += 1;
            }
        }
    }
}

/// Final (or snapshot) accounting for one reservoir.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReservoirStats {
    /// Artifact kind.
    pub kind: &'static str,
    /// Parameter fingerprint.
    pub fingerprint: u64,
    /// Target depth at the time of the snapshot.
    pub target: usize,
    /// Artifacts stocked at the time of the snapshot (for a retired
    /// reservoir: what was left when it retired).
    pub depth: u64,
    /// Artifacts manufactured by producer threads.
    pub produced: u64,
    /// Artifacts handed out to sessions.
    pub drawn: u64,
    /// Draws that found the reservoir dry.
    pub fallback_draws: u64,
}

/// Per-kind accounting across every reservoir the bank has owned, returned
/// by [`PrecomputeBank::report`] and [`PrecomputeBank::shutdown`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BankReport {
    /// One row per reservoir (live and retired), sorted by id.
    pub reservoirs: Vec<ReservoirStats>,
}

impl BankReport {
    /// Total stocked depth across every reservoir of `kind`.
    pub fn depth_by_kind(&self, kind: &str) -> u64 {
        self.reservoirs
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.depth)
            .sum()
    }

    /// Total dry draws across every reservoir of `kind`.
    pub fn fallbacks_by_kind(&self, kind: &str) -> u64 {
        self.reservoirs
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.fallback_draws)
            .sum()
    }

    /// Total artifacts manufactured by producer threads.
    pub fn produced_total(&self) -> u64 {
        self.reservoirs.iter().map(|r| r.produced).sum()
    }

    /// Total artifacts handed out to sessions.
    pub fn drawn_total(&self) -> u64 {
        self.reservoirs.iter().map(|r| r.drawn).sum()
    }
}

/// The running bank: owns the producer threads; hand out draw handles with
/// [`PrecomputeBank::handle`].
pub struct PrecomputeBank {
    inner: Arc<BankInner>,
    producers: Mutex<Vec<JoinHandle<()>>>,
}

impl PrecomputeBank {
    /// Starts the bank: spawns `cfg.producer_threads` background producers
    /// (each parked until a reservoir is registered).
    pub fn start(cfg: BankConfig) -> Self {
        let threads = cfg.producer_threads.max(1);
        let inner = Arc::new(BankInner {
            cfg,
            reservoirs: Mutex::new(BTreeMap::new()),
            retired: Mutex::new(Vec::new()),
            orphan_fallbacks: Mutex::new(BTreeMap::new()),
            work: Condvar::new(),
            work_lock: Mutex::new(()),
            shutdown: AtomicBool::new(false),
        });
        let producers = (0..threads)
            .map(|idx| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("bank-producer-{idx}"))
                    .spawn(move || producer_loop(inner, idx))
                    .expect("spawn bank producer")
            })
            .collect();
        PrecomputeBank {
            inner,
            producers: Mutex::new(producers),
        }
    }

    /// A cloneable draw handle implementing [`PrecomputeSource`].
    pub fn handle(&self) -> Arc<dyn PrecomputeSource> {
        Arc::new(BankHandle {
            inner: Arc::clone(&self.inner),
        })
    }

    /// Registers a reservoir (see [`PrecomputeSource::register`]); the
    /// benchmark's bank probe (`benchmark/src/probes.rs`) calls it.
    pub fn register(&self, spec: ReservoirSpec) {
        BankHandle {
            inner: Arc::clone(&self.inner),
        }
        .register(spec);
    }

    /// Blocks until every registered reservoir is at its target, or the
    /// timeout elapses. Returns whether the bank filled in time. Used to
    /// pre-stock reservoirs during untimed setup (benches, scenario starts)
    /// so the serving phase never waits on production.
    pub fn wait_until_full(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let full = {
                let map = self.inner.reservoirs.lock().unwrap();
                map.values().all(|res| {
                    let books = res.books();
                    books.ready.len() >= books.target
                })
            };
            if full {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Snapshot of every reservoir the bank has owned (live and retired),
    /// plus fallbacks recorded against never-registered ids.
    pub fn report(&self) -> BankReport {
        let mut rows: Vec<ReservoirStats> = {
            let map = self.inner.reservoirs.lock().unwrap();
            map.values().map(|res| res.stats(&res.books())).collect()
        };
        rows.extend(self.inner.retired.lock().unwrap().iter().copied());
        for (id, count) in self.inner.orphan_fallbacks.lock().unwrap().iter() {
            rows.push(ReservoirStats {
                kind: id.kind,
                fingerprint: id.fingerprint,
                target: 0,
                depth: 0,
                produced: 0,
                drawn: 0,
                fallback_draws: *count,
            });
        }
        rows.sort_by(|a, b| (a.kind, a.fingerprint).cmp(&(b.kind, b.fingerprint)));
        BankReport { reservoirs: rows }
    }

    /// Stops the producers, joins them, and returns the final per-reservoir
    /// accounting (remaining stock is reported as drained depth).
    pub fn shutdown(&self) -> BankReport {
        self.stop();
        self.report()
    }

    fn stop(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.wake();
        for handle in self.producers.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for PrecomputeBank {
    fn drop(&mut self) {
        self.stop();
    }
}

fn producer_loop(inner: Arc<BankInner>, idx: usize) {
    let mut rng = StdRng::seed_from_u64(
        inner.cfg.rng_seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    while !inner.shutdown.load(Ordering::Acquire) {
        match inner.pick_work() {
            Some(res) => {
                let artifact = (res.producer)(&mut rng);
                res.stock(artifact);
            }
            None => {
                // Park until a draw dips a reservoir below its low mark or a
                // registration arrives; the timeout bounds the window of a
                // wake lost between `pick_work` and this wait.
                let guard = inner.work_lock.lock().unwrap();
                if inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let _ = inner
                    .work
                    .wait_timeout(guard, Duration::from_millis(5))
                    .unwrap();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn counting_producer(counter: Arc<AtomicU64>) -> Producer {
        Arc::new(move |_rng: &mut dyn RngCore| {
            Box::new(counter.fetch_add(1, Ordering::SeqCst)) as Artifact
        })
    }

    #[test]
    fn producers_fill_to_target_then_park_without_overshoot() {
        let bank = PrecomputeBank::start(BankConfig::default().producer_threads(2));
        let counter = Arc::new(AtomicU64::new(0));
        let id = ReservoirId::garblings(7);
        bank.register(ReservoirSpec::new(id, counting_producer(counter.clone())).with_target(8));
        assert!(bank.wait_until_full(Duration::from_secs(10)));
        // Give producers a chance to (incorrectly) overshoot.
        std::thread::sleep(Duration::from_millis(20));
        let report = bank.shutdown();
        assert_eq!(report.depth_by_kind(KIND_GARBLINGS), 8);
        assert_eq!(
            counter.load(Ordering::SeqCst),
            8,
            "no overshoot past target"
        );
    }

    /// The backpressure hysteresis: a reservoir drained partway costs no
    /// production CPU; only dipping below a quarter of the target re-arms
    /// the producers (who then refill to the target).
    #[test]
    fn draws_above_the_low_watermark_do_not_restart_production() {
        let bank = PrecomputeBank::start(BankConfig::default().producer_threads(1));
        let counter = Arc::new(AtomicU64::new(0));
        let id = ReservoirId::garblings(5);
        bank.register(ReservoirSpec::new(id, counting_producer(counter.clone())).with_target(8));
        assert!(bank.wait_until_full(Duration::from_secs(10)));

        let handle = bank.handle();
        for _ in 0..4 {
            assert!(handle.draw(&id).is_some());
        }
        // Depth 4 is above the low mark (2); even across several producer
        // timeout wakes, nothing is refilled.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            counter.load(Ordering::SeqCst),
            8,
            "no refill above the low watermark"
        );

        for _ in 0..3 {
            assert!(handle.draw(&id).is_some());
        }
        // Depth 1 dipped below the low mark: production re-arms and tops
        // the reservoir back up to the target.
        assert!(bank.wait_until_full(Duration::from_secs(10)));
        assert_eq!(counter.load(Ordering::SeqCst), 15);
        bank.shutdown();
    }

    /// A target below 4 has a low mark of 0: the reservoir fills once and is
    /// never refilled by draws — what the "runs dry" test provisioning uses.
    #[test]
    fn a_target_below_four_fills_once() {
        let bank = PrecomputeBank::start(BankConfig::default().target(1));
        let id = ReservoirId::garblings(4);
        bank.register(ReservoirSpec::new(
            id,
            counting_producer(Arc::new(AtomicU64::new(0))),
        ));
        assert!(bank.wait_until_full(Duration::from_secs(10)));
        let handle = bank.handle();
        assert!(handle.draw(&id).is_some());
        std::thread::sleep(Duration::from_millis(20));
        assert!(handle.draw(&id).is_none(), "never refilled");
        let row = bank.shutdown().reservoirs[0];
        assert_eq!((row.target, row.produced, row.drawn), (1, 1, 1));
    }

    #[test]
    fn sixty_four_threads_draining_one_reservoir_lose_and_duplicate_nothing() {
        let bank = PrecomputeBank::start(BankConfig::default().producer_threads(2));
        let counter = Arc::new(AtomicU64::new(0));
        let id = ReservoirId::garblings(9);
        bank.register(ReservoirSpec::new(id, counting_producer(counter.clone())).with_target(64));

        const THREADS: usize = 64;
        const DRAWS_EACH: usize = 8;
        let handle = bank.handle();
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let source = Arc::clone(&handle);
                std::thread::spawn(move || {
                    let mut got = Vec::with_capacity(DRAWS_EACH);
                    while got.len() < DRAWS_EACH {
                        match source.draw(&id) {
                            Some(artifact) => {
                                got.push(*artifact.downcast::<u64>().expect("u64 artifact"))
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        for worker in workers {
            for seq in worker.join().expect("drawer thread") {
                assert!(seen.insert(seq), "artifact {seq} handed out twice");
            }
        }
        assert_eq!(seen.len(), THREADS * DRAWS_EACH);

        let report = bank.shutdown();
        let row = &report.reservoirs[0];
        assert_eq!(row.drawn, (THREADS * DRAWS_EACH) as u64);
        assert_eq!(
            row.produced,
            row.drawn + row.depth,
            "every produced artifact is either stocked or handed out exactly once"
        );
        assert_eq!(row.fallback_draws, 0);
    }

    /// Sessions come and go while producers run: every reservoir is
    /// registered, drawn from and released under 2 producers, and the row
    /// each retirement leaves behind must balance even though production
    /// was in flight when it was taken.
    #[test]
    fn retired_rows_balance_under_concurrent_production() {
        const THREADS: u64 = 8;
        const RESERVOIRS_EACH: u64 = 250;
        let bank = PrecomputeBank::start(BankConfig::default().producer_threads(2));
        let handle = bank.handle();
        let producer = counting_producer(Arc::new(AtomicU64::new(0)));
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (handle, producer) = (&handle, &producer);
                scope.spawn(move || {
                    for r in 0..RESERVOIRS_EACH {
                        let id = ReservoirId::garblings(t * RESERVOIRS_EACH + r);
                        handle
                            .register(ReservoirSpec::new(id, Arc::clone(producer)).with_target(4));
                        for _ in 0..r % 4 {
                            if handle.draw(&id).is_none() {
                                std::thread::yield_now();
                            }
                        }
                        handle.release(&id);
                    }
                });
            }
        });
        let report = bank.shutdown();
        assert_eq!(
            report.reservoirs.len(),
            (THREADS * RESERVOIRS_EACH) as usize
        );
        for row in &report.reservoirs {
            assert_eq!(row.produced, row.drawn + row.depth, "{row:?}");
        }
        assert!(
            report.produced_total() > 0,
            "producers ran during the churn"
        );
    }

    #[test]
    fn dry_draws_fall_back_and_are_counted_even_for_unknown_reservoirs() {
        let bank = PrecomputeBank::start(BankConfig::default());
        let handle = bank.handle();
        let unknown = ReservoirId::garblings(0xdead);
        assert!(handle.draw(&unknown).is_none());
        assert_eq!(handle.depth(&unknown), None);
        handle.record_fallback(&unknown);
        handle.record_fallback(&unknown);
        let report = bank.shutdown();
        assert_eq!(report.fallbacks_by_kind(KIND_GARBLINGS), 2);
    }

    #[test]
    fn release_retires_a_reservoir_but_keeps_its_accounting() {
        let bank = PrecomputeBank::start(BankConfig::default());
        let counter = Arc::new(AtomicU64::new(0));
        let id = ReservoirId::garblings(3);
        let spec = ReservoirSpec::new(id, counting_producer(counter)).with_target(2);
        let handle = bank.handle();
        handle.register(spec.clone());
        handle.register(spec); // second registration shares the reservoir
        assert!(bank.wait_until_full(Duration::from_secs(10)));
        let drawn = handle.draw(&id).expect("stocked");
        assert!(drawn.downcast::<u64>().is_ok());
        handle.release(&id);
        assert!(handle.draw(&id).is_some(), "still live after one release");
        handle.release(&id);
        assert!(handle.draw(&id).is_none(), "retired after last release");
        let report = bank.shutdown();
        assert_eq!(report.reservoirs.len(), 1, "retired row kept: {report:?}");
        assert_eq!(report.reservoirs[0].drawn, 2);
    }
}
