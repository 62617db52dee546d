//! Precompute, once: the fleet-wide bank with dependency-aware background
//! production, and the few small types every consumer of offline artifacts
//! shares.
//!
//! Every offline artifact a provider session consumes (precomputed
//! garblings, zero encryptions, randomizers) comes from a [`PrecomputeSource`]
//! through one draw ladder ([`draw`] / [`Lease::draw`]): take a stocked
//! artifact if the source has one that fits, otherwise count a fallback and
//! make it inline. A deployment without a bank hands sessions the
//! [`empty_source`], whose draws always come up dry — the same code path,
//! with nothing behind it. The bank itself is a fleet-wide service:
//!
//! * **Per-kind reservoirs.** Artifacts are stored in reservoirs keyed by
//!   [`ReservoirId`] — an artifact *kind* (one of [`KIND_RANDOMIZERS`],
//!   [`KIND_GARBLINGS`], [`KIND_ZERO_ENCRYPTIONS`]) plus a 64-bit
//!   *fingerprint* binding the reservoir to its parameters (circuit shape,
//!   public key). Key-independent artifacts (garbled tables) are shared by
//!   every session with the same shape;
//!   key-dependent artifacts (randomizers, zero encryptions) get one
//!   reservoir per registered session key.
//! * **Background producers.** [`PrecomputeBank::start`] spawns producer
//!   threads that keep reservoirs filled to their targets using idle cores,
//!   and park on a condvar once every reservoir is at its high watermark —
//!   they never spin against the serving path.
//! * **Dependency DAG.** Production is scheduled as a kind-level dependency
//!   DAG: a reservoir whose [`ReservoirSpec::depends_on`] kinds are below
//!   their low watermarks is not eligible, so key-independent artifacts are
//!   produced first and key-dependent ones only once the shared stock is
//!   healthy — the scheduling shape of a DAG-of-work executor.
//! * **Work-stealing draws.** Each reservoir is sharded; a drawing session
//!   starts at the shard hashed from its thread and steals from the other
//!   shards when its own is empty, so concurrent draws mostly avoid
//!   contending on one lock.
//! * **Inline fallback, counted.** [`PrecomputeSource::draw`] returns `None`
//!   when a reservoir is dry; callers fall back to producing inline and
//!   report it via [`PrecomputeSource::record_fallback`], making pool-dry
//!   events directly observable ([`BankReport`], `Meter` gauges).
//!
//! Consumption goes through the object-safe [`PrecomputeSource`] trait so
//! modules can be handed any source — the fleet bank, the empty source, or a
//! test double. A client has one session and no producer threads, so its
//! explicit offline phase stocks a session-local [`Stock`] instead: a bank
//! with zero producers.

use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Kind name for pre-exponentiated Paillier randomizers (`r^n mod n²`) —
/// key-dependent.
pub const KIND_RANDOMIZERS: &str = "randomizers";
/// Kind name for precomputed garbled circuits — key-independent (bound to a
/// circuit fingerprint, shared by every session evaluating that circuit).
pub const KIND_GARBLINGS: &str = "garblings";
/// Kind name for Paillier zero encryptions used by search response padding —
/// key-dependent.
pub const KIND_ZERO_ENCRYPTIONS: &str = "zero_encryptions";

/// The kind-level production DAG: key-dependent kinds wait for the shared
/// key-independent stock to reach its low watermark first.
pub const KEY_INDEPENDENT_KINDS: &[&str] = &[KIND_GARBLINGS];

/// FNV-1a over a byte string — the scheme used to derive reservoir
/// fingerprints from parameters (public-key bytes, circuit shapes). Stable
/// across processes, cheap, and collision-safe at the scale of a fleet's
/// distinct parameter sets.
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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
    /// Binds the reservoir to its parameters (see [`fingerprint64`]).
    pub fingerprint: u64,
}

impl ReservoirId {
    /// A reservoir id for `kind` with parameter fingerprint `fingerprint`.
    pub fn new(kind: &'static str, fingerprint: u64) -> Self {
        ReservoirId { kind, fingerprint }
    }

    /// Garblings for the circuit with the given fingerprint.
    pub fn garblings(fingerprint: u64) -> Self {
        Self::new(KIND_GARBLINGS, fingerprint)
    }

    /// Randomizers for the Paillier key with the given fingerprint.
    pub fn randomizers(fingerprint: u64) -> Self {
        Self::new(KIND_RANDOMIZERS, fingerprint)
    }

    /// Zero encryptions for the Paillier key with the given fingerprint.
    pub fn zero_encryptions(fingerprint: u64) -> Self {
        Self::new(KIND_ZERO_ENCRYPTIONS, fingerprint)
    }
}

impl fmt::Display for ReservoirId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{:016x}", self.kind, self.fingerprint)
    }
}

/// Everything the bank needs to own a reservoir: identity, its place in the
/// kind-level dependency DAG, an optional target depth override, and the
/// producer closure.
#[derive(Clone)]
pub struct ReservoirSpec {
    /// Which reservoir this spec describes.
    pub id: ReservoirId,
    /// Kinds whose reservoirs must be at their low watermark before this
    /// reservoir becomes eligible for production (kind-level DAG edges).
    pub depends_on: &'static [&'static str],
    /// Target depth; `None` uses the bank's per-kind or default target.
    pub target: Option<usize>,
    /// Manufactures one artifact.
    pub producer: Producer,
}

impl ReservoirSpec {
    /// A spec with no dependencies and the bank's default target.
    pub fn new(id: ReservoirId, producer: Producer) -> Self {
        ReservoirSpec {
            id,
            depends_on: &[],
            target: None,
            producer,
        }
    }

    /// Declares kind-level dependencies (see [`ReservoirSpec::depends_on`]).
    pub fn after(mut self, kinds: &'static [&'static str]) -> Self {
        self.depends_on = kinds;
        self
    }

    /// Overrides the reservoir's target depth.
    pub fn with_target(mut self, target: usize) -> Self {
        self.target = Some(target);
        self
    }
}

impl fmt::Debug for ReservoirSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReservoirSpec")
            .field("id", &self.id)
            .field("depends_on", &self.depends_on)
            .field("target", &self.target)
            .finish_non_exhaustive()
    }
}

/// Object-safe handle through which sessions consume precomputed artifacts.
///
/// This is the redesigned consumption API: modules are handed an
/// `Arc<dyn PrecomputeSource>` (the fleet bank, or a test double), register
/// the reservoirs they need, and draw per round with an inline fallback when
/// a draw returns `None`.
pub trait PrecomputeSource: Send + Sync {
    /// Registers (or re-registers) a reservoir. Registration is refcounted:
    /// a second registration of the same id shares the reservoir and raises
    /// its target to the maximum requested.
    fn register(&self, spec: ReservoirSpec);

    /// Drops one registration of `id`; the last release retires the
    /// reservoir (its remaining stock is drained into the final report).
    fn release(&self, id: &ReservoirId);

    /// Draws one artifact, stealing across shards; `None` when dry (caller
    /// falls back inline and should call
    /// [`record_fallback`](PrecomputeSource::record_fallback)).
    fn draw(&self, id: &ReservoirId) -> Option<Artifact>;

    /// Current depth of `id`'s reservoir; `None` if the source holds no such
    /// reservoir.
    fn depth(&self, id: &ReservoirId) -> Option<usize>;

    /// Records that a draw came up dry and the caller produced inline.
    fn record_fallback(&self, id: &ReservoirId);
}

/// The source with nothing behind it: registrations are ignored and every
/// draw comes up dry, so callers make each artifact inline. It is what a
/// session gets when no bank runs.
struct EmptySource;

impl PrecomputeSource for EmptySource {
    fn register(&self, _spec: ReservoirSpec) {}
    fn release(&self, _id: &ReservoirId) {}
    fn draw(&self, _id: &ReservoirId) -> Option<Artifact> {
        None
    }
    fn depth(&self, _id: &ReservoirId) -> Option<usize> {
        None
    }
    fn record_fallback(&self, _id: &ReservoirId) {}
}

/// A handle onto the source with nothing behind it (see the module docs).
pub fn empty_source() -> Arc<dyn PrecomputeSource> {
    Arc::new(EmptySource)
}

/// The draw ladder, written once: takes one artifact of type `T` from `id`'s
/// reservoir if the source has one and it `fits` (right type, right circuit
/// or key); otherwise records a fallback and returns `None`, and the caller
/// makes the artifact inline.
pub fn draw<T: Any>(
    source: &dyn PrecomputeSource,
    id: &ReservoirId,
    fits: impl FnOnce(&T) -> bool,
) -> Option<T> {
    let stocked = source
        .draw(id)
        .and_then(|artifact| artifact.downcast::<T>().ok())
        .filter(|artifact| fits(artifact));
    if stocked.is_none() {
        source.record_fallback(id);
    }
    stocked.map(|artifact| *artifact)
}

/// One registration of a reservoir, owned: registering yields the lease,
/// dropping it releases the registration (the last release retires the
/// reservoir, so a key-dependent one never outlives its session).
pub struct Lease {
    source: Arc<dyn PrecomputeSource>,
    id: ReservoirId,
}

impl Lease {
    /// Registers `spec` with `source` and returns the owning lease.
    pub fn register(source: &Arc<dyn PrecomputeSource>, spec: ReservoirSpec) -> Self {
        let id = spec.id;
        source.register(spec);
        Lease {
            source: Arc::clone(source),
            id,
        }
    }

    /// [`draw`] from the leased reservoir.
    pub fn draw<T: Any>(&self, fits: impl FnOnce(&T) -> bool) -> Option<T> {
        draw(self.source.as_ref(), &self.id, fits)
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.source.release(&self.id);
    }
}

/// A session-local FIFO of precomputed artifacts — a bank with zero
/// producers. The owner fills it in an explicit offline phase
/// ([`Stock::refill`]) and drains it online ([`Stock::draw`]), making the
/// artifact inline when the stock is dry — so depth moves latency, never
/// results.
pub struct Stock<T> {
    ready: VecDeque<T>,
}

impl<T> Default for Stock<T> {
    fn default() -> Self {
        Stock {
            ready: VecDeque::new(),
        }
    }
}

impl<T> Stock<T> {
    /// Offline phase: tops the stock up to `target` artifacts, returning how
    /// many `make` produced.
    pub fn refill(&mut self, target: usize, mut make: impl FnMut() -> T) -> usize {
        let added = target.saturating_sub(self.ready.len());
        self.ready.extend((0..added).map(|_| make()));
        added
    }

    /// Online phase: the oldest stocked artifact, `None` when dry.
    pub fn draw(&mut self) -> Option<T> {
        self.ready.pop_front()
    }
}

/// One session's window onto a shared source: forwards every call, and keeps
/// the session's own fallback count for each reservoir it touched, so a
/// serving layer can publish per-session gauges without asking the module.
pub struct SessionSource {
    inner: Arc<dyn PrecomputeSource>,
    fallbacks: Mutex<BTreeMap<ReservoirId, u64>>,
}

impl SessionSource {
    /// Wraps `inner` for one session.
    pub fn new(inner: Arc<dyn PrecomputeSource>) -> Self {
        SessionSource {
            inner,
            fallbacks: Mutex::new(BTreeMap::new()),
        }
    }

    fn touch(&self, id: &ReservoirId, fallbacks: u64) {
        *self.fallbacks.lock().unwrap().entry(*id).or_insert(0) += fallbacks;
    }

    /// One gauge per reservoir this session registered or drew from that the
    /// source holds, sorted by kind: `(kind, current depth, this session's
    /// dry draws)`. Over the empty source there is none.
    pub fn gauges(&self) -> Vec<(&'static str, u64, u64)> {
        let fallbacks = self.fallbacks.lock().unwrap();
        fallbacks
            .iter()
            .filter_map(|(id, &dry)| Some((id.kind, self.inner.depth(id)? as u64, dry)))
            .collect()
    }
}

impl PrecomputeSource for SessionSource {
    fn register(&self, spec: ReservoirSpec) {
        self.touch(&spec.id, 0);
        self.inner.register(spec);
    }

    fn release(&self, id: &ReservoirId) {
        self.inner.release(id);
    }

    fn draw(&self, id: &ReservoirId) -> Option<Artifact> {
        self.touch(id, 0);
        self.inner.draw(id)
    }

    fn depth(&self, id: &ReservoirId) -> Option<usize> {
        self.inner.depth(id)
    }

    fn record_fallback(&self, id: &ReservoirId) {
        self.touch(id, 1);
        self.inner.record_fallback(id);
    }
}

/// Bank tuning: producer threads, targets, and backpressure watermarks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BankConfig {
    /// Background producer threads (each with its own seeded RNG).
    pub producer_threads: usize,
    /// Target depth for reservoirs without an explicit target.
    pub default_target: usize,
    /// Per-kind target overrides, consulted before `default_target`.
    pub targets: Vec<(&'static str, usize)>,
    /// Percentage of target below which producers are woken and dependent
    /// kinds are considered starved (backpressure low watermark).
    pub low_watermark_pct: u32,
    /// Percentage of target at which production for a reservoir stops
    /// (backpressure high watermark); producers park when every reservoir is
    /// at its high watermark.
    pub high_watermark_pct: u32,
    /// Seed for the producer threads' RNGs.
    pub rng_seed: u64,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig {
            producer_threads: 1,
            default_target: 32,
            targets: Vec::new(),
            low_watermark_pct: 25,
            high_watermark_pct: 100,
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

    /// Overrides the target depth for one artifact kind.
    pub fn target(mut self, kind: &'static str, n: usize) -> Self {
        self.targets.retain(|(k, _)| *k != kind);
        self.targets.push((kind, n));
        self
    }

    /// Sets the backpressure watermarks as percentages of target.
    pub fn watermarks(mut self, low_pct: u32, high_pct: u32) -> Self {
        self.low_watermark_pct = low_pct.min(high_pct);
        self.high_watermark_pct = high_pct.max(1);
        self
    }

    /// Seeds the producer RNGs.
    pub fn rng_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    fn kind_target(&self, kind: &str) -> usize {
        self.targets
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t)| *t)
            .unwrap_or(self.default_target)
    }
}

/// Shards per reservoir: enough to spread concurrent draws, small enough
/// that stealing scans stay cheap.
const SHARDS: usize = 4;

struct Reservoir {
    kind: &'static str,
    fingerprint: u64,
    depends_on: &'static [&'static str],
    target: AtomicUsize,
    /// Hysteresis arm: producers fill this reservoir only while set. Armed
    /// on registration (and re-registration), cleared once the stock
    /// reaches the high watermark, re-armed when a draw dips it below the
    /// low watermark — so a reservoir drained partway between the
    /// watermarks costs no production CPU.
    producing: AtomicBool,
    shards: Vec<Mutex<VecDeque<Artifact>>>,
    depth: AtomicUsize,
    in_flight: AtomicUsize,
    produced: AtomicU64,
    drawn: AtomicU64,
    fallback_draws: AtomicU64,
    refs: AtomicUsize,
    producer: Producer,
}

impl Reservoir {
    fn from_spec(spec: &ReservoirSpec, cfg: &BankConfig) -> Self {
        let target = spec.target.unwrap_or_else(|| cfg.kind_target(spec.id.kind));
        Reservoir {
            kind: spec.id.kind,
            fingerprint: spec.id.fingerprint,
            depends_on: spec.depends_on,
            target: AtomicUsize::new(target),
            producing: AtomicBool::new(true),
            shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
            depth: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            produced: AtomicU64::new(0),
            drawn: AtomicU64::new(0),
            fallback_draws: AtomicU64::new(0),
            refs: AtomicUsize::new(1),
            producer: Arc::clone(&spec.producer),
        }
    }

    fn high_target(&self, cfg: &BankConfig) -> usize {
        let t = self.target.load(Ordering::Relaxed);
        (t * cfg.high_watermark_pct as usize).div_ceil(100)
    }

    fn low_target(&self, cfg: &BankConfig) -> usize {
        let t = self.target.load(Ordering::Relaxed);
        t * cfg.low_watermark_pct as usize / 100
    }

    fn stats(&self) -> ReservoirStats {
        ReservoirStats {
            kind: self.kind,
            fingerprint: self.fingerprint,
            target: self.target.load(Ordering::Relaxed),
            depth: self.depth.load(Ordering::Relaxed) as u64,
            produced: self.produced.load(Ordering::Relaxed),
            drawn: self.drawn.load(Ordering::Relaxed),
            fallback_draws: self.fallback_draws.load(Ordering::Relaxed),
        }
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

    fn deps_ready(
        map: &BTreeMap<ReservoirId, Arc<Reservoir>>,
        res: &Reservoir,
        cfg: &BankConfig,
    ) -> bool {
        res.depends_on.iter().all(|dep| {
            map.values()
                .filter(|r| r.kind == *dep)
                .all(|r| r.depth.load(Ordering::Relaxed) >= r.low_target(cfg))
        })
    }

    /// Picks the eligible reservoir with the largest relative deficit and
    /// reserves one production slot on it (`in_flight`), so concurrent
    /// producers never overshoot a target.
    fn pick_work(&self) -> Option<Arc<Reservoir>> {
        let map = self.reservoirs.lock().unwrap();
        let mut best: Option<(usize, &Arc<Reservoir>)> = None;
        for res in map.values() {
            let high = res.high_target(&self.cfg);
            let filled = res.depth.load(Ordering::Relaxed) + res.in_flight.load(Ordering::Relaxed);
            if filled >= high {
                res.producing.store(false, Ordering::Relaxed);
                continue;
            }
            if !res.producing.load(Ordering::Relaxed) || !Self::deps_ready(&map, res, &self.cfg) {
                continue;
            }
            let deficit_pm = (high - filled) * 1000 / high.max(1);
            if best.is_none_or(|(b, _)| deficit_pm > b) {
                best = Some((deficit_pm, res));
            }
        }
        best.map(|(_, res)| {
            res.in_flight.fetch_add(1, Ordering::AcqRel);
            Arc::clone(res)
        })
    }

    fn get(&self, id: &ReservoirId) -> Option<Arc<Reservoir>> {
        self.reservoirs.lock().unwrap().get(id).cloned()
    }
}

fn shard_hint() -> usize {
    let mut h = DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish() as usize % SHARDS
}

/// Cloneable, object-safe handle onto a running [`PrecomputeBank`] — the
/// concrete [`PrecomputeSource`] sessions are handed.
#[derive(Clone)]
pub struct BankHandle {
    inner: Arc<BankInner>,
}

impl PrecomputeSource for BankHandle {
    fn register(&self, spec: ReservoirSpec) {
        {
            let mut map = self.inner.reservoirs.lock().unwrap();
            match map.get(&spec.id) {
                Some(res) => {
                    res.refs.fetch_add(1, Ordering::AcqRel);
                    let target = spec
                        .target
                        .unwrap_or_else(|| self.inner.cfg.kind_target(spec.id.kind));
                    res.target.fetch_max(target, Ordering::AcqRel);
                    // Re-arm: a raised target may have reopened a deficit
                    // (a no-op arm is cleared on the next producer scan).
                    res.producing.store(true, Ordering::Relaxed);
                }
                None => {
                    map.insert(
                        spec.id,
                        Arc::new(Reservoir::from_spec(&spec, &self.inner.cfg)),
                    );
                }
            }
        }
        self.inner.wake();
    }

    fn release(&self, id: &ReservoirId) {
        let mut map = self.inner.reservoirs.lock().unwrap();
        if let Some(res) = map.get(id) {
            if res.refs.fetch_sub(1, Ordering::AcqRel) == 1 {
                let res = map.remove(id).expect("reservoir present");
                self.inner.retired.lock().unwrap().push(res.stats());
            }
        }
    }

    fn draw(&self, id: &ReservoirId) -> Option<Artifact> {
        let res = self.inner.get(id)?;
        let start = shard_hint();
        for k in 0..SHARDS {
            let artifact = res.shards[(start + k) % SHARDS].lock().unwrap().pop_front();
            if let Some(artifact) = artifact {
                res.depth.fetch_sub(1, Ordering::AcqRel);
                res.drawn.fetch_add(1, Ordering::Relaxed);
                if res.depth.load(Ordering::Relaxed) < res.low_target(&self.inner.cfg) {
                    res.producing.store(true, Ordering::Relaxed);
                    self.inner.wake();
                }
                return Some(artifact);
            }
        }
        None
    }

    fn depth(&self, id: &ReservoirId) -> Option<usize> {
        self.inner
            .get(id)
            .map(|res| res.depth.load(Ordering::Relaxed))
    }

    fn record_fallback(&self, id: &ReservoirId) {
        match self.inner.get(id) {
            Some(res) => {
                res.fallback_draws.fetch_add(1, Ordering::Relaxed);
            }
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
    /// Artifacts currently stocked.
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

    /// Registers a reservoir (see [`PrecomputeSource::register`]).
    pub fn register(&self, spec: ReservoirSpec) {
        BankHandle {
            inner: Arc::clone(&self.inner),
        }
        .register(spec);
    }

    /// Blocks until every registered reservoir is at its high watermark, or
    /// the timeout elapses. Returns whether the bank filled in time. Used to
    /// pre-stock reservoirs during untimed setup (benches, scenario starts)
    /// so the serving phase never waits on production.
    pub fn wait_until_full(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let full = {
                let map = self.inner.reservoirs.lock().unwrap();
                map.values().all(|res| {
                    res.depth.load(Ordering::Relaxed) >= res.high_target(&self.inner.cfg)
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
            map.values().map(|res| res.stats()).collect()
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
    let mut shard = idx;
    while !inner.shutdown.load(Ordering::Acquire) {
        match inner.pick_work() {
            Some(res) => {
                let artifact = (res.producer)(&mut rng);
                res.shards[shard % SHARDS]
                    .lock()
                    .unwrap()
                    .push_back(artifact);
                res.depth.fetch_add(1, Ordering::AcqRel);
                res.in_flight.fetch_sub(1, Ordering::AcqRel);
                res.produced.fetch_add(1, Ordering::Relaxed);
                shard = shard.wrapping_add(1);
            }
            None => {
                // Park until a draw dips a reservoir below its low watermark
                // or a registration arrives; the timeout bounds the window of
                // a wake lost between `pick_work` and this wait.
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

    /// The backpressure hysteresis: a reservoir drained partway between the
    /// watermarks costs no production CPU; only dipping below the low
    /// watermark re-arms the producers (who then refill to the high one).
    #[test]
    fn draws_above_the_low_watermark_do_not_restart_production() {
        let bank = PrecomputeBank::start(
            BankConfig::default()
                .producer_threads(1)
                .watermarks(25, 100),
        );
        let counter = Arc::new(AtomicU64::new(0));
        let id = ReservoirId::garblings(5);
        bank.register(ReservoirSpec::new(id, counting_producer(counter.clone())).with_target(8));
        assert!(bank.wait_until_full(Duration::from_secs(10)));

        let handle = bank.handle();
        for _ in 0..4 {
            assert!(handle.draw(&id).is_some());
        }
        // Depth 4 is above the low watermark (2); even across several
        // producer timeout wakes, nothing is refilled.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            counter.load(Ordering::SeqCst),
            8,
            "no refill above the low watermark"
        );

        for _ in 0..3 {
            assert!(handle.draw(&id).is_some());
        }
        // Depth 1 dipped below the low watermark: production re-arms and
        // tops the reservoir back up to the high watermark.
        assert!(bank.wait_until_full(Duration::from_secs(10)));
        assert_eq!(counter.load(Ordering::SeqCst), 15);
        bank.shutdown();
    }

    #[test]
    fn dependency_dag_produces_key_independent_kinds_first() {
        // One producer thread so the production order is observable.
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let recorder = |tag: &'static str, order: Arc<Mutex<Vec<&'static str>>>| -> Producer {
            Arc::new(move |_rng: &mut dyn RngCore| {
                order.lock().unwrap().push(tag);
                Box::new(0u8) as Artifact
            })
        };
        let bank = PrecomputeBank::start(BankConfig::default().producer_threads(1));
        // Register the dependent kind FIRST so only the DAG can explain the
        // production order.
        bank.register(
            ReservoirSpec::new(
                ReservoirId::randomizers(1),
                recorder(KIND_RANDOMIZERS, order.clone()),
            )
            .after(KEY_INDEPENDENT_KINDS)
            .with_target(4),
        );
        bank.register(
            ReservoirSpec::new(
                ReservoirId::garblings(1),
                recorder(KIND_GARBLINGS, order.clone()),
            )
            .with_target(4),
        );
        assert!(bank.wait_until_full(Duration::from_secs(10)));
        bank.shutdown();
        let order = order.lock().unwrap();
        let first_randomizer = order
            .iter()
            .position(|k| *k == KIND_RANDOMIZERS)
            .expect("randomizers were produced");
        let garblings_before = order[..first_randomizer]
            .iter()
            .filter(|k| **k == KIND_GARBLINGS)
            .count();
        // Low watermark of the 4-deep garbling reservoir is 1: at least one
        // garbling must exist before any randomizer is manufactured.
        assert!(
            garblings_before >= 1,
            "key-dependent production started before the shared stock: {order:?}"
        );
    }

    #[test]
    fn sixty_four_threads_draining_one_reservoir_lose_and_duplicate_nothing() {
        let bank = PrecomputeBank::start(
            BankConfig::default()
                .producer_threads(2)
                .watermarks(50, 100),
        );
        let counter = Arc::new(AtomicU64::new(0));
        let id = ReservoirId::zero_encryptions(9);
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

    #[test]
    fn dry_draws_fall_back_and_are_counted_even_for_unknown_reservoirs() {
        let bank = PrecomputeBank::start(BankConfig::default());
        let handle = bank.handle();
        let unknown = ReservoirId::randomizers(0xdead);
        assert!(handle.draw(&unknown).is_none());
        assert_eq!(handle.depth(&unknown), None);
        handle.record_fallback(&unknown);
        handle.record_fallback(&unknown);
        let report = bank.shutdown();
        assert_eq!(report.fallbacks_by_kind(KIND_RANDOMIZERS), 2);
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

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(fingerprint64(b"pretzel"), fingerprint64(b"pretzel"));
        assert_ne!(fingerprint64(b"pretzel"), fingerprint64(b"pretze1"));
        assert_eq!(fingerprint64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
