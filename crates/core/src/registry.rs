//! Function-module registry: the extension point for provider-side
//! functions over encrypted email.
//!
//! The paper's core claim is that provider functions — spam filtering, topic
//! extraction, virus scanning, keyword search — are *composable*: each is an
//! instance of one `setup → process_batch` lifecycle whose offline artifacts
//! come from a [`PrecomputeSource`].
//! This module makes that shape first-class instead of an enum: a
//! [`FunctionModule`] describes one protocol (its [`WireTag`] handshake byte,
//! display name, and how to set up each endpoint), and a
//! [`ProtocolRegistry`] maps wire tags to modules. The
//! [`crate::session::ProviderSession`] / [`crate::session::ClientSession`]
//! wrappers and the `pretzel_server` mailroom dispatch purely through the
//! registry, so adding a fifth function is a [`ProtocolRegistry::register`]
//! call — no core edits (see `examples/mailroom.rs`, which registers an
//! attachment-analytics module from outside this crate).
//!
//! Live endpoints implement [`ProviderModule`] / [`ClientModule`]: the
//! object-safe per-session traits carrying the online phase. It exists once
//! per endpoint — `process_batch` runs N rounds as one exchange, and a single
//! email is the batch of one (the built-in modules coalesce a batch's frames,
//! see `docs/ARCHITECTURE.md`; a module with nothing to coalesce loops). A
//! provider endpoint takes its offline artifacts from the
//! [`PrecomputeSource`] its setup was handed; a client endpoint, which has
//! one session and no producer threads, keeps the paper's explicit offline
//! phase (`precompute`).

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::RngCore;

use pretzel_classifiers::LinearModel;
use pretzel_transport::Channel;

use crate::bank::{PrecomputeSource, ReservoirSpec};
use crate::config::PretzelConfig;
use crate::session::{EmailPayload, ProviderModelSuite, Verdict};
use crate::spam::AheVariant;
use crate::topic::CandidateMode;
use crate::{PretzelError, Result};

/// Wire encoding of a function module in session handshakes: the first byte
/// a client sends. Tag `0` is reserved (it doubles as "no protocol" in
/// control frames) and can never be registered.
pub type WireTag = u8;

/// Client-side parameters for a session's setup phase. Must agree with the
/// provider's configuration — the parameter preset fixes ciphertext shapes,
/// and for topic sessions the candidate mode fixes the argmax circuit.
#[derive(Clone, Debug)]
pub struct ClientContext {
    /// Protocol parameter preset (must match the provider's).
    pub config: PretzelConfig,
    /// Which AHE cryptosystem/packing to use (modules that are
    /// single-backend, like search, carry but ignore it).
    pub variant: AheVariant,
    /// Candidate pruning mode for topic sessions (ignored otherwise).
    pub topic_mode: CandidateMode,
    /// Public candidate model, required for decomposed topic sessions.
    pub candidate_model: Option<LinearModel>,
}

impl ClientContext {
    /// Context with the given preset and every other knob at its default
    /// (Pretzel AHE variant, full candidate mode, no candidate model).
    pub fn new(config: PretzelConfig) -> Self {
        ClientContext {
            config,
            variant: AheVariant::Pretzel,
            topic_mode: CandidateMode::Full,
            candidate_model: None,
        }
    }
}

/// Provider endpoint of one live session: the state produced by a module's
/// setup phase, driven batch by batch by the serving layer.
pub trait ProviderModule: Send {
    /// The handshake byte of the module this session runs.
    fn wire_tag(&self) -> WireTag;

    /// Human-readable module name (per-kind reports, diagnostics).
    fn display_name(&self) -> &'static str;

    /// Runs `count` per-email rounds as one exchange (one email is
    /// `count == 1`; see `pretzel_transport::batch` for how a batch's frames
    /// coalesce). Returns one entry per round: the provider output for
    /// modules whose result goes to the provider (the topic index,
    /// Guarantee 3) and `None` otherwise.
    fn process_batch(
        &mut self,
        channel: &mut dyn Channel,
        count: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Option<usize>>>;
}

/// Client endpoint of one live session, mirroring [`ProviderModule`].
pub trait ClientModule: Send {
    /// The handshake byte of the module this session runs.
    fn wire_tag(&self) -> WireTag;

    /// Human-readable module name.
    fn display_name(&self) -> &'static str;

    /// Client-side storage consumed by the session state, in bytes (the
    /// encrypted model for classification modules, key material for search).
    fn model_storage_bytes(&self) -> usize;

    /// Offline phase: tops the client-side stock up to `budget` future
    /// rounds, returning the number of work units produced. The default — no
    /// client-side offline work — produces nothing.
    fn precompute(&mut self, budget: usize, rng: &mut dyn RngCore) -> usize {
        let _ = (budget, rng);
        0
    }

    /// Runs one round per payload as one exchange against a provider
    /// executing [`ProviderModule::process_batch`] with the same count (one
    /// email is a one-element slice). Every payload must match the shapes
    /// this module accepts. Returns one verdict per payload, in order.
    fn process_batch(
        &mut self,
        channel: &mut dyn Channel,
        payloads: &[EmailPayload],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Verdict>>;
}

/// One registrable function over encrypted email: a factory for the two
/// endpoints of its protocol, keyed by wire tag.
///
/// Implementations are stateless descriptors (the per-session state lives in
/// the [`ProviderModule`] / [`ClientModule`] values their setup methods
/// return), shared read-only across every worker of a serving layer.
pub trait FunctionModule: Send + Sync {
    /// Handshake byte identifying this module. Must be unique within a
    /// registry and non-zero.
    fn wire_tag(&self) -> WireTag;

    /// Human-readable module name (stable; used in reports and displays).
    fn display_name(&self) -> &'static str;

    /// Runs the provider half of the setup phase against the peer on
    /// `channel`, returning the reusable per-session provider state.
    ///
    /// `source` is where the session's offline artifacts come from — the
    /// fleet bank, or [`crate::bank::empty_source`] when none runs. A module
    /// with bankable artifacts registers the reservoirs its rounds will draw
    /// from (see [`crate::bank::Lease`]); one without ignores it.
    fn provider_setup(
        &self,
        channel: &mut dyn Channel,
        suite: &ProviderModelSuite,
        variant: AheVariant,
        source: &Arc<dyn PrecomputeSource>,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ProviderModule>>;

    /// The key-independent reservoirs this module wants a fleet-wide
    /// [`crate::bank::PrecomputeBank`] to keep stocked (garbled tables for
    /// its circuit shapes). The serving layer registers these once at bank startup, before any
    /// session exists. The default — no shared artifacts — keeps external
    /// modules working unchanged.
    fn fleet_plan(&self, suite: &ProviderModelSuite) -> Vec<ReservoirSpec> {
        let _ = suite;
        Vec::new()
    }

    /// Runs the client half of the setup phase, returning the reusable
    /// per-session client state.
    fn client_setup(
        &self,
        channel: &mut dyn Channel,
        ctx: &ClientContext,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ClientModule>>;
}

/// The set of function modules one deployment serves, keyed by wire tag.
///
/// This is the single source of truth for tag ↔ module resolution: session
/// handshakes decode through [`ProtocolRegistry::from_wire_tag`], and
/// per-kind reporting iterates [`ProtocolRegistry::modules`] in wire-tag
/// order. Unknown tags and duplicate registrations are both
/// [`PretzelError::Protocol`] errors — nothing can silently drift.
#[derive(Clone, Default)]
pub struct ProtocolRegistry {
    modules: BTreeMap<WireTag, Arc<dyn FunctionModule>>,
}

impl ProtocolRegistry {
    /// An empty registry (serves nothing until modules are registered).
    pub fn empty() -> Self {
        ProtocolRegistry::default()
    }

    /// The four built-in modules: spam (tag 1), topic (2), virus (3),
    /// search (4).
    pub fn builtin() -> Self {
        let mut registry = ProtocolRegistry::empty();
        for module in [
            Arc::new(crate::spam::SpamFunction) as Arc<dyn FunctionModule>,
            Arc::new(crate::topic::TopicFunction),
            Arc::new(crate::virus::VirusFunction),
            Arc::new(crate::search::SearchFunction),
        ] {
            registry
                .register(module)
                .expect("built-in wire tags are distinct");
        }
        registry
    }

    /// Registers a module under its wire tag. Tag 0 (reserved) and tags
    /// already registered are rejected with [`PretzelError::Protocol`].
    pub fn register(&mut self, module: Arc<dyn FunctionModule>) -> Result<()> {
        let tag = module.wire_tag();
        if tag == 0 {
            return Err(PretzelError::Protocol(format!(
                "wire tag 0 is reserved (module {:?})",
                module.display_name()
            )));
        }
        if let Some(existing) = self.modules.get(&tag) {
            return Err(PretzelError::Protocol(format!(
                "wire tag {tag} already registered by module {:?} (rejected {:?})",
                existing.display_name(),
                module.display_name()
            )));
        }
        self.modules.insert(tag, module);
        Ok(())
    }

    /// Builder-style [`ProtocolRegistry::register`].
    pub fn with_module(mut self, module: Arc<dyn FunctionModule>) -> Result<Self> {
        self.register(module)?;
        Ok(self)
    }

    /// Resolves a handshake byte to its module; unknown tags are a clean
    /// [`PretzelError::Protocol`] error listing what this registry serves.
    pub fn from_wire_tag(&self, tag: WireTag) -> Result<&Arc<dyn FunctionModule>> {
        self.modules.get(&tag).ok_or_else(|| {
            PretzelError::Protocol(format!(
                "unknown protocol wire tag {tag} (registered: {:?})",
                self.wire_tags()
            ))
        })
    }

    /// Whether a module is registered under `tag`.
    pub fn contains(&self, tag: WireTag) -> bool {
        self.modules.contains_key(&tag)
    }

    /// Display name of the module registered under `tag`, if any.
    pub fn display_name(&self, tag: WireTag) -> Option<&'static str> {
        self.modules.get(&tag).map(|m| m.display_name())
    }

    /// Every registered wire tag, in wire-tag order.
    pub fn wire_tags(&self) -> Vec<WireTag> {
        self.modules.keys().copied().collect()
    }

    /// Every registered module, in wire-tag order (the replacement for the
    /// old closed `ProtocolKind::ALL` list).
    pub fn modules(&self) -> impl Iterator<Item = &Arc<dyn FunctionModule>> {
        self.modules.values()
    }

    /// Number of registered modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }
}

impl std::fmt::Debug for ProtocolRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut map = f.debug_map();
        for (tag, module) in &self.modules {
            map.entry(tag, &module.display_name());
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeModule(WireTag, &'static str);

    impl FunctionModule for FakeModule {
        fn wire_tag(&self) -> WireTag {
            self.0
        }
        fn display_name(&self) -> &'static str {
            self.1
        }
        fn provider_setup(
            &self,
            _channel: &mut dyn Channel,
            _suite: &ProviderModelSuite,
            _variant: AheVariant,
            _source: &Arc<dyn PrecomputeSource>,
            _rng: &mut dyn RngCore,
        ) -> Result<Box<dyn ProviderModule>> {
            Err(PretzelError::Protocol("fake module".into()))
        }
        fn client_setup(
            &self,
            _channel: &mut dyn Channel,
            _ctx: &ClientContext,
            _rng: &mut dyn RngCore,
        ) -> Result<Box<dyn ClientModule>> {
            Err(PretzelError::Protocol("fake module".into()))
        }
    }

    #[test]
    fn builtin_registry_round_trips_every_wire_tag() {
        let registry = ProtocolRegistry::builtin();
        assert_eq!(registry.wire_tags(), vec![1, 2, 3, 4]);
        for module in registry.modules() {
            let tag = module.wire_tag();
            let resolved = registry.from_wire_tag(tag).unwrap();
            assert_eq!(resolved.wire_tag(), tag, "from_wire_tag(wire_tag(k)) == k");
            assert_eq!(resolved.display_name(), module.display_name());
        }
        assert_eq!(registry.display_name(1), Some("spam"));
        assert_eq!(registry.display_name(2), Some("topic"));
        assert_eq!(registry.display_name(3), Some("virus"));
        assert_eq!(registry.display_name(4), Some("search"));
    }

    #[test]
    fn unknown_tags_are_clean_protocol_errors() {
        let registry = ProtocolRegistry::builtin();
        for tag in [0u8, 5, 0xFF] {
            assert!(
                matches!(registry.from_wire_tag(tag), Err(PretzelError::Protocol(_))),
                "tag {tag} must be rejected"
            );
            assert!(!registry.contains(tag));
        }
    }

    #[test]
    fn duplicate_and_reserved_registrations_are_rejected() {
        let mut registry = ProtocolRegistry::builtin();
        let clash = Arc::new(FakeModule(1, "imposter"));
        assert!(matches!(
            registry.register(clash),
            Err(PretzelError::Protocol(_))
        ));
        assert_eq!(registry.display_name(1), Some("spam"), "spam kept its tag");

        let reserved = Arc::new(FakeModule(0, "zero"));
        assert!(matches!(
            registry.register(reserved),
            Err(PretzelError::Protocol(_))
        ));

        // A fresh tag extends the registry without touching the built-ins.
        registry.register(Arc::new(FakeModule(9, "ninth"))).unwrap();
        assert_eq!(registry.wire_tags(), vec![1, 2, 3, 4, 9]);
        assert_eq!(registry.from_wire_tag(9).unwrap().display_name(), "ninth");
    }
}
