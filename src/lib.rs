//! Umbrella crate for the Pretzel reproduction.
//!
//! Re-exports every workspace crate under one name so the examples and
//! integration tests (and downstream users who just want "all of Pretzel")
//! can depend on a single crate. See the individual crates for the substance:
//!
//! * [`core`] — the Pretzel system itself (function modules, cost model,
//!   configuration).
//! * [`e2e`], [`classifiers`], [`datasets`], [`search`], [`sse`] —
//!   application-level substrates (including the provider-side encrypted
//!   search extension the paper leaves as future work).
//! * [`server`] — the provider mailroom: a multi-session serving layer
//!   (worker pool, bounded intake, per-session metering) over the function
//!   modules.
//! * [`scenarios`] — named, seeded workload generators (steady, bursty,
//!   heavy-tail, churn, slow-loris, mixed-fleet) that drive
//!   a mailroom fleet for integration tests.
//! * [`rlwe`], [`paillier`], [`gc`], [`sdp`], [`bignum`], [`primitives`],
//!   [`transport`] — cryptographic and systems substrates.

pub use pretzel_bignum as bignum;
pub use pretzel_classifiers as classifiers;
pub use pretzel_core as core;
pub use pretzel_datasets as datasets;
pub use pretzel_e2e as e2e;
pub use pretzel_gc as gc;
pub use pretzel_paillier as paillier;
pub use pretzel_primitives as primitives;
pub use pretzel_rlwe as rlwe;
pub use pretzel_scenarios as scenarios;
pub use pretzel_sdp as sdp;
pub use pretzel_search as search;
pub use pretzel_server as server;
pub use pretzel_sse as sse;
pub use pretzel_transport as transport;

/// Version of the reproduction workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
