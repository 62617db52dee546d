//! Yao's garbled circuits and oblivious transfer for Pretzel (paper §3.2).
//!
//! Pretzel uses Yao's 2PC very selectively — "just to compute several
//! comparisons of 32-bit numbers" (spam filtering) and a B′-way argmax with
//! index selection (topic extraction, Figure 5) — yet it is still a measurable
//! per-email cost (Figure 6's Yao rows; the bottleneck discussion in §6.1 and
//! §6.2). This crate implements the whole stack from scratch:
//!
//! * [`circuit`] — boolean circuits and a builder with the adders,
//!   subtractors, comparators, muxes and argmax used by Pretzel's functions.
//! * [`mod@garble`] — half-gates garbling and evaluation (two 16-byte rows
//!   per AND gate; XOR and INV free), hashed with the fixed-key-AES gate
//!   hash of `pretzel_primitives`.
//! * [`ot`] — Chou–Orlandi-style base oblivious transfer over a safe-prime
//!   group (setup-phase only).
//! * [`otext`] — IKNP OT extension, which amortizes the base OTs across
//!   every per-email circuit execution (paper §3.3's setup-phase
//!   amortization). Its message pads use the same gate hash.
//! * [`runner`] — the interactive garbler/evaluator protocol over a
//!   [`pretzel_transport::Channel`].
//!
//! Threat model note: the implementation is semi-honest. The paper's Baseline
//! additionally plugs in an actively-secure OT/garbling variant [71, 77]
//! whose cost is amortized into setup; we document (DESIGN.md §3) rather than
//! implement that variant, and the per-email costs measured here correspond
//! to the steady state the paper reports.

pub mod circuit;
pub mod garble;
pub mod ot;
pub mod otext;
pub mod runner;

pub use circuit::{
    from_bits, spam_compare_circuit, to_bits, topic_argmax_circuit, Circuit, CircuitBuilder,
    InputOwner, WireBundle,
};
pub use garble::{garble, Garbling, Label};
pub use ot::OtGroup;
pub use runner::{OutputMode, PrecomputedGarbling, YaoEvaluator, YaoGarbler};

/// Errors produced by garbled-circuit protocols.
#[derive(Debug)]
pub enum GcError {
    /// Transport failure.
    Transport(pretzel_transport::TransportError),
    /// A protocol invariant was violated (malformed message, bad length,
    /// invalid label, input size mismatch).
    Protocol(String),
}

impl std::fmt::Display for GcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GcError::Transport(e) => write!(f, "transport error: {e}"),
            GcError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for GcError {}

impl From<pretzel_transport::TransportError> for GcError {
    fn from(e: pretzel_transport::TransportError) -> Self {
        GcError::Transport(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_formats() {
        let e = GcError::Protocol("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
