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
//! * [`mod@garble`] — free-XOR + point-and-permute garbling and evaluation.
//! * [`ot`] — Chou–Orlandi-style base oblivious transfer over a safe-prime
//!   group (setup-phase only).
//! * [`otext`] — IKNP OT extension, which amortizes the base OTs across
//!   every per-email circuit execution (paper §3.3's setup-phase
//!   amortization).
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

/// Estimated network bytes for garbling a circuit: 64 bytes per AND gate
/// (4 rows × 16 bytes) plus 16 bytes per garbler input and 32 bytes per
/// evaluator input (OT-extension payload). Used by the cost model (Figure 3's
/// `szper-in`) without running the protocol.
pub fn estimated_garbled_size(circuit: &Circuit) -> usize {
    circuit.and_count() * 64
        + circuit.garbler_inputs.len() * 16
        + circuit.evaluator_inputs.len() * 32
        + circuit.outputs.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimated_size_tracks_circuit_growth() {
        let small = spam_compare_circuit(8);
        let large = spam_compare_circuit(32);
        assert!(estimated_garbled_size(&large) > estimated_garbled_size(&small));
        let argmax_small = topic_argmax_circuit(5, 24, 12);
        let argmax_large = topic_argmax_circuit(20, 24, 12);
        assert!(estimated_garbled_size(&argmax_large) > 3 * estimated_garbled_size(&argmax_small));
    }

    #[test]
    fn error_display_formats() {
        let e = GcError::Protocol("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
