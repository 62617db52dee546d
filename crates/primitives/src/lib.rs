//! Symmetric cryptographic primitives implemented from scratch for Pretzel.
//!
//! The Pretzel stack needs a hash (key fingerprints, Schnorr challenges,
//! commitments), a MAC/KDF (the e2e module's encrypt-then-MAC construction and
//! key derivation), a stream cipher (payload encryption and the garbled
//! circuit wire-label PRG), a fixed-key block cipher (the garbled-circuit
//! gate hash), and a deterministic PRG (OT extension, joint
//! randomness for AHE parameters). None of the allowed external crates provide
//! these, so they are implemented here:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256.
//! * [`mod@hmac`] — HMAC-SHA-256 and HKDF (RFC 5869).
//! * [`chacha`] — ChaCha20 (RFC 8439) block function, stream cipher, and a
//!   deterministic PRG.
//! * [`mod@aes`] — AES-128 encryption (FIPS-197): AES-NI when the CPU has
//!   it, a constant-time bitsliced software body otherwise.
//! * [`gchash`] — the one gate hash of garbling and OT extension, the
//!   tweakable correlation-robust `H(x, i) = π(π(x) ⊕ i) ⊕ π(x)` on
//!   fixed-key AES.

pub mod aes;
pub mod chacha;
pub mod gchash;
pub mod hmac;
pub mod sha256;

pub use aes::transpose_8x8;
pub use chacha::{ChaCha20, Prg};
pub use gchash::gate_hash;
pub use hmac::{hkdf, hmac_sha256};
pub use sha256::{sha256, Sha256};

/// Constant-time equality for byte strings (prevents MAC timing leaks).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// XORs `src` into `dst` in place. Panics if lengths differ.
pub fn xor_in_place(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_in_place length mismatch");
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d ^= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn xor_in_place_roundtrip() {
        let mut a = vec![0xAAu8; 16];
        let b = vec![0x55u8; 16];
        xor_in_place(&mut a, &b);
        assert_eq!(a, vec![0xFFu8; 16]);
        xor_in_place(&mut a, &b);
        assert_eq!(a, vec![0xAAu8; 16]);
    }

    #[test]
    #[should_panic]
    fn xor_in_place_length_mismatch_panics() {
        let mut a = vec![0u8; 4];
        xor_in_place(&mut a, &[0u8; 5]);
    }
}
