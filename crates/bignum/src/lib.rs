//! Arbitrary-precision unsigned integer arithmetic for Pretzel's
//! number-theoretic cryptosystems (Paillier, Diffie–Hellman, Schnorr, base OT).
//!
//! The crate provides [`BigUint`], a little-endian `u64`-limb unsigned integer
//! with schoolbook multiplication, Knuth division, Montgomery modular
//! exponentiation, binary extended GCD, Miller–Rabin primality testing and
//! random (safe-)prime generation.
//!
//! Montgomery arithmetic has one engine: the allocation-free fixed-limb
//! engine in [`fixed`] ([`FixedUint`], [`MontgomeryCtx`]), which
//! [`AutoMontgomery`] runs every odd modulus of up to
//! [`MAX_MODULUS_LIMBS`] limbs on, zero-padding a modulus narrower than
//! its width. Its tests hold it to a `BigUint`-only reference (`*` and
//! `%`), not to a second Montgomery implementation.

pub mod fixed;
mod modular;
mod prime;
mod uint;

pub use fixed::{
    AutoFixedBase, AutoMontgomery, FixedBaseTable, FixedUint, MontgomeryCtx, MAX_MODULUS_LIMBS,
};
pub use modular::{crt_combine, mod_add, mod_inv, mod_mul, mod_pow, mod_sub};
pub use prime::{gen_prime, gen_safe_prime, is_probable_prime};
pub use uint::BigUint;

/// Errors produced by bignum operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BignumError {
    /// Division (or modular reduction) by zero.
    DivisionByZero,
    /// A modular inverse was requested for a non-invertible element.
    NotInvertible,
    /// A byte/hex string could not be parsed.
    Parse(String),
}

impl std::fmt::Display for BignumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BignumError::DivisionByZero => write!(f, "division by zero"),
            BignumError::NotInvertible => write!(f, "element is not invertible"),
            BignumError::Parse(s) => write!(f, "parse error: {s}"),
        }
    }
}

impl std::error::Error for BignumError {}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_biguint(max_limbs: usize) -> impl Strategy<Value = BigUint> {
        proptest::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(BigUint::from_limbs)
    }

    proptest! {
        #[test]
        fn add_commutative(a in arb_biguint(6), b in arb_biguint(6)) {
            prop_assert_eq!(a.clone() + b.clone(), b + a);
        }

        #[test]
        fn add_then_sub_roundtrips(a in arb_biguint(6), b in arb_biguint(6)) {
            let sum = a.clone() + b.clone();
            prop_assert_eq!(sum.clone() - b.clone(), a.clone());
            prop_assert_eq!(sum - a, b);
        }

        #[test]
        fn mul_commutative(a in arb_biguint(5), b in arb_biguint(5)) {
            prop_assert_eq!(a.clone() * b.clone(), b * a);
        }

        #[test]
        fn mul_distributes_over_add(a in arb_biguint(4), b in arb_biguint(4), c in arb_biguint(4)) {
            let lhs = a.clone() * (b.clone() + c.clone());
            let rhs = a.clone() * b + a * c;
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn div_rem_reconstructs(a in arb_biguint(6), b in arb_biguint(3)) {
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert!(r < b);
            prop_assert_eq!(q * b + r, a);
        }

        #[test]
        fn bytes_roundtrip(a in arb_biguint(6)) {
            let bytes = a.to_bytes_be();
            prop_assert_eq!(BigUint::from_bytes_be(&bytes), a);
        }

        #[test]
        fn shift_roundtrip(a in arb_biguint(5), s in 0usize..200) {
            prop_assert_eq!((a.clone() << s) >> s, a);
        }

        #[test]
        fn mod_pow_matches_naive(base in arb_biguint(2), exp in 0u64..40, modulus in arb_biguint(2)) {
            prop_assume!(modulus > BigUint::from(1u64));
            let expected = {
                let mut acc = BigUint::from(1u64) % modulus.clone();
                for _ in 0..exp {
                    acc = (acc * base.clone()) % modulus.clone();
                }
                acc
            };
            let got = mod_pow(&base, &BigUint::from(exp), &modulus);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn mod_inv_is_inverse(a in arb_biguint(3), m in arb_biguint(3)) {
            prop_assume!(m > BigUint::from(1u64));
            if let Ok(inv) = mod_inv(&a, &m) {
                let prod = mod_mul(&a, &inv, &m);
                prop_assert_eq!(prod, BigUint::from(1u64) % m);
            }
        }
    }
}
