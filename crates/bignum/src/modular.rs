//! Modular arithmetic: exponentiation (through the fixed-limb Montgomery
//! engine for odd moduli), modular inverse, CRT recombination and
//! convenience helpers.

use crate::{BigUint, BignumError, MAX_MODULUS_LIMBS};

/// `(a + b) mod m`.
pub fn mod_add(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    (a.clone() % m.clone() + b.clone() % m.clone()) % m.clone()
}

/// `(a - b) mod m`.
pub fn mod_sub(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    let a = a.clone() % m.clone();
    let b = b.clone() % m.clone();
    if a >= b {
        a - b
    } else {
        a + m.clone() - b
    }
}

/// `(a * b) mod m`.
pub fn mod_mul(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    (a.clone() % m.clone()) * (b.clone() % m.clone()) % m.clone()
}

/// `base^exp mod modulus`.
///
/// Odd moduli of up to [`MAX_MODULUS_LIMBS`] limbs (every RSA/Paillier/DH
/// modulus in the tree) run Montgomery exponentiation on the fixed-limb
/// engine ([`crate::AutoMontgomery`]); any other modulus takes
/// square-and-multiply with explicit reductions.
pub fn mod_pow(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> BigUint {
    assert!(!modulus.is_zero(), "mod_pow: zero modulus");
    if modulus.is_one() {
        return BigUint::zero();
    }
    if modulus.is_odd() && modulus.limbs().len() <= MAX_MODULUS_LIMBS {
        return crate::AutoMontgomery::new(modulus).pow(base, exp);
    }
    // Generic square-and-multiply for even or oversized moduli (rare in
    // this codebase).
    let mut result = BigUint::one();
    let mut acc = base.clone() % modulus.clone();
    for i in 0..exp.bits() {
        if exp.bit(i) {
            result = mod_mul(&result, &acc, modulus);
        }
        acc = mod_mul(&acc, &acc, modulus);
    }
    result
}

/// Modular inverse of `a` modulo `m` using the binary extended GCD
/// (no divisions). Returns [`BignumError::NotInvertible`] when
/// `gcd(a, m) != 1`.
pub fn mod_inv(a: &BigUint, m: &BigUint) -> Result<BigUint, BignumError> {
    if m.is_zero() {
        return Err(BignumError::DivisionByZero);
    }
    if m.is_one() {
        return Ok(BigUint::zero());
    }
    let a = a.clone() % m.clone();
    if a.is_zero() {
        return Err(BignumError::NotInvertible);
    }

    // Signed values are represented as (value, negative?) pairs over BigUint.
    // We run the classic iterative extended Euclid using div_rem; the numbers
    // shrink quickly so the cost is acceptable for setup-time key generation.
    let mut r0 = m.clone();
    let mut r1 = a.clone();
    let mut s0 = (BigUint::zero(), false);
    let mut s1 = (BigUint::one(), false);

    while !r1.is_zero() {
        let (q, r) = r0.div_rem(&r1);
        r0 = r1;
        r1 = r;
        let qs1 = signed_mul(&q, &s1);
        let next = signed_sub(&s0, &qs1);
        s0 = s1;
        s1 = next;
    }
    if !r0.is_one() {
        return Err(BignumError::NotInvertible);
    }
    // s0 now holds the Bezout coefficient of `a`; normalize into [0, m).
    let (mag, neg) = s0;
    let mag = mag % m.clone();
    Ok(if neg && !mag.is_zero() {
        m.clone() - mag
    } else {
        mag
    })
}

fn signed_mul(q: &BigUint, s: &(BigUint, bool)) -> (BigUint, bool) {
    (q.clone() * s.0.clone(), s.1)
}

fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with both non-negative.
        (false, false) => {
            if a.0 >= b.0 {
                (a.0.clone() - b.0.clone(), false)
            } else {
                (b.0.clone() - a.0.clone(), true)
            }
        }
        // (-a) - (-b) = b - a
        (true, true) => {
            if b.0 >= a.0 {
                (b.0.clone() - a.0.clone(), false)
            } else {
                (a.0.clone() - b.0.clone(), true)
            }
        }
        // a - (-b) = a + b
        (false, true) => (a.0.clone() + b.0.clone(), false),
        // (-a) - b = -(a + b)
        (true, false) => (a.0.clone() + b.0.clone(), true),
    }
}

/// Chinese-remainder recombination for a two-prime modulus (Garner's
/// formula).
///
/// Given residues `a = x mod p` and `b = x mod q` for coprime `p`, `q` and the
/// precomputed inverse `p_inv_q = p⁻¹ mod q`, returns the unique
/// `x ∈ [0, p·q)`. This is the recombination step of CRT-based Paillier/RSA
/// decryption, where the two half-size exponentiations happen mod `p²` and
/// `q²` and only the final answer lives mod `n`.
pub fn crt_combine(
    a: &BigUint,
    b: &BigUint,
    p: &BigUint,
    q: &BigUint,
    p_inv_q: &BigUint,
) -> BigUint {
    // x = a + p * ((b - a) * p^{-1} mod q)
    let t = mod_mul(&mod_sub(b, a, q), p_inv_q, q);
    a.clone() % p.clone() + p.clone() * t
}

/// Inverse of an odd `u64` modulo 2^64 (Newton iteration).
pub(crate) fn inv64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct to 3 bits
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn inv64_small_values() {
        for x in [1u64, 3, 5, 7, 0xdeadbeefu64 | 1, u64::MAX] {
            assert_eq!(x.wrapping_mul(inv64(x)), 1);
        }
    }

    #[test]
    fn mod_add_sub_mul_small() {
        let m = big(97);
        assert_eq!(mod_add(&big(90), &big(20), &m), big(13));
        assert_eq!(mod_sub(&big(5), &big(20), &m), big(82));
        assert_eq!(mod_mul(&big(90), &big(90), &m), big(8100 % 97));
    }

    #[test]
    fn mod_pow_small_odd_modulus() {
        // 5^117 mod 19 = 1 (Fermat: 5^18 = 1, 117 = 6*18 + 9; 5^9 mod 19)
        let expected = {
            let mut acc = 1u64;
            for _ in 0..117 {
                acc = acc * 5 % 19;
            }
            acc
        };
        assert_eq!(mod_pow(&big(5), &big(117), &big(19)), big(expected));
    }

    #[test]
    fn mod_pow_even_modulus() {
        let expected = {
            let mut acc = 1u64;
            for _ in 0..77 {
                acc = acc * 7 % 100;
            }
            acc
        };
        assert_eq!(mod_pow(&big(7), &big(77), &big(100)), big(expected));
    }

    #[test]
    fn mod_pow_zero_exponent_is_one() {
        assert_eq!(mod_pow(&big(123), &BigUint::zero(), &big(97)), big(1));
        assert_eq!(
            mod_pow(&big(123), &BigUint::zero(), &BigUint::one()),
            BigUint::zero()
        );
    }

    #[test]
    fn mod_pow_fermat_little_theorem_large() {
        // p is a 128-bit prime; a^(p-1) mod p == 1.
        let p = BigUint::from_hex("ffffffffffffffffffffffffffffff61").unwrap();
        let a = BigUint::from_hex("123456789abcdef0123456789abcdef").unwrap();
        let exp = p.clone() - BigUint::one();
        assert_eq!(mod_pow(&a, &exp, &p), BigUint::one());
    }

    #[test]
    fn mod_inv_small() {
        // 3 * 6 = 18 = 1 mod 17
        assert_eq!(mod_inv(&big(3), &big(17)).unwrap(), big(6));
        assert_eq!(mod_inv(&big(10), &big(17)).unwrap(), big(12));
    }

    #[test]
    fn mod_inv_not_invertible() {
        assert_eq!(mod_inv(&big(6), &big(9)), Err(BignumError::NotInvertible));
        assert_eq!(
            mod_inv(&BigUint::zero(), &big(9)),
            Err(BignumError::NotInvertible)
        );
    }

    #[test]
    fn mod_inv_large_prime() {
        let p = BigUint::from_hex("ffffffffffffffffffffffffffffff61").unwrap();
        let a = BigUint::from_hex("deadbeefdeadbeefdeadbeef").unwrap();
        let inv = mod_inv(&a, &p).unwrap();
        assert_eq!(mod_mul(&a, &inv, &p), BigUint::one());
    }

    #[test]
    fn mod_inv_modulus_one() {
        assert_eq!(mod_inv(&big(5), &BigUint::one()).unwrap(), BigUint::zero());
    }

    #[test]
    fn crt_combine_small() {
        // x = 29, p = 7, q = 11: a = 1, b = 7.
        let p = big(7);
        let q = big(11);
        let p_inv_q = mod_inv(&p, &q).unwrap();
        let x = crt_combine(&big(1), &big(7), &p, &q, &p_inv_q);
        assert_eq!(x, big(29));
    }

    #[test]
    fn crt_combine_roundtrips_random_residues() {
        let p = BigUint::from_hex("ffffffffffffffffffffffffffffff61").unwrap();
        let q = BigUint::from_hex("f123456789abcdef1").unwrap();
        let p_inv_q = mod_inv(&(p.clone() % q.clone()), &q).unwrap();
        let x = BigUint::from_hex("deadbeefcafebabe0123456789abcdef0011223344").unwrap();
        let a = x.clone() % p.clone();
        let b = x.clone() % q.clone();
        assert_eq!(crt_combine(&a, &b, &p, &q, &p_inv_q), x);
    }
}
