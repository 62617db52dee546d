//! Safe-prime Diffie–Hellman group used by the e2e module's key agreement
//! and Schnorr signatures.

use rand::Rng;

use pretzel_bignum::{gen_safe_prime, AutoMontgomery, BigUint};

/// A multiplicative group modulo a safe prime `p = 2q + 1`, with generator
/// `g = 4` (a generator of the order-`q` subgroup of quadratic residues).
#[derive(Clone, Debug)]
pub struct DhGroup {
    p: BigUint,
    q: BigUint,
    g: BigUint,
    mont: AutoMontgomery,
}

impl DhGroup {
    /// The 1536-bit MODP group from RFC 3526 §2.
    pub fn rfc3526_1536() -> Self {
        let p_hex = concat!(
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1",
            "29024E088A67CC74020BBEA63B139B22514A08798E3404DD",
            "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245",
            "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED",
            "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D",
            "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F",
            "83655D23DCA3AD961C62F356208552BB9ED529077096966D",
            "670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"
        );
        Self::from_safe_prime(BigUint::from_hex(p_hex).expect("valid constant"))
    }

    /// Builds a group from a safe prime.
    pub fn from_safe_prime(p: BigUint) -> Self {
        let q = (p.clone() - BigUint::one()) >> 1;
        let mont = AutoMontgomery::new(&p);
        DhGroup {
            p,
            q,
            g: BigUint::from(4u64),
            mont,
        }
    }

    /// Small group for unit tests (NOT secure).
    pub fn insecure_test_group<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        Self::from_safe_prime(gen_safe_prime(bits, rng))
    }

    /// The modulus `p`.
    pub fn modulus(&self) -> &BigUint {
        &self.p
    }

    /// The subgroup order `q`.
    pub fn order(&self) -> &BigUint {
        &self.q
    }

    /// `g^exp mod p`.
    pub fn pow_g(&self, exp: &BigUint) -> BigUint {
        self.mont.pow(&self.g, exp)
    }

    /// `base^exp mod p`.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.mont.pow(base, exp)
    }

    /// `a * b mod p`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.mont.mul(a, b)
    }

    /// Uniform non-zero exponent below the subgroup order.
    pub fn random_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let e = BigUint::random_below(rng, &self.q);
            if !e.is_zero() {
                return e;
            }
        }
    }

    /// Fixed-width big-endian encoding of a group element.
    pub fn encode(&self, x: &BigUint) -> Vec<u8> {
        x.to_bytes_be_padded(self.element_bytes())
    }

    /// Size of an encoded element in bytes.
    pub fn element_bytes(&self) -> usize {
        self.p.bits().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dh_key_agreement_agrees() {
        let mut rng = rand::thread_rng();
        let group = DhGroup::insecure_test_group(96, &mut rng);
        let a = group.random_exponent(&mut rng);
        let b = group.random_exponent(&mut rng);
        let pub_a = group.pow_g(&a);
        let pub_b = group.pow_g(&b);
        assert_eq!(group.pow(&pub_b, &a), group.pow(&pub_a, &b));
    }

    #[test]
    fn generator_lies_in_prime_order_subgroup() {
        let mut rng = rand::thread_rng();
        let group = DhGroup::insecure_test_group(96, &mut rng);
        // g^q == 1 (mod p)
        assert_eq!(group.pow_g(group.order()), BigUint::one());
    }

    #[test]
    fn encoding_is_fixed_width() {
        let mut rng = rand::thread_rng();
        let group = DhGroup::insecure_test_group(96, &mut rng);
        let small = BigUint::from(3u64);
        assert_eq!(group.encode(&small).len(), group.element_bytes());
    }

    #[test]
    fn rfc_group_has_expected_size() {
        let group = DhGroup::rfc3526_1536();
        assert_eq!(group.modulus().bits(), 1536);
        assert_eq!(group.element_bytes(), 192);
    }
}
