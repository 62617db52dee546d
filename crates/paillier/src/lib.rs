//! The Paillier additively homomorphic cryptosystem.
//!
//! Paillier is the AHE used by Pretzel's **Baseline** protocol (paper §3.3)
//! and by the prior Yao+GLLM works the paper cites. Pretzel replaces it with a
//! Ring-LWE scheme (§4.1, `pretzel-rlwe`); both are benchmarked side by side
//! in Figure 6 and drive the Baseline-vs-Pretzel comparisons in Figures 7–12.
//!
//! We implement the standard scheme with the `g = n + 1` generator
//! simplification:
//!
//! * KeyGen: `n = p·q` for random primes `p, q`; `λ = lcm(p−1, q−1)`;
//!   `μ = L(g^λ mod n²)⁻¹ mod n` where `L(u) = (u − 1)/n`.
//! * `Enc(m) = (1 + n·m) · rⁿ mod n²` for random `r ∈ Z*_n`.
//! * `Dec(c) = L(c^λ mod n²) · μ mod n`.
//! * Homomorphic addition is ciphertext multiplication mod `n²`; multiplying
//!   a plaintext by a constant is ciphertext exponentiation.
//!
//! # Offline/online split
//!
//! Pretzel's staging (§3.3) moves the expensive public-key work out of the
//! per-email path, and this crate supports both halves of that split:
//!
//! * **Decryption** runs CRT-style: two half-size exponentiations mod `p²`
//!   and `q²` over precomputed [`pretzel_bignum::AutoMontgomery`] contexts
//!   (fixed-limb engines when the width is supported), recombined with
//!   Garner's formula. The one-exponentiation reference path is kept as
//!   [`SecretKey::decrypt_inline`] for cross-checking.
//! * **Encryption** splits into [`PublicKey::sample_randomizer`] — the
//!   message-independent exponentiation `rⁿ mod n²`, computable ahead of
//!   time — and [`PublicKey::encrypt_with_randomizer`], a single modular
//!   multiplication. [`PublicKey::encrypt`] is the two halves back to back.
//!   Nothing in the tree stocks randomizers today: the Baseline client
//!   encrypts inline, drawing each randomizer in its round.

use rand::Rng;

use pretzel_bignum::{crt_combine, gen_prime, mod_inv, AutoMontgomery, BigUint};

/// A precomputed encryption randomizer `rⁿ mod n²` — the artifact
/// [`PublicKey::sample_randomizer`] makes ahead of time and
/// [`PublicKey::encrypt_with_randomizer`] spends.
pub type Randomizer = BigUint;

/// Errors from Paillier operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaillierError {
    /// The plaintext is not in `[0, n)`.
    PlaintextOutOfRange,
    /// Keys of different key pairs were mixed, or a ciphertext is malformed.
    InvalidCiphertext,
}

impl std::fmt::Display for PaillierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PaillierError::PlaintextOutOfRange => write!(f, "plaintext out of range"),
            PaillierError::InvalidCiphertext => write!(f, "invalid ciphertext"),
        }
    }
}

impl std::error::Error for PaillierError {}

/// Paillier public key.
#[derive(Clone, Debug)]
pub struct PublicKey {
    n: BigUint,
    n_squared: BigUint,
    mont_n2: AutoMontgomery,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
    }
}

impl Eq for PublicKey {}

/// Per-prime half of the CRT decryption context: everything needed to map a
/// ciphertext to its plaintext residue modulo one prime factor.
#[derive(Clone, Debug)]
struct CrtPrime {
    /// The prime factor (`p` or `q`).
    prime: BigUint,
    /// Montgomery context mod `prime²` (precomputed once at key generation;
    /// fixed-limb whenever the prime size hits a supported width).
    mont_sq: AutoMontgomery,
    /// The half-size exponent `prime - 1`.
    exp: BigUint,
    /// `L_prime(g^(prime-1) mod prime²)⁻¹ mod prime`, with
    /// `L_prime(x) = (x-1)/prime`.
    h: BigUint,
}

impl CrtPrime {
    fn new(prime: &BigUint, n: &BigUint) -> Option<Self> {
        let sq = prime.clone() * prime.clone();
        let exp = prime.clone() - BigUint::one();
        // g = n + 1, so g^(prime-1) mod prime² = 1 + (prime-1)·n mod prime²
        // and L_prime of it is (prime-1)·(n/prime) mod prime.
        let l_val = (exp.clone() * (n.clone() / prime.clone())) % prime.clone();
        let h = mod_inv(&l_val, prime).ok()?;
        Some(CrtPrime {
            prime: prime.clone(),
            mont_sq: AutoMontgomery::new(&sq),
            exp,
            h,
        })
    }

    /// The plaintext residue of `c` modulo this prime.
    fn residue(&self, c: &BigUint) -> Result<BigUint, PaillierError> {
        let x = self.mont_sq.pow(c, &self.exp);
        let minus_one = x
            .checked_sub(&BigUint::one())
            .ok_or(PaillierError::InvalidCiphertext)?;
        let (l, r) = minus_one.div_rem(&self.prime);
        if !r.is_zero() {
            // Happens iff gcd(c, prime) != 1 — not a valid ciphertext.
            return Err(PaillierError::InvalidCiphertext);
        }
        Ok((l * self.h.clone()) % self.prime.clone())
    }
}

/// Paillier secret key.
#[derive(Clone, Debug)]
pub struct SecretKey {
    lambda: BigUint,
    mu: BigUint,
    /// CRT contexts for the two prime factors and `p⁻¹ mod q`.
    crt_p: CrtPrime,
    crt_q: CrtPrime,
    p_inv_q: BigUint,
    public: PublicKey,
}

/// A Paillier ciphertext (an element of `Z*_{n²}`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ciphertext {
    value: BigUint,
}

impl Ciphertext {
    /// Serialized size in bytes for a key with modulus bit-length `n_bits`
    /// (ciphertexts live mod `n²`, hence twice the modulus size).
    pub fn serialized_len(n_bits: usize) -> usize {
        2 * n_bits.div_ceil(8)
    }

    /// Serializes the ciphertext as fixed-width big-endian bytes.
    pub fn to_bytes(&self, pk: &PublicKey) -> Vec<u8> {
        self.value
            .to_bytes_be_padded(Ciphertext::serialized_len(pk.n.bits()))
    }

    /// Deserializes a ciphertext (no validity check beyond range).
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Ciphertext {
            value: BigUint::from_bytes_be(bytes),
        }
    }

    /// Raw value accessor (used by tests).
    pub fn value(&self) -> &BigUint {
        &self.value
    }
}

impl PublicKey {
    /// The modulus `n`.
    pub fn n(&self) -> &BigUint {
        &self.n
    }

    /// Serializes the public key (the modulus `n`, big-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.n.to_bytes_be()
    }

    /// Reconstructs a public key from serialized bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PaillierError> {
        let n = BigUint::from_bytes_be(bytes);
        if n < BigUint::from(16u64) || n.is_even() {
            return Err(PaillierError::InvalidCiphertext);
        }
        let n_squared = n.clone() * n.clone();
        let mont_n2 = AutoMontgomery::new(&n_squared);
        Ok(PublicKey {
            n,
            n_squared,
            mont_n2,
        })
    }

    /// Which Montgomery engine backs the `n²` arithmetic: `"fixed:<limbs>"`
    /// for the allocation-free fixed-limb path, `"dynamic"` for the
    /// `Vec`-backed fallback. Exposed for inspection tests.
    pub fn mont_backend(&self) -> &'static str {
        self.mont_n2.backend()
    }

    /// Bit length of the modulus.
    pub fn n_bits(&self) -> usize {
        self.n.bits()
    }

    /// Number of plaintext bits that can be packed into one ciphertext
    /// (the paper's packing capacity `p = ⌊G/b⌋` uses `G =` this value).
    pub fn plaintext_bits(&self) -> usize {
        // Keep a one-bit headroom below n to avoid wrap-around on packed sums.
        self.n.bits() - 1
    }

    /// Encrypts `m ∈ [0, n)`.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        m: &BigUint,
        rng: &mut R,
    ) -> Result<Ciphertext, PaillierError> {
        // Reject before sampling: an invalid plaintext must not cost an
        // n-bit exponentiation or advance the RNG stream.
        if m >= &self.n {
            return Err(PaillierError::PlaintextOutOfRange);
        }
        let rn = self.sample_randomizer(rng);
        self.encrypt_with_randomizer(m, &rn)
    }

    /// Samples a fresh encryption randomizer `rⁿ mod n²` — the expensive,
    /// message-independent half of [`PublicKey::encrypt`], and the unit of
    /// work an offline phase would precompute.
    pub fn sample_randomizer<R: Rng + ?Sized>(&self, rng: &mut R) -> Randomizer {
        // r uniform in [1, n) and coprime to n (overwhelmingly likely).
        let r = loop {
            let candidate = BigUint::random_below(rng, &self.n);
            if !candidate.is_zero() && candidate.gcd(&self.n).is_one() {
                break candidate;
            }
        };
        self.mont_n2.pow(&r, &self.n)
    }

    /// Encrypts `m` with a caller-supplied randomizer `rn = rⁿ mod n²`: one
    /// Montgomery multiplication, the cheap online half of the split.
    pub fn encrypt_with_randomizer(
        &self,
        m: &BigUint,
        rn: &Randomizer,
    ) -> Result<Ciphertext, PaillierError> {
        if m >= &self.n {
            return Err(PaillierError::PlaintextOutOfRange);
        }
        // (1 + n*m) mod n^2
        let gm = (BigUint::one() + self.n.clone() * m.clone()) % self.n_squared.clone();
        Ok(Ciphertext {
            value: self.mont_n2.mul(&gm, rn),
        })
    }

    /// Encrypts a `u64` plaintext.
    pub fn encrypt_u64<R: Rng + ?Sized>(
        &self,
        m: u64,
        rng: &mut R,
    ) -> Result<Ciphertext, PaillierError> {
        self.encrypt(&BigUint::from(m), rng)
    }

    /// Homomorphic addition: `Enc(a) ⊞ Enc(b) = Enc(a + b mod n)`.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        Ciphertext {
            value: self.mont_n2.mul(&a.value, &b.value),
        }
    }

    /// Homomorphic addition of a plaintext constant: `Enc(a) ⊞ k = Enc(a + k)`.
    pub fn add_plain(&self, a: &Ciphertext, k: &BigUint) -> Ciphertext {
        let gm = (BigUint::one() + self.n.clone() * (k.clone() % self.n.clone()))
            % self.n_squared.clone();
        Ciphertext {
            value: self.mont_n2.mul(&a.value, &gm),
        }
    }

    /// Homomorphic scalar multiplication: `Enc(a) ⊠ k = Enc(a · k mod n)`.
    pub fn mul_plain(&self, a: &Ciphertext, k: &BigUint) -> Ciphertext {
        Ciphertext {
            value: self.mont_n2.pow(&a.value, k),
        }
    }

    /// Scalar multiplication by a `u64`.
    pub fn mul_plain_u64(&self, a: &Ciphertext, k: u64) -> Ciphertext {
        self.mul_plain(a, &BigUint::from(k))
    }
}

impl SecretKey {
    /// The corresponding public key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Engine labels for the CRT `p²`/`q²` contexts (see
    /// [`PublicKey::mont_backend`]).
    pub fn crt_backends(&self) -> (&'static str, &'static str) {
        (self.crt_p.mont_sq.backend(), self.crt_q.mont_sq.backend())
    }

    /// Decrypts a ciphertext to its plaintext in `[0, n)`.
    ///
    /// Runs the CRT fast path: one half-size exponentiation mod `p²` and one
    /// mod `q²` (contexts precomputed at key generation), recombined with
    /// Garner's formula — several times faster than the single `λ`-power
    /// reference path, which is kept as [`SecretKey::decrypt_inline`].
    pub fn decrypt(&self, c: &Ciphertext) -> Result<BigUint, PaillierError> {
        self.check_ciphertext_range(c)?;
        let mp = self.crt_p.residue(&c.value)?;
        let mq = self.crt_q.residue(&c.value)?;
        Ok(crt_combine(
            &mp,
            &mq,
            &self.crt_p.prime,
            &self.crt_q.prime,
            &self.p_inv_q,
        ))
    }

    /// Reference decryption via the textbook `L(c^λ mod n²)·μ mod n` formula.
    ///
    /// Kept alongside [`SecretKey::decrypt`] so tests can pin the CRT path
    /// against it.
    pub fn decrypt_inline(&self, c: &Ciphertext) -> Result<BigUint, PaillierError> {
        self.check_ciphertext_range(c)?;
        let u = self.public.mont_n2.pow(&c.value, &self.lambda);
        let l = self.l_function(&u)?;
        Ok((l * self.mu.clone()) % self.public.n.clone())
    }

    /// Rejects values outside `Z*_{n²}`'s representative range. Without this
    /// check a ciphertext `>= n²` would be *silently reduced* by the
    /// Montgomery conversion inside the exponentiation, accepting a
    /// non-canonical encoding that decrypts like its reduced twin.
    fn check_ciphertext_range(&self, c: &Ciphertext) -> Result<(), PaillierError> {
        if c.value.is_zero() || c.value >= self.public.n_squared {
            return Err(PaillierError::InvalidCiphertext);
        }
        Ok(())
    }

    /// Decrypts to a `u64`, if it fits.
    pub fn decrypt_u64(&self, c: &Ciphertext) -> Result<u64, PaillierError> {
        self.decrypt(c)?
            .to_u64()
            .ok_or(PaillierError::InvalidCiphertext)
    }

    /// `L(u) = (u - 1) / n`; the division must be exact for valid inputs.
    fn l_function(&self, u: &BigUint) -> Result<BigUint, PaillierError> {
        let minus_one = u
            .checked_sub(&BigUint::one())
            .ok_or(PaillierError::InvalidCiphertext)?;
        let (q, r) = minus_one.div_rem(&self.public.n);
        if !r.is_zero() {
            return Err(PaillierError::InvalidCiphertext);
        }
        Ok(q)
    }
}

/// Generates a Paillier key pair with an `n_bits`-bit modulus.
///
/// The paper's deployment parameter is 2048 bits; tests and scaled-down
/// benchmark runs use 1024 (or smaller) for speed — the Figure 6 row for
/// Paillier is measured at whatever size the harness requests and recorded in
/// EXPERIMENTS.md.
pub fn keygen<R: Rng + ?Sized>(n_bits: usize, rng: &mut R) -> SecretKey {
    assert!(n_bits >= 64, "modulus too small to be meaningful");
    loop {
        let p = gen_prime(n_bits / 2, rng);
        let q = gen_prime(n_bits - n_bits / 2, rng);
        if p == q {
            continue;
        }
        let n = p.clone() * q.clone();
        if n.bits() != n_bits {
            continue;
        }
        let n_squared = n.clone() * n.clone();
        let p1 = p.clone() - BigUint::one();
        let q1 = q.clone() - BigUint::one();
        let lambda = p1.lcm(&q1);
        let mont_n2 = AutoMontgomery::new(&n_squared);

        // mu = (L(g^lambda mod n^2))^{-1} mod n, with g = n + 1:
        // g^lambda mod n^2 = 1 + n*lambda mod n^2, so L(..) = lambda mod n.
        let g_lambda = (BigUint::one() + n.clone() * lambda.clone()) % n_squared.clone();
        let l_val = (g_lambda - BigUint::one()) / n.clone();
        let mu = match mod_inv(&l_val, &n) {
            Ok(mu) => mu,
            Err(_) => continue,
        };
        let (Some(crt_p), Some(crt_q)) = (CrtPrime::new(&p, &n), CrtPrime::new(&q, &n)) else {
            continue;
        };
        let Ok(p_inv_q) = mod_inv(&p, &q) else {
            continue;
        };

        let public = PublicKey {
            n,
            n_squared,
            mont_n2,
        };
        return SecretKey {
            lambda,
            mu,
            crt_p,
            crt_q,
            p_inv_q,
            public,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_key() -> SecretKey {
        // 256-bit keys keep unit tests fast; correctness is size-independent.
        keygen(256, &mut rand::thread_rng())
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let sk = test_key();
        let pk = sk.public();
        let mut rng = rand::thread_rng();
        for m in [0u64, 1, 42, 1 << 20, u32::MAX as u64] {
            let c = pk.encrypt_u64(m, &mut rng).unwrap();
            assert_eq!(sk.decrypt_u64(&c).unwrap(), m);
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let sk = test_key();
        let pk = sk.public();
        let mut rng = rand::thread_rng();
        let c1 = pk.encrypt_u64(7, &mut rng).unwrap();
        let c2 = pk.encrypt_u64(7, &mut rng).unwrap();
        assert_ne!(c1, c2, "two encryptions of the same value must differ");
        assert_eq!(sk.decrypt_u64(&c1).unwrap(), 7);
        assert_eq!(sk.decrypt_u64(&c2).unwrap(), 7);
    }

    #[test]
    fn homomorphic_addition() {
        let sk = test_key();
        let pk = sk.public();
        let mut rng = rand::thread_rng();
        let ca = pk.encrypt_u64(1234, &mut rng).unwrap();
        let cb = pk.encrypt_u64(4321, &mut rng).unwrap();
        let sum = pk.add(&ca, &cb);
        assert_eq!(sk.decrypt_u64(&sum).unwrap(), 5555);
    }

    #[test]
    fn homomorphic_add_plain_and_mul_plain() {
        let sk = test_key();
        let pk = sk.public();
        let mut rng = rand::thread_rng();
        let c = pk.encrypt_u64(100, &mut rng).unwrap();
        let c2 = pk.add_plain(&c, &BigUint::from(23u64));
        assert_eq!(sk.decrypt_u64(&c2).unwrap(), 123);
        let c3 = pk.mul_plain_u64(&c, 7);
        assert_eq!(sk.decrypt_u64(&c3).unwrap(), 700);
    }

    #[test]
    fn dot_product_in_cipherspace() {
        // The exact pattern GLLM uses: sum_i x_i * Enc(v_i).
        let sk = test_key();
        let pk = sk.public();
        let mut rng = rand::thread_rng();
        let v = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let x = [2u64, 7, 1, 8, 2, 8, 1, 8];
        let encrypted: Vec<_> = v
            .iter()
            .map(|&vi| pk.encrypt_u64(vi, &mut rng).unwrap())
            .collect();
        let mut acc = pk.encrypt_u64(0, &mut rng).unwrap();
        for (ci, &xi) in encrypted.iter().zip(x.iter()) {
            acc = pk.add(&acc, &pk.mul_plain_u64(ci, xi));
        }
        let expected: u64 = v.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
        assert_eq!(sk.decrypt_u64(&acc).unwrap(), expected);
    }

    #[test]
    fn addition_wraps_modulo_n() {
        let sk = test_key();
        let pk = sk.public();
        let mut rng = rand::thread_rng();
        let near_n = pk.n().clone() - BigUint::one();
        let c = pk.encrypt(&near_n, &mut rng).unwrap();
        let c2 = pk.add_plain(&c, &BigUint::from(5u64));
        assert_eq!(sk.decrypt(&c2).unwrap(), BigUint::from(4u64));
    }

    #[test]
    fn out_of_range_plaintext_rejected() {
        let sk = test_key();
        let pk = sk.public();
        let mut rng = rand::thread_rng();
        assert_eq!(
            pk.encrypt(&pk.n().clone(), &mut rng).unwrap_err(),
            PaillierError::PlaintextOutOfRange
        );
    }

    #[test]
    fn ciphertext_serialization_roundtrip() {
        let sk = test_key();
        let pk = sk.public();
        let mut rng = rand::thread_rng();
        let c = pk.encrypt_u64(999, &mut rng).unwrap();
        let bytes = c.to_bytes(pk);
        assert_eq!(bytes.len(), Ciphertext::serialized_len(pk.n_bits()));
        let restored = Ciphertext::from_bytes(&bytes);
        assert_eq!(sk.decrypt_u64(&restored).unwrap(), 999);
    }

    #[test]
    fn invalid_ciphertext_rejected() {
        let sk = test_key();
        let zero_ct = Ciphertext {
            value: BigUint::zero(),
        };
        assert!(sk.decrypt(&zero_ct).is_err());
    }

    #[test]
    fn plaintext_bits_is_close_to_modulus_size() {
        let sk = test_key();
        assert_eq!(sk.public().plaintext_bits(), sk.public().n_bits() - 1);
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let sk = test_key();
        let pk = sk.public();
        let mut rng = rand::thread_rng();
        let restored = PublicKey::from_bytes(&pk.to_bytes()).unwrap();
        assert_eq!(&restored, pk);
        let c = restored.encrypt_u64(321, &mut rng).unwrap();
        assert_eq!(sk.decrypt_u64(&c).unwrap(), 321);
        assert!(PublicKey::from_bytes(&[2]).is_err());
    }

    #[test]
    fn distinct_keys_have_distinct_moduli() {
        let mut rng = rand::thread_rng();
        let a = keygen(128, &mut rng);
        let b = keygen(128, &mut rng);
        assert_ne!(a.public().n(), b.public().n());
    }

    #[test]
    fn crt_decrypt_matches_inline_reference() {
        let sk = test_key();
        let pk = sk.public();
        let mut rng = rand::thread_rng();
        for _ in 0..10 {
            let m = BigUint::random_below(&mut rng, pk.n());
            let c = pk.encrypt(&m, &mut rng).unwrap();
            assert_eq!(sk.decrypt(&c).unwrap(), m);
            assert_eq!(sk.decrypt_inline(&c).unwrap(), m);
        }
    }

    /// Regression test: a ciphertext `>= n²` must be rejected, not silently
    /// reduced by the Montgomery conversion inside the exponentiation. Both
    /// decryption paths must agree on the rejection.
    #[test]
    fn ciphertext_at_or_above_n_squared_rejected() {
        let sk = test_key();
        let pk = sk.public();
        let mut rng = rand::thread_rng();
        let c = pk.encrypt_u64(77, &mut rng).unwrap();
        // c + n² encodes the same residue but is a non-canonical wire value.
        let shifted = Ciphertext {
            value: c.value().clone() + pk.n().clone() * pk.n().clone(),
        };
        assert_eq!(
            sk.decrypt(&shifted).unwrap_err(),
            PaillierError::InvalidCiphertext
        );
        assert_eq!(
            sk.decrypt_inline(&shifted).unwrap_err(),
            PaillierError::InvalidCiphertext
        );
        // Exactly n² is also out of range.
        let at_bound = Ciphertext {
            value: pk.n().clone() * pk.n().clone(),
        };
        assert!(sk.decrypt(&at_bound).is_err());
        // The canonical ciphertext still decrypts.
        assert_eq!(sk.decrypt_u64(&c).unwrap(), 77);
    }

    /// Regression test for the fixed-limb rewrite: at 256-bit keys every
    /// Montgomery context sits on the fixed path, and the `>= n²` range
    /// guard (PR 3) must still reject non-canonical ciphertexts there.
    #[test]
    fn n_squared_guard_holds_on_fixed_limb_path() {
        let sk = test_key();
        let pk = sk.public();
        // 256-bit n → 512-bit n² (8 limbs); 128-bit primes → 4-limb squares.
        assert_eq!(pk.mont_backend(), "fixed:8");
        assert_eq!(sk.crt_backends(), ("fixed:4", "fixed:4"));

        let mut rng = rand::thread_rng();
        let c = pk.encrypt_u64(77, &mut rng).unwrap();
        let shifted = Ciphertext {
            value: c.value().clone() + pk.n().clone() * pk.n().clone(),
        };
        assert_eq!(
            sk.decrypt(&shifted).unwrap_err(),
            PaillierError::InvalidCiphertext
        );
        // The canonical ciphertext still decrypts.
        assert_eq!(sk.decrypt_u64(&c).unwrap(), 77);
    }

    /// Randomizers sampled ahead of time and inline encryption must produce
    /// the same ciphertexts when driven by the same seed (the randomizers
    /// come from the same stream, just computed at different times).
    #[test]
    fn randomizers_sampled_ahead_encrypt_like_inline_under_same_seed() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let sk = keygen(256, &mut StdRng::seed_from_u64(99));
        let pk = sk.public();
        let plaintexts = [0u64, 1, 12345, u32::MAX as u64];

        let mut inline_rng = StdRng::seed_from_u64(7);
        let inline: Vec<_> = plaintexts
            .iter()
            .map(|&m| pk.encrypt_u64(m, &mut inline_rng).unwrap())
            .collect();

        let mut offline_rng = StdRng::seed_from_u64(7);
        let randomizers: Vec<_> = plaintexts
            .iter()
            .map(|_| pk.sample_randomizer(&mut offline_rng))
            .collect();
        let split: Vec<_> = plaintexts
            .iter()
            .zip(&randomizers)
            .map(|(&m, rn)| pk.encrypt_with_randomizer(&BigUint::from(m), rn).unwrap())
            .collect();

        for ((&m, ci), cs) in plaintexts.iter().zip(&inline).zip(&split) {
            // Same seed, same randomizer stream: the ciphertexts are even
            // byte-identical, and both decrypt to the plaintext.
            assert_eq!(ci, cs);
            assert_eq!(sk.decrypt_u64(ci).unwrap(), m);
        }
    }

    #[test]
    fn out_of_range_plaintext_rejected_with_a_supplied_randomizer() {
        let sk = test_key();
        let pk = sk.public();
        let mut rng = rand::thread_rng();
        let rn = pk.sample_randomizer(&mut rng);
        assert_eq!(
            pk.encrypt_with_randomizer(&pk.n().clone(), &rn)
                .unwrap_err(),
            PaillierError::PlaintextOutOfRange
        );
    }
}
