//! Ring-LWE additively homomorphic encryption ("XPIR-BV", paper §4.1).
//!
//! Pretzel replaces the Baseline's Paillier cryptosystem with the additively
//! homomorphic scheme of Brakerski and Vaikuntanathan as implemented in the
//! XPIR system. The pay-off (Figure 6) is that Enc/Dec drop from hundreds of
//! microseconds to tens of microseconds, at the cost of much larger
//! ciphertexts — which Pretzel then exploits with packing (§4.2): a single
//! ciphertext holds `n` plaintext *slots* (polynomial coefficients), and the
//! across-row packing technique rotates slots with cheap monomial
//! multiplications ("left shift and add", Figure 6's last microbenchmark row).
//!
//! Scheme outline (BGV-style encoding with the message in the low bits):
//!
//! * Ring: `R_q = Z_q\[x\]/(x^n + 1)`, `n` a power of two, `q ≡ 1 (mod 2n)` a
//!   prime chosen for NTT-friendliness.
//! * Plaintext space: `R_t` with `t = 2^{plain_bits}`; each of the `n`
//!   coefficients is one packing slot.
//! * Keys: secret `s` ternary; public key `(pk0, pk1) = (−(a·s) + t·e, a)`.
//! * `Enc(m) = (pk0·u + t·e1 + m, pk1·u + t·e2)` with ternary `u`.
//! * `Dec(c) = ((c0 + c1·s mod q) centered) mod t`.
//! * Addition is component-wise; multiplying by an integer scalar multiplies
//!   both components; multiplying by the monomial `x^{-k}` rotates slots
//!   left by `k` (used by §4.2 packing and the Figure 5 candidate-topic
//!   protocol).
//!
//! Arithmetic contract
//! -------------------
//! Every coefficient a [`Ciphertext`] or [`PublicKey`] holds is a *canonical*
//! residue in `[0, q)`: the deserializers reject anything else (a peer
//! controls those bytes), and every operation here takes canonical values in
//! and hands canonical values out. In between, nothing divides:
//!
//! * The transforms use Harvey's lazy butterflies with Shoup quotients beside
//!   the twiddles (see [`ntt`]); intermediate values reach `4q`, so `q` must
//!   stay below 2⁶² — [`Params::new`] picks the first NTT prime above 2⁶¹.
//! * Pointwise products go through the Barrett reduction
//!   [`ntt::Modulus::reduce_u128`]; a ciphertext-wide scalar multiple is one
//!   Shoup quotient and then a lazy product per coefficient.
//! * The client's dot product — the paper's "left shift and add", once per
//!   feature per email — runs on an [`Accumulator`]: 128-bit lanes that take
//!   `scalar · rotated coefficient` terms unreduced and are reduced once, in
//!   [`Accumulator::finish`]. The accumulator tracks the largest value a
//!   lane can have reached and folds (reduces every lane) before the next
//!   term could pass 2¹²⁸, so it is exact for any `u64` scalar and any number
//!   of terms; with the protocol's frequencies (≤ 15) a fold would take
//!   2⁶² terms, far more than any email has.
//!
//! Because every result is the same canonical residue the division-based code
//! produced, ciphertext bytes on the wire do not depend on any of this.

#![warn(missing_docs)]

pub mod ntt;

use std::sync::Arc;

use rand::Rng;

use ntt::{add_mod, find_ntt_prime, sub_mod, Modulus, NttTables};
use pretzel_primitives::Prg;

/// Errors from RLWE operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RlweError {
    /// Plaintext slot value does not fit in the plaintext modulus.
    SlotOutOfRange {
        /// Index of the offending slot.
        slot: usize,
        /// The out-of-range value supplied for it.
        value: u64,
    },
    /// Too many slots supplied for the ring degree.
    TooManySlots {
        /// Number of slot values supplied.
        given: usize,
        /// Ring degree (maximum slots per ciphertext).
        max: usize,
    },
    /// Ciphertext bytes could not be parsed.
    Malformed,
    /// Parameters of two operands do not match.
    ParameterMismatch,
}

impl std::fmt::Display for RlweError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RlweError::SlotOutOfRange { slot, value } => {
                write!(f, "slot {slot} value {value} exceeds plaintext modulus")
            }
            RlweError::TooManySlots { given, max } => {
                write!(f, "{given} slots supplied but the ring only has {max}")
            }
            RlweError::Malformed => write!(f, "malformed ciphertext"),
            RlweError::ParameterMismatch => write!(f, "mismatched RLWE parameters"),
        }
    }
}

impl std::error::Error for RlweError {}

/// Public parameters of the XPIR-BV scheme.
#[derive(Clone, Debug)]
pub struct Params {
    /// Ring degree = number of packing slots per ciphertext (paper: p = 1024).
    pub n: usize,
    /// Ciphertext modulus (NTT-friendly prime).
    pub q: u64,
    /// Plaintext modulus `t = 2^plain_bits`; each slot holds `plain_bits` bits.
    pub t: u64,
    /// log2(t).
    pub plain_bits: u32,
    /// Centered-binomial noise parameter (number of coin pairs).
    pub noise_k: u32,
    tables: Arc<NttTables>,
}

impl PartialEq for Params {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.q == other.q && self.t == other.t
    }
}
impl Eq for Params {}

impl Params {
    /// Builds parameters with ring degree `n` (power of two) and
    /// `plain_bits`-bit slots. The ciphertext modulus is the smallest
    /// NTT-friendly prime above 2^61, giving ~16 KB ciphertexts at n = 1024 —
    /// the size the paper quotes for XPIR-BV.
    pub fn new(n: usize, plain_bits: u32) -> Self {
        assert!(n.is_power_of_two(), "ring degree must be a power of two");
        assert!(
            (8..=48).contains(&plain_bits),
            "plaintext modulus must be between 2^8 and 2^48"
        );
        let q = find_ntt_prime(n, 1 << 61);
        let tables = Arc::new(NttTables::new(n, q));
        Params {
            n,
            q,
            t: 1u64 << plain_bits,
            plain_bits,
            noise_k: 8,
            tables,
        }
    }

    /// The parameters used throughout the Pretzel evaluation: 1024 slots of
    /// 32 bits (enough for `b = log L + b_in + f_in` with the paper's feature
    /// counts and quantization).
    pub fn pretzel_default() -> Self {
        Self::new(1024, 32)
    }

    /// Number of packing slots per ciphertext (the paper's `p`).
    pub fn slots(&self) -> usize {
        self.n
    }

    /// `q` with its division-free reduction.
    fn modulus(&self) -> &Modulus {
        self.tables.modulus()
    }

    /// Parses `2n` little-endian coefficients into two polynomials,
    /// rejecting a wrong length and any coefficient outside `[0, q)`: the
    /// arithmetic (`add_mod`'s `a + b`, the lazy transforms, the
    /// accumulator's headroom rule) is only correct on canonical residues,
    /// and these bytes come from the peer.
    fn parse_poly_pair(&self, bytes: &[u8]) -> Result<(Vec<u64>, Vec<u64>), RlweError> {
        if bytes.len() != self.ciphertext_bytes() {
            return Err(RlweError::Malformed);
        }
        // Each half gets a vector of its own exact size: splitting one
        // 2n-coefficient vector would leave `c0` holding all 2n of capacity,
        // 8 KB wasted per ciphertext of a stored model or a received batch.
        let parse = |half: &[u8]| {
            let poly: Vec<u64> = half
                .chunks_exact(8)
                .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("chunks of 8")))
                .collect();
            if poly.iter().any(|&v| v >= self.q) {
                return Err(RlweError::Malformed);
            }
            Ok(poly)
        };
        let (first, second) = bytes.split_at(self.n * 8);
        Ok((parse(first)?, parse(second)?))
    }

    /// Serialized ciphertext size in bytes (two degree-n polynomials of u64).
    pub fn ciphertext_bytes(&self) -> usize {
        2 * self.n * 8
    }

    /// Remaining multiplicative noise headroom: the largest scalar `z` such
    /// that a fresh ciphertext scaled by `z` and summed `additions` times
    /// still decrypts correctly. Used by callers to validate packing
    /// parameters (`b = log L + b_in + f_in`, §4.2).
    pub fn max_scalar_budget(&self, additions: u64) -> u64 {
        // Fresh noise per coefficient is bounded by roughly
        // noise_k * (2n + 1); require t * noise * z * additions < q / 4.
        let fresh = (self.noise_k as u64) * (2 * self.n as u64 + 1);
        let budget = self.q / 4 / self.t / fresh.max(1) / additions.max(1);
        budget.max(1)
    }
}

/// A plaintext: up to `n` slot values, each `< t`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plaintext {
    coeffs: Vec<u64>,
}

impl Plaintext {
    /// Encodes slot values (length ≤ n); missing slots are zero.
    pub fn encode(params: &Params, slots: &[u64]) -> Result<Self, RlweError> {
        if slots.len() > params.n {
            return Err(RlweError::TooManySlots {
                given: slots.len(),
                max: params.n,
            });
        }
        for (i, &v) in slots.iter().enumerate() {
            if v >= params.t {
                return Err(RlweError::SlotOutOfRange { slot: i, value: v });
            }
        }
        let mut coeffs = vec![0u64; params.n];
        coeffs[..slots.len()].copy_from_slice(slots);
        Ok(Plaintext { coeffs })
    }

    /// Decodes back to slot values.
    pub fn slots(&self) -> &[u64] {
        &self.coeffs
    }
}

/// Secret key: the ternary polynomial `s`, kept twice.
///
/// * In the NTT domain, for [`SecretKey::decrypt`]: a whole phase `c0 + c1·s`
///   is a forward transform, `n` pointwise products and an inverse transform.
/// * In the coefficient domain as sign masks, for
///   [`SecretKey::decrypt_prefix`]: one pair `[plus, minus]` per coefficient,
///   `plus` all ones where `s_j = 1` and `minus` all ones where `s_j = −1`,
///   stored in reverse order (`signs[x]` belongs to `s_{n−1−x}`) so that
///   every slot's inner product walks both `c1` and the masks forwards.
///   Reading slot `i` selects `c` or `q − c` with the masks and adds — no
///   multiply, no branch on `s`, no load whose address depends on `s`.
#[derive(Clone)]
pub struct SecretKey {
    params: Params,
    s_ntt: Vec<u64>,
    signs: Vec<[u64; 2]>,
}

/// Public key `(pk0, pk1)` (kept in the NTT domain for fast encryption).
#[derive(Clone)]
pub struct PublicKey {
    params: Params,
    pk0_ntt: Vec<u64>,
    pk1_ntt: Vec<u64>,
}

/// An RLWE ciphertext `(c0, c1)`, stored in the coefficient domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ciphertext {
    c0: Vec<u64>,
    c1: Vec<u64>,
}

impl Ciphertext {
    /// Serializes to little-endian bytes (c0 then c1).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity((self.c0.len() + self.c1.len()) * 8);
        for v in self.c0.iter().chain(self.c1.iter()) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Deserializes from bytes produced by [`Ciphertext::to_bytes`]. Fails
    /// on a wrong length or a coefficient that is not below `q`.
    pub fn from_bytes(params: &Params, bytes: &[u8]) -> Result<Self, RlweError> {
        let (c0, c1) = params.parse_poly_pair(bytes)?;
        Ok(Ciphertext { c0, c1 })
    }
}

/// Samples a ternary polynomial with coefficients in {-1, 0, 1} (represented
/// mod q).
fn sample_ternary<R: Rng + ?Sized>(params: &Params, rng: &mut R) -> Vec<u64> {
    (0..params.n)
        .map(|_| match rng.gen_range(0..3u8) {
            0 => 0,
            1 => 1,
            _ => params.q - 1,
        })
        .collect()
}

/// Samples centered-binomial noise with parameter `noise_k` (mod q).
fn sample_noise<R: Rng + ?Sized>(params: &Params, rng: &mut R) -> Vec<u64> {
    (0..params.n)
        .map(|_| {
            let mut acc: i64 = 0;
            for _ in 0..params.noise_k {
                acc += rng.gen_range(0..2) as i64;
                acc -= rng.gen_range(0..2) as i64;
            }
            if acc >= 0 {
                acc as u64
            } else {
                params.q - (-acc) as u64
            }
        })
        .collect()
}

/// Expands a 32-byte seed into a uniform polynomial (the shared "a" of the
/// public key). Both parties contributing to this seed is Pretzel's defense
/// against adversarial AHE parameter generation (§3.3, footnote 3).
pub fn expand_uniform_poly(params: &Params, seed: &[u8; 32]) -> Vec<u64> {
    let mut prg = Prg::new(seed);
    let mut out = Vec::with_capacity(params.n);
    let zone = params.q * (u64::MAX / params.q);
    while out.len() < params.n {
        let v = prg.next_u64();
        // Rejection sample into [0, q) to keep the distribution uniform.
        if v < zone {
            out.push(v % params.q);
        }
    }
    out
}

/// Generates a key pair. If `seed_for_a` is provided, the public polynomial
/// `a` is derived deterministically from it (joint-randomness defense);
/// otherwise it is sampled from the supplied RNG.
pub fn keygen<R: Rng + ?Sized>(
    params: &Params,
    seed_for_a: Option<&[u8; 32]>,
    rng: &mut R,
) -> (SecretKey, PublicKey) {
    let tables = &params.tables;
    let modulus = params.modulus();
    let q = params.q;

    let mut s = sample_ternary(params, rng);
    let e = sample_noise(params, rng);
    let signs = s
        .iter()
        .rev()
        .map(|&c| [u64::from(c == 1), u64::from(c == q - 1)].map(|b| b.wrapping_neg()))
        .collect();

    let a = match seed_for_a {
        Some(seed) => expand_uniform_poly(params, seed),
        None => (0..params.n).map(|_| rng.gen_range(0..q)).collect(),
    };

    // pk0 = -(a*s) + t*e ; computed via NTT.
    let mut a_ntt = a.clone();
    tables.forward(&mut a_ntt);
    tables.forward(&mut s);
    let s_ntt = s;
    let mut as_prod: Vec<u64> = a_ntt
        .iter()
        .zip(s_ntt.iter())
        .map(|(&x, &y)| modulus.mul(x, y))
        .collect();
    tables.inverse(&mut as_prod);
    let pk0: Vec<u64> = as_prod
        .iter()
        .zip(e.iter())
        .map(|(&as_i, &e_i)| add_mod(sub_mod(0, as_i, q), modulus.mul(params.t, e_i), q))
        .collect();

    let mut pk0_ntt = pk0;
    tables.forward(&mut pk0_ntt);

    (
        SecretKey {
            params: params.clone(),
            s_ntt,
            signs,
        },
        PublicKey {
            params: params.clone(),
            pk0_ntt,
            pk1_ntt: a_ntt,
        },
    )
}

impl PublicKey {
    /// Scheme parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Serializes the public key (pk0 then pk1, NTT domain, little-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 * self.params.n * 8);
        for v in self.pk0_ntt.iter().chain(self.pk1_ntt.iter()) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Deserializes a public key produced by [`PublicKey::to_bytes`] under
    /// the given parameters. Fails on a wrong length or a coefficient that
    /// is not below `q`.
    pub fn from_bytes(params: &Params, bytes: &[u8]) -> Result<Self, RlweError> {
        let (pk0_ntt, pk1_ntt) = params.parse_poly_pair(bytes)?;
        Ok(PublicKey {
            params: params.clone(),
            pk0_ntt,
            pk1_ntt,
        })
    }

    /// Encrypts a plaintext.
    pub fn encrypt<R: Rng + ?Sized>(&self, pt: &Plaintext, rng: &mut R) -> Ciphertext {
        let params = &self.params;
        let tables = &params.tables;
        let modulus = params.modulus();
        let q = params.q;

        let mut u = sample_ternary(params, rng);
        tables.forward(&mut u);
        let e1 = sample_noise(params, rng);
        let e2 = sample_noise(params, rng);

        // pk·u + t·e for one component.
        let component = |pk_ntt: &[u64], e: &[u64]| -> Vec<u64> {
            let mut c: Vec<u64> = pk_ntt
                .iter()
                .zip(u.iter())
                .map(|(&p, &uu)| modulus.mul(p, uu))
                .collect();
            tables.inverse(&mut c);
            for (x, &e_i) in c.iter_mut().zip(e) {
                *x = add_mod(*x, modulus.mul(params.t, e_i), q);
            }
            c
        };

        // c0 = pk0*u + t*e1 + m (slot values are below t, hence below q).
        let mut c0 = component(&self.pk0_ntt, &e1);
        for (x, &m) in c0.iter_mut().zip(&pt.coeffs) {
            *x = add_mod(*x, m, q);
        }
        // c1 = pk1*u + t*e2
        let c1 = component(&self.pk1_ntt, &e2);

        Ciphertext { c0, c1 }
    }

    /// Encrypts raw slot values.
    pub fn encrypt_slots<R: Rng + ?Sized>(
        &self,
        slots: &[u64],
        rng: &mut R,
    ) -> Result<Ciphertext, RlweError> {
        let pt = Plaintext::encode(&self.params, slots)?;
        Ok(self.encrypt(&pt, rng))
    }

    /// Homomorphic addition of two ciphertexts.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let q = self.params.q;
        Ciphertext {
            c0: a
                .c0
                .iter()
                .zip(b.c0.iter())
                .map(|(&x, &y)| add_mod(x, y, q))
                .collect(),
            c1: a
                .c1
                .iter()
                .zip(b.c1.iter())
                .map(|(&x, &y)| add_mod(x, y, q))
                .collect(),
        }
    }

    /// In-place homomorphic addition (avoids an allocation in the dot-product
    /// inner loop, which Figure 7's client CPU column is sensitive to).
    pub fn add_assign(&self, acc: &mut Ciphertext, other: &Ciphertext) {
        let q = self.params.q;
        for (x, &y) in acc.c0.iter_mut().zip(other.c0.iter()) {
            *x = add_mod(*x, y, q);
        }
        for (x, &y) in acc.c1.iter_mut().zip(other.c1.iter()) {
            *x = add_mod(*x, y, q);
        }
    }

    /// Homomorphic addition of a plaintext (used for blinding, Figure 2
    /// step 2, bullet 2).
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let q = self.params.q;
        let mut out = a.clone();
        for (x, &m) in out.c0.iter_mut().zip(pt.coeffs.iter()) {
            *x = add_mod(*x, m, q);
        }
        out
    }

    /// Homomorphic multiplication by an integer scalar (the `x_i · Enc(v_i)`
    /// step of GLLM).
    pub fn mul_scalar(&self, a: &Ciphertext, scalar: u64) -> Ciphertext {
        let mut out = self.zero_accumulator();
        self.mul_scalar_accumulate(&mut out, a, scalar);
        out
    }

    /// Fused multiply-accumulate on a canonical ciphertext:
    /// `acc += scalar * a`, reduced after every term. A dot product of many
    /// terms is cheaper on an [`Accumulator`], which reduces once.
    pub fn mul_scalar_accumulate(&self, acc: &mut Ciphertext, a: &Ciphertext, scalar: u64) {
        let modulus = self.params.modulus();
        let q = self.params.q;
        // One multiplier for all 2n coefficients: Shoup's case.
        let s = modulus.reduce_u128(scalar as u128);
        let s_shoup = modulus.shoup(s);
        let lanes = acc
            .c0
            .iter_mut()
            .zip(&a.c0)
            .chain(acc.c1.iter_mut().zip(&a.c1));
        for (x, &y) in lanes {
            *x = add_mod(*x, modulus.mul_shoup(y, s, s_shoup), q);
        }
    }

    /// Rotates the packed slots left by `k` positions ("left shift", §4.2):
    /// slot `i` of the result holds slot `i + k` of the input. Slots that wrap
    /// around carry a sign flip modulo `t`; Pretzel only ever reads the
    /// non-wrapped region, exactly as the paper's across-row packing does.
    ///
    /// Implemented as multiplication by the monomial `x^{-k}`, which costs a
    /// coefficient permutation and no noise growth.
    pub fn rotate_left(&self, a: &Ciphertext, k: usize) -> Ciphertext {
        let q = self.params.q;
        let k = k % self.params.n;
        // Coefficients k.. move down unchanged; the k that wrap come back
        // negated (x^n = −1).
        let rotate = |poly: &[u64]| -> Vec<u64> {
            let mut out = Vec::with_capacity(poly.len());
            out.extend_from_slice(&poly[k..]);
            out.extend(poly[..k].iter().map(|&c| sub_mod(0, c, q)));
            out
        };
        Ciphertext {
            c0: rotate(&a.c0),
            c1: rotate(&a.c1),
        }
    }

    /// Encryption of the all-zero plaintext (fresh randomness).
    pub fn encrypt_zero<R: Rng + ?Sized>(&self, rng: &mut R) -> Ciphertext {
        self.encrypt(&Plaintext::encode(&self.params, &[]).unwrap(), rng)
    }

    /// A "trivial" (noiseless, non-hiding) encryption of zero, useful as the
    /// accumulator seed of a dot product. Adding real ciphertexts to it makes
    /// the result a proper encryption.
    pub fn zero_accumulator(&self) -> Ciphertext {
        Ciphertext {
            c0: vec![0u64; self.params.n],
            c1: vec![0u64; self.params.n],
        }
    }

    /// An empty lazy accumulator for a dot product of many
    /// `scalar · rotated ciphertext` terms (see [`Accumulator`]).
    pub fn accumulator(&self) -> Accumulator<'_> {
        let n = self.params.n;
        Accumulator {
            params: &self.params,
            c0: vec![0u128; n],
            c1: vec![0u128; n],
            bound: 0,
        }
    }
}

/// The running sum `Σ scalar_j · rotate_left(ct_j, k_j)` of a homomorphic dot
/// product, kept unreduced in 128-bit lanes.
///
/// Canonical ciphertexts in, a canonical ciphertext out of
/// [`Accumulator::finish`] — bit for bit what composing
/// [`PublicKey::rotate_left`], [`PublicKey::mul_scalar`] and
/// [`PublicKey::add_assign`] term by term gives — but a term costs one
/// multiply-add per coefficient: no reduction, no branch, no allocation.
///
/// Headroom rule: a term adds at most `scalar · q` to a lane. `bound` is the
/// sum of those maxima since the lanes were last reduced; when the next term
/// would carry it past `u128::MAX` the lanes are folded to `[0, q)` first. A
/// `u64::MAX` scalar therefore folds every few terms, a frequency of 15 not
/// within 2⁶² terms, and no lane can ever wrap.
pub struct Accumulator<'a> {
    params: &'a Params,
    c0: Vec<u128>,
    c1: Vec<u128>,
    /// No lane exceeds this.
    bound: u128,
}

impl Accumulator<'_> {
    /// Adds `scalar · rotate_left(ct, k)`: slot `i` gains `scalar` times slot
    /// `i + k` of `ct` (negated where `i + k` wraps past `n`). `ct` must be a
    /// ciphertext under this accumulator's parameters.
    pub fn add_rotated_scaled(&mut self, ct: &Ciphertext, k: usize, scalar: u64) {
        let n = self.params.n;
        let q = self.params.q;
        assert!(
            ct.c0.len() == n && ct.c1.len() == n,
            "ciphertext from other parameters"
        );
        let k = k % n;
        let scalar = scalar as u128;
        // Every addend below is at most scalar·q (coefficients are below q,
        // and q − 0 = q).
        let term = scalar * q as u128;
        self.bound = match self.bound.checked_add(term) {
            Some(bound) => bound,
            None => {
                self.fold();
                q as u128 + term
            }
        };
        for (lane, poly) in [(&mut self.c0, &ct.c0), (&mut self.c1, &ct.c1)] {
            let (unwrapped, wrapped) = lane.split_at_mut(n - k);
            for (acc, &c) in unwrapped.iter_mut().zip(&poly[k..]) {
                *acc += scalar * c as u128;
            }
            for (acc, &c) in wrapped.iter_mut().zip(&poly[..k]) {
                *acc += scalar * (q - c) as u128;
            }
        }
    }

    /// Reduces every lane to `[0, q)`.
    fn fold(&mut self) {
        let modulus = self.params.modulus();
        for x in self.c0.iter_mut().chain(self.c1.iter_mut()) {
            *x = modulus.reduce_u128(*x) as u128;
        }
    }

    /// Reduces the sum to a canonical ciphertext.
    pub fn finish(self) -> Ciphertext {
        let modulus = self.params.modulus();
        let reduce = |lane: Vec<u128>| lane.into_iter().map(|x| modulus.reduce_u128(x)).collect();
        Ciphertext {
            c0: reduce(self.c0),
            c1: reduce(self.c1),
        }
    }
}

impl SecretKey {
    /// Scheme parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// `c0 + c1·s mod q`: the message plus `t` times the noise.
    fn phase(&self, ct: &Ciphertext) -> Vec<u64> {
        let params = &self.params;
        let tables = &params.tables;
        let modulus = params.modulus();
        let mut phase = ct.c1.clone();
        tables.forward(&mut phase);
        for (x, &s) in phase.iter_mut().zip(self.s_ntt.iter()) {
            *x = modulus.mul(*x, s);
        }
        tables.inverse(&mut phase);
        for (x, &c0) in phase.iter_mut().zip(&ct.c0) {
            *x = add_mod(*x, c0, params.q);
        }
        phase
    }

    /// Decrypts a ciphertext to its plaintext slots.
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        let q = self.params.q;
        debug_assert!(self.params.t.is_power_of_two());
        let t_mask = self.params.t - 1;
        let mut coeffs = self.phase(ct);
        for v in coeffs.iter_mut() {
            *v = center_mod_pow2(*v, q, t_mask);
        }
        Plaintext { coeffs }
    }

    /// Decrypts and returns the slot values.
    pub fn decrypt_slots(&self, ct: &Ciphertext) -> Vec<u64> {
        self.decrypt(ct).coeffs
    }

    /// Decrypts slots `0..k` only: the first `k` values of
    /// [`SecretKey::decrypt_slots`], at the lower of two costs.
    ///
    /// Up to `PREFIX_SUM_MAX_SLOTS` (16) slots, each slot's phase is summed
    /// without a transform: `c0[i]` plus the negacyclic inner product
    /// `Σ_j c1[i−j]·s_j`, the terms with `j > i` negated (`x^n = −1`). With
    /// `s` ternary each term is `c`, `q − c` or 0, picked by the key's sign
    /// masks and added with `c0[i]` into a `u128` (below `(n+1)·q`), then
    /// reduced once mod `q` — TFHE's sample extraction (Chillotti et al.
    /// 2016) on this ring. Neither a branch nor an address depends on `s`.
    /// That costs `k·n` masked adds; past the threshold the full decrypt's
    /// two length-`n` NTTs cost less, and it runs instead. The branch is on
    /// the public `k` only. The provider reads one slot per topic candidate
    /// and two per spam or virus verdict (summed); an undecomposed topic
    /// round reads all B (transformed). Panics if `k > n`.
    pub fn decrypt_prefix(&self, ct: &Ciphertext, k: usize) -> Vec<u64> {
        let n = self.params.n;
        assert!(k <= n, "a ciphertext has only {n} slots");
        if k > PREFIX_SUM_MAX_SLOTS {
            let mut slots = self.decrypt_slots(ct);
            slots.truncate(k);
            return slots;
        }
        self.sum_prefix(ct, k)
    }

    /// The transform-free half of [`SecretKey::decrypt_prefix`], for any
    /// `k ≤ n`.
    fn sum_prefix(&self, ct: &Ciphertext, k: usize) -> Vec<u64> {
        let n = self.params.n;
        let q = self.params.q;
        let modulus = self.params.modulus();
        let t_mask = self.params.t - 1;
        (0..k)
            .map(|i| {
                // signs[n−1−i+j'] belongs to s_{i−j'}: c1[j'] for j' ≤ i meets
                // s_{i−j'} with a plus sign; c1[j'] for j' > i meets
                // s_{n+i−j'}, which is signs[j'−i−1], with a minus sign.
                let (head, tail) = ct.c1.split_at(i + 1);
                let (wrapped, unwrapped) = self.signs.split_at(n - 1 - i);
                let plus: u128 = head
                    .iter()
                    .zip(unwrapped)
                    .map(|(&c, &[p, m])| ((c & p) | ((q - c) & m)) as u128)
                    .sum();
                let minus: u128 = tail
                    .iter()
                    .zip(wrapped)
                    .map(|(&c, &[p, m])| ((c & m) | ((q - c) & p)) as u128)
                    .sum();
                let phase = modulus.reduce_u128(ct.c0[i] as u128 + plus + minus);
                center_mod_pow2(phase, q, t_mask)
            })
            .collect()
    }

    /// Estimates the remaining noise budget in bits (log2 of q / (2·|noise|)),
    /// given the expected plaintext. Returns 0 when decryption is (close to)
    /// failing; 64 when the ciphertext is noiseless.
    pub fn noise_budget_bits(&self, ct: &Ciphertext, expected: &Plaintext) -> u32 {
        let q = self.params.q;
        let mut max_noise: u128 = 0;
        for (&v, &exp) in self.phase(ct).iter().zip(&expected.coeffs) {
            let signed: i128 = if v > q / 2 {
                v as i128 - q as i128
            } else {
                v as i128
            };
            let noise = signed - exp as i128;
            max_noise = max_noise.max(noise.unsigned_abs());
        }
        if max_noise == 0 {
            return 64;
        }
        let budget = (q as u128 / 2) / max_noise;
        (128 - budget.leading_zeros()).saturating_sub(1)
    }
}

/// Slot count up to which [`SecretKey::decrypt_prefix`] sums masked terms
/// instead of transforming. At n = 1 024 on a 2-vCPU Xeon one full decrypt
/// (35–44 µs) costs as much as 17–36 slots of adds (0.9–2.6 µs a slot,
/// varying by the hour), so at 16 the sum is the cheaper side on every
/// measurement. The served reads are one or two slots, or all B of an
/// undecomposed topic round (B = 128–2 048 in Figure 10), far from it.
const PREFIX_SUM_MAX_SLOTS: usize = 16;

/// Centers `v ∈ [0, q)` to `(−q/2, q/2]` and reduces it into `[0, t)` for the
/// power-of-two `t = t_mask + 1`. `t` divides 2⁶⁴, so the two's-complement
/// wrap of `v − q` has the same residue mod `t` as the negative integer.
/// Branch-free: `q/2 − v` goes negative exactly when `v > q/2` (both are
/// below 2⁶²), and its sign bit, spread to a mask, selects the `q` to take
/// away.
#[inline]
fn center_mod_pow2(v: u64, q: u64, t_mask: u64) -> u64 {
    let above_half = (((q / 2).wrapping_sub(v) as i64) >> 63) as u64;
    v.wrapping_sub(q & above_half) & t_mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> Params {
        Params::new(256, 20)
    }

    #[test]
    fn params_report_expected_sizes() {
        let p = Params::pretzel_default();
        assert_eq!(p.slots(), 1024);
        assert_eq!(p.ciphertext_bytes(), 16 * 1024);
        assert_eq!(p.t, 1 << 32);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let params = small_params();
        let mut rng = rand::thread_rng();
        let (sk, pk) = keygen(&params, None, &mut rng);
        let slots: Vec<u64> = (0..params.n as u64).map(|i| i * 7 % params.t).collect();
        let ct = pk.encrypt_slots(&slots, &mut rng).unwrap();
        assert_eq!(sk.decrypt_slots(&ct), slots);
    }

    #[test]
    fn encryption_is_randomized() {
        let params = small_params();
        let mut rng = rand::thread_rng();
        let (_, pk) = keygen(&params, None, &mut rng);
        let a = pk.encrypt_slots(&[5, 6, 7], &mut rng).unwrap();
        let b = pk.encrypt_slots(&[5, 6, 7], &mut rng).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn homomorphic_addition_is_slotwise() {
        let params = small_params();
        let mut rng = rand::thread_rng();
        let (sk, pk) = keygen(&params, None, &mut rng);
        let a = pk.encrypt_slots(&[1, 2, 3, 4], &mut rng).unwrap();
        let b = pk.encrypt_slots(&[10, 20, 30, 40], &mut rng).unwrap();
        let sum = pk.add(&a, &b);
        assert_eq!(&sk.decrypt_slots(&sum)[..4], &[11, 22, 33, 44]);
    }

    #[test]
    fn scalar_multiplication() {
        let params = small_params();
        let mut rng = rand::thread_rng();
        let (sk, pk) = keygen(&params, None, &mut rng);
        let a = pk.encrypt_slots(&[3, 5, 7], &mut rng).unwrap();
        let scaled = pk.mul_scalar(&a, 9);
        assert_eq!(&sk.decrypt_slots(&scaled)[..3], &[27, 45, 63]);
    }

    #[test]
    fn scalar_ops_equal_the_division_oracle_per_coefficient() {
        use ntt::mul_mod;
        let params = small_params();
        let (n, q) = (params.n, params.q);
        let mut rng = rand::thread_rng();
        let (_, pk) = keygen(&params, None, &mut rng);
        let mut ct = pk.encrypt_slots(&[4, 5, 6], &mut rng).unwrap();
        ct.c0[0] = 0;
        ct.c0[1] = q - 1;
        let start = pk.encrypt_slots(&[1], &mut rng).unwrap();
        for scalar in [0, 1, 15, q - 1, q, q + 1, u64::MAX, rng.gen()] {
            let scaled = pk.mul_scalar(&ct, scalar);
            let mut acc = start.clone();
            pk.mul_scalar_accumulate(&mut acc, &ct, scalar);
            for i in 0..n {
                let product = mul_mod(ct.c0[i], scalar % q, q);
                assert_eq!(scaled.c0[i], product, "scalar={scalar} i={i}");
                assert_eq!(acc.c0[i], (start.c0[i] + product) % q);
                let product = mul_mod(ct.c1[i], scalar % q, q);
                assert_eq!(scaled.c1[i], product, "scalar={scalar} i={i}");
                assert_eq!(acc.c1[i], (start.c1[i] + product) % q);
            }
        }
    }

    #[test]
    fn fused_multiply_accumulate_matches_separate_ops() {
        let params = small_params();
        let mut rng = rand::thread_rng();
        let (sk, pk) = keygen(&params, None, &mut rng);
        let a = pk.encrypt_slots(&[1, 2], &mut rng).unwrap();
        let b = pk.encrypt_slots(&[10, 20], &mut rng).unwrap();
        let mut acc = pk.zero_accumulator();
        pk.mul_scalar_accumulate(&mut acc, &a, 3);
        pk.mul_scalar_accumulate(&mut acc, &b, 5);
        let expected = pk.add(&pk.mul_scalar(&a, 3), &pk.mul_scalar(&b, 5));
        assert_eq!(sk.decrypt_slots(&acc), sk.decrypt_slots(&expected));
        assert_eq!(&sk.decrypt_slots(&acc)[..2], &[53, 106]);
    }

    #[test]
    fn add_plain_blinds_slots() {
        let params = small_params();
        let mut rng = rand::thread_rng();
        let (sk, pk) = keygen(&params, None, &mut rng);
        let ct = pk.encrypt_slots(&[100, 200], &mut rng).unwrap();
        let blind = Plaintext::encode(&params, &[11, 22]).unwrap();
        let blinded = pk.add_plain(&ct, &blind);
        assert_eq!(&sk.decrypt_slots(&blinded)[..2], &[111, 222]);
    }

    #[test]
    fn rotate_left_moves_slots_toward_zero() {
        let params = small_params();
        let mut rng = rand::thread_rng();
        let (sk, pk) = keygen(&params, None, &mut rng);
        let slots: Vec<u64> = (0..params.n as u64).collect();
        let ct = pk.encrypt_slots(&slots, &mut rng).unwrap();
        let rotated = pk.rotate_left(&ct, 5);
        let dec = sk.decrypt_slots(&rotated);
        // Non-wrapped region: slot i now holds original slot i + 5.
        for (i, &d) in dec.iter().take(params.n - 5).enumerate() {
            assert_eq!(d, (i as u64) + 5);
        }
        // Rotation by zero is the identity.
        let same = pk.rotate_left(&ct, 0);
        assert_eq!(sk.decrypt_slots(&same), slots);
    }

    #[test]
    fn rotate_left_edge_shifts_match_the_per_index_definition() {
        let params = small_params();
        let n = params.n;
        let q = params.q;
        let mut rng = rand::thread_rng();
        let (_, pk) = keygen(&params, None, &mut rng);
        let mut ct = pk.encrypt_slots(&[1, 2, 3], &mut rng).unwrap();
        // A zero coefficient must stay zero (not become q) when it wraps.
        ct.c0[0] = 0;
        for k in [0, 1, n / 2, n - 1, n, n + 3, 5 * n - 1] {
            let rotated = pk.rotate_left(&ct, k);
            for (poly, out) in [(&ct.c0, &rotated.c0), (&ct.c1, &rotated.c1)] {
                for (i, &got) in out.iter().enumerate() {
                    let src = (i + k % n) % n;
                    let expected = if i + k % n >= n {
                        (q - poly[src]) % q
                    } else {
                        poly[src]
                    };
                    assert_eq!(got, expected, "k={k} i={i}");
                }
            }
        }
        assert_eq!(pk.rotate_left(&ct, 0), ct);
        assert_eq!(pk.rotate_left(&ct, n), ct);
    }

    /// The composition the accumulator replaces, term by term.
    fn reference_sum(pk: &PublicKey, terms: &[(&Ciphertext, usize, u64)]) -> Ciphertext {
        let mut acc = pk.zero_accumulator();
        for &(ct, k, scalar) in terms {
            pk.add_assign(&mut acc, &pk.mul_scalar(&pk.rotate_left(ct, k), scalar));
        }
        acc
    }

    fn accumulated(pk: &PublicKey, terms: &[(&Ciphertext, usize, u64)]) -> Ciphertext {
        let mut acc = pk.accumulator();
        for &(ct, k, scalar) in terms {
            acc.add_rotated_scaled(ct, k, scalar);
        }
        acc.finish()
    }

    #[test]
    fn accumulator_equals_rotate_scale_add_bit_for_bit() {
        let params = small_params();
        let n = params.n;
        let q = params.q;
        let mut rng = rand::thread_rng();
        let (_, pk) = keygen(&params, None, &mut rng);
        let mut cts: Vec<Ciphertext> = (0..4)
            .map(|i| pk.encrypt_slots(&[i, 7, 9], &mut rng).unwrap())
            .collect();
        // Extreme canonical coefficients: all q − 1, and all zero.
        cts.push(Ciphertext {
            c0: vec![q - 1; n],
            c1: vec![q - 1; n],
        });
        cts.push(pk.zero_accumulator());

        assert_eq!(accumulated(&pk, &[]), pk.zero_accumulator());

        let shifts = [0, 1, n / 2, n - 1, n, 3 * n + 5];
        let scalars = [0, 1, 2, 15, q - 1, q, q + 1, u64::MAX];
        // Every edge shift with every edge scalar, as single terms and as
        // one long sum.
        let mut grid = Vec::new();
        for (i, &k) in shifts.iter().enumerate() {
            for (j, &scalar) in scalars.iter().enumerate() {
                let term = (&cts[(i + j) % cts.len()], k, scalar);
                assert_eq!(
                    accumulated(&pk, &[term]),
                    reference_sum(&pk, &[term]),
                    "k={k} scalar={scalar}"
                );
                grid.push(term);
            }
        }
        assert_eq!(accumulated(&pk, &grid), reference_sum(&pk, &grid));

        // Random sequences, protocol-sized scalars and arbitrary ones.
        for round in 0..20 {
            let terms: Vec<_> = (0..rng.gen_range(1..40))
                .map(|_| {
                    let scalar = if round % 2 == 0 {
                        rng.gen_range(0..16)
                    } else {
                        rng.gen()
                    };
                    (
                        &cts[rng.gen_range(0..cts.len())],
                        rng.gen_range(0..2 * n),
                        scalar,
                    )
                })
                .collect();
            assert_eq!(accumulated(&pk, &terms), reference_sum(&pk, &terms));
        }
    }

    #[test]
    fn accumulator_folds_before_a_lane_could_wrap() {
        // u64::MAX · q is just over 2^125: the eighth such term would pass
        // 2^128, so 64 of them force the fold many times over. In a debug
        // build a missed fold is an overflow panic; in release it is a wrong
        // residue — the comparison catches both.
        let params = small_params();
        let (n, q) = (params.n, params.q);
        let mut rng = rand::thread_rng();
        let (_, pk) = keygen(&params, None, &mut rng);
        let top = Ciphertext {
            c0: vec![q - 1; n],
            c1: vec![0; n],
        };
        let terms: Vec<_> = (0..64).map(|i| (&top, i * 5, u64::MAX)).collect();
        let mut acc = pk.accumulator();
        let mut folds = 0;
        for &(ct, k, scalar) in &terms {
            let before = acc.bound;
            acc.add_rotated_scaled(ct, k, scalar);
            folds += usize::from(acc.bound < before);
        }
        assert!(folds >= 8, "only {folds} folds in 64 maximal terms");
        assert_eq!(acc.finish(), reference_sum(&pk, &terms));

        // Protocol-sized frequencies never fold.
        let ct = pk.encrypt_slots(&[1, 2, 3], &mut rng).unwrap();
        let mut acc = pk.accumulator();
        for i in 0..5000 {
            acc.add_rotated_scaled(&ct, i, 15);
        }
        assert_eq!(acc.bound, 5000 * 15 * q as u128);
    }

    #[test]
    fn masked_centering_equals_the_signed_128_bit_expression() {
        // What decrypt computed before: center on i128, then a signed `%`.
        let reference = |v: u64, q: u64, t: u64| -> u64 {
            let signed: i128 = if v > q / 2 {
                v as i128 - q as i128
            } else {
                v as i128
            };
            let t = t as i128;
            (((signed % t) + t) % t) as u64
        };
        let mut rng = rand::thread_rng();
        for plain_bits in [8, 20, 32, 48] {
            let params = Params::new(64, plain_bits);
            let (q, t) = (params.q, params.t);
            let half = q / 2;
            let mut values = vec![0, 1, t - 1, t, t + 1, half - 1, half, half + 1, half + 2];
            values.extend([q - t - 1, q - t, q - t + 1, q - 2, q - 1]);
            values.extend((0..1000).map(|_| rng.gen_range(0..q)));
            for v in values {
                assert_eq!(
                    center_mod_pow2(v, q, t - 1),
                    reference(v, q, t),
                    "v={v} t=2^{plain_bits}"
                );
            }
        }
        // And through decrypt itself, on ciphertexts whose phase straddles
        // q/2: slots near t/2 scaled by a large odd factor wrap many times.
        let params = small_params();
        let (sk, pk) = keygen(&params, None, &mut rng);
        let slots: Vec<u64> = (0..params.n as u64)
            .map(|i| params.t / 2 - 3 + i % 7)
            .collect();
        let ct = pk.encrypt_slots(&slots, &mut rng).unwrap();
        let scaled = pk.mul_scalar(&ct, 12345);
        let expected: Vec<u64> = slots.iter().map(|&m| m * 12345 % params.t).collect();
        assert_eq!(sk.decrypt_slots(&scaled), expected);
    }

    #[test]
    fn prefix_decrypt_equals_the_ntt_decrypt() {
        let mut rng = rand::thread_rng();
        for params in [small_params(), Params::pretzel_default()] {
            let (n, t) = (params.n, params.t);
            let (sk, pk) = keygen(&params, None, &mut rng);
            let slots: Vec<u64> = (0..n as u64).map(|i| (i * 7919 + 3) % t).collect();
            let fresh = pk.encrypt_slots(&slots, &mut rng).unwrap();
            let other = pk.encrypt_slots(&[t - 1, 1, t / 2], &mut rng).unwrap();
            let noise: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
            let blinded = pk.add_plain(&fresh, &Plaintext::encode(&params, &noise).unwrap());
            let mut acc = pk.accumulator();
            acc.add_rotated_scaled(&fresh, 5, 15);
            acc.add_rotated_scaled(&other, n - 1, 3);
            acc.add_rotated_scaled(&fresh, 0, 1);
            let extremes = Ciphertext {
                c0: vec![params.q - 1; n],
                c1: vec![params.q - 1; n],
            };
            let cts = [
                fresh.clone(),
                blinded.clone(),
                pk.rotate_left(&fresh, 1),
                pk.rotate_left(&blinded, n / 2 + 3),
                acc.finish(),
                extremes,
                pk.zero_accumulator(),
            ];
            let edge = PREFIX_SUM_MAX_SLOTS;
            for (which, ct) in cts.iter().enumerate() {
                let full = sk.decrypt_slots(ct);
                for k in [0, 1, 2, 3, edge, edge + 1, n] {
                    assert_eq!(sk.sum_prefix(ct, k), full[..k], "ct {which}, k={k}, n={n}");
                    assert_eq!(
                        sk.decrypt_prefix(ct, k),
                        full[..k],
                        "ct {which}, k={k}, n={n}"
                    );
                }
            }
            assert_eq!(sk.sum_prefix(&fresh, n), slots);
            assert_eq!(sk.decrypt_prefix(&fresh, n), slots);
        }
    }

    #[test]
    fn deserializers_reject_non_canonical_coefficients() {
        let params = small_params();
        let mut rng = rand::thread_rng();
        let (_, pk) = keygen(&params, None, &mut rng);
        let ct = pk.encrypt_slots(&[1], &mut rng).unwrap();
        for good in [ct.to_bytes(), pk.to_bytes()] {
            for (at, bad) in [
                (0, params.q),
                (params.n - 1, u64::MAX),
                (params.n, params.q + 1),
                (2 * params.n - 1, u64::MAX),
            ] {
                let mut bytes = good.clone();
                bytes[at * 8..at * 8 + 8].copy_from_slice(&bad.to_le_bytes());
                assert_eq!(
                    Ciphertext::from_bytes(&params, &bytes),
                    Err(RlweError::Malformed)
                );
                assert!(matches!(
                    PublicKey::from_bytes(&params, &bytes),
                    Err(RlweError::Malformed)
                ));
            }
            let mut bytes = good;
            bytes[..8].copy_from_slice(&(params.q - 1).to_le_bytes());
            assert!(Ciphertext::from_bytes(&params, &bytes).is_ok());
            assert!(PublicKey::from_bytes(&params, &bytes).is_ok());
        }
    }

    #[test]
    fn rotate_then_add_aligns_rows_like_pretzel_packing() {
        // Emulates §4.2: pack two "rows" of k elements into one ciphertext,
        // left-shift by k, add, and read the pairwise sums from the first k
        // slots.
        let params = small_params();
        let mut rng = rand::thread_rng();
        let (sk, pk) = keygen(&params, None, &mut rng);
        let k = 8usize;
        let row1: Vec<u64> = (1..=k as u64).collect();
        let row2: Vec<u64> = (101..=100 + k as u64).collect();
        let mut packed = row1.clone();
        packed.extend_from_slice(&row2);
        let ct = pk.encrypt_slots(&packed, &mut rng).unwrap();
        let shifted = pk.rotate_left(&ct, k);
        let sum = pk.add(&ct, &shifted);
        let dec = sk.decrypt_slots(&sum);
        for i in 0..k {
            assert_eq!(dec[i], row1[i] + row2[i]);
        }
    }

    #[test]
    fn dot_product_of_packed_columns() {
        // x · V for a matrix packed one column element per slot: exactly the
        // GLLM computation the sdp crate performs.
        let params = small_params();
        let mut rng = rand::thread_rng();
        let (sk, pk) = keygen(&params, None, &mut rng);
        let rows = 10usize;
        let cols = 4usize;
        let matrix: Vec<Vec<u64>> = (0..rows)
            .map(|i| (0..cols).map(|j| ((i * 13 + j * 7) % 50) as u64).collect())
            .collect();
        let x: Vec<u64> = (0..rows).map(|i| (i % 5) as u64).collect();
        let row_cts: Vec<Ciphertext> = matrix
            .iter()
            .map(|row| pk.encrypt_slots(row, &mut rng).unwrap())
            .collect();
        let mut acc = pk.zero_accumulator();
        for (ct, &xi) in row_cts.iter().zip(x.iter()) {
            pk.mul_scalar_accumulate(&mut acc, ct, xi);
        }
        let dec = sk.decrypt_slots(&acc);
        for j in 0..cols {
            let expected: u64 = (0..rows).map(|i| matrix[i][j] * x[i]).sum();
            assert_eq!(dec[j], expected);
        }
    }

    #[test]
    fn seeded_keygen_is_deterministic_in_a() {
        let params = small_params();
        let mut rng = rand::thread_rng();
        let seed = [9u8; 32];
        let a1 = expand_uniform_poly(&params, &seed);
        let a2 = expand_uniform_poly(&params, &seed);
        assert_eq!(a1, a2);
        let (sk, pk) = keygen(&params, Some(&seed), &mut rng);
        let ct = pk.encrypt_slots(&[42], &mut rng).unwrap();
        assert_eq!(sk.decrypt_slots(&ct)[0], 42);
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let params = small_params();
        let mut rng = rand::thread_rng();
        let (sk, pk) = keygen(&params, None, &mut rng);
        let bytes = pk.to_bytes();
        assert_eq!(bytes.len(), 2 * params.n * 8);
        let restored = PublicKey::from_bytes(&params, &bytes).unwrap();
        let ct = restored.encrypt_slots(&[13, 37], &mut rng).unwrap();
        assert_eq!(&sk.decrypt_slots(&ct)[..2], &[13, 37]);
        assert!(PublicKey::from_bytes(&params, &bytes[..10]).is_err());
    }

    #[test]
    fn serialization_roundtrip_and_size() {
        let params = small_params();
        let mut rng = rand::thread_rng();
        let (sk, pk) = keygen(&params, None, &mut rng);
        let ct = pk.encrypt_slots(&[7, 8, 9], &mut rng).unwrap();
        let bytes = ct.to_bytes();
        assert_eq!(bytes.len(), params.ciphertext_bytes());
        let restored = Ciphertext::from_bytes(&params, &bytes).unwrap();
        assert_eq!(sk.decrypt_slots(&restored)[..3], [7, 8, 9]);
        assert!(Ciphertext::from_bytes(&params, &bytes[1..]).is_err());
    }

    #[test]
    fn slot_range_and_count_validation() {
        let params = small_params();
        assert!(matches!(
            Plaintext::encode(&params, &[params.t]),
            Err(RlweError::SlotOutOfRange { .. })
        ));
        let too_many = vec![0u64; params.n + 1];
        assert!(matches!(
            Plaintext::encode(&params, &too_many),
            Err(RlweError::TooManySlots { .. })
        ));
    }

    #[test]
    fn noise_budget_survives_a_large_dot_product() {
        // L = 2000 terms with frequencies up to 15 and 16-bit model values:
        // the spam operating point of §6.1 after quantization.
        let params = Params::new(256, 32);
        let mut rng = rand::thread_rng();
        let (sk, pk) = keygen(&params, None, &mut rng);
        let values: Vec<u64> = (0..256u64).map(|i| (i * 257) % (1 << 16)).collect();
        let ct = pk.encrypt_slots(&values, &mut rng).unwrap();
        let mut acc = pk.zero_accumulator();
        let mut expected = vec![0u64; 256];
        for l in 0..2000u64 {
            let freq = l % 15 + 1;
            pk.mul_scalar_accumulate(&mut acc, &ct, freq);
            for (e, v) in expected.iter_mut().zip(values.iter()) {
                *e = (*e + freq * v) % params.t;
            }
        }
        assert_eq!(sk.decrypt_slots(&acc), expected);
        let pt = Plaintext::encode(&params, &expected).unwrap();
        assert!(sk.noise_budget_bits(&acc, &pt) > 0);
    }
}
