//! Number-theoretic transform over Z_q for the negacyclic ring
//! Z_q\[x\]/(x^n + 1), plus the modular arithmetic helpers used throughout the
//! RLWE scheme.
//!
//! The forward/inverse transforms follow the standard iterative
//! decimation-in-time formulation with the ψ-twist merged into the butterfly
//! tables (Longa–Naehrig), so polynomial multiplication is a pointwise product
//! between transforms.
//!
//! Nothing on a transform or ciphertext path divides. A product by a constant
//! known at table-construction time (a twiddle, `n⁻¹`) uses Shoup's
//! precomputed quotient `⌊w·2⁶⁴/q⌋`; any other product or wide sum goes
//! through [`Modulus::reduce_u128`], a Barrett reduction. The butterflies are
//! Harvey's lazy ones: values stay in `[0, 4q)` (forward) or `[0, 2q)`
//! (inverse) between stages and are corrected to `[0, q)` once at the end,
//! which is why the modulus must stay below 2⁶² — `4q` has to fit a `u64`.
//! [`mul_mod`] (a `u128 %`) remains for table construction, the prime search
//! and as the oracle the tests compare against.

/// Modular addition in Z_q.
#[inline]
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    let s = a + b;
    if s >= q {
        s - q
    } else {
        s
    }
}

/// Modular subtraction in Z_q.
#[inline]
pub fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + q - b
    }
}

/// Modular multiplication in Z_q via a 128-bit division. Slow: for table
/// construction, the prime search and tests; hot paths use [`Modulus`].
#[inline]
pub fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    ((a as u128 * b as u128) % q as u128) as u64
}

/// A modulus `q < 2⁶²` with the constant that lets products and wide sums be
/// reduced without dividing.
#[derive(Clone, Copy, Debug)]
pub struct Modulus {
    q: u64,
    /// `⌊2¹²⁸/q⌋`, high and low words.
    ratio_hi: u64,
    ratio_lo: u64,
}

impl Modulus {
    /// Precomputes the Barrett constant of `q` (`1 < q < 2⁶²`, `q` odd).
    pub fn new(q: u64) -> Self {
        assert!(
            q > 1 && q < 1 << 62 && q % 2 == 1,
            "modulus must be odd and in (1, 2^62)"
        );
        // q is odd, so it does not divide 2^128 and ⌊(2^128 − 1)/q⌋ = ⌊2^128/q⌋.
        let ratio = u128::MAX / q as u128;
        Modulus {
            q,
            ratio_hi: (ratio >> 64) as u64,
            ratio_lo: ratio as u64,
        }
    }

    /// `x mod q` for any 128-bit `x`, in `[0, q)`.
    ///
    /// Barrett: the quotient estimate `⌊x·⌊2¹²⁸/q⌋ / 2¹²⁸⌋`, with the carries
    /// out of the low partial products dropped, is at most 3 below `⌊x/q⌋`
    /// and never above it, so `x − estimate·q` lies in `[0, 4q)` — which fits
    /// a `u64` because `q < 2⁶²` — and only its low 64 bits need computing.
    #[inline]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        let (x_hi, x_lo) = ((x >> 64) as u64, x as u64);
        let estimate = x_hi
            .wrapping_mul(self.ratio_hi)
            .wrapping_add(((x_hi as u128 * self.ratio_lo as u128) >> 64) as u64)
            .wrapping_add(((x_lo as u128 * self.ratio_hi as u128) >> 64) as u64);
        let r = x_lo.wrapping_sub(estimate.wrapping_mul(self.q));
        self.correct_4q(r)
    }

    /// `a·b mod q` for any 64-bit `a`, `b`, in `[0, q)`.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Shoup's quotient `⌊w·2⁶⁴/q⌋` for a multiplier `w < q`: one division,
    /// paid when a table is built or once per ciphertext-wide scalar, never
    /// per coefficient.
    pub fn shoup(&self, w: u64) -> u64 {
        debug_assert!(w < self.q);
        (((w as u128) << 64) / self.q as u128) as u64
    }

    /// `a·w mod q` up to one extra `q`: the result is in `[0, 2q)` for *any*
    /// 64-bit `a`, given `w < q` and `w_shoup = self.shoup(w)`.
    #[inline]
    fn mul_shoup_lazy(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        let quotient = ((a as u128 * w_shoup as u128) >> 64) as u64;
        a.wrapping_mul(w)
            .wrapping_sub(quotient.wrapping_mul(self.q))
    }

    /// `a·w mod q` in `[0, q)`, for any 64-bit `a`, `w < q` and
    /// `w_shoup = self.shoup(w)`.
    #[inline]
    pub fn mul_shoup(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        self.correct_2q(self.mul_shoup_lazy(a, w, w_shoup))
    }

    /// Brings a value in `[0, 2q)` to `[0, q)`.
    #[inline]
    fn correct_2q(&self, x: u64) -> u64 {
        sub_if_at_least(x, self.q)
    }

    /// Brings a value in `[0, 4q)` to `[0, q)`.
    #[inline]
    fn correct_4q(&self, x: u64) -> u64 {
        self.correct_2q(sub_if_at_least(x, 2 * self.q))
    }
}

/// `x − m` if `x ≥ m`, else `x`, for `m < 2⁶³` and `x < 2m`, without a
/// branch: the coefficients are random, so a branch here mispredicts half
/// the time (and the compiler turns a plain `if`, `min` or `cmov`-shaped
/// select into one). Under the precondition `x − m` fits an `i64`, so its
/// sign bit says whether to add `m` back.
#[inline]
fn sub_if_at_least(x: u64, m: u64) -> u64 {
    let d = x.wrapping_sub(m);
    d.wrapping_add(m & ((d as i64 >> 63) as u64))
}

/// Modular exponentiation in Z_q.
pub fn pow_mod(mut base: u64, mut exp: u64, q: u64) -> u64 {
    let mut acc = 1u64;
    base %= q;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, q);
        }
        base = mul_mod(base, base, q);
        exp >>= 1;
    }
    acc
}

/// Modular inverse in Z_q (q prime), via Fermat's little theorem.
pub fn inv_mod(a: u64, q: u64) -> u64 {
    pow_mod(a, q - 2, q)
}

/// Deterministic Miller–Rabin for `u64` (the base set below is provably
/// correct for all 64-bit integers).
pub fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Finds the smallest prime `q >= lower_bound` with `q ≡ 1 (mod 2n)`, which
/// guarantees a primitive 2n-th root of unity exists.
pub fn find_ntt_prime(n: usize, lower_bound: u64) -> u64 {
    let step = 2 * n as u64;
    let mut candidate = lower_bound - (lower_bound % step) + 1;
    if candidate < lower_bound {
        candidate += step;
    }
    loop {
        if is_prime_u64(candidate) {
            return candidate;
        }
        candidate += step;
    }
}

/// Finds a primitive 2n-th root of unity ψ modulo prime `q` (q ≡ 1 mod 2n).
pub fn find_primitive_root(n: usize, q: u64) -> u64 {
    let order = 2 * n as u64;
    let cofactor = (q - 1) / order;
    // Try small candidates; g^cofactor is a 2n-th root of unity, and it is
    // primitive iff its n-th power is -1 (i.e. != 1 at order/2).
    for g in 2u64.. {
        let psi = pow_mod(g, cofactor, q);
        if psi == 1 {
            continue;
        }
        if pow_mod(psi, order / 2, q) == q - 1 {
            return psi;
        }
    }
    unreachable!("a primitive root always exists for a valid NTT prime")
}

fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

/// Precomputed tables for negacyclic NTT of size `n` over Z_q.
#[derive(Clone, Debug)]
pub struct NttTables {
    /// Ring degree (power of two).
    pub n: usize,
    /// NTT modulus (prime, q ≡ 1 mod 2n).
    pub q: u64,
    modulus: Modulus,
    /// ψ^bitrev(i) for the forward transform, each beside its Shoup quotient.
    psi_rev: Vec<(u64, u64)>,
    /// ψ^{-bitrev(i)} for the inverse transform, likewise.
    psi_inv_rev: Vec<(u64, u64)>,
    /// n^{-1} mod q for the inverse scaling, and its Shoup quotient.
    n_inv: (u64, u64),
}

impl NttTables {
    /// Builds tables for degree `n` (power of two) and prime `q ≡ 1 mod 2n`,
    /// `q < 2⁶²`.
    pub fn new(n: usize, q: u64) -> Self {
        assert!(n.is_power_of_two(), "NTT size must be a power of two");
        assert_eq!((q - 1) % (2 * n as u64), 0, "q must be 1 mod 2n");
        let modulus = Modulus::new(q);
        let with_shoup = |w: u64| (w, modulus.shoup(w));
        let psi = find_primitive_root(n, q);
        let psi_inv = inv_mod(psi, q);
        let bits = n.trailing_zeros();
        let mut psi_rev = vec![(0u64, 0u64); n];
        let mut psi_inv_rev = vec![(0u64, 0u64); n];
        let mut pow = 1u64;
        let mut pow_inv = 1u64;
        let mut psi_powers = vec![0u64; n];
        let mut psi_inv_powers = vec![0u64; n];
        for i in 0..n {
            psi_powers[i] = pow;
            psi_inv_powers[i] = pow_inv;
            pow = mul_mod(pow, psi, q);
            pow_inv = mul_mod(pow_inv, psi_inv, q);
        }
        for i in 0..n {
            psi_rev[i] = with_shoup(psi_powers[bit_reverse(i, bits)]);
            psi_inv_rev[i] = with_shoup(psi_inv_powers[bit_reverse(i, bits)]);
        }
        NttTables {
            n,
            q,
            modulus,
            psi_rev,
            psi_inv_rev,
            n_inv: with_shoup(inv_mod(n as u64, q)),
        }
    }

    /// The modulus with its division-free reduction.
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// In-place forward negacyclic NTT. Input and output are canonical
    /// residues in `[0, q)`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let modulus = &self.modulus;
        let two_q = 2 * self.q;
        let mut t = self.n;
        let mut m = 1;
        // Harvey's lazy Cooley–Tukey butterfly: values stay in [0, 4q).
        while m < self.n {
            t /= 2;
            for (block, &(w, w_shoup)) in a.chunks_exact_mut(2 * t).zip(&self.psi_rev[m..]) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi) {
                    let u = sub_if_at_least(*x, two_q);
                    let v = modulus.mul_shoup_lazy(*y, w, w_shoup);
                    *x = u + v;
                    *y = u + two_q - v;
                }
            }
            m *= 2;
        }
        for x in a.iter_mut() {
            *x = modulus.correct_4q(*x);
        }
    }

    /// In-place inverse negacyclic NTT. Input and output are canonical
    /// residues in `[0, q)`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let modulus = &self.modulus;
        let two_q = 2 * self.q;
        let mut t = 1;
        let mut m = self.n;
        // Harvey's lazy Gentleman–Sande butterfly: values stay in [0, 2q).
        while m > 1 {
            let h = m / 2;
            for (block, &(w, w_shoup)) in a.chunks_exact_mut(2 * t).zip(&self.psi_inv_rev[h..]) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi) {
                    let (u, v) = (*x, *y);
                    *x = sub_if_at_least(u + v, two_q);
                    *y = modulus.mul_shoup_lazy(u + two_q - v, w, w_shoup);
                }
            }
            t *= 2;
            m = h;
        }
        let (n_inv, n_inv_shoup) = self.n_inv;
        for x in a.iter_mut() {
            *x = modulus.mul_shoup(*x, n_inv, n_inv_shoup);
        }
    }

    /// Negacyclic polynomial multiplication via NTT.
    pub fn multiply(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward(&mut fa);
        self.forward(&mut fb);
        for (x, y) in fa.iter_mut().zip(fb.iter()) {
            *x = self.modulus.mul(*x, *y);
        }
        self.inverse(&mut fa);
        fa
    }
}

/// Schoolbook negacyclic multiplication (reference implementation for tests).
pub fn negacyclic_mul_schoolbook(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
    let n = a.len();
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let prod = mul_mod(ai, bj, q);
            let idx = i + j;
            if idx < n {
                out[idx] = add_mod(out[idx], prod, q);
            } else {
                // x^n = -1
                out[idx - n] = sub_mod(out[idx - n], prod, q);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The transforms as they were before the Shoup/Barrett rewrite — one
    /// `u128 %` per butterfly, canonical values throughout — kept as the
    /// oracle for the lazy versions.
    fn forward_reference(tables: &NttTables, a: &mut [u64]) {
        let q = tables.q;
        let mut t = tables.n;
        let mut m = 1;
        while m < tables.n {
            t /= 2;
            for i in 0..m {
                let j1 = 2 * i * t;
                let j2 = j1 + t;
                let s = tables.psi_rev[m + i].0;
                for j in j1..j2 {
                    let u = a[j];
                    let v = mul_mod(a[j + t], s, q);
                    a[j] = add_mod(u, v, q);
                    a[j + t] = sub_mod(u, v, q);
                }
            }
            m *= 2;
        }
    }

    fn inverse_reference(tables: &NttTables, a: &mut [u64]) {
        let q = tables.q;
        let mut t = 1;
        let mut m = tables.n;
        while m > 1 {
            let h = m / 2;
            let mut j1 = 0;
            for i in 0..h {
                let j2 = j1 + t;
                let s = tables.psi_inv_rev[h + i].0;
                for j in j1..j2 {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = add_mod(u, v, q);
                    a[j + t] = mul_mod(sub_mod(u, v, q), s, q);
                }
                j1 += 2 * t;
            }
            t *= 2;
            m = h;
        }
        for x in a.iter_mut() {
            *x = mul_mod(*x, tables.n_inv.0, q);
        }
    }

    /// Random polynomials plus the edge cases: all zero, all `q − 1`, and a
    /// lone `q − 1` at either end.
    fn oracle_inputs(n: usize, q: u64) -> Vec<Vec<u64>> {
        let mut rng = rand::thread_rng();
        let mut inputs = vec![vec![0u64; n], vec![q - 1; n]];
        for at in [0, n - 1] {
            let mut spike = vec![0u64; n];
            spike[at] = q - 1;
            inputs.push(spike);
        }
        for _ in 0..8 {
            inputs.push((0..n).map(|_| rng.gen_range(0..q)).collect());
        }
        inputs
    }

    #[test]
    fn lazy_transforms_equal_the_division_oracle() {
        // The production modulus (just above 2^61, where the [0, 4q) lazy
        // range comes closest to 2^64) and a small one.
        for n in [64usize, 256, 1024] {
            for lower_bound in [1u64 << 61, 1 << 30] {
                let q = find_ntt_prime(n, lower_bound);
                let tables = NttTables::new(n, q);
                for input in oracle_inputs(n, q) {
                    let mut fast = input.clone();
                    let mut slow = input.clone();
                    tables.forward(&mut fast);
                    forward_reference(&tables, &mut slow);
                    assert_eq!(fast, slow, "forward n={n} q={q}");
                    let mut fast = input.clone();
                    let mut slow = input;
                    tables.inverse(&mut fast);
                    inverse_reference(&tables, &mut slow);
                    assert_eq!(fast, slow, "inverse n={n} q={q}");
                }
            }
        }
    }

    #[test]
    fn barrett_and_shoup_equal_mul_mod() {
        let mut rng = rand::thread_rng();
        let largest = find_ntt_prime(1024, (1 << 62) - (1 << 20));
        assert!(largest < 1 << 62);
        for q in [17u64, find_ntt_prime(1024, 1 << 61), largest] {
            let m = Modulus::new(q);
            let edges = [0u64, 1, 2, q - 1, q, q + 1, 2 * q, u64::MAX - 1, u64::MAX];
            let randoms: Vec<u64> = (0..200).map(|_| rng.gen()).collect();
            for &a in edges.iter().chain(&randoms) {
                for &b in edges.iter().chain(&randoms[..20]) {
                    assert_eq!(m.mul(a, b), mul_mod(a, b, q), "{a} * {b} mod {q}");
                    let wide = (a as u128) << 64 | b as u128;
                    assert_eq!(m.reduce_u128(wide) as u128, wide % q as u128);
                    let w = b % q;
                    let lazy = m.mul_shoup_lazy(a, w, m.shoup(w));
                    assert!(lazy < 2 * q);
                    assert_eq!(lazy % q, mul_mod(a, w, q), "shoup {a} * {w} mod {q}");
                }
            }
            assert_eq!(m.reduce_u128(u128::MAX) as u128, u128::MAX % q as u128);
        }
    }

    #[test]
    fn u64_primality() {
        assert!(is_prime_u64(2));
        assert!(is_prime_u64(1_000_000_007));
        assert!(is_prime_u64(0xFFFF_FFFF_FFFF_FFC5)); // largest 64-bit prime
        assert!(!is_prime_u64(1));
        assert!(!is_prime_u64(1_000_000_007 * 3));
    }

    #[test]
    fn ntt_prime_has_right_form() {
        let q = find_ntt_prime(1024, 1 << 61);
        assert!(is_prime_u64(q));
        assert_eq!((q - 1) % 2048, 0);
        assert!(q >= 1 << 61);
    }

    #[test]
    fn primitive_root_has_order_2n() {
        let n = 256;
        let q = find_ntt_prime(n, 1 << 30);
        let psi = find_primitive_root(n, q);
        assert_eq!(pow_mod(psi, 2 * n as u64, q), 1);
        assert_eq!(pow_mod(psi, n as u64, q), q - 1);
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let n = 512;
        let q = find_ntt_prime(n, 1 << 40);
        let tables = NttTables::new(n, q);
        let mut rng = rand::thread_rng();
        let original: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut transformed = original.clone();
        tables.forward(&mut transformed);
        assert_ne!(transformed, original);
        tables.inverse(&mut transformed);
        assert_eq!(transformed, original);
    }

    #[test]
    fn ntt_multiplication_matches_schoolbook() {
        let n = 64;
        let q = find_ntt_prime(n, 1 << 30);
        let tables = NttTables::new(n, q);
        let mut rng = rand::thread_rng();
        for _ in 0..5 {
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            assert_eq!(
                tables.multiply(&a, &b),
                negacyclic_mul_schoolbook(&a, &b, q)
            );
        }
    }

    #[test]
    fn multiplying_by_x_rotates_negacyclically() {
        let n = 8;
        let q = find_ntt_prime(n, 1 << 20);
        let tables = NttTables::new(n, q);
        let a: Vec<u64> = (1..=n as u64).collect();
        let mut x = vec![0u64; n];
        x[1] = 1; // the monomial x
        let result = tables.multiply(&a, &x);
        // a * x = -a_{n-1} + a_0 x + a_1 x^2 + ...
        assert_eq!(result[0], q - a[n - 1]);
        assert_eq!(&result[1..], &a[..n - 1]);
    }

    #[test]
    fn modular_helpers() {
        let q = 17;
        assert_eq!(add_mod(16, 5, q), 4);
        assert_eq!(sub_mod(3, 5, q), 15);
        assert_eq!(mul_mod(7, 9, q), 63 % 17);
        assert_eq!(pow_mod(3, 16, 17), 1); // Fermat
        assert_eq!(mul_mod(inv_mod(5, q), 5, q), 1);
    }
}
