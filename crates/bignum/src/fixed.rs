//! Fixed-width limb arithmetic: the crate's one Montgomery engine.
//!
//! [`BigUint`] stores its limbs in a `Vec<u64>`, so arithmetic on it
//! allocates a temporary, branches on limb length and trims trailing zeros.
//! For the moduli that actually occur in the served pipeline — Paillier
//! `n²`, the CRT squares `p²`/`q²`, the DH/OT safe primes — the limb count
//! is fixed the moment the key is generated. This module exploits that:
//! [`FixedUint<N>`] is a `[u64; N]` value type with carry-chain
//! (`adc`/`sbb`) addition and subtraction, and [`MontgomeryCtx<N>`] runs
//! CIOS Montgomery multiplication entirely on the stack with per-width
//! monomorphized loops — no heap allocation, no per-limb bounds checks, no
//! length branches in the inner loop.
//!
//! [`AutoMontgomery`] is the deployment wrapper: it inspects the modulus
//! width at setup and selects the narrowest engine of a macro-generated
//! family of widths that holds it. A modulus narrower than that width runs
//! zero-padded (CIOS needs only an odd `n < R = 2^(64·N)`), so every odd
//! modulus of up to [`MAX_MODULUS_LIMBS`] limbs has a fixed engine. The
//! proptests in `tests/fixed_vs_reference.rs` pin every width, exact and
//! padded, against a `BigUint`-only reference.
//!
//! # Constant-time notes
//!
//! The fixed-path multiply and reduction are branch-free: the CIOS loop has
//! no data-dependent branches, and the final reduction always computes
//! `t - n` and picks the result by mask (always-subtract conditional
//! select) instead of comparing first. The generic ladder
//! ([`MontgomeryCtx::pow_fixed`]) still indexes its window table with
//! exponent bits and skips zero windows, so exponent-dependent timing
//! remains there. The two entry points built for secret exponents —
//! [`FixedBaseTable`] (one base, many exponents) and
//! [`MontgomeryCtx::pow_each_fixed`] (many bases, one exponent) — read
//! their tables by masked full scan and multiply on every window; see
//! `docs/ARCHITECTURE.md` for the current status.

use std::cmp::Ordering;

use crate::BigUint;

/// The widest modulus, in 64-bit limbs, that [`AutoMontgomery`] accepts:
/// the top of its width family (a 4096-bit modulus, the `n²` of a
/// 2048-bit Paillier key).
pub const MAX_MODULUS_LIMBS: usize = 64;

/// `a + b + carry`, returning `(sum, carry_out)` with `carry_out ∈ {0, 1}`.
#[inline(always)]
const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a - b - borrow`, returning `(diff, borrow_out)` with
/// `borrow_out ∈ {0, 1}`.
#[inline(always)]
const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

/// `a + b·c + carry`, returning `(low, high)`. The sum cannot overflow:
/// `(2⁶⁴−1) + (2⁶⁴−1)² + (2⁶⁴−1) = 2¹²⁸ − 1`.
#[inline(always)]
const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + (b as u128) * (c as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// A fixed-width unsigned integer over exactly `N` little-endian `u64`
/// limbs (`N ≥ 1`).
///
/// Unlike [`BigUint`] there is no canonical-trim invariant: high limbs may
/// be zero. Values are plain `Copy` stack data, so arithmetic never touches
/// the heap.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct FixedUint<const N: usize> {
    limbs: [u64; N],
}

impl<const N: usize> FixedUint<N> {
    /// Number of limbs (the `N` parameter, exposed for generic code).
    pub const LIMBS: usize = N;

    /// The value zero.
    pub const fn zero() -> Self {
        FixedUint { limbs: [0; N] }
    }

    /// The value one.
    pub fn one() -> Self {
        let mut limbs = [0u64; N];
        limbs[0] = 1;
        FixedUint { limbs }
    }

    /// Wraps raw little-endian limbs.
    pub const fn from_limbs(limbs: [u64; N]) -> Self {
        FixedUint { limbs }
    }

    /// Read-only view of the limbs.
    pub const fn limbs(&self) -> &[u64; N] {
        &self.limbs
    }

    /// Converts from a [`BigUint`], or `None` if the value needs more than
    /// `N` limbs.
    pub fn from_biguint(x: &BigUint) -> Option<Self> {
        let src = x.limbs();
        if src.len() > N {
            return None;
        }
        let mut limbs = [0u64; N];
        limbs[..src.len()].copy_from_slice(src);
        Some(FixedUint { limbs })
    }

    /// Converts to a (trimmed, canonical) [`BigUint`].
    pub fn to_biguint(&self) -> BigUint {
        BigUint::from_limbs(self.limbs.to_vec())
    }

    /// True if every limb is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// In-place carry-chain addition; returns the carry out of the top limb.
    #[inline]
    pub fn adc_assign(&mut self, other: &Self) -> u64 {
        let mut carry = 0u64;
        for (s, &o) in self.limbs.iter_mut().zip(other.limbs.iter()) {
            let (sum, c) = adc(*s, o, carry);
            *s = sum;
            carry = c;
        }
        carry
    }

    /// In-place borrow-chain subtraction; returns the borrow out of the top
    /// limb (1 when `other > self`, in which case the limbs hold the
    /// wrapped difference mod `2^(64N)`).
    #[inline]
    pub fn sbb_assign(&mut self, other: &Self) -> u64 {
        let mut borrow = 0u64;
        for (s, &o) in self.limbs.iter_mut().zip(other.limbs.iter()) {
            let (diff, b) = sbb(*s, o, borrow);
            *s = diff;
            borrow = b;
        }
        borrow
    }

    /// `self + other` with the carry out of the top limb.
    pub fn add_carry(&self, other: &Self) -> (Self, u64) {
        let mut out = *self;
        let carry = out.adc_assign(other);
        (out, carry)
    }

    /// `self - other` with the borrow out of the top limb.
    pub fn sub_borrow(&self, other: &Self) -> (Self, u64) {
        let mut out = *self;
        let borrow = out.sbb_assign(other);
        (out, borrow)
    }

    /// Full schoolbook product, returned as `(low N limbs, high N limbs)`.
    pub fn widening_mul(&self, other: &Self) -> (Self, Self) {
        let mut out = [0u64; N];
        let mut hi = [0u64; N];
        for i in 0..N {
            let ai = self.limbs[i];
            let mut carry = 0u64;
            for j in 0..N {
                let k = i + j;
                let dst = if k < N { &mut out[k] } else { &mut hi[k - N] };
                let (lo_word, c) = mac(*dst, ai, other.limbs[j], carry);
                *dst = lo_word;
                carry = c;
            }
            // Propagate the tail carry; positions above i + N may already be
            // populated by earlier rounds.
            let mut k = i + N;
            while carry != 0 && k < 2 * N {
                let dst = if k < N { &mut out[k] } else { &mut hi[k - N] };
                let (sum, c) = adc(*dst, carry, 0);
                *dst = sum;
                carry = c;
                k += 1;
            }
        }
        (FixedUint { limbs: out }, FixedUint { limbs: hi })
    }
}

impl<const N: usize> Default for FixedUint<N> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<const N: usize> PartialOrd for FixedUint<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> Ord for FixedUint<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..N).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

/// Montgomery context over an odd modulus of at most `N` limbs.
///
/// The radix is `R = 2^(64·N)`. A modulus with fewer than `N` significant
/// limbs is zero-padded: CIOS needs only an odd `n < R`, and for operands
/// below `n` the accumulator stays below `2n` whatever the top limbs hold.
/// All hot-path state (`n`, `n0_inv`, `R mod n`, `R² mod n`) is precomputed
/// at construction; the only allocations afterwards are the final `BigUint`
/// results of the `BigUint`-facing wrappers.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx<const N: usize> {
    /// The modulus as fixed limbs.
    n: FixedUint<N>,
    /// The modulus as a `BigUint`, for reduction of oversized inputs.
    n_big: BigUint,
    /// `-n⁻¹ mod 2⁶⁴` (the CIOS `n0_inv`).
    n0_inv: u64,
    /// `R mod n` — the Montgomery form of 1.
    r1: FixedUint<N>,
    /// `R² mod n` — multiplier for conversion into Montgomery form.
    r2: FixedUint<N>,
}

impl<const N: usize> MontgomeryCtx<N> {
    /// Builds a context, or `None` when the modulus needs more than `N`
    /// limbs, is even, or is < 3.
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.limbs().len() > N || !modulus.is_odd() || *modulus <= BigUint::from(2u64) {
            return None;
        }
        let n = FixedUint::from_biguint(modulus)?;
        let n0_inv = crate::modular::inv64(modulus.limbs()[0]).wrapping_neg();
        let r1 = FixedUint::from_biguint(&((BigUint::one() << (64 * N)) % modulus))?;
        let r2 = FixedUint::from_biguint(&((BigUint::one() << (128 * N)) % modulus))?;
        Some(MontgomeryCtx {
            n,
            n_big: modulus.clone(),
            n0_inv,
            r1,
            r2,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n_big
    }

    /// The limb width `N`.
    pub const fn width(&self) -> usize {
        N
    }

    /// Montgomery product `a · b · R⁻¹ mod n` (CIOS), entirely on the
    /// stack. Operands must be `< n`.
    ///
    /// Branch-free: the loop structure depends only on `N`, and the final
    /// reduction always computes `t - n` and selects by mask.
    #[inline]
    pub fn mont_mul(&self, a: &FixedUint<N>, b: &FixedUint<N>) -> FixedUint<N> {
        let n = &self.n.limbs;
        let mut t = [0u64; N];
        // The CIOS accumulator needs two limbs above t[N-1]: t_hi, plus the
        // per-iteration bit t_top ∈ {0, 1}.
        let mut t_hi = 0u64;

        for i in 0..N {
            let ai = a.limbs[i];
            // t += ai * b
            let mut carry = 0u64;
            for (tj, &bj) in t.iter_mut().zip(&b.limbs) {
                let (lo, c) = mac(*tj, ai, bj, carry);
                *tj = lo;
                carry = c;
            }
            let (sum, t_top) = adc(t_hi, carry, 0);
            t_hi = sum;

            // m = t[0]·n' mod 2⁶⁴; t = (t + m·n) / 2⁶⁴
            let m = t[0].wrapping_mul(self.n0_inv);
            let (_, mut carry) = mac(t[0], m, n[0], 0);
            for j in 1..N {
                let (lo, c) = mac(t[j], m, n[j], carry);
                t[j - 1] = lo;
                carry = c;
            }
            let (sum, c) = adc(t_hi, carry, 0);
            t[N - 1] = sum;
            t_hi = t_top + c;
        }
        debug_assert!(t_hi <= 1, "CIOS accumulator exceeded N+1 limbs");
        self.reduce_once(&t, t_hi)
    }

    /// Folds a value `t + t_hi·R < 2n` into `[0, n)`: always computes
    /// `t - n` and selects the result by mask. The subtraction result is
    /// correct iff `t_hi` is set (the borrow cancels the R bit) or the
    /// subtraction did not borrow.
    #[inline]
    fn reduce_once(&self, t: &[u64; N], t_hi: u64) -> FixedUint<N> {
        let n = &self.n.limbs;
        let mut sub = [0u64; N];
        let mut borrow = 0u64;
        for j in 0..N {
            let (d, b) = sbb(t[j], n[j], borrow);
            sub[j] = d;
            borrow = b;
        }
        let select_sub = t_hi | (borrow ^ 1);
        let mask = 0u64.wrapping_sub(select_sub);
        let mut out = [0u64; N];
        for j in 0..N {
            out[j] = (sub[j] & mask) | (t[j] & !mask);
        }
        FixedUint { limbs: out }
    }

    /// Montgomery square `a² · R⁻¹ mod n`, for `a < n`.
    ///
    /// Fused CIOS squaring: round `i` adds the diagonal `a_i²` plus the
    /// doubled cross products `a_i · 2a_j` (j > i) — N(N+1)/2 limb products
    /// instead of the N² a general multiply pays — then runs the ordinary
    /// CIOS reduction step, all in one pass over the accumulator. The
    /// doubled rows let the accumulator reach `3n` (instead of `2n` for
    /// the multiply), so the final fold does two masked subtractions.
    /// Below 8 limbs the triangle bookkeeping costs more than the saved
    /// products, so small widths delegate to [`MontgomeryCtx::mont_mul`].
    #[inline]
    pub fn mont_sq(&self, a: &FixedUint<N>) -> FixedUint<N> {
        if N < 8 {
            return self.mont_mul(a, a);
        }
        let n = &self.n.limbs;
        // a2 = 2a, with the shifted-out top bit kept as a mask.
        let mut a2 = [0u64; N];
        let mut top = 0u64;
        for (a2j, &aj) in a2.iter_mut().zip(&a.limbs) {
            *a2j = (aj << 1) | top;
            top = aj >> 63;
        }
        let a2_top_mask = 0u64.wrapping_sub(top);

        let mut t = [0u64; N];
        let mut t_hi = 0u64;
        let mut t_hi2 = 0u64;
        for i in 0..N {
            let ai = a.limbs[i];
            // Triangle multiply: diagonal at window position i, doubled
            // cross products at i+1..N-1, the top bit's term at N.
            let p = (ai as u128) * (ai as u128);
            let (v, c) = adc(t[i], p as u64, 0);
            t[i] = v;
            // p_hi ≤ 2⁶⁴ − 2, so this cannot overflow.
            let mut carry = (p >> 64) as u64 + c;
            let mut extra = 0u64;
            if i + 1 < N {
                // a2[i+1]'s low bit is carried in from a[i], which is not
                // part of the j > i cross set — mask it off.
                let (v, c) = mac(t[i + 1], ai, a2[i + 1] & !1u64, carry);
                t[i + 1] = v;
                carry = c;
                for j in (i + 2)..N {
                    let (v, c) = mac(t[j], ai, a2[j], carry);
                    t[j] = v;
                    carry = c;
                }
                extra = a2_top_mask & ai;
            }
            let s = t_hi as u128 + carry as u128 + extra as u128;
            t_hi = s as u64;
            t_hi2 += (s >> 64) as u64;

            // Reduction round, as in mont_mul.
            let m = t[0].wrapping_mul(self.n0_inv);
            let (_, mut carry) = mac(t[0], m, n[0], 0);
            for j in 1..N {
                let (v, c) = mac(t[j], m, n[j], carry);
                t[j - 1] = v;
                carry = c;
            }
            let (v, c) = adc(t_hi, carry, 0);
            t[N - 1] = v;
            t_hi = t_hi2 + c;
            t_hi2 = 0;
        }
        debug_assert!(t_hi <= 2, "fused squaring accumulator exceeded 3n");

        // T < 3n: first masked subtract brings it under 2n, then the
        // shared single-subtract fold finishes.
        let mut sub = [0u64; N];
        let mut borrow = 0u64;
        for j in 0..N {
            let (d, b) = sbb(t[j], n[j], borrow);
            sub[j] = d;
            borrow = b;
        }
        let sel = ((t_hi != 0) as u64) | (borrow ^ 1);
        let mask = 0u64.wrapping_sub(sel);
        for j in 0..N {
            t[j] = (sub[j] & mask) | (t[j] & !mask);
        }
        t_hi = t_hi.wrapping_sub(borrow & sel);
        self.reduce_once(&t, t_hi)
    }

    /// Converts `x < n` into Montgomery form (`x · R mod n`).
    pub fn to_mont(&self, x: &FixedUint<N>) -> FixedUint<N> {
        self.mont_mul(x, &self.r2)
    }

    /// Converts a Montgomery-form value back to the ordinary domain.
    pub fn from_mont(&self, x: &FixedUint<N>) -> FixedUint<N> {
        self.mont_mul(x, &FixedUint::one())
    }

    /// Reduces an arbitrary [`BigUint`] into `[0, n)` as fixed limbs. Only
    /// divides when the input is actually out of range.
    pub fn reduce(&self, x: &BigUint) -> FixedUint<N> {
        if *x < self.n_big {
            FixedUint::from_biguint(x).expect("x < n fits in N limbs")
        } else {
            FixedUint::from_biguint(&x.div_rem(&self.n_big).1).expect("remainder fits in N limbs")
        }
    }

    /// `base^exp mod n` over fixed limbs (`base` must be `< n`).
    ///
    /// Left-to-right exponentiation in Montgomery form with a 4-bit window
    /// for crypto-sized exponents (a 16-entry stack table, four
    /// [`MontgomeryCtx::mont_sq`] calls plus at most one
    /// [`MontgomeryCtx::mont_mul`] per window) and plain square-and-multiply
    /// below the size where the table pays for itself. No heap allocation
    /// in either ladder.
    pub fn pow_fixed(&self, base: &FixedUint<N>, exp: &BigUint) -> FixedUint<N> {
        if exp.is_zero() {
            // n > 2, so 1 mod n = 1.
            return FixedUint::one();
        }
        let base_m = self.to_mont(base);
        let bits = exp.bits();
        if bits < 64 {
            let mut acc = self.r1;
            for i in (0..bits).rev() {
                acc = self.mont_sq(&acc);
                if exp.bit(i) {
                    acc = self.mont_mul(&acc, &base_m);
                }
            }
            return self.from_mont(&acc);
        }

        // 4-bit window: table[k] = base^k in Montgomery form. 64 is a
        // multiple of the window width, so a window never straddles a limb.
        let mut table = [self.r1; 16];
        for k in 1..16 {
            table[k] = self.mont_mul(&table[k - 1], &base_m);
        }
        let limbs = exp.limbs();
        let windows = bits.div_ceil(4);
        // The top window is non-zero because `bits` is exact, so the
        // accumulator starts from the table instead of squaring R mod n.
        let top = (windows - 1) * 4;
        let mut acc = table[((limbs[top / 64] >> (top % 64)) & 0xF) as usize];
        for w in (0..windows - 1).rev() {
            acc = self.mont_sq(&acc);
            acc = self.mont_sq(&acc);
            acc = self.mont_sq(&acc);
            acc = self.mont_sq(&acc);
            let chunk = ((limbs[w * 4 / 64] >> (w * 4 % 64)) & 0xF) as usize;
            if chunk != 0 {
                acc = self.mont_mul(&acc, &table[chunk]);
            }
        }
        self.from_mont(&acc)
    }

    /// `base^exp mod n` with [`BigUint`] endpoints (reduces the base
    /// first).
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.pow_fixed(&self.reduce(base), exp).to_biguint()
    }

    /// `a · b mod n` through Montgomery form (reduces both operands first).
    ///
    /// Two Montgomery products instead of a round trip's four: the first
    /// lifts `a` to `a·R`, the second folds in `b` and removes the `R`
    /// factor in the same step — `(a·R)·b·R⁻¹ = a·b mod n`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let a_r = self.mont_mul(&self.reduce(a), &self.r2);
        self.mont_mul(&a_r, &self.reduce(b)).to_biguint()
    }

    /// Precomputes `base^(j·16^i)` for every 4-bit window `i` of an
    /// exponent of up to `exp_bits` bits, so that [`FixedBaseTable::pow_fixed`]
    /// costs one product per window and no squarings. Building the table
    /// costs 16 products per window — it pays for itself from the fourth
    /// use of the same base.
    pub fn fixed_base_table(&self, base: &FixedUint<N>, exp_bits: usize) -> FixedBaseTable<N> {
        let windows = exp_bits.div_ceil(4).max(1);
        let mut rows = Vec::with_capacity(windows);
        // base^(16^i), Montgomery form.
        let mut unit = self.to_mont(base);
        for _ in 0..windows {
            let mut row = [self.r1; 16];
            for j in 1..16 {
                row[j] = self.mont_mul(&row[j - 1], &unit);
            }
            unit = self.mont_mul(&row[15], &unit);
            rows.push(row);
        }
        FixedBaseTable {
            ctx: self.clone(),
            rows,
        }
    }

    /// `base^exp mod n` for every base in `bases` (each `< n`), for one
    /// shared — typically secret — exponent.
    ///
    /// The same 4-bit ladder as [`MontgomeryCtx::pow_fixed`], except that
    /// the exponent is cut into windows once for all bases and each base's
    /// 16-entry power table is read by masked full scan: every window loads all
    /// sixteen entries and multiplies, so neither the addresses touched nor
    /// the sequence of operations depends on the exponent's digits (only on
    /// its bit length).
    pub fn pow_each_fixed(&self, bases: &[FixedUint<N>], exp: &BigUint) -> Vec<FixedUint<N>> {
        let limbs = exp.limbs();
        let digits: Vec<u64> = (0..exp.bits().div_ceil(4))
            .rev()
            .map(|w| window_digit(limbs, w))
            .collect();
        bases
            .iter()
            .map(|base| {
                let base_m = self.to_mont(base);
                let mut table = [self.r1; 16];
                for k in 1..16 {
                    table[k] = self.mont_mul(&table[k - 1], &base_m);
                }
                let mut acc = self.r1;
                for (i, &digit) in digits.iter().enumerate() {
                    if i > 0 {
                        for _ in 0..4 {
                            acc = self.mont_sq(&acc);
                        }
                    }
                    acc = self.mont_mul(&acc, &select(&table, digit));
                }
                self.from_mont(&acc)
            })
            .collect()
    }
}

/// The `w`-th 4-bit window of a little-endian limb string (zero past its
/// end). 64 is a multiple of 4, so a window never straddles a limb.
#[inline]
fn window_digit(limbs: &[u64], w: usize) -> u64 {
    limbs.get(w / 16).map_or(0, |l| (l >> (w % 16 * 4)) & 0xF)
}

/// `row[digit]`, read without letting `digit` steer an address or a
/// branch: all sixteen entries are loaded and the wanted one is kept by
/// mask.
#[inline]
fn select<const N: usize>(row: &[FixedUint<N>; 16], digit: u64) -> FixedUint<N> {
    let mut out = [0u64; N];
    for (j, entry) in row.iter().enumerate() {
        let diff = j as u64 ^ digit;
        // All ones when `diff == 0`, zero otherwise.
        let mask = ((diff | diff.wrapping_neg()) >> 63).wrapping_sub(1);
        for (o, &l) in out.iter_mut().zip(&entry.limbs) {
            *o |= l & mask;
        }
    }
    FixedUint { limbs: out }
}

/// Fixed-base exponentiation table of [`MontgomeryCtx::fixed_base_table`]:
/// row `i` holds `base^(j·16^i)` for `j = 0..16` in Montgomery form, so
/// `base^e` is the product of one entry per 4-bit window of `e`.
///
/// Sized for the OT groups: a 256-bit exponent over a 24-limb modulus is 64
/// rows × 16 entries × 192 bytes = 192 KiB. Exponents are secrets wherever
/// this is used, so rows are read by masked full scan (`select`), never
/// indexed by a digit.
#[derive(Clone, Debug)]
pub struct FixedBaseTable<const N: usize> {
    ctx: MontgomeryCtx<N>,
    rows: Vec<[FixedUint<N>; 16]>,
}

impl<const N: usize> FixedBaseTable<N> {
    /// `base^exp mod n`: one product per table row, no squarings, no heap
    /// allocation. The operation sequence is the same for every exponent.
    ///
    /// Panics if `exp` is wider than the `exp_bits` the table was built for.
    pub fn pow_fixed(&self, exp: &BigUint) -> FixedUint<N> {
        assert!(
            exp.bits() <= self.rows.len() * 4,
            "exponent wider than the fixed-base table"
        );
        let limbs = exp.limbs();
        let mut acc = select(&self.rows[0], window_digit(limbs, 0));
        for (w, row) in self.rows.iter().enumerate().skip(1) {
            acc = self
                .ctx
                .mont_mul(&acc, &select(row, window_digit(limbs, w)));
        }
        self.ctx.from_mont(&acc)
    }
}

macro_rules! auto_montgomery {
    ($(($variant:ident, $n:literal)),+ $(,)?) => {
        // `AutoMontgomery::new` takes the first width that holds the
        // modulus, so the family must ascend and end at the cap.
        const _: () = {
            let widths = [$($n),+];
            let mut i = 1;
            while i < widths.len() {
                assert!(widths[i - 1] < widths[i], "the width family must ascend");
                i += 1;
            }
            assert!(widths[widths.len() - 1] == MAX_MODULUS_LIMBS);
        };

        /// Montgomery context that runs a modulus in the narrowest
        /// fixed-limb engine that holds it, chosen at setup.
        ///
        /// This is the type the crypto hot path holds: Paillier `mont_n2`
        /// and the CRT `p²`/`q²` contexts, the DH/OT groups, and
        /// [`crate::mod_pow`] all build one of these from the modulus at
        /// setup. Every power-of-two Paillier size and the standard DH
        /// groups hit a width exactly; any other modulus runs zero-padded
        /// in the next width up.
        /// The contexts are boxed so the enum stays pointer-sized no
        /// matter the width (a `MontgomeryCtx<64>` is ~1.5 KiB inline) —
        /// keys embedding this stay cheap to move and clone, and the hot
        /// path only pays one deref per public operation, not per limb.
        #[derive(Clone, Debug)]
        pub enum AutoMontgomery {
            $(
                #[doc = concat!("Fixed ", stringify!($n), "-limb engine (moduli of at most ",
                                stringify!($n), " × 64 bits).")]
                $variant(Box<MontgomeryCtx<$n>>),
            )+
        }

        impl AutoMontgomery {
            /// Builds a context for an odd modulus ≥ 3 of at most
            /// [`MAX_MODULUS_LIMBS`] limbs, in the narrowest width of the
            /// family that holds it.
            ///
            /// # Panics
            ///
            /// If the modulus is even, < 3, or wider than
            /// [`MAX_MODULUS_LIMBS`] limbs.
            pub fn new(modulus: &BigUint) -> Self {
                let limbs = modulus.limbs().len();
                assert!(
                    limbs <= MAX_MODULUS_LIMBS,
                    "a {limbs}-limb modulus is wider than MAX_MODULUS_LIMBS = {MAX_MODULUS_LIMBS}"
                );
                $(
                    if limbs <= $n {
                        let ctx = MontgomeryCtx::<$n>::new(modulus)
                            .expect("AutoMontgomery requires an odd modulus >= 3");
                        return AutoMontgomery::$variant(Box::new(ctx));
                    }
                )+
                unreachable!("the width family ends at MAX_MODULUS_LIMBS")
            }

            /// The modulus this context reduces by.
            pub fn modulus(&self) -> &BigUint {
                match self {
                    $(AutoMontgomery::$variant(ctx) => ctx.modulus(),)+
                }
            }

            /// `base^exp mod n`.
            pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
                match self {
                    $(AutoMontgomery::$variant(ctx) => ctx.pow(base, exp),)+
                }
            }

            /// `a · b mod n` through Montgomery form.
            pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
                match self {
                    $(AutoMontgomery::$variant(ctx) => ctx.mul(a, b),)+
                }
            }

            /// Precomputes a fixed-base table for `base` (reduced first)
            /// and exponents of up to `exp_bits` bits; see
            /// [`MontgomeryCtx::fixed_base_table`].
            pub fn fixed_base(&self, base: &BigUint, exp_bits: usize) -> AutoFixedBase {
                match self {
                    $(AutoMontgomery::$variant(ctx) => AutoFixedBase::$variant(Box::new(
                        ctx.fixed_base_table(&ctx.reduce(base), exp_bits),
                    )),)+
                }
            }

            /// `base^exp mod n` for every base, for one shared exponent;
            /// see [`MontgomeryCtx::pow_each_fixed`].
            pub fn pow_each(&self, bases: &[BigUint], exp: &BigUint) -> Vec<BigUint> {
                match self {
                    $(AutoMontgomery::$variant(ctx) => {
                        let bases: Vec<_> = bases.iter().map(|b| ctx.reduce(b)).collect();
                        ctx.pow_each_fixed(&bases, exp)
                            .iter()
                            .map(FixedUint::to_biguint)
                            .collect()
                    })+
                }
            }

            /// The limb width of the engine this context runs in.
            pub fn width(&self) -> usize {
                match self {
                    $(AutoMontgomery::$variant(_) => $n,)+
                }
            }
        }

        /// A base prepared by [`AutoMontgomery::fixed_base`] for repeated
        /// exponentiation, at whichever width its context selected.
        #[derive(Clone, Debug)]
        pub enum AutoFixedBase {
            $(
                #[doc = concat!("Table over the fixed ", stringify!($n), "-limb engine.")]
                $variant(Box<FixedBaseTable<$n>>),
            )+
        }

        impl AutoFixedBase {
            /// `base^exp mod n`. Panics if `exp` is wider than the
            /// `exp_bits` the table was built for.
            pub fn pow(&self, exp: &BigUint) -> BigUint {
                match self {
                    $(AutoFixedBase::$variant(table) => table.pow_fixed(exp).to_biguint(),)+
                }
            }
        }
    };
}

// The width family, ascending. Paillier keys of 128·2^k bits produce n² at
// 4·2^k limbs and p²/q² at 2·2^k limbs; 192/384/768-bit keys hit the ×3
// widths; 24 limbs is the RFC 3526 1536-bit DH/OT group. A modulus between
// two widths (e.g. a 320-bit modulus at 5 limbs) pads up to the next one.
auto_montgomery!(
    (W2, 2),
    (W3, 3),
    (W4, 4),
    (W6, 6),
    (W8, 8),
    (W12, 12),
    (W16, 16),
    (W24, 24),
    (W32, 32),
    (W64, 64),
);

#[cfg(test)]
mod tests {
    use super::*;

    fn big(hex: &str) -> BigUint {
        BigUint::from_hex(hex).unwrap()
    }

    #[test]
    fn fixed_uint_conversion_roundtrip() {
        let x = big("deadbeefcafebabe0123456789abcdef");
        let f = FixedUint::<2>::from_biguint(&x).unwrap();
        assert_eq!(f.to_biguint(), x);
        // Too wide for one limb.
        assert!(FixedUint::<1>::from_biguint(&x).is_none());
        // Zero-padding of high limbs.
        let one = FixedUint::<4>::from_biguint(&BigUint::one()).unwrap();
        assert_eq!(one, FixedUint::<4>::one());
        assert_eq!(FixedUint::<4>::zero().to_biguint(), BigUint::zero());
    }

    #[test]
    fn add_sub_carry_chains() {
        let max = FixedUint::<2>::from_limbs([u64::MAX, u64::MAX]);
        let one = FixedUint::<2>::one();
        let (sum, carry) = max.add_carry(&one);
        assert_eq!(sum, FixedUint::zero());
        assert_eq!(carry, 1);
        let (diff, borrow) = FixedUint::<2>::zero().sub_borrow(&one);
        assert_eq!(diff, max);
        assert_eq!(borrow, 1);
        let (back, borrow) = sum.sub_borrow(&one);
        assert_eq!(borrow, 1, "wraps back below zero");
        assert_eq!(back, max);
    }

    #[test]
    fn widening_mul_matches_biguint() {
        let a = big("ffffffffffffffffffffffffffffffff");
        let b = big("fedcba9876543210fedcba9876543210");
        let fa = FixedUint::<2>::from_biguint(&a).unwrap();
        let fb = FixedUint::<2>::from_biguint(&b).unwrap();
        let (lo, hi) = fa.widening_mul(&fb);
        let full = hi.to_biguint() << 128;
        assert_eq!(full + lo.to_biguint(), a * b);
    }

    /// `base^exp mod m` by square-and-multiply over `*` and `%` only — the
    /// reference the Montgomery ladders are held to.
    fn reference_pow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut acc = BigUint::one() % m;
        let mut sq = base.clone() % m;
        for i in 0..exp.bits() {
            if exp.bit(i) {
                acc = acc * sq.clone() % m;
            }
            sq = sq.clone() * sq % m;
        }
        acc
    }

    #[test]
    fn auto_montgomery_selects_fixed_width() {
        // 2-limb odd modulus: its exact width.
        let m = big("f0000000000000000000000000000001");
        assert_eq!(AutoMontgomery::new(&m).width(), 2);
        // 5 limbs is not in the family: it pads up to 6.
        let odd_width = (BigUint::one() << 300) + BigUint::from(7u64);
        assert_eq!(AutoMontgomery::new(&odd_width).width(), 6);
        // One limb pads up to the narrowest width.
        assert_eq!(AutoMontgomery::new(&BigUint::from(97u64)).width(), 2);
    }

    #[test]
    fn fixed_pow_and_mul_match_reference() {
        let m = big("f123456789abcdef1123456789abcdef1");
        let auto = AutoMontgomery::new(&m);
        assert_eq!(auto.width(), 3);
        let a = big("deadbeefcafebabe12345678901234567");
        let b = big("98765432100123456789abcdeffedcba9");
        let e = big("1fffffffffffffffffffffffffffffff3");
        assert_eq!(auto.mul(&a, &b), a.clone() * b.clone() % &m);
        assert_eq!(auto.pow(&a, &e), reference_pow(&a, &e, &m));
        // Oversized base is reduced first.
        let oversized = a.clone() + m.clone() + m.clone();
        assert_eq!(auto.pow(&oversized, &e), reference_pow(&a, &e, &m));
        assert_eq!(auto.pow(&a, &BigUint::zero()), BigUint::one());
    }

    #[test]
    fn mont_sq_matches_mont_mul() {
        // Width 3 delegates to mont_mul; width 8 runs the fused triangle
        // squaring. Both must agree with the general product.
        let m3 = big("f123456789abcdef1123456789abcdef1");
        let ctx = MontgomeryCtx::<3>::new(&m3).unwrap();
        let mut x = ctx.reduce(&big("deadbeefcafebabe12345678901234567"));
        for _ in 0..50 {
            assert_eq!(ctx.mont_sq(&x), ctx.mont_mul(&x, &x));
            x = ctx.mont_sq(&x);
        }

        let mut limbs = vec![0u64; 8];
        for (i, l) in limbs.iter_mut().enumerate() {
            *l = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 0x5151);
        }
        limbs[0] |= 1;
        limbs[7] |= 1 << 63;
        let m8 = BigUint::from_limbs(limbs);
        let ctx = MontgomeryCtx::<8>::new(&m8).unwrap();
        let mut x = ctx.reduce(&(BigUint::one() << 450));
        for _ in 0..200 {
            assert_eq!(ctx.mont_sq(&x), ctx.mont_mul(&x, &x));
            x = ctx.mont_sq(&x);
        }
        // Top-bit-heavy operand exercises the doubled-operand overflow path.
        let y = ctx.reduce(&(m8.clone() - BigUint::one()));
        assert_eq!(ctx.mont_sq(&y), ctx.mont_mul(&y, &y));
        assert_eq!(
            ctx.mont_sq(&FixedUint::zero()),
            ctx.mont_mul(&FixedUint::zero(), &FixedUint::zero())
        );
    }

    #[test]
    fn windowed_pow_agrees_with_plain_ladder() {
        // Exponents straddling the 64-bit window threshold must agree with
        // the square-and-multiply reference.
        let m = big("f123456789abcdef1123456789abcdef1");
        let ctx = MontgomeryCtx::<3>::new(&m).unwrap();
        let base = big("deadbeefcafebabe12345678901234567");
        for exp in [
            BigUint::from(1u64),
            BigUint::from(u64::MAX),
            BigUint::one() << 64,
            (BigUint::one() << 64) + BigUint::one(),
            big("1fffffffffffffffffffffffffffffff3"),
            m.clone() - BigUint::one(),
        ] {
            assert_eq!(ctx.pow(&base, &exp), reference_pow(&base, &exp, &m));
        }
    }

    #[test]
    fn mont_roundtrip_fixed_domain() {
        let m = big("ffffffffffffffffffffffffffffff61");
        let ctx = MontgomeryCtx::<2>::new(&m).unwrap();
        let x = ctx.reduce(&big("abcdef0123456789"));
        assert_eq!(ctx.from_mont(&ctx.to_mont(&x)), x);
        assert_eq!(ctx.width(), 2);
        // The same modulus zero-padded into a wider engine.
        let wide = MontgomeryCtx::<4>::new(&m).unwrap();
        let x = wide.reduce(&big("abcdef0123456789"));
        assert_eq!(wide.from_mont(&wide.to_mont(&x)), x);
    }

    #[test]
    fn ctx_accepts_narrower_and_rejects_wider_and_even_moduli() {
        let m = big("ffffffffffffffffffffffffffffff61");
        assert!(
            MontgomeryCtx::<3>::new(&m).is_some(),
            "a narrower modulus pads"
        );
        assert!(MontgomeryCtx::<1>::new(&m).is_none());
        assert!(MontgomeryCtx::<2>::new(&(m.clone() + BigUint::one())).is_none());
        assert!(MontgomeryCtx::<1>::new(&BigUint::one()).is_none());
    }
}
