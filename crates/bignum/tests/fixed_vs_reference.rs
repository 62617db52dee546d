//! Reference suite: the fixed-limb engine against `BigUint` arithmetic that
//! uses only `*` and `%` — no second Montgomery implementation — across
//! random operands at every width of the family, for moduli that fill the
//! width and for narrower moduli zero-padded into it, plus the edge cases
//! (0, 1, n-1, R-boundary values).
//!
//! `mont_mul` is held to its definition `a·b·R⁻¹ mod n` (`R⁻¹` from
//! `mod_inv`), limb for limb in Montgomery form; `pow`, the fixed-base table
//! and the shared-exponent ladder are held to [`reference_pow`].

use proptest::prelude::*;

use pretzel_bignum::{
    mod_inv, mod_pow, AutoMontgomery, BigUint, FixedUint, MontgomeryCtx, MAX_MODULUS_LIMBS,
};

/// A random odd modulus with exactly `limbs` significant limbs (top limb
/// forced non-zero so the width is exact).
fn arb_modulus(limbs: usize) -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), limbs).prop_map(move |mut v| {
        v[0] |= 1; // odd
        let last = v.len() - 1;
        v[last] |= 1 << 63; // full width
        BigUint::from_limbs(v)
    })
}

/// A random value reduced below `n`.
fn below(n: &BigUint, raw: &[u64]) -> BigUint {
    BigUint::from_limbs(raw.to_vec()) % n
}

/// `base^exp mod n` by square-and-multiply over `*` and `%` only.
fn reference_pow(base: &BigUint, exp: &BigUint, n: &BigUint) -> BigUint {
    let mut acc = BigUint::one() % n;
    let mut sq = base.clone() % n;
    for i in 0..exp.bits() {
        if exp.bit(i) {
            acc = acc * sq.clone() % n;
        }
        sq = sq.clone() * sq % n;
    }
    acc
}

/// `R⁻¹ mod n` for the radix `R = 2^(64·width)` of a `width`-limb engine.
fn r_inverse(n: &BigUint, width: usize) -> BigUint {
    mod_inv(&(BigUint::one() << (64 * width)), n).unwrap()
}

/// The Montgomery product by definition: `a·b·R⁻¹ mod n`.
fn reference_mont_mul(a: &BigUint, b: &BigUint, n: &BigUint, r_inv: &BigUint) -> BigUint {
    a.clone() * b.clone() % n * r_inv.clone() % n
}

macro_rules! reference_suite {
    ($mod_name:ident, $n:literal, $prev:literal) => {
        mod $mod_name {
            use super::*;

            const N: usize = $n;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(64))]

                #[test]
                fn add_sub_match_biguint(
                    a in proptest::collection::vec(any::<u64>(), N),
                    b in proptest::collection::vec(any::<u64>(), N),
                ) {
                    let fa = FixedUint::<N>::from_limbs(a.clone().try_into().unwrap());
                    let fb = FixedUint::<N>::from_limbs(b.clone().try_into().unwrap());
                    let ba = fa.to_biguint();
                    let bb = fb.to_biguint();

                    let (sum, carry) = fa.add_carry(&fb);
                    let full = ba.clone() + bb.clone();
                    prop_assert_eq!(
                        sum.to_biguint() + (BigUint::from(carry) << (64 * N)),
                        full
                    );

                    let (diff, borrow) = fa.sub_borrow(&fb);
                    if borrow == 0 {
                        prop_assert_eq!(diff.to_biguint(), ba - bb);
                    } else {
                        // Wrapped: diff = a - b + 2^(64N).
                        prop_assert_eq!(
                            diff.to_biguint() + bb,
                            ba + (BigUint::one() << (64 * N))
                        );
                    }
                }

                #[test]
                fn widening_mul_matches_biguint(
                    a in proptest::collection::vec(any::<u64>(), N),
                    b in proptest::collection::vec(any::<u64>(), N),
                ) {
                    let fa = FixedUint::<N>::from_limbs(a.try_into().unwrap());
                    let fb = FixedUint::<N>::from_limbs(b.try_into().unwrap());
                    let (lo, hi) = fa.widening_mul(&fb);
                    prop_assert_eq!(
                        (hi.to_biguint() << (64 * N)) + lo.to_biguint(),
                        fa.to_biguint() * fb.to_biguint()
                    );
                }

                #[test]
                fn mont_mul_matches_reference(
                    n in arb_modulus(N),
                    a_raw in proptest::collection::vec(any::<u64>(), N),
                    b_raw in proptest::collection::vec(any::<u64>(), N),
                ) {
                    let ctx = MontgomeryCtx::<N>::new(&n).unwrap();
                    let a = below(&n, &a_raw);
                    let b = below(&n, &b_raw);
                    let fa = FixedUint::<N>::from_biguint(&a).unwrap();
                    let fb = FixedUint::<N>::from_biguint(&b).unwrap();
                    prop_assert_eq!(
                        ctx.mont_mul(&fa, &fb).to_biguint(),
                        reference_mont_mul(&a, &b, &n, &r_inverse(&n, N))
                    );
                    // The dedicated squaring must agree with the general
                    // product of a value with itself.
                    prop_assert_eq!(ctx.mont_sq(&fa), ctx.mont_mul(&fa, &fa));
                    prop_assert_eq!(ctx.mul(&a, &b), a * b % &n);
                }

                #[test]
                fn pow_matches_reference(
                    n in arb_modulus(N),
                    base_raw in proptest::collection::vec(any::<u64>(), N),
                    exp_raw in proptest::collection::vec(any::<u64>(), 2),
                ) {
                    let auto = AutoMontgomery::new(&n);
                    prop_assert_eq!(auto.width(), N);
                    let base = below(&n, &base_raw);
                    let exp = BigUint::from_limbs(exp_raw);
                    prop_assert_eq!(auto.pow(&base, &exp), reference_pow(&base, &exp, &n));
                }
            }

            proptest! {
                // Full-width reference exponentiations in a debug build: a
                // handful of cases per width is what the suite can afford.
                #![proptest_config(ProptestConfig::with_cases(6))]

                /// The fixed-base table, the shared-exponent ladder and the
                /// windowed `pow_fixed` against the reference ladder, for
                /// exponents of every length from 1 to 1535 bits.
                #[test]
                fn fixed_base_and_shared_exponent_match_the_reference(
                    n in arb_modulus(N),
                    base_raw in proptest::collection::vec(any::<u64>(), N),
                    exp_raw in proptest::collection::vec(any::<u64>(), 24),
                    exp_bits in 1usize..=1535,
                ) {
                    let auto = AutoMontgomery::new(&n);
                    let ctx = MontgomeryCtx::<N>::new(&n).unwrap();
                    let base = below(&n, &base_raw);
                    let exp = BigUint::from_limbs(exp_raw) >> (1536 - exp_bits);
                    let want = reference_pow(&base, &exp, &n);

                    let fixed_base = FixedUint::<N>::from_biguint(&base).unwrap();
                    prop_assert_eq!(ctx.pow_fixed(&fixed_base, &exp).to_biguint(), want.clone());
                    prop_assert_eq!(auto.fixed_base(&base, exp_bits).pow(&exp), want.clone());
                    let other = n.clone() - BigUint::from(2u64);
                    prop_assert_eq!(
                        auto.pow_each(&[base, other.clone()], &exp),
                        vec![want, auto.pow(&other, &exp)]
                    );
                }
            }

            /// Structured exponents through the table and the
            /// shared-exponent ladder: 0, 1, every power of two and every
            /// all-ones value a 17-window table holds (the windows cross a
            /// limb boundary), against the reference ladder.
            #[test]
            fn fixed_base_edge_exponents_match_the_reference() {
                const BITS: usize = 68;
                let mut limbs = vec![0x9e3779b97f4a7c15u64; N];
                limbs[0] |= 1;
                limbs[N - 1] |= 1 << 63;
                let n = BigUint::from_limbs(limbs);
                let auto = AutoMontgomery::new(&n);
                let one = BigUint::one();
                let mut exps = vec![BigUint::zero()];
                for k in 0..BITS {
                    exps.push(one.clone() << k);
                    exps.push((one.clone() << (k + 1)) - one.clone());
                }
                for base in [BigUint::from(4u64), n.clone() - one.clone()] {
                    let table = auto.fixed_base(&base, BITS);
                    for exp in &exps {
                        let want = reference_pow(&base, exp, &n);
                        assert_eq!(table.pow(exp), want, "table, width {N}, {}", exp.to_hex());
                        assert_eq!(auto.pow_each(std::slice::from_ref(&base), exp), [want]);
                    }
                }
                // Bases 0 and 1, and an oversized base (reduced first).
                let e = BigUint::from(u64::MAX);
                for base in [
                    BigUint::zero(),
                    one.clone(),
                    (n.clone() << 3) + BigUint::from(5u64),
                ] {
                    let table = auto.fixed_base(&base, BITS);
                    assert_eq!(table.pow(&e), reference_pow(&base, &e, &n));
                    assert_eq!(table.pow(&BigUint::zero()), one);
                }
            }

            #[test]
            #[should_panic(expected = "exponent wider than the fixed-base table")]
            fn fixed_base_rejects_an_exponent_wider_than_the_table() {
                let n = BigUint::from_limbs(vec![u64::MAX; N]);
                let table = AutoMontgomery::new(&n).fixed_base(&BigUint::from(4u64), 8);
                table.pow(&BigUint::from(0x100u64));
            }

            /// Deterministic edge cases: 0, 1, n-1, and the R-boundary
            /// values (R mod n is the Montgomery form of 1; R-1 exercises
            /// the top of the operand range after reduction).
            #[test]
            fn edge_cases_match_reference() {
                // A fixed "random-looking" full-width odd modulus.
                let mut limbs = vec![0u64; N];
                for (i, l) in limbs.iter_mut().enumerate() {
                    *l = 0x9e3779b97f4a7c15u64
                        .wrapping_mul(i as u64 + 1)
                        .wrapping_add(0x2545f4914f6cdd1d);
                }
                limbs[0] |= 1;
                limbs[N - 1] |= 1 << 63;
                let n = BigUint::from_limbs(limbs);
                let ctx = MontgomeryCtx::<N>::new(&n).unwrap();
                let r_inv = r_inverse(&n, N);

                let r_mod_n = (BigUint::one() << (64 * N)) % &n;
                let r_minus_1 = (BigUint::one() << (64 * N)) - BigUint::one();
                let cases = [
                    BigUint::zero(),
                    BigUint::one(),
                    n.clone() - BigUint::one(),
                    r_mod_n,
                    r_minus_1 % &n,
                ];
                let exps = [
                    BigUint::zero(),
                    BigUint::one(),
                    BigUint::from(2u64),
                    n.clone() - BigUint::one(),
                ];
                for a in &cases {
                    for b in &cases {
                        let fa = FixedUint::<N>::from_biguint(a).unwrap();
                        let fb = FixedUint::<N>::from_biguint(b).unwrap();
                        assert_eq!(
                            ctx.mont_mul(&fa, &fb).to_biguint(),
                            reference_mont_mul(a, b, &n, &r_inv),
                            "mont_mul mismatch at width {N}"
                        );
                        assert_eq!(ctx.mul(a, b), a.clone() * b.clone() % &n);
                    }
                    for e in &exps {
                        assert_eq!(
                            ctx.pow(a, e),
                            reference_pow(a, e, &n),
                            "pow mismatch at width {N}"
                        );
                    }
                }
            }

            /// Moduli narrower than the width, zero-padded into it: one
            /// limb, one limb wider than the next width down, and the full
            /// width, each with a top limb of 1 and of all ones, through
            /// every entry point on 0, 1, n-1 and R mod n.
            #[test]
            fn padded_moduli_match_reference() {
                for k in [1, $prev + 1, N] {
                    for top in [1, u64::MAX] {
                        let mut limbs: Vec<u64> = (0..k as u64)
                            .map(|i| 0x9e3779b97f4a7c15u64.wrapping_mul(i + 0x51))
                            .collect();
                        limbs[k - 1] = top;
                        limbs[0] |= 1;
                        // A one-limb modulus with top limb 1 would be 1:
                        // take the smallest valid modulus instead.
                        let n = BigUint::from_limbs(limbs).max(BigUint::from(3u64));
                        if k > $prev {
                            assert_eq!(AutoMontgomery::new(&n).width(), N, "{k} limbs");
                        }
                        check_padded_modulus::<N>(&n);
                    }
                }
            }
        }
    };
}

/// Every entry point of an `N`-limb engine over `n` (which may be narrower
/// than `N` limbs) against the reference.
fn check_padded_modulus<const N: usize>(n: &BigUint) {
    let ctx = MontgomeryCtx::<N>::new(n).unwrap();
    let r_inv = r_inverse(n, N);
    let one = BigUint::one();
    let operands = [
        BigUint::zero(),
        one.clone(),
        n.clone() - one.clone(),
        (one.clone() << (64 * N)) % n,
    ];
    let exps = [
        BigUint::zero(),
        one.clone(),
        BigUint::from(65537u64),
        (one.clone() << 130) - BigUint::from(3u64),
    ];
    for a in &operands {
        let fa = FixedUint::<N>::from_biguint(a).unwrap();
        for b in &operands {
            let fb = FixedUint::<N>::from_biguint(b).unwrap();
            assert_eq!(
                ctx.mont_mul(&fa, &fb).to_biguint(),
                reference_mont_mul(a, b, n, &r_inv),
                "mont_mul, width {N}, n = {}",
                n.to_hex()
            );
            assert_eq!(ctx.mul(a, b), a.clone() * b.clone() % n);
        }
        assert_eq!(ctx.mont_sq(&fa), ctx.mont_mul(&fa, &fa));
        let table = ctx.fixed_base_table(&fa, 130);
        for e in &exps {
            let want = reference_pow(a, e, n);
            assert_eq!(ctx.pow(a, e), want, "pow, width {N}, n = {}", n.to_hex());
            assert_eq!(table.pow_fixed(e).to_biguint(), want);
            assert_eq!(ctx.pow_each_fixed(&[fa], e)[0].to_biguint(), want);
        }
    }
}

// Each width with the width below it in the family (1 below the narrowest),
// so the padded case covers the narrowest modulus that width serves.
reference_suite!(width_2, 2, 1);
reference_suite!(width_3, 3, 2);
reference_suite!(width_4, 4, 3);
reference_suite!(width_6, 6, 4);
reference_suite!(width_8, 8, 6);
reference_suite!(width_12, 12, 8);
reference_suite!(width_16, 16, 12);
reference_suite!(width_24, 24, 16);
reference_suite!(width_32, 32, 24);
reference_suite!(width_64, 64, 32);

/// `AutoMontgomery::pow` and `mul` reduce oversized operands before
/// converting to Montgomery form.
#[test]
fn oversized_operands_reduce_like_the_reference() {
    let mut limbs = vec![0xabcdef0123456789u64; 4];
    limbs[0] |= 1;
    limbs[3] |= 1 << 63;
    let n = BigUint::from_limbs(limbs);
    let auto = AutoMontgomery::new(&n);
    assert_eq!(auto.width(), 4);
    let big_base = (BigUint::one() << 400) + BigUint::from(12345u64);
    let exp = BigUint::from(1000003u64);
    assert_eq!(
        auto.pow(&big_base, &exp),
        reference_pow(&big_base, &exp, &n)
    );
    assert_eq!(
        auto.mul(&big_base, &big_base),
        big_base.clone() * big_base % &n
    );
}

/// A modulus one limb over the cap.
fn modulus_over_the_cap() -> BigUint {
    (BigUint::one() << (64 * MAX_MODULUS_LIMBS)) + BigUint::from(0x1234567u64 * 2 + 1)
}

/// `mod_pow` sends an odd modulus over the cap to its division ladder.
#[test]
fn mod_pow_beyond_the_cap_matches_reference() {
    let n = modulus_over_the_cap();
    assert_eq!(n.limbs().len(), MAX_MODULUS_LIMBS + 1);
    let base = (BigUint::one() << 4000) + BigUint::from(0xdeadbeefu64);
    let exp = BigUint::from(0x8000_0000_0001_0001u64);
    assert_eq!(mod_pow(&base, &exp, &n), reference_pow(&base, &exp, &n));
}

#[test]
#[should_panic(expected = "wider than MAX_MODULUS_LIMBS")]
fn auto_montgomery_rejects_a_modulus_over_the_cap() {
    AutoMontgomery::new(&modulus_over_the_cap());
}
