//! Equivalence suite: the fixed-limb engine must be byte-identical to the
//! dynamic `BigUint`/`Montgomery` reference across random operands at every
//! supported width, plus the edge cases (0, 1, n-1, R-boundary values).
//!
//! Both engines share the Montgomery radix `R = 2^(64·limbs)`, so not just
//! the normal-domain results but the Montgomery-form intermediates must
//! agree — `mont_mul` is compared directly, not only through `pow`/`mul`.

use proptest::prelude::*;

use pretzel_bignum::{AutoMontgomery, BigUint, FixedUint, Montgomery, MontgomeryCtx};

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

macro_rules! equivalence_suite {
    ($mod_name:ident, $n:literal) => {
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
                fn mont_mul_matches_dynamic(
                    n in arb_modulus(N),
                    a_raw in proptest::collection::vec(any::<u64>(), N),
                    b_raw in proptest::collection::vec(any::<u64>(), N),
                ) {
                    let ctx = MontgomeryCtx::<N>::new(&n).unwrap();
                    let dynamic = Montgomery::new(n.clone());
                    let a = below(&n, &a_raw);
                    let b = below(&n, &b_raw);
                    let fa = FixedUint::<N>::from_biguint(&a).unwrap();
                    let fb = FixedUint::<N>::from_biguint(&b).unwrap();
                    // Same radix → identical Montgomery products, limb for limb.
                    prop_assert_eq!(
                        ctx.mont_mul(&fa, &fb).to_biguint(),
                        dynamic.mont_mul(&a, &b)
                    );
                    // The dedicated squaring must agree with the general
                    // product of a value with itself.
                    prop_assert_eq!(ctx.mont_sq(&fa), ctx.mont_mul(&fa, &fa));
                    prop_assert_eq!(ctx.mul(&a, &b), dynamic.mul(&a, &b));
                }

                #[test]
                fn pow_matches_dynamic(
                    n in arb_modulus(N),
                    base_raw in proptest::collection::vec(any::<u64>(), N),
                    exp_raw in proptest::collection::vec(any::<u64>(), 2),
                ) {
                    let auto = AutoMontgomery::new(&n);
                    prop_assert_eq!(auto.backend(), concat!("fixed:", stringify!($n)));
                    let dynamic = Montgomery::new(n.clone());
                    let base = below(&n, &base_raw);
                    let exp = BigUint::from_limbs(exp_raw);
                    prop_assert_eq!(auto.pow(&base, &exp), dynamic.pow(&base, &exp));
                }
            }

            proptest! {
                // Full-width dynamic exponentiations in a debug build: a
                // handful of cases per width is what the suite can afford.
                #![proptest_config(ProptestConfig::with_cases(6))]

                /// The fixed-base table, the shared-exponent ladder, the
                /// windowed `pow_fixed` and the dynamic square-and-multiply
                /// are four routes to one value, for exponents of every
                /// length from 1 to 1535 bits.
                #[test]
                fn fixed_base_and_shared_exponent_match_the_ladders(
                    n in arb_modulus(N),
                    base_raw in proptest::collection::vec(any::<u64>(), N),
                    exp_raw in proptest::collection::vec(any::<u64>(), 24),
                    exp_bits in 1usize..=1535,
                ) {
                    let auto = AutoMontgomery::new(&n);
                    let ctx = MontgomeryCtx::<N>::new(&n).unwrap();
                    let base = below(&n, &base_raw);
                    let exp = BigUint::from_limbs(exp_raw) >> (1536 - exp_bits);
                    let want = Montgomery::new(n.clone()).pow(&base, &exp);

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
            /// limb boundary), against the generic ladder.
            #[test]
            fn fixed_base_edge_exponents_match_the_generic_ladder() {
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
                        let want = auto.pow(&base, exp);
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
                    assert_eq!(table.pow(&e), auto.pow(&base, &e));
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
            fn edge_cases_match_dynamic() {
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
                let dynamic = Montgomery::new(n.clone());

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
                            dynamic.mont_mul(a, b),
                            "mont_mul mismatch at width {N}"
                        );
                        assert_eq!(ctx.mul(a, b), dynamic.mul(a, b));
                    }
                    for e in &exps {
                        assert_eq!(
                            ctx.pow(a, e),
                            dynamic.pow(a, e),
                            "pow mismatch at width {N}"
                        );
                    }
                }
            }
        }
    };
}

equivalence_suite!(width_2, 2);
equivalence_suite!(width_3, 3);
equivalence_suite!(width_4, 4);
equivalence_suite!(width_6, 6);
equivalence_suite!(width_8, 8);
equivalence_suite!(width_12, 12);
equivalence_suite!(width_16, 16);
equivalence_suite!(width_24, 24);
equivalence_suite!(width_32, 32);
equivalence_suite!(width_64, 64);

/// Unsupported widths must take the dynamic fallback and still agree with
/// `mod_pow` semantics.
#[test]
fn unsupported_width_falls_back_dynamic() {
    // 5 limbs (320 bits) is deliberately not in the family.
    let n = (BigUint::one() << 300) + BigUint::from(0x1234567u64 * 2 + 1);
    let auto = AutoMontgomery::new(&n);
    assert_eq!(auto.backend(), "dynamic");
    let dynamic = Montgomery::new(n.clone());
    let base = BigUint::from(0xdeadbeefu64);
    let exp = BigUint::from(65537u64);
    assert_eq!(auto.pow(&base, &exp), dynamic.pow(&base, &exp));
    // The fixed-base and shared-exponent entry points fall back with it.
    let want = dynamic.pow(&base, &exp);
    assert_eq!(auto.fixed_base(&base, 17).pow(&exp), want);
    assert_eq!(auto.pow_each(std::slice::from_ref(&base), &exp), [want]);
}

/// `AutoMontgomery::pow` must reduce oversized bases exactly like the
/// dynamic path (both reduce mod n before converting to Montgomery form).
#[test]
fn oversized_operands_reduce_identically() {
    let n = arb_fixed_modulus_4();
    let auto = AutoMontgomery::new(&n);
    assert_eq!(auto.backend(), "fixed:4");
    let dynamic = Montgomery::new(n.clone());
    let big_base = (BigUint::one() << 400) + BigUint::from(12345u64);
    let exp = BigUint::from(1000003u64);
    assert_eq!(auto.pow(&big_base, &exp), dynamic.pow(&big_base, &exp));
    assert_eq!(
        auto.mul(&big_base, &big_base),
        dynamic.mul(&big_base, &big_base)
    );
}

fn arb_fixed_modulus_4() -> BigUint {
    let mut limbs = vec![0xabcdef0123456789u64; 4];
    limbs[0] |= 1;
    limbs[3] |= 1 << 63;
    BigUint::from_limbs(limbs)
}
