//! Verifies the fixed-limb hot path's headline property: zero heap
//! allocation inside `mont_mul` and in the use of a fixed-base table, and
//! only the final result allocation in the `BigUint`-facing `pow`.
//!
//! A counting `#[global_allocator]` wraps the system allocator; this lives
//! in its own integration-test binary so the counter doesn't interfere with
//! other suites. The harness runs the tests below on parallel threads, so
//! the count is kept per thread: each measurement window sees only the
//! allocations of the test that opened it. The same modular products on
//! `BigUint` are measured alongside as a sanity check that the counter
//! actually observes arithmetic allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pretzel_bignum::{mod_mul, BigUint, FixedUint, MontgomeryCtx};

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: reading or bumping it
    // never allocates and is valid for the whole life of the thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed on this
/// thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.get();
    let result = f();
    let after = ALLOCATIONS.get();
    (after - before, result)
}

fn test_modulus() -> BigUint {
    // Full-width 8-limb (512-bit) odd modulus — the n² width of a 256-bit
    // Paillier key.
    let mut limbs = vec![0u64; 8];
    for (i, l) in limbs.iter_mut().enumerate() {
        *l = 0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 0x1234_5678);
    }
    limbs[0] |= 1;
    limbs[7] |= 1 << 63;
    BigUint::from_limbs(limbs)
}

#[test]
fn fixed_mont_mul_does_not_allocate() {
    let n = test_modulus();
    let ctx = MontgomeryCtx::<8>::new(&n).unwrap();
    let a = ctx.reduce(&(BigUint::one() << 300));
    let b = ctx.reduce(&((BigUint::one() << 299) + BigUint::from(777u64)));

    // Warm up once (lazy init inside the allocator/test harness, if any).
    let _ = ctx.mont_mul(&a, &b);

    let (allocs, product) = count_allocs(|| {
        let mut acc = a;
        for _ in 0..64 {
            acc = ctx.mont_mul(&acc, &b);
        }
        acc
    });
    assert!(!product.is_zero());
    assert_eq!(allocs, 0, "fixed mont_mul must be allocation-free");
}

#[test]
fn fixed_pow_inner_loop_does_not_allocate() {
    let n = test_modulus();
    let ctx = MontgomeryCtx::<8>::new(&n).unwrap();
    let base = ctx.reduce(&(BigUint::one() << 300));
    let exp = n.clone() - BigUint::one();

    let _ = ctx.pow_fixed(&base, &exp);
    let (allocs, result) = count_allocs(|| ctx.pow_fixed(&base, &exp));
    assert!(!result.is_zero());
    // A 511-bit exponent drives ~511 squarings + multiplies; if the inner
    // loop allocated at all, this count would be in the hundreds.
    assert_eq!(allocs, 0, "fixed pow_fixed must be allocation-free");

    // The BigUint-facing wrapper allocates only for the returned value.
    let base_big = base.to_biguint();
    let (allocs, _) = count_allocs(|| ctx.pow(&base_big, &exp));
    assert!(
        allocs <= 2,
        "BigUint-facing pow should allocate only the result, saw {allocs}"
    );
}

/// Building a fixed-base table allocates (once, for the table); spending it
/// does not, however many exponents go through it.
#[test]
fn fixed_base_table_use_does_not_allocate() {
    let n = test_modulus();
    let ctx = MontgomeryCtx::<8>::new(&n).unwrap();
    let base = ctx.reduce(&(BigUint::one() << 300));
    let exps: Vec<BigUint> = (1..=16u64)
        .map(|i| (BigUint::one() << 255) - BigUint::from(i))
        .collect();

    let (allocs, table) = count_allocs(|| ctx.fixed_base_table(&base, 256));
    assert!(allocs >= 1, "the table itself lives on the heap");
    let _ = table.pow_fixed(&exps[0]);

    let (allocs, last) = count_allocs(|| {
        let mut last = base;
        for exp in &exps {
            last = table.pow_fixed(exp);
        }
        last
    });
    assert_eq!(last, ctx.pow_fixed(&base, &exps[15]));
    assert_eq!(allocs, 0, "fixed-base table use must be allocation-free");
}

/// Sanity check: the same chain of modular products on `BigUint` *does*
/// allocate — proving the counter observes arithmetic and the comparisons
/// above are meaningful.
#[test]
fn biguint_mod_mul_allocates_as_expected() {
    let n = test_modulus();
    let a = (BigUint::one() << 300) % &n;
    let b = ((BigUint::one() << 299) + BigUint::from(777u64)) % &n;

    let (allocs, _) = count_allocs(|| {
        let mut acc = a.clone();
        for _ in 0..64 {
            acc = mod_mul(&acc, &b, &n);
        }
        acc
    });
    assert!(
        allocs >= 64,
        "BigUint mod_mul allocates per call, saw only {allocs}"
    );
}

/// The fixed value type itself is pure stack data.
#[test]
fn fixed_uint_arithmetic_does_not_allocate() {
    let a = FixedUint::<8>::from_limbs([u64::MAX; 8]);
    let b = FixedUint::<8>::from_limbs([0x1234_5678_9abc_def0; 8]);
    let (allocs, _) = count_allocs(|| {
        let (sum, _) = a.add_carry(&b);
        let (diff, _) = sum.sub_borrow(&b);
        let (lo, hi) = diff.widening_mul(&b);
        (lo, hi)
    });
    assert_eq!(allocs, 0);
}
