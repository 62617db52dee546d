//! Criterion microbenchmarks backing Figure 6: the primitive operations whose
//! costs drive every row of the Figure 3 cost model.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use pretzel_core::PretzelConfig;
use pretzel_datasets::synthetic_email_text;
use pretzel_e2e::{DhGroup, Email, Identity};

fn bench_paillier(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let config = PretzelConfig::test();
    let mut rng = rand::thread_rng();
    let sk = pretzel_paillier::keygen(config.paillier_bits, &mut rng);
    let pk = sk.public();
    let ct = pk.encrypt_u64(123456, &mut rng).unwrap();
    let ct2 = pk.encrypt_u64(654321, &mut rng).unwrap();

    group.bench_function("encrypt", |b| {
        b.iter(|| pk.encrypt_u64(42, &mut rand::thread_rng()).unwrap())
    });
    group.bench_function("decrypt", |b| b.iter(|| sk.decrypt(&ct).unwrap()));
    group.bench_function("add", |b| b.iter(|| pk.add(&ct, &ct2)));
    group.finish();
}

fn bench_xpir_bv(c: &mut Criterion) {
    let mut group = c.benchmark_group("xpir_bv");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let config = PretzelConfig::test();
    let params = config.rlwe_params();
    let mut rng = rand::thread_rng();
    let (sk, pk) = pretzel_rlwe::keygen(&params, None, &mut rng);
    let slots: Vec<u64> = (0..params.slots() as u64).collect();
    let ct = pk.encrypt_slots(&slots, &mut rng).unwrap();
    let ct2 = pk.encrypt_slots(&slots, &mut rng).unwrap();

    group.bench_function("encrypt", |b| {
        b.iter(|| pk.encrypt_slots(&slots, &mut rand::thread_rng()).unwrap())
    });
    group.bench_function("decrypt", |b| b.iter(|| sk.decrypt_slots(&ct)));
    group.bench_function("add", |b| b.iter(|| pk.add(&ct, &ct2)));
    // The client's dot-product step as production runs it: rotate–scale–add
    // terms on the lazy accumulator, final reduction included. Divide by the
    // term count for the per-term "left shift and add" cost.
    group.bench_function("left_shift_and_add_x692", |b| {
        b.iter(|| {
            let mut acc = pk.accumulator();
            for i in 0..692 {
                acc.add_rotated_scaled(&ct, 2 * i, (i % 15 + 1) as u64);
            }
            acc.finish()
        })
    });
    // A stand-alone rotation: candidate-topic extraction, once per candidate.
    group.bench_function("rotate_left", |b| b.iter(|| pk.rotate_left(&ct, 2)));
    group.bench_function("scalar_mul_accumulate", |b| {
        let mut acc = pk.zero_accumulator();
        b.iter(|| pk.mul_scalar_accumulate(&mut acc, &ct, 13))
    });
    group.finish();
}

fn bench_garbling(c: &mut Criterion) {
    let mut group = c.benchmark_group("yao");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let compare = pretzel_gc::spam_compare_circuit(32);
    let argmax = pretzel_gc::topic_argmax_circuit(10, 32, 12);
    group.bench_function("garble_32bit_compare", |b| {
        b.iter(|| pretzel_gc::garble(&compare, &mut rand::thread_rng()))
    });
    group.bench_function("garble_argmax_10", |b| {
        b.iter(|| pretzel_gc::garble(&argmax, &mut rand::thread_rng()))
    });
    group.finish();
}

fn bench_e2e(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2e");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let mut rng = rand::thread_rng();
    let dh = DhGroup::insecure_test_group(96, &mut rng);
    let alice = Identity::generate("alice@example.com", &dh, &mut rng);
    let bob = Identity::generate("bob@example.com", &dh, &mut rng);
    let email = Email {
        from: "alice@example.com".into(),
        to: "bob@example.com".into(),
        subject: "bench".into(),
        body: synthetic_email_text(75 * 1024 / 8, 5),
    };
    let encrypted = alice.encrypt_email(&bob.public(), &email, &mut rng);
    group.bench_function("encrypt_75kb_email", |b| {
        b.iter(|| alice.encrypt_email(&bob.public(), &email, &mut rand::thread_rng()))
    });
    group.bench_function("decrypt_75kb_email", |b| {
        b.iter(|| bob.decrypt_email(&alice.public(), &encrypted).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_paillier,
    bench_xpir_bv,
    bench_garbling,
    bench_e2e
);
criterion_main!(benches);
