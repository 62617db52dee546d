//! Ablation: IKNP OT extension versus raw base OT for delivering the
//! evaluator's wire labels. Justifies the paper's amortize-into-setup
//! strategy (§3.3): per-email OTs must not involve public-key operations.
//! Both run over the group production uses (RFC 3526, 1536 bits) and at
//! the 128 transfers of one IKNP seed exchange.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use pretzel_gc::ot::{base_ot_receive, base_ot_send};
use pretzel_gc::otext::{OtExtReceiver, OtExtSender};
use pretzel_gc::OtGroup;
use pretzel_transport::memory_pair;

fn bench_ot(c: &mut Criterion) {
    let mut group = c.benchmark_group("ot_ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let ot_group = OtGroup::rfc3526_1536();
    let count = 128usize; // one session's base OTs; ~2 spam emails' choice bits

    // Base OT for `count` transfers (public-key work per email).
    let ot_group_a = ot_group.clone();
    group.bench_function("base_ot_128_labels", |b| {
        b.iter(|| {
            let group_s = ot_group_a.clone();
            let group_r = ot_group_a.clone();
            let (mut chan_s, mut chan_r) = memory_pair();
            let messages: Vec<([u8; 32], [u8; 32])> = vec![([1u8; 32], [2u8; 32]); count];
            let choices: Vec<bool> = (0..count).map(|i| i % 2 == 0).collect();
            let handle = std::thread::spawn(move || {
                base_ot_receive(&mut chan_r, &group_r, &choices, &mut rand::thread_rng()).unwrap()
            });
            base_ot_send(&mut chan_s, &group_s, &messages, &mut rand::thread_rng()).unwrap();
            handle.join().unwrap()
        })
    });

    // OT extension: base OTs once (outside the measured loop), then cheap
    // symmetric-key extension per email.
    let (mut chan_s, mut chan_r) = memory_pair();
    let group_r = ot_group.clone();
    let receiver_handle = std::thread::spawn(move || {
        OtExtReceiver::setup(&mut chan_r, &group_r, &mut rand::thread_rng())
            .map(|r| (r, chan_r))
            .unwrap()
    });
    let mut sender = OtExtSender::setup(&mut chan_s, &ot_group, &mut rand::thread_rng()).unwrap();
    let (receiver, mut chan_r) = receiver_handle.join().unwrap();
    let receiver = std::sync::Mutex::new(receiver);
    let sender_pairs: Vec<([u8; 16], [u8; 16])> = vec![([3u8; 16], [4u8; 16]); count];
    group.bench_function("iknp_extension_128_labels", |b| {
        b.iter(|| {
            let choices: Vec<bool> = (0..count).map(|i| i % 3 == 0).collect();
            let pairs = sender_pairs.clone();
            std::thread::scope(|scope| {
                let recv = scope.spawn(|| {
                    receiver
                        .lock()
                        .unwrap()
                        .extend(&mut chan_r, &choices)
                        .unwrap()
                });
                sender.extend(&mut chan_s, &pairs).unwrap();
                recv.join().unwrap()
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ot);
criterion_main!(benches);
