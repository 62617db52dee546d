//! Figure 6: microbenchmarks of the common operations — GPG-equivalent e2e
//! encryption/decryption, Paillier and XPIR-BV operations, Yao comparison and
//! argmax, and the NoPriv per-feature operations.
//!
//! Absolute numbers depend on this machine and on the from-scratch
//! implementations; the quantity the downstream figures rely on is the
//! *relative* shape (Paillier Dec ≫ XPIR-BV Dec, Yao per-input cost in the
//! tens-to-hundreds of microseconds, NoPriv lookups in the sub-microsecond
//! range), which EXPERIMENTS.md compares against the paper's values.

use std::collections::HashMap;
use std::hint::black_box;

use pretzel_bench::{human_us, parse_scale, print_header, print_row, time_avg};
use pretzel_core::{PretzelConfig, Scale};
use pretzel_datasets::synthetic_email_text;
use pretzel_e2e::{DhGroup, Email, Identity};
use pretzel_gc::{
    spam_compare_circuit, topic_argmax_circuit, OutputMode, YaoEvaluator, YaoGarbler,
};
use pretzel_transport::{memory_pair, MeteredChannel};

fn main() {
    let scale = parse_scale();
    let config = PretzelConfig::for_scale(scale);
    let iters = match scale {
        Scale::Test => 20,
        Scale::Paper => 200,
    };
    let mut rng = rand::thread_rng();
    println!(
        "Figure 6: microbenchmarks ({} iterations per op, scale {:?})\n",
        iters, scale
    );
    let widths = [26, 14, 16];
    print_header(&["operation", "CPU time", "network"], &widths);

    // --- e2e module (GPG stand-in), 75 KB email ---
    let group = match scale {
        Scale::Paper => DhGroup::rfc3526_1536(),
        Scale::Test => DhGroup::insecure_test_group(96, &mut rng),
    };
    let alice = Identity::generate("alice@example.com", &group, &mut rng);
    let bob = Identity::generate("bob@example.com", &group, &mut rng);
    let email = Email {
        from: "alice@example.com".into(),
        to: "bob@example.com".into(),
        subject: "microbenchmark".into(),
        body: synthetic_email_text(75 * 1024 / 8, 1),
    };
    let enc_time = time_avg(iters, || {
        black_box(alice.encrypt_email(&bob.public(), &email, &mut rand::thread_rng()));
    });
    let encrypted = alice.encrypt_email(&bob.public(), &email, &mut rng);
    let dec_time = time_avg(iters, || {
        black_box(bob.decrypt_email(&alice.public(), &encrypted).unwrap());
    });
    print_row(
        &[
            "e2e (GPG-equiv) encryption".into(),
            human_us(enc_time),
            "-".into(),
        ],
        &widths,
    );
    print_row(
        &[
            "e2e (GPG-equiv) decryption".into(),
            human_us(dec_time),
            "-".into(),
        ],
        &widths,
    );

    // --- Paillier ---
    let paillier_sk = pretzel_paillier::keygen(config.paillier_bits, &mut rng);
    let paillier_pk = paillier_sk.public();
    let p_enc = time_avg(iters, || {
        black_box(
            paillier_pk
                .encrypt_u64(123456, &mut rand::thread_rng())
                .unwrap(),
        );
    });
    let ct = paillier_pk.encrypt_u64(123456, &mut rng).unwrap();
    let ct2 = paillier_pk.encrypt_u64(654321, &mut rng).unwrap();
    let p_dec = time_avg(iters, || {
        black_box(paillier_sk.decrypt(&ct).unwrap());
    });
    let p_add = time_avg(iters * 10, || {
        black_box(paillier_pk.add(&ct, &ct2));
    });
    print_row(
        &["Paillier encryption".into(), human_us(p_enc), "-".into()],
        &widths,
    );
    print_row(
        &["Paillier decryption".into(), human_us(p_dec), "-".into()],
        &widths,
    );
    print_row(
        &["Paillier addition".into(), human_us(p_add), "-".into()],
        &widths,
    );

    // --- XPIR-BV ---
    let params = config.rlwe_params();
    let (rlwe_sk, rlwe_pk) = pretzel_rlwe::keygen(&params, None, &mut rng);
    let slots: Vec<u64> = (0..params.slots() as u64).map(|i| i % params.t).collect();
    let x_enc = time_avg(iters, || {
        black_box(
            rlwe_pk
                .encrypt_slots(&slots, &mut rand::thread_rng())
                .unwrap(),
        );
    });
    let xct = rlwe_pk.encrypt_slots(&slots, &mut rng).unwrap();
    let xct2 = rlwe_pk.encrypt_slots(&slots, &mut rng).unwrap();
    let x_dec = time_avg(iters, || {
        black_box(rlwe_sk.decrypt_slots(&xct));
    });
    let x_add = time_avg(iters * 10, || {
        black_box(rlwe_pk.add(&xct, &xct2));
    });
    // The client's dot-product step as production runs it: one rotate–scale–
    // add term on the lazy accumulator, the final reduction included,
    // averaged over an email of Ling-spam's mean length.
    const TERMS: usize = 692;
    let x_shift = time_avg(iters, || {
        let mut acc = rlwe_pk.accumulator();
        for i in 0..TERMS {
            acc.add_rotated_scaled(&xct, 2 * i, (i % 15 + 1) as u64);
        }
        black_box(acc.finish());
    }) / TERMS as u32;
    // A stand-alone rotation: what candidate-topic extraction (Figure 5)
    // does once per candidate.
    let x_rotate = time_avg(iters * 10, || {
        black_box(rlwe_pk.rotate_left(&xct, 2));
    });
    print_row(
        &["XPIR-BV encryption".into(), human_us(x_enc), "-".into()],
        &widths,
    );
    print_row(
        &["XPIR-BV decryption".into(), human_us(x_dec), "-".into()],
        &widths,
    );
    print_row(
        &["XPIR-BV addition".into(), human_us(x_add), "-".into()],
        &widths,
    );
    print_row(
        &[
            "XPIR-BV left shift and add".into(),
            human_us(x_shift),
            "-".into(),
        ],
        &widths,
    );
    print_row(
        &[
            "XPIR-BV slot rotation".into(),
            human_us(x_rotate),
            "-".into(),
        ],
        &widths,
    );

    // --- Yao: integer comparison and per-input argmax cost ---
    let (yao_compare, compare_bytes) = yao_cost(&config, YaoKind::Compare);
    let (yao_argmax, argmax_bytes) = yao_cost(&config, YaoKind::ArgmaxPerInput);
    print_row(
        &[
            "Yao: 32-bit comparison".into(),
            human_us(yao_compare),
            format!("{compare_bytes} B"),
        ],
        &widths,
    );
    print_row(
        &[
            "Yao: argmax (per input)".into(),
            human_us(yao_argmax),
            format!("{argmax_bytes} B"),
        ],
        &widths,
    );

    // --- NoPriv operations ---
    let mut map: HashMap<usize, f64> = (0..100_000).map(|i| (i, i as f64 * 0.5)).collect();
    map.shrink_to_fit();
    let lookup = time_avg(200_000, || {
        let k = black_box(777usize);
        black_box(map.get(&k));
    });
    let mut acc = 0.0f64;
    let fadd = time_avg(1_000_000, || {
        acc += black_box(1.25);
    });
    black_box(acc);
    print_row(
        &["NoPriv map lookup".into(), human_us(lookup), "-".into()],
        &widths,
    );
    print_row(
        &["NoPriv float addition".into(), human_us(fadd), "-".into()],
        &widths,
    );

    println!("\nPaper reference values (Amazon EC2 m3.2xlarge): GPG 1.7ms/1.3ms; Paillier 2.5ms/0.7ms/7µs;");
    println!("XPIR-BV 103µs/31µs/3µs/70µs; Yao 71µs+2501B (compare), 70µs+3959B per argmax input;");
    println!("NoPriv 0.17µs lookup, 0.001µs float add.");
}

enum YaoKind {
    Compare,
    ArgmaxPerInput,
}

/// Measures the per-email Yao cost over an in-memory channel, excluding the
/// one-time base-OT setup (the paper amortizes it into the setup phase).
fn yao_cost(config: &PretzelConfig, kind: YaoKind) -> (std::time::Duration, u64) {
    let group = config.ot_group(&[7u8; 32]);
    let group_b = group.clone();
    let width = 32;
    let (circuit, divisor) = match kind {
        YaoKind::Compare => (spam_compare_circuit(width), 1u64),
        YaoKind::ArgmaxPerInput => {
            let candidates = 10;
            (
                topic_argmax_circuit(candidates, width, 12),
                candidates as u64,
            )
        }
    };
    let circuit_b = circuit.clone();
    let reps = 5u32;

    let (a, mut b) = memory_pair();
    let mut metered = MeteredChannel::new(a);
    let meter = metered.meter();

    let garbler_bits: Vec<bool> = (0..circuit.garbler_inputs.len())
        .map(|i| i % 3 == 0)
        .collect();
    let evaluator_bits: Vec<bool> = (0..circuit.evaluator_inputs.len())
        .map(|i| i % 5 == 0)
        .collect();

    let handle = std::thread::spawn(move || {
        let mut rng = rand::thread_rng();
        let mut evaluator = YaoEvaluator::setup(&mut b, &group_b, &mut rng).unwrap();
        for _ in 0..reps {
            evaluator
                .run(
                    &mut b,
                    &circuit_b,
                    &evaluator_bits,
                    OutputMode::EvaluatorOnly,
                )
                .unwrap();
        }
    });
    let mut rng = rand::thread_rng();
    let mut garbler = YaoGarbler::setup(&mut metered, &group, &mut rng).unwrap();
    meter.reset();
    let start = std::time::Instant::now();
    for _ in 0..reps {
        garbler
            .run(
                &mut metered,
                &circuit,
                &garbler_bits,
                OutputMode::EvaluatorOnly,
                &mut rng,
            )
            .unwrap();
    }
    let elapsed = start.elapsed() / reps;
    handle.join().unwrap();
    let bytes = meter.total_bytes() / reps as u64 / divisor;
    (elapsed / divisor as u32, bytes)
}
