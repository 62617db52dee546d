//! Offline/online phase split: what the precomputation pipeline buys.
//!
//! Pretzel's headline performance comes from decomposing each per-email
//! protocol into an expensive *offline* phase (Paillier randomizer
//! exponentiations, circuit garbling) and a cheap *online* phase (§3.3).
//! This harness measures both halves of our split:
//!
//! 1. **Paillier microbenchmarks** — CRT decryption vs. the single-power
//!    reference path, and encryption with the randomizer precomputed
//!    offline vs. inline encryption.
//! 2. **Online-path latency** — mean per-email round latency of Baseline
//!    spam sessions served by a `Mailroom`, two ways per fleet size: cold
//!    (no bank, every round computes inline) and bank (a fleet-wide
//!    precompute bank prefilled before the timed region, clients' offline
//!    phase run — no production competes with the online path).
//! 3. **Search-query latency** — the same cold/bank comparison for
//!    encrypted keyword-search sessions, whose query responses are RLWE
//!    ciphertexts: a stocked encryption of zero turns each response from a
//!    full RLWE encryption (NTTs + sampling) into `n` modular additions.
//! 4. **Batched rounds** — sequential vs coalesced (`process_batch`)
//!    per-email latency for the spam and search workloads: a batch collapses
//!    each round's frames into a handful per batch (one blinded-ciphertext
//!    frame + one batched Yao/OT exchange for spam, two frames total for
//!    search), so light-crypto rounds speed up most.
//!
//! Always emits `BENCH_phase_split.json` (the machine-readable record is the
//! point of this bin). Run with:
//!
//! ```sh
//! cargo run --release -p pretzel_bench --bin bench_phase_split
//! cargo run --release -p pretzel_bench --bin bench_phase_split -- \
//!     --paillier-bits 256 --sessions 1,16 --emails 4 --iters 5
//! ```

use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pretzel_bench::{
    arg_value, human_us, print_header, print_row, synthetic_model, write_bench_json_reported,
    JsonValue,
};
use pretzel_classifiers::{NGramExtractor, SparseVector};
use pretzel_core::bank::{KIND_GARBLINGS, KIND_ZERO_ENCRYPTIONS};
use pretzel_core::spam::AheVariant;
use pretzel_core::topic::CandidateMode;
use pretzel_core::{PretzelConfig, ProviderModelSuite};
use pretzel_paillier::keygen;
use pretzel_server::{BankConfig, ClientSpec, Mailroom, MailroomClient, MailroomConfig};
use pretzel_transport::{memory_pair, MemoryChannel};

/// The client end every fleet in this bench drives.
type FleetClient = MailroomClient<MemoryChannel>;

fn main() {
    let paillier_bits: usize = arg_value("--paillier-bits")
        .map(|v| v.parse().expect("--paillier-bits takes a number"))
        .unwrap_or(512);
    let sessions: Vec<usize> = arg_value("--sessions")
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("--sessions takes a,b,c"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 16]);
    let emails: usize = arg_value("--emails")
        .map(|v| v.parse().expect("--emails takes a number"))
        .unwrap_or(4);
    let iters: usize = arg_value("--iters")
        .map(|v| v.parse().expect("--iters takes a number"))
        .unwrap_or(10);

    println!("Offline/online phase split — {paillier_bits}-bit Paillier\n");

    let micro = run_paillier_micro(paillier_bits, iters);
    let online = run_online_latency(paillier_bits, &sessions, emails);
    let search = run_search_latency(&sessions, emails);
    let batch = run_batch_online(&sessions, emails);

    let json = JsonValue::obj([
        ("bench", JsonValue::Str("phase_split".into())),
        ("paillier_bits", JsonValue::Int(paillier_bits as u64)),
        ("emails_per_session", JsonValue::Int(emails as u64)),
        ("paillier", micro),
        ("online", JsonValue::Arr(online)),
        ("search_online", JsonValue::Arr(search)),
        ("batch_online", JsonValue::Arr(batch)),
    ]);
    write_bench_json_reported("phase_split", &json);
}

/// Sequential vs batched per-email online latency for the spam (Pretzel
/// variant) and search workloads, at each fleet size. One batch covers the
/// session's whole email budget.
fn run_batch_online(sessions: &[usize], emails: usize) -> Vec<JsonValue> {
    let config = PretzelConfig::test();
    let suite = bench_suite(&config, 256);

    println!("\nBatched rounds — sequential vs one coalesced batch of {emails}");
    let widths = [10, 8, 14, 14, 10];
    print_header(
        &[
            "workload",
            "sessions",
            "seq/email",
            "batch/email",
            "speedup",
        ],
        &widths,
    );

    let mut rows = Vec::new();
    for workload in ["spam", "search"] {
        for &n in sessions {
            let seq = run_batch_fleet(&suite, &config, workload, n, emails, false);
            let batched = run_batch_fleet(&suite, &config, workload, n, emails, true);
            let speedup = seq.as_secs_f64() / batched.as_secs_f64();
            print_row(
                &[
                    workload.into(),
                    format!("{n}"),
                    human_us(seq),
                    human_us(batched),
                    format!("{speedup:.2}x"),
                ],
                &widths,
            );
            rows.push(JsonValue::obj([
                ("workload", JsonValue::Str(workload.into())),
                ("sessions", JsonValue::Int(n as u64)),
                ("seq_us_per_email", micros(seq)),
                ("batch_us_per_email", micros(batched)),
                ("speedup", JsonValue::Num(speedup)),
            ]));
        }
    }
    rows
}

/// Serves `n_sessions` sessions of one workload, each submitting `emails`
/// rounds either sequentially or as one coalesced batch, and returns the
/// mean wall-clock per email of the round loop alone.
fn run_batch_fleet(
    suite: &ProviderModelSuite,
    config: &PretzelConfig,
    workload: &str,
    n_sessions: usize,
    emails: usize,
    batched: bool,
) -> Duration {
    use pretzel_core::session::EmailPayload;

    // No bank: the batching speedup is orthogonal to where artifacts come
    // from.
    let mailroom_config = fleet_config(n_sessions, 44, None);
    let spec = if workload == "spam" {
        ClientSpec::spam(config.clone())
    } else {
        ClientSpec::search(config.clone())
    };
    let total = timed_fleet(
        suite,
        mailroom_config,
        n_sessions,
        &spec,
        3000,
        |_client, rng| -> Vec<EmailPayload> {
            (0..emails)
                .map(|e| {
                    if workload == "spam" {
                        EmailPayload::Tokens(random_email(rng))
                    } else if e % 2 == 0 {
                        EmailPayload::SearchIndex {
                            doc_id: e as u64,
                            body: format!("message {e} about invoices and travel"),
                        }
                    } else {
                        EmailPayload::SearchQuery("invoices".into())
                    }
                })
                .collect()
        },
        |client, payloads, rng| {
            if batched {
                client.process_batch(payloads, rng).expect("batch");
            } else {
                for p in payloads {
                    client.process(p, rng).expect("round");
                }
            }
        },
    );
    total / (n_sessions * emails) as u32
}

/// A 20-token email over the benches' 256-feature vocabulary.
fn random_email(rng: &mut StdRng) -> SparseVector {
    SparseVector::from_pairs(
        (0..20)
            .map(|_| (rng.gen_range(0..256), rng.gen_range(1..4u32)))
            .collect(),
    )
}

/// One worker per session, so no session ever queues. With `stock`, a bank
/// prefills that many artifacts of that kind and then never produces again
/// (zero low watermark), so production cannot overlap a timed region.
fn fleet_config(
    n_sessions: usize,
    seed: u64,
    stock: Option<(&'static str, usize)>,
) -> MailroomConfig {
    let builder = MailroomConfig::builder()
        .workers(n_sessions)
        .queue_capacity(n_sessions)
        .rng_seed(seed);
    match stock {
        Some((kind, target)) => builder
            .bank(BankConfig::default().rng_seed(0xBA58))
            .bank_producers(1)
            .bank_watermarks(0, 100)
            .reservoir_target(kind, target)
            .build(),
        None => builder.build(),
    }
}

/// Serves `n_sessions` sessions of `spec`, one client thread each (seeded
/// `seed_base + i`). Every client connects and runs the untimed `prepare`
/// (index build, offline phase, payload generation); only once all of them
/// are ready **and** the bank (if any) has prefilled does the start line
/// drop, so the timed region never overlaps setup or production. Returns
/// the wall-clock of the `timed` parts, summed over sessions.
fn timed_fleet<P>(
    suite: &ProviderModelSuite,
    mailroom_config: MailroomConfig,
    n_sessions: usize,
    spec: &ClientSpec,
    seed_base: u64,
    prepare: impl Fn(&mut FleetClient, &mut StdRng) -> P + Sync,
    timed: impl Fn(&mut FleetClient, &P, &mut StdRng) + Sync,
) -> Duration {
    let mailroom = Mailroom::start(suite.clone(), mailroom_config);
    let ready_line = Barrier::new(n_sessions + 1);
    let start_line = Barrier::new(n_sessions + 1);

    let total = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..n_sessions)
            .map(|i| {
                let (provider_end, client_end) = memory_pair();
                mailroom
                    .submit(provider_end)
                    .expect("queue sized for fleet");
                let (ready_line, start_line, prepare, timed) =
                    (&ready_line, &start_line, &prepare, &timed);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed_base + i as u64);
                    let mut client =
                        MailroomClient::connect(client_end, spec, &mut rng).expect("client setup");
                    let prepared = prepare(&mut client, &mut rng);
                    ready_line.wait();
                    start_line.wait();
                    let start = Instant::now();
                    timed(&mut client, &prepared, &mut rng);
                    let elapsed = start.elapsed();
                    client.finish().expect("teardown");
                    elapsed
                })
            })
            .collect();

        ready_line.wait();
        assert!(
            mailroom.wait_until_bank_full(Duration::from_secs(600)),
            "bank prefill must finish before the timed region"
        );
        start_line.wait();
        clients.into_iter().map(|c| c.join().unwrap()).sum()
    });
    let report = mailroom.shutdown();
    assert_eq!(report.completed(), n_sessions, "every session must finish");
    total
}

/// CRT vs. inline decryption and precomputed-randomizer vs. inline
/// encryption, averaged over `iters` operations on one `bits`-bit key.
fn run_paillier_micro(bits: usize, iters: usize) -> JsonValue {
    let mut rng = StdRng::seed_from_u64(0x000F_F1CE);
    let sk = keygen(bits, &mut rng);
    let pk = sk.public();

    let plaintexts: Vec<u64> = (0..iters).map(|_| rng.gen_range(0..1 << 30)).collect();
    let cts: Vec<_> = plaintexts
        .iter()
        .map(|&m| pk.encrypt_u64(m, &mut rng).unwrap())
        .collect();

    let (ok_inline, d_inline) = time_over(iters, || {
        cts.iter()
            .all(|c| sk.decrypt_inline(c).unwrap().to_u64().is_some())
    });
    let (ok_crt, d_crt) = time_over(iters, || {
        cts.iter()
            .all(|c| sk.decrypt(c).unwrap().to_u64().is_some())
    });
    assert!(ok_inline && ok_crt);

    let (_, e_inline) = time_over(iters, || {
        for &m in &plaintexts {
            std::hint::black_box(pk.encrypt_u64(m, &mut rng).unwrap());
        }
        true
    });
    // The offline half: randomizers sampled outside the timed region.
    let randomizers: Vec<_> = (0..iters).map(|_| pk.sample_randomizer(&mut rng)).collect();
    let (_, e_online) = time_over(iters, || {
        for (&m, rn) in plaintexts.iter().zip(&randomizers) {
            let m = pretzel_bignum::BigUint::from(m);
            std::hint::black_box(pk.encrypt_with_randomizer(&m, rn).unwrap());
        }
        true
    });

    let dec_speedup = d_inline.as_secs_f64() / d_crt.as_secs_f64();
    let enc_speedup = e_inline.as_secs_f64() / e_online.as_secs_f64();

    let widths = [24, 14, 14, 10];
    print_header(&["operation", "inline", "split", "speedup"], &widths);
    print_row(
        &[
            "decrypt (CRT)".into(),
            human_us(d_inline),
            human_us(d_crt),
            format!("{dec_speedup:.2}x"),
        ],
        &widths,
    );
    print_row(
        &[
            "encrypt (r^n offline)".into(),
            human_us(e_inline),
            human_us(e_online),
            format!("{enc_speedup:.2}x"),
        ],
        &widths,
    );

    JsonValue::obj([
        ("decrypt_inline_us", micros(d_inline)),
        ("decrypt_crt_us", micros(d_crt)),
        ("decrypt_speedup", JsonValue::Num(dec_speedup)),
        ("encrypt_inline_us", micros(e_inline)),
        ("encrypt_online_us", micros(e_online)),
        ("encrypt_speedup", JsonValue::Num(enc_speedup)),
    ])
}

/// Mean per-email online latency of Baseline spam sessions, without and
/// with a prefilled bank, at each fleet size.
fn run_online_latency(paillier_bits: usize, sessions: &[usize], emails: usize) -> Vec<JsonValue> {
    let config = PretzelConfig {
        paillier_bits,
        ..PretzelConfig::test()
    };
    let suite = bench_suite(&config, 256);
    println!("\nOnline-path latency — Baseline spam rounds, {emails} emails/session");
    latency_table("email", sessions, |n, bank| {
        run_fleet(&suite, &config, n, emails, bank)
    })
}

/// Mean per-query online latency of encrypted-search sessions, without and
/// with a prefilled bank, at each fleet size.
fn run_search_latency(sessions: &[usize], queries: usize) -> Vec<JsonValue> {
    let config = PretzelConfig::test();
    let suite = bench_suite(&config, 64);
    println!("\nSearch-query latency — RLWE-packed responses, {queries} queries/session");
    latency_table("query", sessions, |n, bank| {
        run_search_fleet(&suite, &config, n, queries, bank)
    })
}

/// The synthetic model suite the fleets are served from: spam and virus
/// models over `features` features, a small topic model.
fn bench_suite(config: &PretzelConfig, features: usize) -> ProviderModelSuite {
    ProviderModelSuite {
        spam: synthetic_model(features, 2, 11),
        topic: synthetic_model(64, 4, 12),
        topic_mode: CandidateMode::Full,
        virus: synthetic_model(features, 2, 13),
        virus_extractor: NGramExtractor::new(3, features),
        config: config.clone(),
    }
}

/// Prints and records one cold-vs-bank table: `fleet(n, bank)` measures the
/// per-`unit` latency of an `n`-session fleet without / with the prefilled
/// bank (each cell the median of three runs).
fn latency_table(
    unit: &str,
    sessions: &[usize],
    fleet: impl Fn(usize, bool) -> Duration,
) -> Vec<JsonValue> {
    let widths = [10, 13, 13, 9];
    let (cold_col, bank_col) = (format!("cold/{unit}"), format!("bank/{unit}"));
    print_header(&["sessions", &cold_col, &bank_col, "bank spd"], &widths);
    sessions
        .iter()
        .map(|&n| {
            let cold = median_fleet(|| fleet(n, false));
            let bank = median_fleet(|| fleet(n, true));
            let bank_speedup = cold.as_secs_f64() / bank.as_secs_f64();
            print_row(
                &[
                    format!("{n}"),
                    human_us(cold),
                    human_us(bank),
                    format!("{bank_speedup:.2}x"),
                ],
                &widths,
            );
            JsonValue::obj([
                ("sessions", JsonValue::Int(n as u64)),
                (&format!("cold_us_per_{unit}"), micros(cold)),
                (&format!("bank_us_per_{unit}"), micros(bank)),
                ("bank_speedup", JsonValue::Num(bank_speedup)),
            ])
        })
        .collect()
}

/// Serves `n_sessions` search sessions: each uploads a small mailbox
/// (untimed — that is index-build work, not the query path), then runs
/// `queries` timed keyword-query rounds. Returns the mean wall-clock per
/// query. Without `bank` every response is encrypted inline; with it, a
/// fleet bank stocks each session's zero-encryption reservoir to the whole
/// query demand before the timed region, and the zero low watermark keeps
/// its producer parked during it.
fn run_search_fleet(
    suite: &ProviderModelSuite,
    config: &PretzelConfig,
    n_sessions: usize,
    queries: usize,
    bank: bool,
) -> Duration {
    let stock = bank.then_some((KIND_ZERO_ENCRYPTIONS, queries));
    let total = timed_fleet(
        suite,
        fleet_config(n_sessions, 43, stock),
        n_sessions,
        &ClientSpec::search(config.clone()),
        2000,
        |client, rng| {
            for doc in 0..8u64 {
                client
                    .index_email(
                        doc,
                        &format!("message {doc} about invoices and travel"),
                        rng,
                    )
                    .expect("index");
            }
        },
        |client, (), rng| {
            for q in 0..queries {
                let kw = if q % 2 == 0 { "invoices" } else { "travel" };
                client.search_keyword(kw, rng).expect("query");
            }
        },
    );
    total / (n_sessions * queries) as u32
}

/// Serves `n_sessions` Baseline spam sessions and returns the mean
/// wall-clock per email of the round loops alone — setup and offline
/// precompute excluded, exactly the paper's online-path cost. Without
/// `bank` both sides compute everything inline; with it, the provider draws
/// garblings from a fleet bank prefilled to the whole run's demand and the
/// clients run their offline phase for the whole run before the clock.
fn run_fleet(
    suite: &ProviderModelSuite,
    config: &PretzelConfig,
    n_sessions: usize,
    emails: usize,
    bank: bool,
) -> Duration {
    let stock = bank.then_some((KIND_GARBLINGS, n_sessions * emails));
    let total = timed_fleet(
        suite,
        fleet_config(n_sessions, 42, stock),
        n_sessions,
        &ClientSpec::spam(config.clone()).with_variant(AheVariant::Baseline),
        1000,
        |client, rng| {
            if bank {
                client.precompute(emails, rng);
            }
            random_email(rng)
        },
        |client, email, rng| {
            for _ in 0..emails {
                client.classify_spam(email, rng).expect("classify");
            }
        },
    );
    total / (n_sessions * emails) as u32
}

/// Runs a fleet measurement three times and returns the median. A single
/// fleet run heavily oversubscribes the cores (one thread per session), so
/// its wall-clock is at the mercy of the scheduler — at 64 sessions the
/// run-to-run spread of a lone sample exceeds the cold/bank gap itself.
fn median_fleet(mut run: impl FnMut() -> Duration) -> Duration {
    let mut samples = [run(), run(), run()];
    samples.sort();
    samples[1]
}

/// Times `f` and returns (its result, mean duration per item over `iters`).
fn time_over<R>(iters: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed() / iters.max(1) as u32)
}

fn micros(d: Duration) -> JsonValue {
    JsonValue::Num(d.as_secs_f64() * 1e6)
}
