//! Per-layer probes: timed calls into each crate's public functions.
//!
//! A probe's value is the median over repeated timed batches of one call, at
//! paper parameters; the `core.*` round probes of the workload's own kind run
//! at the workload's parameters (variant, N, L, batch). Layers are the crate
//! names. `pretzel_primitives` and `pretzel_sse` are not dependencies of this
//! package, so they are measured through `gc.*` and `core.search.*`.
//!
//! Probes have no bound: they locate a change, they do not gate it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pretzel_bignum::{mod_pow, AutoMontgomery, BigUint};
use pretzel_classifiers::NGramExtractor;
use pretzel_core::bank::{BankConfig, PrecomputeBank};
use pretzel_core::registry::{ClientContext, FunctionModule, ProtocolRegistry};
use pretzel_core::search::SearchFunction;
use pretzel_core::session::{ClientSession, EmailPayload, ProviderSession};
use pretzel_core::spam::{AheVariant, SpamFunction};
use pretzel_core::topic::TopicFunction;
use pretzel_core::virus::VirusFunction;
use pretzel_core::{NoPrivProvider, PretzelConfig};
use pretzel_gc::garble::evaluate;
use pretzel_gc::ot::{base_ot_receive, base_ot_send};
use pretzel_gc::otext::{OtExtReceiver, OtExtSender};
use pretzel_gc::{
    garble, spam_compare_circuit, topic_argmax_circuit, Circuit, OtGroup, OutputMode,
    PrecomputedGarbling, YaoEvaluator, YaoGarbler,
};
use pretzel_sdp::paillier_pack::{self, PaillierPackParams};
use pretzel_sdp::rlwe_pack::{self, Packing};
use pretzel_sdp::ModelMatrix;
use pretzel_transport::wire::{
    crc32, negotiate, Capabilities, HandshakeAck, HandshakeOffer, NegotiationPolicy,
    ProtocolVersion, V2Codec, WireCodec,
};
use pretzel_transport::{memory_pair, pack_frames, Channel, TcpAcceptor, TcpChannel};

use crate::procfs::thread_self_cpu_ns;
use crate::stats::median;
use crate::workloads::{self, Flow, Kind, Scale, Workload};
use crate::{metric, Metric};

/// Time one micro-probe may take.
const MICRO_BUDGET: Duration = Duration::from_millis(30);

/// Median nanoseconds per call of `f`: one warm-up call sizes a batch of
/// about half a millisecond, then batches are timed until `budget` is spent
/// (at least three).
fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_nanos().max(20);
    let batch = (500_000 / once).clamp(1, 100_000) as usize;
    let mut samples = Vec::new();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 200) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

fn micro(f: impl FnMut()) -> f64 {
    ns_per_call(MICRO_BUDGET, f)
}

struct Collector(Vec<Metric>);

impl Collector {
    fn us(&mut self, name: &'static str, ns: f64) {
        self.0.push(metric(name, ns / 1e3, "us"));
    }
    fn ms(&mut self, name: &'static str, ns: f64) {
        self.0.push(metric(name, ns / 1e6, "ms"));
    }
    fn ns(&mut self, name: &'static str, ns: f64) {
        self.0.push(metric(name, ns, "ns"));
    }
    fn count(&mut self, name: &'static str, n: usize) {
        self.0.push(metric(name, n as f64, "count"));
    }
}

fn bignum(out: &mut Collector, paillier: &pretzel_paillier::SecretKey, rng: &mut StdRng) {
    let group = OtGroup::rfc3526_1536();
    let p = group.prime();
    let (base, exp) = (BigUint::random_below(rng, p), BigUint::random_below(rng, p));
    out.us(
        "bignum.pow_1536_us",
        micro(|| {
            black_box(mod_pow(black_box(&base), &exp, p));
        }),
    );
    let n = paillier.public().n();
    let n2 = AutoMontgomery::new(&(n.clone() * n.clone()));
    let (a, b) = (
        BigUint::random_below(rng, n2.modulus()),
        BigUint::random_below(rng, n2.modulus()),
    );
    out.us(
        "bignum.pow_n2_us",
        micro(|| {
            black_box(n2.pow(black_box(&a), n));
        }),
    );
    out.ns(
        "bignum.mulmod_n2_ns",
        micro(|| {
            black_box(n2.mul(black_box(&a), &b));
        }),
    );
    // The CRT half of decryption: a half-width exponent modulo a prime
    // square of the modulus' width (here n itself stands in for p²: same
    // limb count, odd).
    let crt = AutoMontgomery::new(n);
    let half = BigUint::random_bits(rng, n.bits() / 2);
    let c = BigUint::random_below(rng, n);
    out.us(
        "bignum.pow_crt_us",
        micro(|| {
            black_box(crt.pow(black_box(&c), &half));
        }),
    );
}

fn paillier(out: &mut Collector, sk: &pretzel_paillier::SecretKey, rng: &mut StdRng) {
    let pk = sk.public();
    let (a, b) = (
        pk.encrypt_u64(123_456, rng).expect("in range"),
        pk.encrypt_u64(654_321, rng).expect("in range"),
    );
    out.us(
        "paillier.encrypt_us",
        micro(|| {
            black_box(pk.encrypt_u64(black_box(77), rng).expect("in range"));
        }),
    );
    out.us(
        "paillier.decrypt_us",
        micro(|| {
            black_box(sk.decrypt(black_box(&a)).expect("valid ciphertext"));
        }),
    );
    out.us(
        "paillier.mul_plain_u64_us",
        micro(|| {
            black_box(pk.mul_plain_u64(black_box(&a), 13));
        }),
    );
    out.us(
        "paillier.add_us",
        micro(|| {
            black_box(pk.add(black_box(&a), &b));
        }),
    );
}

fn rlwe(out: &mut Collector, config: &PretzelConfig, rng: &mut StdRng) {
    let params = config.rlwe_params();
    let (sk, pk) = pretzel_rlwe::keygen(&params, None, rng);
    let slots: Vec<u64> = (0..params.slots() as u64).map(|i| i % params.t).collect();
    let a = pk.encrypt_slots(&slots, rng).expect("slots fit");
    let b = pk.encrypt_slots(&slots, rng).expect("slots fit");
    let bytes = a.to_bytes();
    out.us(
        "rlwe.encrypt_us",
        micro(|| {
            black_box(pk.encrypt_slots(black_box(&slots), rng).expect("slots fit"));
        }),
    );
    out.us(
        "rlwe.decrypt_us",
        micro(|| {
            black_box(sk.decrypt_slots(black_box(&a)));
        }),
    );
    let mut acc = pk.zero_accumulator();
    out.us(
        "rlwe.mul_scalar_accumulate_us",
        micro(|| pk.mul_scalar_accumulate(&mut acc, black_box(&a), 7)),
    );
    out.us(
        "rlwe.add_us",
        micro(|| {
            black_box(pk.add(black_box(&a), &b));
        }),
    );
    let tables = pretzel_rlwe::ntt::NttTables::new(params.n, params.q);
    let mut poly: Vec<u64> = (0..params.n as u64).map(|i| i * 31 % params.q).collect();
    out.us(
        "rlwe.ntt_forward_us",
        micro(|| tables.forward(black_box(&mut poly))),
    );
    out.us(
        "rlwe.ct_from_bytes_us",
        micro(|| {
            black_box(
                pretzel_rlwe::Ciphertext::from_bytes(&params, black_box(&bytes))
                    .expect("well-formed"),
            );
        }),
    );
}

/// Runs `party_b` on a second thread over a memory pair while `party_a` runs
/// here; returns `party_a`'s result after joining.
fn two_party<A, RA>(party_a: A, party_b: impl FnOnce(pretzel_transport::MemoryChannel) + Send) -> RA
where
    A: FnOnce(pretzel_transport::MemoryChannel) -> RA,
{
    let (chan_a, chan_b) = memory_pair();
    std::thread::scope(|scope| {
        let peer = scope.spawn(move || party_b(chan_b));
        let out = party_a(chan_a);
        peer.join().expect("probe peer panicked");
        out
    })
}

fn eval_inputs(circuit: &Circuit, garbling: &pretzel_gc::Garbling) -> Vec<(usize, [u8; 16])> {
    let mut labels: Vec<(usize, [u8; 16])> = circuit
        .garbler_inputs
        .iter()
        .chain(&circuit.evaluator_inputs)
        .map(|&w| (w, garbling.label_for(w, false)))
        .collect();
    labels.extend(
        circuit
            .const_zero
            .map(|w| (w, garbling.label_for(w, false))),
    );
    labels.extend(circuit.const_one.map(|w| (w, garbling.label_for(w, true))));
    labels
}

fn gc(out: &mut Collector, config: &PretzelConfig, rng: &mut StdRng) {
    let width = config.rlwe_plain_bits as usize;
    let spam = spam_compare_circuit(width);
    let topic = topic_argmax_circuit(
        config.candidate_topics,
        width,
        pretzel_core::topic::index_width_for(128),
    );
    out.count("gc.and_gates_spam", spam.and_count());
    out.count("gc.and_gates_topic", topic.and_count());
    for (circuit, garble_name, eval_name) in [
        (&spam, "gc.garble_spam_us", "gc.eval_spam_us"),
        (&topic, "gc.garble_topic_us", "gc.eval_topic_us"),
    ] {
        out.us(
            garble_name,
            micro(|| {
                black_box(garble(black_box(circuit), rng));
            }),
        );
        let garbling = garble(circuit, rng);
        let inputs = eval_inputs(circuit, &garbling);
        out.us(
            eval_name,
            micro(|| {
                black_box(evaluate(circuit, &garbling.tables, black_box(&inputs)));
            }),
        );
    }

    // 128 base OTs (the IKNP seed transfer every classification set-up pays).
    let group = config.ot_group(&[7u8; 32]);
    let pairs: Vec<([u8; 32], [u8; 32])> = (0..128).map(|_| (rng.gen(), rng.gen())).collect();
    let choices: Vec<bool> = (0..128).map(|i| i % 3 == 0).collect();
    let base_ot: Vec<f64> = (0..3)
        .map(|round| {
            let start = Instant::now();
            two_party(
                |mut chan| {
                    let mut rng = StdRng::seed_from_u64(round);
                    base_ot_send(&mut chan, &group, &pairs, &mut rng).expect("base OT send");
                },
                |mut chan| {
                    let mut rng = StdRng::seed_from_u64(round + 100);
                    base_ot_receive(&mut chan, &group, &choices, &mut rng)
                        .expect("base OT receive");
                },
            );
            start.elapsed().as_nanos() as f64
        })
        .collect();
    out.ms("gc.base_ot_ms", median(&base_ot));

    // OT extension and a whole Yao round on a test-size group: the group only
    // matters for the base OTs above, not for the per-email symmetric work.
    let cheap = OtGroup::derive_test_group(64, &[7u8; 32]);
    const OTS: usize = 600; // topic: 20 candidates x 30 bits
    const REPS: usize = 20;
    let labels: Vec<([u8; 16], [u8; 16])> = (0..OTS).map(|_| (rng.gen(), rng.gen())).collect();
    let bits: Vec<bool> = (0..OTS).map(|i| i % 5 < 2).collect();
    let extend = two_party(
        |mut chan| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut sender =
                OtExtSender::setup(&mut chan, &cheap, &mut rng).expect("OT extension set-up");
            let samples: Vec<f64> = (0..REPS)
                .map(|_| {
                    let t = Instant::now();
                    sender.extend(&mut chan, &labels).expect("extend");
                    t.elapsed().as_nanos() as f64 / OTS as f64
                })
                .collect();
            median(&samples)
        },
        |mut chan| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut receiver =
                OtExtReceiver::setup(&mut chan, &cheap, &mut rng).expect("OT extension set-up");
            for _ in 0..REPS {
                receiver.extend(&mut chan, &bits).expect("extend");
            }
        },
    );
    out.us("gc.otext_us_per_ot", extend);

    let garbler_bits: Vec<bool> = (0..spam.garbler_inputs.len()).map(|i| i % 3 == 0).collect();
    let evaluator_bits: Vec<bool> = (0..spam.evaluator_inputs.len())
        .map(|i| i % 5 == 0)
        .collect();
    let yao = two_party(
        |mut chan| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut garbler = YaoGarbler::setup(&mut chan, &cheap, &mut rng).expect("Yao set-up");
            let samples: Vec<f64> = (0..REPS * 2)
                .map(|_| {
                    let t = Instant::now();
                    garbler
                        .run(
                            &mut chan,
                            &spam,
                            &garbler_bits,
                            OutputMode::EvaluatorOnly,
                            &mut rng,
                        )
                        .expect("Yao round");
                    t.elapsed().as_nanos() as f64
                })
                .collect();
            median(&samples)
        },
        |mut chan| {
            let mut rng = StdRng::seed_from_u64(4);
            let mut evaluator =
                YaoEvaluator::setup(&mut chan, &cheap, &mut rng).expect("Yao set-up");
            for _ in 0..REPS * 2 {
                evaluator
                    .run(&mut chan, &spam, &evaluator_bits, OutputMode::EvaluatorOnly)
                    .expect("Yao round");
            }
        },
    );
    out.us("gc.yao_round_spam_us", yao);
}

fn matrix(rows: usize, cols: usize, rng: &mut StdRng) -> ModelMatrix {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(0..1024u64))
        .collect();
    ModelMatrix::from_rows(rows, cols, data)
}

fn sparse(rows: usize, l: usize, rng: &mut StdRng) -> Vec<(usize, u64)> {
    let mut features: Vec<(usize, u64)> = (0..l)
        .map(|i| (i * (rows - 1) / l, rng.gen_range(1..=15u64)))
        .collect();
    features.push((rows - 1, 1)); // the bias row
    features
}

fn sdp(
    out: &mut Collector,
    config: &PretzelConfig,
    paillier_sk: &pretzel_paillier::SecretKey,
    rng: &mut StdRng,
) {
    // RLWE, the spam_long model: 4096 features + bias, 2 columns.
    let params = config.rlwe_params();
    let (sk, pk) = pretzel_rlwe::keygen(&params, None, rng);
    let model = matrix(4097, 2, rng);
    let start = Instant::now();
    let enc = rlwe_pack::encrypt_model(&pk, &model, Packing::AcrossRow, rng).expect("model fits");
    out.ms(
        "sdp.rlwe_encrypt_model_ms",
        start.elapsed().as_nanos() as f64,
    );
    out.count("sdp.model_bytes_rlwe", enc.size_bytes(&pk));
    for (name, l) in [
        ("sdp.rlwe_client_dot_us_l692", 692),
        ("sdp.rlwe_client_dot_us_l32", 32),
    ] {
        let features = sparse(4097, l, rng);
        out.us(
            name,
            micro(|| {
                black_box(
                    rlwe_pack::client_dot_product(&pk, &enc, black_box(&features))
                        .expect("rows in range"),
                );
            }),
        );
    }
    let result =
        rlwe_pack::client_dot_product(&pk, &enc, &sparse(4097, 32, rng)).expect("rows in range");
    out.us(
        "sdp.rlwe_provider_decrypt_us",
        micro(|| {
            black_box(rlwe_pack::provider_decrypt(&sk, black_box(&result), 2));
        }),
    );

    // Paillier: a 128-feature model — one eighth of baseline_short's, so the
    // probe stays near a quarter second (encryption is linear in rows).
    let ppk = paillier_sk.public();
    let pack = PaillierPackParams {
        slot_bits: config.paillier_slot_bits,
    };
    let model = matrix(129, 2, rng);
    let start = Instant::now();
    let enc = paillier_pack::encrypt_model(ppk, &model, pack, rng).expect("model fits");
    out.ms(
        "sdp.paillier_encrypt_model_ms",
        start.elapsed().as_nanos() as f64,
    );
    out.count("sdp.model_bytes_paillier", enc.size_bytes(ppk));
    let features = sparse(129, 32, rng);
    out.us(
        "sdp.paillier_client_dot_us_l32",
        micro(|| {
            black_box(
                paillier_pack::client_dot_product(ppk, &enc, black_box(&features), rng)
                    .expect("rows in range"),
            );
        }),
    );
    let result =
        paillier_pack::client_dot_product(ppk, &enc, &features, rng).expect("rows in range");
    let slots = enc.slots_per_ct();
    out.us(
        "sdp.paillier_provider_decrypt_us",
        micro(|| {
            black_box(
                paillier_pack::provider_decrypt(
                    paillier_sk,
                    2,
                    config.paillier_slot_bits,
                    slots,
                    black_box(&result),
                )
                .expect("valid ciphertexts"),
            );
        }),
    );
}

fn ping_pong<C: Channel + 'static>(mut a: C, mut b: C, frame: &[u8], reps: usize) -> f64 {
    let echo = std::thread::spawn(move || {
        while let Ok(msg) = b.recv() {
            if b.send(&msg).is_err() {
                break;
            }
        }
    });
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            a.send(frame).expect("probe send");
            black_box(a.recv().expect("probe recv"));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    drop(a);
    echo.join().expect("echo thread panicked");
    median(&samples)
}

fn tcp_pair() -> (TcpChannel, TcpChannel) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind a loopback port");
    let a = TcpChannel::connect(acceptor.local_addr().expect("address")).expect("connect");
    let (b, _) = acceptor.accept().expect("accept");
    (a, b)
}

fn transport(out: &mut Collector) {
    let codec = V2Codec;
    let payload: Vec<u8> = (0..16 * 1024).map(|i| (i * 7 % 251) as u8).collect();
    let frame = codec.encode(&payload);
    out.ns(
        "transport.v2_encode_ns_per_kib",
        micro(|| {
            black_box(codec.encode(black_box(&payload)));
        }) / 16.0,
    );
    out.ns(
        "transport.v2_decode_ns_per_kib",
        micro(|| {
            black_box(codec.decode(black_box(&frame)).expect("valid frame"));
        }) / 16.0,
    );
    let crc_ns = micro(|| {
        black_box(crc32(black_box(&payload)));
    });
    out.0.push(metric(
        "transport.crc32_mb_s",
        payload.len() as f64 / 1e6 / (crc_ns / 1e9),
        "MB/s",
    ));
    let frames: Vec<&[u8]> = (0..8).map(|_| payload.as_slice()).collect();
    out.us(
        "transport.pack_frames_us_b8",
        micro(|| {
            black_box(pack_frames(black_box(&frames)));
        }),
    );
    let (a, b) = memory_pair();
    out.us("transport.memory_rtt_us", ping_pong(a, b, &[1u8; 32], 2000));
    let (a, b) = tcp_pair();
    out.us("transport.tcp_rtt_us", ping_pong(a, b, &[1u8; 32], 2000));
    let (a, b) = tcp_pair();
    // An echoed frame crosses the socket twice.
    let bulk_ns = ping_pong(a, b, &payload, 500);
    out.0.push(metric(
        "transport.tcp_mb_s",
        2.0 * payload.len() as f64 / 1e6 / (bulk_ns / 1e9),
        "MB/s",
    ));
    let offer = HandshakeOffer {
        min_version: ProtocolVersion::MIN.as_byte(),
        max_version: ProtocolVersion::MAX.as_byte(),
        wire_tag: 1,
        variant: 1,
        capabilities: Capabilities::KNOWN,
    };
    let policy = NegotiationPolicy::default();
    out.us(
        "transport.handshake_us",
        micro(|| {
            let decoded = HandshakeOffer::decode(&black_box(&offer).encode()).expect("offer");
            let profile = negotiate(&decoded, &policy).expect("overlapping versions");
            let ack = HandshakeAck::Accept {
                version: profile.version,
                capabilities: profile.capabilities,
            };
            black_box(HandshakeAck::decode(&ack.encode()).expect("ack"));
        }),
    );
}

/// What direct (mailroom-less) sessions of one kind measured.
struct CoreRound {
    setup_ns: f64,
    client_round_ns: f64,
    provider_cpu_ns_per_round: f64,
}

/// Sets up one session per generator script over memory pairs through the
/// registry — concurrently, like the workload's own sessions, so the direct
/// round competes for the cores the way the mailroom's does — runs `rounds`
/// calls of `batch` payloads on each, and times both sides.
fn core_sessions(
    module: &Arc<dyn FunctionModule>,
    inputs: &workloads::Inputs,
    batch: usize,
    rounds: usize,
) -> CoreRound {
    let registry = ProtocolRegistry::builtin();
    let tag = module.wire_tag();
    let one = |script: &workloads::SessionScript, seed: u64| -> (f64, Vec<f64>, f64) {
        let ctx: &ClientContext = &script.spec.ctx;
        let calls = rounds.min(script.payloads.len() / batch).max(1);
        two_party(
            |mut chan| {
                let mut rng = StdRng::seed_from_u64(seed);
                let start = Instant::now();
                let mut client =
                    ClientSession::setup(&registry, tag, &mut chan, ctx, &mut rng).expect("set-up");
                let setup_ns = start.elapsed().as_nanos() as f64;
                let samples: Vec<f64> = (0..calls)
                    .map(|call| {
                        let payloads = &script.payloads[call * batch..(call + 1) * batch];
                        let t = Instant::now();
                        if batch == 1 {
                            black_box(client.process_round(&mut chan, &payloads[0], &mut rng))
                                .expect("direct round");
                        } else {
                            black_box(client.process_batch(&mut chan, payloads, &mut rng))
                                .expect("direct batch");
                        }
                        t.elapsed().as_nanos() as f64
                    })
                    .collect();
                // The provider reports its CPU in the channel's last frame.
                let cpu = chan.recv().expect("provider CPU report");
                let cpu = u64::from_le_bytes(cpu.try_into().expect("8-byte CPU report"));
                (setup_ns, samples, cpu as f64 / calls as f64)
            },
            |mut chan| {
                let mut rng = StdRng::seed_from_u64(seed + 1000);
                let mut provider = ProviderSession::setup(
                    &registry,
                    tag,
                    &mut chan,
                    &inputs.suite,
                    ctx.variant,
                    &mut rng,
                )
                .expect("set-up");
                let cpu0 = thread_self_cpu_ns();
                for _ in 0..calls {
                    if batch == 1 {
                        provider
                            .process_round(&mut chan, &mut rng)
                            .expect("direct round");
                    } else {
                        provider
                            .process_batch(&mut chan, batch, &mut rng)
                            .expect("direct batch");
                    }
                }
                let cpu = thread_self_cpu_ns() - cpu0;
                chan.send(&cpu.to_le_bytes()).expect("CPU report");
            },
        )
    };
    let results: Vec<(f64, Vec<f64>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .generators
            .iter()
            .enumerate()
            .map(|(g, script)| {
                let one = &one;
                scope.spawn(move || one(&script.sessions[0], 11 + g as u64))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("direct session panicked"))
            .collect()
    });
    let samples: Vec<f64> = results.iter().flat_map(|r| r.1.iter().copied()).collect();
    let mean = |f: fn(&(f64, Vec<f64>, f64)) -> f64| {
        results.iter().map(f).sum::<f64>() / results.len() as f64
    };
    CoreRound {
        setup_ns: mean(|r| r.0),
        client_round_ns: median(&samples),
        provider_cpu_ns_per_round: mean(|r| r.2),
    }
}

/// The workload a kind's `core.*` probe runs at: `w` itself when `w` serves
/// that kind steadily, otherwise the reference steady workload of the kind.
fn probe_workload(kind: Kind, w: &Workload) -> Workload {
    let own = matches!(w.flow, Flow::Steady { kind: k, .. } if k == kind);
    if own {
        return *w;
    }
    let reference = match kind {
        Kind::Spam | Kind::Virus => "spam_short_bank",
        Kind::Topic => "topic_batch",
        Kind::Search => "search_rw",
    };
    let mut base = workloads::by_name(reference).expect("reference workloads exist");
    if kind == Kind::Virus {
        base.flow = Flow::Steady {
            kind: Kind::Virus,
            batch: 1,
        };
    }
    base
}

fn core(out: &mut Collector, w: &Workload, scale: Scale) {
    type Names = (&'static str, &'static str, Option<&'static str>);
    let kinds: [(Kind, Arc<dyn FunctionModule>, Names, usize); 3] = [
        (
            Kind::Spam,
            Arc::new(SpamFunction),
            (
                "core.spam.client_round_us",
                "core.spam.provider_round_us",
                Some("core.spam.setup_ms"),
            ),
            40,
        ),
        (
            Kind::Topic,
            Arc::new(TopicFunction),
            (
                "core.topic.client_round_us",
                "core.topic.provider_round_us",
                Some("core.topic.setup_ms"),
            ),
            6,
        ),
        (
            Kind::Virus,
            Arc::new(VirusFunction),
            (
                "core.virus.client_round_us",
                "core.virus.provider_round_us",
                None,
            ),
            10,
        ),
    ];
    for (kind, module, (client_name, provider_name, setup_name), rounds) in kinds {
        let pw = probe_workload(kind, w);
        let Flow::Steady { batch, .. } = pw.flow else {
            unreachable!("probe workloads are steady");
        };
        let inputs = workloads::generate(&pw, scale, 1, rounds * batch, 0);
        let measured = core_sessions(&module, &inputs, batch, rounds);
        out.us(client_name, measured.client_round_ns);
        out.us(provider_name, measured.provider_cpu_ns_per_round);
        if let Some(name) = setup_name {
            out.ms(name, measured.setup_ns);
        }
    }

    // Search: index and query rounds are timed apart.
    let pw = probe_workload(Kind::Search, w);
    let inputs = workloads::generate(&pw, scale, 1, 0, 400);
    let script = &inputs.generators[0].sessions[0];
    let registry = ProtocolRegistry::builtin();
    let tag = SearchFunction.wire_tag();
    let ops = script.payloads.len();
    let (setup_ns, index_ns, query_ns) = two_party(
        |mut chan| {
            let mut rng = StdRng::seed_from_u64(13);
            let start = Instant::now();
            let mut client =
                ClientSession::setup(&registry, tag, &mut chan, &script.spec.ctx, &mut rng)
                    .expect("set-up");
            let setup_ns = start.elapsed().as_nanos() as f64;
            let (mut index, mut query) = (Vec::new(), Vec::new());
            for payload in &script.payloads {
                let t = Instant::now();
                black_box(client.process_round(&mut chan, payload, &mut rng))
                    .expect("direct search round");
                let ns = t.elapsed().as_nanos() as f64;
                match payload {
                    EmailPayload::SearchIndex { .. } => index.push(ns),
                    _ => query.push(ns),
                }
            }
            (setup_ns, median(&index), median(&query))
        },
        |mut chan| {
            let mut rng = StdRng::seed_from_u64(14);
            let mut provider = ProviderSession::setup(
                &registry,
                tag,
                &mut chan,
                &inputs.suite,
                AheVariant::Pretzel,
                &mut rng,
            )
            .expect("set-up");
            for _ in 0..ops {
                provider
                    .process_round(&mut chan, &mut rng)
                    .expect("direct search round");
            }
        },
    );
    out.us("core.search.index_us", index_ns);
    out.us("core.search.query_us", query_ns);
    out.ms("core.search.setup_ms", setup_ns);

    // The status quo the paper's ratios divide by: plaintext classification
    // of an L=692 email against the spam_long model.
    let long = workloads::by_name("spam_long").expect("spam_long exists");
    let inputs = workloads::generate(&long, scale, 1, 4, 0);
    let noprivate = NoPrivProvider::new(inputs.suite.spam.clone());
    let EmailPayload::Tokens(email) = &inputs.generators[0].sessions[0].payloads[0] else {
        unreachable!("spam payloads are token vectors");
    };
    out.us(
        "core.nopriv_classify_us_l692",
        micro(|| {
            black_box(noprivate.classify(black_box(email)));
        }),
    );
}

fn bank(out: &mut Collector, config: &PretzelConfig) {
    // One spam comparison-circuit reservoir, filled from empty by one
    // producer: production cost per garbling, then the cost of a draw.
    let circuit = spam_compare_circuit(config.rlwe_plain_bits as usize);
    let id = pretzel_core::ReservoirId::garblings(circuit.fingerprint());
    let producer_circuit = circuit.clone();
    let spec = pretzel_core::ReservoirSpec::new(
        id,
        Arc::new(move |rng: &mut dyn rand::RngCore| {
            Box::new(PrecomputedGarbling::garble(&producer_circuit, rng))
                as pretzel_core::bank::Artifact
        }),
    )
    .with_target(256);
    let bank = PrecomputeBank::start(BankConfig::default());
    let start = Instant::now();
    bank.register(spec);
    bank.wait_until_full(Duration::from_secs(5));
    let fill_ns = start.elapsed().as_nanos() as f64;
    let produced = bank.report().produced_total().max(1);
    out.us("core.bank.produce_garbling_us", fill_ns / produced as f64);
    let handle = bank.handle();
    let draws = 128;
    let t = Instant::now();
    for _ in 0..draws {
        black_box(handle.draw(&id));
    }
    out.ns(
        "core.bank.draw_ns",
        t.elapsed().as_nanos() as f64 / draws as f64,
    );
    bank.shutdown();
}

/// Runs every probe. `w` picks the parameters of its own kind's `core.*`
/// probes; `scale` is `Paper` except under `--smoke`.
pub fn run(w: &Workload, scale: Scale) -> Vec<Metric> {
    let config = match scale {
        Scale::Paper => PretzelConfig::paper(),
        Scale::Smoke => PretzelConfig::test(),
    };
    let mut rng = StdRng::seed_from_u64(0x70_726f_6265); // "probe"
    let mut out = Collector(Vec::new());
    let paillier_sk = pretzel_paillier::keygen(config.paillier_bits, &mut rng);
    bignum(&mut out, &paillier_sk, &mut rng);
    paillier(&mut out, &paillier_sk, &mut rng);
    rlwe(&mut out, &config, &mut rng);
    gc(&mut out, &config, &mut rng);
    sdp(&mut out, &config, &paillier_sk, &mut rng);
    transport(&mut out);
    let extractor = NGramExtractor::new(3, 4096);
    let attachment: Vec<u8> = (0..2048).map(|_| rng.gen_range(0..=255u8)).collect();
    out.us(
        "classifiers.ngram_extract_us",
        micro(|| {
            black_box(extractor.extract(black_box(&attachment)));
        }),
    );
    core(&mut out, w, scale);
    bank(&mut out, &config);
    out.0
}
