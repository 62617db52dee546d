//! Failure-injection and misbehaving-party tests (paper §4.4).
//!
//! Guarantee 1 says the parties cannot observe each other's inputs even when
//! they deviate from the protocol's mechanics. These tests feed each endpoint
//! malformed, truncated, or outright malicious messages and check that the
//! endpoint returns an error instead of panicking, leaking, or silently
//! producing a result. They also exercise the replay defense and the
//! "plausible deniability" opt-outs the paper describes.

use pretzel::classifiers::nb::GrNbTrainer;
use pretzel::classifiers::{LabeledExample, SparseVector, Trainer};
use pretzel::core::search::{SearchClient, SearchProvider, SearchResults, REPLY_LEN};
use pretzel::core::setup::joint_randomness_initiator;
use pretzel::core::spam::{AheVariant, SpamClient, SpamProvider};
use pretzel::core::topic::{CandidateMode, TopicClient};
use pretzel::core::{PretzelConfig, PretzelError, ProviderModule, ReplayGuard};
use pretzel::gc::{GcError, YaoEvaluator, YaoGarbler};
use pretzel::primitives::sha256;
use pretzel::transport::{memory_pair, run_two_party, Channel, MemoryChannel};

mod common;
use common::test_rng;
fn example(pairs: &[(usize, u32)], label: usize) -> LabeledExample {
    LabeledExample {
        features: SparseVector::from_pairs(pairs.to_vec()),
        label,
    }
}

fn tiny_spam_model() -> pretzel::classifiers::LinearModel {
    let mut corpus = Vec::new();
    for i in 0..10 {
        corpus.push(example(&[(i % 4, 2)], 1));
        corpus.push(example(&[(4 + i % 4, 2)], 0));
    }
    GrNbTrainer::default().train(&corpus, 8, 2)
}

/// Sends the messages a responder expects from the joint-randomness exchange,
/// honestly. Returns after the exchange completes.
fn run_joint_randomness_as_initiator<C: Channel>(chan: &mut C) {
    let seed = [5u8; 32];
    chan.send(&sha256(&seed)).unwrap();
    let _their_seed = chan.recv().unwrap();
    chan.send(&seed).unwrap();
}

#[test]
fn spam_client_rejects_a_false_commitment_reveal() {
    let (client_res, _) = run_two_party(
        |chan| {
            SpamClient::setup(
                chan,
                &PretzelConfig::test(),
                AheVariant::Pretzel,
                &mut test_rng(1),
            )
        },
        |chan| {
            // Malicious provider: commits to one seed, reveals a different one.
            let committed = [1u8; 32];
            chan.send(&sha256(&committed)).unwrap();
            let _client_seed = chan.recv().unwrap();
            chan.send(&[2u8; 32]).unwrap();
        },
    );
    assert!(
        matches!(client_res, Err(PretzelError::Protocol(_))),
        "client must reject a reveal that does not match the commitment"
    );
}

#[test]
fn spam_client_rejects_a_model_with_the_wrong_column_count() {
    let (client_res, _) = run_two_party(
        |chan| {
            SpamClient::setup(
                chan,
                &PretzelConfig::test(),
                AheVariant::Pretzel,
                &mut test_rng(2),
            )
        },
        |chan| {
            run_joint_randomness_as_initiator(chan);
            chan.send(&9u64.to_le_bytes()).unwrap(); // rows
            chan.send(&3u64.to_le_bytes()).unwrap(); // cols: spam must be 2
        },
    );
    assert!(matches!(client_res, Err(PretzelError::Protocol(_))));
}

#[test]
fn spam_client_rejects_a_garbage_public_key() {
    let (client_res, _) = run_two_party(
        |chan| {
            SpamClient::setup(
                chan,
                &PretzelConfig::test(),
                AheVariant::Pretzel,
                &mut test_rng(3),
            )
        },
        |chan| {
            run_joint_randomness_as_initiator(chan);
            chan.send(&9u64.to_le_bytes()).unwrap();
            chan.send(&2u64.to_le_bytes()).unwrap();
            chan.send(&[0xAB; 17]).unwrap(); // not a serialized RLWE public key
        },
    );
    assert!(client_res.is_err(), "garbage public key must be rejected");
}

#[test]
fn spam_client_rejects_a_truncated_model_blob() {
    let config = PretzelConfig::test();
    let params = config.rlwe_params();
    let (client_res, _) = run_two_party(
        |chan| SpamClient::setup(chan, &config, AheVariant::Pretzel, &mut test_rng(4)),
        move |chan| {
            let mut rng = test_rng(5);
            run_joint_randomness_as_initiator(chan);
            chan.send(&9u64.to_le_bytes()).unwrap();
            chan.send(&2u64.to_le_bytes()).unwrap();
            // A syntactically valid public key…
            let (_sk, pk) = pretzel::rlwe::keygen(&params, None, &mut rng);
            chan.send(&pk.to_bytes()).unwrap();
            // …but a model blob whose length does not match the claimed count.
            chan.send(&4u64.to_le_bytes()).unwrap();
            chan.send(&[0u8; 100]).unwrap();
        },
    );
    let err = client_res
        .err()
        .expect("blob size mismatch must fail the setup");
    assert!(
        matches!(err, PretzelError::Protocol(_)),
        "blob size mismatch must be a protocol error, got {err:?}"
    );
}

#[test]
fn spam_client_errors_when_the_provider_disappears_mid_setup() {
    let (client_res, _) = run_two_party(
        |chan| {
            SpamClient::setup(
                chan,
                &PretzelConfig::test(),
                AheVariant::Pretzel,
                &mut test_rng(6),
            )
        },
        |chan| {
            // The provider sends only its commitment and then hangs up.
            chan.send(&sha256(&[1u8; 32])).unwrap();
        },
    );
    let err = client_res
        .err()
        .expect("a vanished provider must fail the setup");
    assert!(
        matches!(err, PretzelError::Transport(_)),
        "a closed channel must surface as a transport error, got {err:?}"
    );
}

#[test]
fn spam_provider_errors_on_a_garbage_per_email_message() {
    let model = tiny_spam_model();
    let config = PretzelConfig::test();
    let config_client = config.clone();

    let (provider_res, client_res) = run_two_party(
        move |chan| {
            let mut rng = test_rng(7);
            let mut provider =
                SpamProvider::setup(chan, &model, &config, AheVariant::Pretzel, &mut rng)?;
            // The "per-email" message the client sends below is garbage.
            provider.process_email(chan, &mut rng)
        },
        move |chan| {
            let mut rng = test_rng(8);
            let _client =
                SpamClient::setup(chan, &config_client, AheVariant::Pretzel, &mut rng).unwrap();
            // Instead of a blinded ciphertext, send junk.
            chan.send(b"not a ciphertext").unwrap();
        },
    );
    let () = client_res;
    assert!(
        provider_res.is_err(),
        "the provider must reject a malformed per-email message"
    );
}

/// Overwrites coefficient `at` of a serialized RLWE key or ciphertext with
/// `u64::MAX`, which no modulus below 2⁶² admits.
fn poison_coefficient(bytes: &mut [u8], at: usize) {
    bytes[at * 8..at * 8 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
}

#[test]
fn spam_client_rejects_non_canonical_coefficients_from_the_provider() {
    // The RLWE arithmetic assumes every coefficient is below q; a provider
    // that ships one that is not — in its public key or in the model blob —
    // used to get an overflow panic (debug) or silently wrong sums (release)
    // out of the client's first dot product.
    for poison_key in [true, false] {
        let config = PretzelConfig::test();
        let params = config.rlwe_params();
        let (client_res, ()) = run_two_party(
            |chan| SpamClient::setup(chan, &config, AheVariant::Pretzel, &mut test_rng(80)),
            move |chan| {
                let mut rng = test_rng(81);
                run_joint_randomness_as_initiator(chan);
                chan.send(&9u64.to_le_bytes()).unwrap();
                chan.send(&2u64.to_le_bytes()).unwrap();
                let (_sk, pk) = pretzel::rlwe::keygen(&params, None, &mut rng);
                let mut pk_bytes = pk.to_bytes();
                // Nine rows of two columns share one ciphertext.
                let mut blob = pk.encrypt_slots(&[1; 18], &mut rng).unwrap().to_bytes();
                if poison_key {
                    poison_coefficient(&mut pk_bytes, params.n + 3);
                } else {
                    poison_coefficient(&mut blob, 5);
                }
                chan.send(&pk_bytes).unwrap();
                chan.send(&1u64.to_le_bytes()).unwrap();
                chan.send(&blob).unwrap();
            },
        );
        let err = client_res
            .err()
            .expect("a non-canonical coefficient must fail the setup");
        assert!(
            matches!(err, PretzelError::Ahe(_)),
            "poison_key={poison_key}: expected an AHE parse error, got {err:?}"
        );
    }
}

#[test]
fn spam_provider_rejects_a_blinded_ciphertext_with_a_non_canonical_coefficient() {
    let model = tiny_spam_model();
    let config = PretzelConfig::test();
    let config_client = config.clone();

    let (provider_res, ()) = run_two_party(
        move |chan| {
            let mut rng = test_rng(82);
            let mut provider =
                SpamProvider::setup(chan, &model, &config, AheVariant::Pretzel, &mut rng)?;
            provider.process_email(chan, &mut rng)
        },
        move |chan| {
            let mut rng = test_rng(83);
            let _client =
                SpamClient::setup(chan, &config_client, AheVariant::Pretzel, &mut rng).unwrap();
            // Right length, one coefficient of c1 far above q.
            let params = config_client.rlwe_params();
            let mut blinded = vec![0u8; params.ciphertext_bytes()];
            poison_coefficient(&mut blinded, params.n + 1);
            chan.send(&blinded).unwrap();
        },
    );
    let err = provider_res.expect_err("the round must fail, not decrypt garbage or panic");
    assert!(
        matches!(err, PretzelError::Ahe(_)),
        "expected an AHE parse error for the session, got {err:?}"
    );
}

/// A channel decorator that overwrites every one-byte message it sends with
/// `byte`. In a spam round the only one-byte provider message is the
/// comparison circuit's decode bit.
struct DecodeByteChannel<'a> {
    inner: &'a mut MemoryChannel,
    byte: u8,
}

impl Channel for DecodeByteChannel<'_> {
    fn send(&mut self, msg: &[u8]) -> pretzel::transport::Result<()> {
        match msg {
            [_] => self.inner.send(&[self.byte]),
            _ => self.inner.send(msg),
        }
    }
    fn recv(&mut self) -> pretzel::transport::Result<Vec<u8>> {
        self.inner.recv()
    }
}

#[test]
fn spam_client_rejects_a_decode_bit_that_is_not_a_bit() {
    // A provider that follows the protocol to the letter except for the
    // decode frame, where it sends a byte outside {0, 1}. Reading that as
    // "not 1, so 0" would hand the client a verdict the provider chose.
    for byte in [2u8, 0x80, 0xFF] {
        let model = tiny_spam_model();
        let config = PretzelConfig::test();
        let config_client = config.clone();
        let (provider_res, client_res) = run_two_party(
            move |chan| {
                let mut rng = test_rng(70);
                let mut hostile = DecodeByteChannel { inner: chan, byte };
                let mut provider = SpamProvider::setup(
                    &mut hostile,
                    &model,
                    &config,
                    AheVariant::Pretzel,
                    &mut rng,
                )?;
                provider.process_email(&mut hostile, &mut rng)
            },
            move |chan| {
                let mut rng = test_rng(71);
                let mut client =
                    SpamClient::setup(chan, &config_client, AheVariant::Pretzel, &mut rng)?;
                client.classify(chan, &SparseVector::from_pairs(vec![(0, 2)]), &mut rng)
            },
        );
        provider_res.unwrap();
        assert!(
            matches!(client_res, Err(PretzelError::Gc(GcError::Protocol(_)))),
            "decode byte {byte:#04x}: expected a clean error and no verdict, got {client_res:?}"
        );
    }
}

/// A model header a hostile provider announces: the layout (`rows`, `cols`),
/// the ciphertext count, and how many ciphertexts the blob really carries.
#[derive(Clone, Copy, Debug)]
struct HostileHeader {
    rows: u64,
    cols: u64,
    count: u64,
    sent: usize,
}

/// The malformed headers of the hardening issue, for a module whose honest
/// models have `cols` columns. Each used to panic the client — at setup, or
/// at the first round that indexed past the ciphertexts actually received.
fn hostile_headers(cols: u64) -> Vec<HostileHeader> {
    let header = |rows, cols, count, sent| HostileHeader {
        rows,
        cols,
        count,
        sent,
    };
    vec![
        // No rows: `bias_row = rows - 1` underflowed.
        header(0, cols, 0, 0),
        // No columns: the RLWE layout divided by zero.
        header(4, 0, 0, 0),
        // A count whose product with the ciphertext length overflows.
        header(4, cols, u64::MAX, 0),
        // A layout of thousands of ciphertexts backed by a single one: the
        // dot product later indexed out of bounds.
        header(10_000, cols, 1, 1),
        // A layout whose own size overflows.
        header(1 << 62, 4, 0, 0),
    ]
}

/// Plays a provider that runs the whole setup honestly — joint randomness,
/// a well-formed public key, the Yao setup of its role — except for the
/// model header it announces. Errors are ignored: the client is expected to
/// hang up as soon as it has seen the header.
fn hostile_provider(
    chan: &mut MemoryChannel,
    config: &PretzelConfig,
    variant: AheVariant,
    header: HostileHeader,
    provider_garbles: bool,
) {
    let mut rng = test_rng(40);
    let Ok(seed) = joint_randomness_initiator(chan, &mut rng) else {
        return;
    };
    let (pk, ct_len) = match variant {
        AheVariant::Baseline => (
            // Any odd modulus of the configured size parses as a key.
            vec![0xFF; config.paillier_bits / 8],
            pretzel::paillier::Ciphertext::serialized_len(config.paillier_bits),
        ),
        _ => {
            let params = config.rlwe_params();
            (
                vec![0; 2 * params.ciphertext_bytes() / 2],
                params.ciphertext_bytes(),
            )
        }
    };
    let _ = chan.send(&header.rows.to_le_bytes());
    let _ = chan.send(&header.cols.to_le_bytes());
    let _ = chan.send(&pk);
    let _ = chan.send(&header.count.to_le_bytes());
    let _ = chan.send(&vec![0; header.sent * ct_len]);
    let group = config.ot_group(&seed);
    if provider_garbles {
        let _ = YaoGarbler::setup(chan, &group, &mut rng);
    } else {
        let _ = YaoEvaluator::setup(chan, &group, &mut rng);
    }
}

/// An email whose one feature lives far beyond any ciphertext a hostile
/// blob carried.
fn far_row_email() -> SparseVector {
    SparseVector::from_pairs(vec![(9_000, 1)])
}

#[test]
fn spam_client_rejects_hostile_model_headers_without_panicking() {
    for variant in [AheVariant::Pretzel, AheVariant::Baseline] {
        for header in hostile_headers(2) {
            let config = PretzelConfig::test();
            let provider_config = config.clone();
            // The client runs as party B: its channel end closes the moment
            // it returns, which is what releases the provider.
            let ((), client_res) = run_two_party(
                move |chan| hostile_provider(chan, &provider_config, variant, header, true),
                move |chan| {
                    let mut rng = test_rng(41);
                    let mut client = SpamClient::setup(chan, &config, variant, &mut rng)?;
                    client.classify(chan, &far_row_email(), &mut rng)
                },
            );
            assert!(
                matches!(client_res, Err(PretzelError::Protocol(_))),
                "{variant:?} {header:?}: expected a protocol error, got {client_res:?}"
            );
        }
    }
}

#[test]
fn topic_client_rejects_hostile_model_headers_without_panicking() {
    for variant in [AheVariant::Pretzel, AheVariant::Baseline] {
        for header in hostile_headers(4) {
            let config = PretzelConfig::test();
            let provider_config = config.clone();
            let ((), client_res) = run_two_party(
                move |chan| hostile_provider(chan, &provider_config, variant, header, false),
                move |chan| {
                    let mut rng = test_rng(42);
                    let mut client = TopicClient::setup(
                        chan,
                        &config,
                        variant,
                        CandidateMode::Full,
                        None,
                        &mut rng,
                    )?;
                    client.extract(chan, &far_row_email(), &mut rng)
                },
            );
            assert!(
                matches!(client_res, Err(PretzelError::Protocol(_))),
                "{variant:?} {header:?}: expected a protocol error, got {client_res:?}"
            );
        }
    }
}

#[test]
fn topic_client_requires_a_candidate_model_for_decomposed_mode() {
    let (mut _provider_chan, mut client_chan) = memory_pair();
    let res = TopicClient::setup(
        &mut client_chan,
        &PretzelConfig::test(),
        AheVariant::Pretzel,
        CandidateMode::Decomposed(5),
        None,
        &mut test_rng(9),
    );
    assert!(matches!(res, Err(PretzelError::Protocol(_))));
}

#[test]
fn replay_guard_rejects_duplicates_per_sender() {
    let mut guard = ReplayGuard::default();
    assert!(guard.check_and_record("alice@example.com", 0));
    assert!(guard.check_and_record("alice@example.com", 1));
    assert!(
        !guard.check_and_record("alice@example.com", 0),
        "replaying alice's email 0 must be rejected"
    );
    // A different sender has an independent channel (the §4.4 defense treats
    // each sender as its own lossy, duplicating channel).
    assert!(guard.check_and_record("mallory@example.com", 0));
    assert!(!guard.check_and_record("mallory@example.com", 0));
    // Alice can still send new ids.
    assert!(guard.check_and_record("alice@example.com", 2));
}

/// A provider-side channel that hands every search query reply — the only
/// provider frame of [`REPLY_LEN`] bytes — to `forge` before it leaves: a
/// provider (or an active network adversary) rewriting its answers.
struct ForgeReplies<C, F> {
    inner: C,
    forge: F,
}

impl<C: Channel, F: FnMut(&mut Vec<u8>) + Send> Channel for ForgeReplies<C, F> {
    fn send(&mut self, msg: &[u8]) -> pretzel::transport::Result<()> {
        let mut msg = msg.to_vec();
        if msg.len() == REPLY_LEN {
            (self.forge)(&mut msg);
        }
        self.inner.send(&msg)
    }
    fn recv(&mut self) -> pretzel::transport::Result<Vec<u8>> {
        self.inner.recv()
    }
    fn flush(&mut self) -> pretzel::transport::Result<()> {
        self.inner.flush()
    }
}

/// Byte range of the `i`-th posting slot in a query reply.
fn slot(i: usize) -> std::ops::Range<usize> {
    8 + 16 * i..8 + 16 * (i + 1)
}

/// Indexes two emails that both mention "merger" (the first also "draft"),
/// then runs `queries`, each reply passing through `forge` on its way from
/// the provider. Returns the client's outcome.
fn search_through(
    queries: &'static [&'static str],
    forge: impl FnMut(&mut Vec<u8>) + Send,
) -> pretzel::core::Result<Vec<SearchResults>> {
    let (_, client_res) = run_two_party(
        move |chan| -> pretzel::core::Result<()> {
            let mut chan = ForgeReplies { inner: chan, forge };
            let mut provider = SearchProvider::new();
            let mut rng = test_rng(60);
            for _ in 0..2 + queries.len() {
                provider.process_batch(&mut chan, 1, &mut rng)?;
            }
            Ok(())
        },
        move |chan| {
            let mut rng = test_rng(61);
            let mut client = SearchClient::new(&mut rng);
            client.index_email(chan, 1, "confidential merger draft", &mut rng)?;
            client.index_email(chan, 2, "merger timeline", &mut rng)?;
            queries
                .iter()
                .map(|keyword| client.query(chan, keyword, &mut rng))
                .collect()
        },
    );
    client_res
}

fn assert_protocol_error(res: pretzel::core::Result<Vec<SearchResults>>, case: &str) {
    assert!(
        matches!(res, Err(PretzelError::Protocol(_))),
        "{case}: must surface as a protocol error, got {res:?}"
    );
}

#[test]
fn search_client_rejects_a_tampered_response_instead_of_misdecoding() {
    let honest = search_through(&["merger"], |_| {}).unwrap();
    assert_eq!(honest[0].ids, vec![1, 2]);
    // A flipped bit in a posting's tag, or in its sealed id, fails the tag.
    assert_protocol_error(
        search_through(&["merger"], |reply| reply[slot(0).start + 8] ^= 1),
        "flipped tag bit",
    );
    assert_protocol_error(
        search_through(&["merger"], |reply| reply[slot(1).start] ^= 1),
        "flipped sealed-id bit",
    );
}

#[test]
fn search_client_rejects_reordered_postings() {
    // Both postings are genuine, but each tag is bound to its position.
    assert_protocol_error(
        search_through(&["merger"], |reply| {
            let first: Vec<u8> = reply[slot(0)].to_vec();
            reply.copy_within(slot(1), slot(0).start);
            reply[slot(1)].copy_from_slice(&first);
        }),
        "swapped postings",
    );
}

#[test]
fn search_client_rejects_another_keywords_posting() {
    // The provider keeps the genuine "draft" posting it served first and
    // hands it back, at the same position, as an answer for "merger".
    let mut draft_reply: Option<Vec<u8>> = None;
    assert_protocol_error(
        search_through(&["draft", "merger"], move |reply| match &draft_reply {
            None => draft_reply = Some(reply.clone()),
            Some(draft) => reply[slot(0)].copy_from_slice(&draft[slot(0)]),
        }),
        "substituted posting",
    );
}

#[test]
fn search_client_rejects_a_truncated_response() {
    assert_protocol_error(
        search_through(&["merger"], |reply| reply.truncate(REPLY_LEN - 1)),
        "short reply",
    );
    assert_protocol_error(
        search_through(&["merger"], |reply| reply.push(0)),
        "long reply",
    );
}

#[test]
fn sse_provider_rejects_malformed_uploads_without_panicking() {
    use pretzel::sse::{SseError, SseProviderEndpoint};

    let (provider_res, _) = run_two_party(
        |chan| SseProviderEndpoint::new().serve(chan),
        |chan| {
            // Claim 1000 postings but send 3 bytes of payload.
            let mut msg = vec![0u8];
            msg.extend_from_slice(&1000u64.to_le_bytes());
            msg.extend_from_slice(&[1, 2, 3]);
            chan.send(&msg).unwrap();
        },
    );
    assert!(matches!(provider_res, Err(SseError::Protocol(_))));
}
