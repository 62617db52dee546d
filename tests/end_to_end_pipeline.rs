//! Cross-crate integration test: the full Pretzel pipeline of Figure 1.
//!
//! Sender encrypts + signs → provider stores ciphertext → recipient decrypts
//! → recipient's client and the provider run the private spam-filtering and
//! topic-extraction protocols → the private outcomes agree with a non-private
//! classifier run on the same models.

use pretzel::classifiers::nb::{GrNbTrainer, MultinomialNbTrainer};
use pretzel::classifiers::{QuantizedModel, Tokenizer, Trainer, Vocabulary};
use pretzel::core::bank::empty_source;
use pretzel::core::spam::{AheVariant, SpamClient, SpamProvider};
use pretzel::core::topic::{CandidateMode, TopicClient, TopicProvider};
use pretzel::core::{NoPrivProvider, PretzelConfig, ReplayGuard};
use pretzel::datasets::{feature_word, ling_spam_like, newsgroups_like, Corpus};
use pretzel::e2e::{DhGroup, Email, Identity};
use pretzel::search::SearchIndex;
use pretzel::transport::memory_pair;

mod common;
use common::test_rng;
fn build_vocab(num_features: usize) -> Vocabulary {
    let mut vocab = Vocabulary::new();
    for idx in 0..num_features {
        vocab.add(&feature_word(idx));
    }
    vocab
}

#[test]
fn encrypted_mail_is_filtered_without_plaintext_disclosure() {
    let mut rng = test_rng(1);
    let config = PretzelConfig::test();

    // Provider model.
    let corpus = ling_spam_like(0.04).generate();
    let (train, test) = corpus.train_test_split(0.8, 5);
    let model = GrNbTrainer::default().train(&train, corpus.num_features, 2);
    let noprivate = NoPrivProvider::new(model.clone());
    let vocab = build_vocab(corpus.num_features);
    let tokenizer = Tokenizer::new();

    // e2e leg: Alice -> Bob.
    let dh = DhGroup::insecure_test_group(80, &mut rng);
    let alice = Identity::generate("alice@example.com", &dh, &mut rng);
    let bob = Identity::generate("bob@example.com", &dh, &mut rng);
    let emails: Vec<_> = test.iter().take(4).collect();
    let mut ciphertexts = Vec::new();
    for ex in &emails {
        let email = Email {
            from: alice.address.clone(),
            to: bob.address.clone(),
            subject: "integration".into(),
            body: Corpus::render_text(&corpus, ex),
        };
        let enc = alice.encrypt_email(&bob.public(), &email, &mut rng);
        // Ciphertext must not contain the plaintext body.
        assert!(!enc.ciphertext.windows(16).any(|w| email
            .body
            .as_bytes()
            .windows(16)
            .take(1)
            .any(|p| p == w)));
        ciphertexts.push(enc);
    }

    // Spam protocol over an in-memory channel.
    let (mut provider_chan, mut client_chan) = memory_pair();
    let provider_model = model.clone();
    let provider_cfg = config.clone();
    let n = ciphertexts.len();
    let provider = std::thread::spawn(move || {
        let mut rng = test_rng(2);
        let mut p = SpamProvider::setup(
            &mut provider_chan,
            &provider_model,
            &provider_cfg,
            AheVariant::Pretzel,
            &empty_source(),
            &mut rng,
        )
        .unwrap();
        for _ in 0..n {
            p.process_email(&mut provider_chan, &mut rng).unwrap();
        }
    });

    let mut client =
        SpamClient::setup(&mut client_chan, &config, AheVariant::Pretzel, &mut rng).unwrap();
    let mut replay = ReplayGuard::default();
    let mut index = SearchIndex::new();
    // The protocol's contract (§4.2) is exact agreement with a plaintext
    // evaluation of the *quantized* model it runs on; the float model may
    // disagree on quantization-boundary emails, so it only gets a majority
    // check (same policy as tests/protocol_equivalence.rs).
    let quantized = QuantizedModel::from_model(&model, config.weight_bits);
    let mut float_agreements = 0usize;
    for (i, enc) in ciphertexts.iter().enumerate() {
        assert!(replay.check_and_record(&enc.sender, i as u64));
        let email = bob.decrypt_email(&alice.public(), enc).unwrap();
        let features = vocab.vectorize(&tokenizer, &email.classification_text());
        let private_verdict = client
            .classify(&mut client_chan, &features, &mut rng)
            .unwrap();
        let protocol_features = quantized.protocol_features(&features, config.freq_bits);
        let quantized_verdict = quantized.predict(&protocol_features) == 1;
        assert_eq!(
            private_verdict, quantized_verdict,
            "private verdict must match plaintext evaluation of the quantized model (email {i})"
        );
        if private_verdict == noprivate.is_spam(&features) {
            float_agreements += 1;
        }
        index.add_document(&email.classification_text());
    }
    provider.join().unwrap();
    assert!(
        float_agreements * 2 >= ciphertexts.len(),
        "private verdicts should mostly agree with the float model ({float_agreements}/{})",
        ciphertexts.len()
    );

    // Replay of a processed email is rejected.
    assert!(!replay.check_and_record("alice@example.com", 0));
    // Search works over the decrypted mailbox.
    assert_eq!(index.len(), ciphertexts.len());
}

#[test]
fn topic_extraction_pipeline_reports_a_candidate_topic_to_the_provider() {
    let mut rng = test_rng(3);
    let config = PretzelConfig::test();
    let corpus = newsgroups_like(0.03).generate();
    let (train, test) = corpus.train_test_split(0.8, 9);
    let provider_model =
        MultinomialNbTrainer::default().train(&train, corpus.num_features, corpus.num_classes);
    let candidate_model = MultinomialNbTrainer::default().train(
        &Corpus::subsample(&train, 0.15, 3),
        corpus.num_features,
        corpus.num_classes,
    );
    let noprivate = NoPrivProvider::new(provider_model.clone());
    let b_prime = 4usize;
    let emails: Vec<_> = test.iter().take(3).cloned().collect();

    let (mut provider_chan, mut client_chan) = memory_pair();
    let provider_cfg = config.clone();
    let model_for_provider = provider_model.clone();
    let n = emails.len();
    let provider = std::thread::spawn(move || {
        let mut rng = test_rng(4);
        let mut p = TopicProvider::setup(
            &mut provider_chan,
            &model_for_provider,
            &provider_cfg,
            AheVariant::Pretzel,
            CandidateMode::Decomposed(b_prime),
            &mut rng,
        )
        .unwrap();
        (0..n)
            .map(|_| p.process_email(&mut provider_chan, &mut rng).unwrap())
            .collect::<Vec<_>>()
    });

    let mut client = TopicClient::setup(
        &mut client_chan,
        &config,
        AheVariant::Pretzel,
        CandidateMode::Decomposed(b_prime),
        Some(candidate_model),
        &mut rng,
    )
    .unwrap();
    let mut candidate_sets = Vec::new();
    for ex in &emails {
        candidate_sets.push(
            client
                .extract(&mut client_chan, &ex.features, &mut rng)
                .unwrap(),
        );
    }
    let topics = provider.join().unwrap();

    for (i, topic) in topics.iter().enumerate() {
        // Guarantee 3: the provider learns one index, and it is one of the
        // candidates the client submitted.
        assert!(candidate_sets[i].contains(topic), "email {i}");
        assert!(*topic < corpus.num_classes);
        // If the non-private choice is among the candidates, the private
        // protocol must pick exactly it (the provider's model decides).
        let np = noprivate.classify(&emails[i].features);
        if candidate_sets[i].contains(&np) {
            assert_eq!(*topic, np, "email {i}");
        }
    }
}
