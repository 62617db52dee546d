//! Quickstart: the full Pretzel pipeline on one email, end to end.
//!
//! 1. Alice encrypts and signs an email for Bob with the e2e module.
//! 2. Bob's client authenticates and decrypts it.
//! 3. Bob's client and his provider run the private spam-filtering protocol:
//!    only Bob learns whether the email is spam; the provider learns nothing.
//! 4. Bob's client indexes the email for local keyword search.
//!
//! Run with: `cargo run --release --example quickstart`

use pretzel_classifiers::nb::GrNbTrainer;
use pretzel_classifiers::{Tokenizer, Trainer, Vocabulary};
use pretzel_core::bank::empty_source;
use pretzel_core::spam::{AheVariant, SpamClient, SpamProvider};
use pretzel_core::PretzelConfig;
use pretzel_datasets::ling_spam_like;
use pretzel_e2e::{DhGroup, Email, Identity};
use pretzel_search::SearchIndex;
use pretzel_transport::memory_pair;

fn main() {
    let mut rng = rand::thread_rng();
    let config = PretzelConfig::test();

    // --- Provider trains a spam model on its (synthetic) corpus. -----------
    println!("[provider] training a GR-NB spam model…");
    let corpus = ling_spam_like(0.05).generate();
    let (train, _) = corpus.train_test_split(0.8, 1);
    let model = GrNbTrainer::default().train(&train, corpus.num_features, 2);

    // The feature mapping (vocabulary) is public; only parameters are hidden.
    // Here the synthetic corpus indexes features directly, so the client maps
    // email words through the same deterministic word <-> index convention.
    let tokenizer = Tokenizer::new();
    let mut vocab = Vocabulary::new();
    for idx in 0..corpus.num_features {
        vocab.add(&pretzel_datasets::feature_word(idx));
    }

    // --- e2e: Alice sends Bob an encrypted, signed email. ------------------
    println!("[alice]    encrypting and signing an email for bob…");
    let dh = DhGroup::insecure_test_group(96, &mut rng);
    let alice = Identity::generate("alice@example.com", &dh, &mut rng);
    let bob = Identity::generate("bob@example.com", &dh, &mut rng);
    let body = corpus.render_text(&corpus.examples[0]);
    let email = Email {
        from: alice.address.clone(),
        to: bob.address.clone(),
        subject: "about that offer".into(),
        body,
    };
    let encrypted = alice.encrypt_email(&bob.public(), &email, &mut rng);
    println!(
        "[provider] stores {} bytes of ciphertext; it cannot read the email",
        encrypted.size_bytes()
    );

    // --- Bob decrypts. ------------------------------------------------------
    let decrypted = bob
        .decrypt_email(&alice.public(), &encrypted)
        .expect("authentic email");
    println!("[bob]      decrypted email from {}", decrypted.from);

    // --- Private spam filtering between Bob's client and the provider. -----
    let (mut provider_chan, mut client_chan) = memory_pair();
    let model_for_provider = model.clone();
    let provider_cfg = config.clone();
    let provider_thread = std::thread::spawn(move || {
        let mut rng = rand::thread_rng();
        let mut provider = SpamProvider::setup(
            &mut provider_chan,
            &model_for_provider,
            &provider_cfg,
            AheVariant::Pretzel,
            // No precompute bank here: every offline artifact is made inline.
            &empty_source(),
            &mut rng,
        )
        .expect("provider setup");
        provider
            .process_email(&mut provider_chan, &mut rng)
            .expect("provider per-email step");
    });

    let mut client = SpamClient::setup(&mut client_chan, &config, AheVariant::Pretzel, &mut rng)
        .expect("client setup");
    println!(
        "[bob]      stored the encrypted spam model: {} bytes",
        client.model_storage_bytes()
    );
    let features = vocab.vectorize(&tokenizer, &decrypted.classification_text());
    let is_spam = client
        .classify(&mut client_chan, &features, &mut rng)
        .expect("classification");
    provider_thread.join().unwrap();
    println!(
        "[bob]      private spam verdict: {}",
        if is_spam { "SPAM" } else { "not spam" }
    );

    // --- Local keyword search. ----------------------------------------------
    let mut index = SearchIndex::new();
    index.add_document(&decrypted.classification_text());
    let first_word = decrypted.body.split(' ').next().unwrap_or("");
    println!(
        "[bob]      local search for {:?} -> {} hit(s); index is {} bytes",
        first_word,
        index.query(first_word).len(),
        index.stats().size_bytes
    );
    println!("\nDone: the provider filtered spam without ever seeing the plaintext email.");
}
