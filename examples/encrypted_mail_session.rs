//! Client and provider as two real endpoints talking over TCP: the provider
//! stores encrypted mail and serves the spam-filtering function module; the
//! client decrypts, classifies privately and searches locally.
//!
//! This exercises the same code paths as the in-memory examples but over the
//! `TcpChannel` framing, i.e. the deployment shape the paper assumes on top
//! of SMTP/IMAP.
//!
//! Run with: `cargo run --release --example encrypted_mail_session`

use std::net::TcpListener;

use pretzel_classifiers::nb::GrNbTrainer;
use pretzel_classifiers::Trainer;
use pretzel_core::spam::{AheVariant, SpamClient, SpamProvider};
use pretzel_core::PretzelConfig;
use pretzel_datasets::{ling_spam_like, Corpus};
use pretzel_e2e::{DhGroup, Email, EncryptedEmail, Identity};
use pretzel_search::SearchIndex;
use pretzel_transport::{Channel, TcpChannel};

fn main() {
    let config = PretzelConfig::test();
    let mut rng = rand::thread_rng();

    // Identities and keyring (key management is out of band, §2.2).
    let dh = DhGroup::insecure_test_group(96, &mut rng);
    let alice = Identity::generate("alice@example.com", &dh, &mut rng);
    let bob = Identity::generate("bob@example.com", &dh, &mut rng);
    let alice_public = alice.public();
    let bob_public = bob.public();

    // Provider-side training data and model.
    let corpus = ling_spam_like(0.04).generate();
    let (train, test) = corpus.train_test_split(0.8, 11);
    let model = GrNbTrainer::default().train(&train, corpus.num_features, 2);

    // Alice composes three emails (rendered from the synthetic corpus).
    let outgoing: Vec<(Email, bool)> = test
        .iter()
        .take(3)
        .map(|ex| {
            (
                Email {
                    from: alice.address.clone(),
                    to: bob.address.clone(),
                    subject: format!("message about item {}", ex.label),
                    body: Corpus::render_text(&corpus, ex),
                },
                ex.label == 1,
            )
        })
        .collect();
    let encrypted_mail: Vec<EncryptedEmail> = outgoing
        .iter()
        .map(|(email, _)| alice.encrypt_email(&bob_public, email, &mut rng))
        .collect();

    // ---- Provider process (thread) listening on TCP. -----------------------
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let provider_cfg = config.clone();
    let provider_mail = encrypted_mail.clone();
    let provider_thread = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut chan = TcpChannel::new(stream);
        // 1. Deliver the stored (encrypted) mailbox to the client.
        chan.send(&(provider_mail.len() as u32).to_be_bytes())
            .unwrap();
        for message in &provider_mail {
            chan.send(&message.to_bytes()).unwrap();
        }
        // 2. Serve the private spam-filtering function module.
        let mut rng = rand::thread_rng();
        let mut provider = SpamProvider::setup(
            &mut chan,
            &model,
            &provider_cfg,
            AheVariant::Pretzel,
            &mut rng,
        )
        .expect("provider setup");
        for _ in 0..provider_mail.len() {
            provider
                .process_email(&mut chan, &mut rng)
                .expect("provider step");
        }
        println!(
            "[provider] served {} emails without seeing any plaintext",
            provider_mail.len()
        );
    });

    // ---- Client process. ----------------------------------------------------
    let mut chan = TcpChannel::connect(addr).expect("connect");
    let count = u32::from_be_bytes(chan.recv().unwrap().try_into().unwrap()) as usize;
    let mut mailbox = Vec::with_capacity(count);
    for _ in 0..count {
        let bytes = chan.recv().unwrap();
        mailbox.push(EncryptedEmail::from_bytes(&bytes).expect("well-formed ciphertext"));
    }
    println!(
        "[client]   fetched {} encrypted emails over TCP",
        mailbox.len()
    );

    let mut client =
        SpamClient::setup(&mut chan, &config, AheVariant::Pretzel, &mut rng).expect("client setup");
    let mut index = SearchIndex::new();
    let mut vocab = pretzel_classifiers::Vocabulary::new();
    for idx in 0..corpus.num_features {
        vocab.add(&pretzel_datasets::feature_word(idx));
    }
    let tokenizer = pretzel_classifiers::Tokenizer::new();

    for (i, message) in mailbox.iter().enumerate() {
        let email = bob
            .decrypt_email(&alice_public, message)
            .expect("authentic email");
        let features = vocab.vectorize(&tokenizer, &email.classification_text());
        let is_spam = client
            .classify(&mut chan, &features, &mut rng)
            .expect("classify");
        index.add_document(&email.classification_text());
        println!(
            "[client]   email {i} from {}: {} (ground truth: {})",
            email.from,
            if is_spam { "SPAM" } else { "not spam" },
            if outgoing[i].1 { "spam" } else { "ham" }
        );
    }
    println!(
        "[client]   local search index: {} documents, {} bytes",
        index.len(),
        index.stats().size_bytes
    );
    provider_thread.join().unwrap();
    println!("\nSession complete: classification matched the provider-side model while the");
    println!("provider only ever handled ciphertext and blinded dot products.");
}
