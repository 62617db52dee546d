//! Spam filtering over a small synthetic inbox: trains GR-NB at the provider,
//! runs the private protocol for every email, and compares the private
//! verdicts against a non-private (NoPriv) provider and the ground truth.
//!
//! Run with: `cargo run --release --example spam_filtering`

use pretzel_classifiers::nb::GrNbTrainer;
use pretzel_classifiers::Trainer;
use pretzel_core::spam::{AheVariant, SpamClient, SpamProvider};
use pretzel_core::{NoPrivProvider, PretzelConfig, ReplayGuard};
use pretzel_datasets::ling_spam_like;
use pretzel_transport::{memory_pair, MeteredChannel};

fn main() {
    let mut rng = rand::thread_rng();
    let config = PretzelConfig::test();

    let corpus = ling_spam_like(0.05).generate();
    let (train, test) = corpus.train_test_split(0.8, 7);
    let inbox: Vec<_> = test.into_iter().take(12).collect();
    println!(
        "Training on {} emails over {} features; inbox of {} emails to classify privately.\n",
        train.len(),
        corpus.num_features,
        inbox.len()
    );
    let model = GrNbTrainer::default().train(&train, corpus.num_features, 2);
    let noprivate = NoPrivProvider::new(model.clone());

    let (mut provider_chan, client_chan) = memory_pair();
    let mut metered = MeteredChannel::new(client_chan);
    let meter = metered.meter();

    let model_for_provider = model.clone();
    let provider_cfg = config.clone();
    let emails = inbox.len();
    let provider_thread = std::thread::spawn(move || {
        let mut rng = rand::thread_rng();
        let mut provider = SpamProvider::setup(
            &mut provider_chan,
            &model_for_provider,
            &provider_cfg,
            AheVariant::Pretzel,
            &mut rng,
        )
        .expect("provider setup");
        for _ in 0..emails {
            provider
                .process_email(&mut provider_chan, &mut rng)
                .expect("provider per-email step");
        }
    });

    let mut client = SpamClient::setup(&mut metered, &config, AheVariant::Pretzel, &mut rng)
        .expect("client setup");
    println!(
        "Setup done: encrypted model occupies {} bytes at the client.",
        client.model_storage_bytes()
    );
    meter.reset();

    // The client refuses to feed the same email into the protocol twice
    // (replay defense, §4.4).
    let mut replay = ReplayGuard::default();

    let mut agree_truth = 0usize;
    let mut agree_noprivate = 0usize;
    for (i, example) in inbox.iter().enumerate() {
        assert!(replay.check_and_record("provider-mailbox", i as u64));
        let is_spam = client
            .classify(&mut metered, &example.features, &mut rng)
            .expect("classification");
        let noprivate_verdict = noprivate.is_spam(&example.features);
        let truth = example.label == 1;
        if is_spam == truth {
            agree_truth += 1;
        }
        if is_spam == noprivate_verdict {
            agree_noprivate += 1;
        }
        println!(
            "email {i:>2}: private={}  noprivate={}  truth={}",
            verdict(is_spam),
            verdict(noprivate_verdict),
            verdict(truth)
        );
    }
    provider_thread.join().unwrap();

    println!(
        "\nPrivate protocol agreed with the non-private provider on {agree_noprivate}/{} emails",
        inbox.len()
    );
    println!(
        "Ground-truth accuracy of the private verdicts: {agree_truth}/{}",
        inbox.len()
    );
    println!(
        "Average per-email network overhead: {:.1} KB (Figure 6/§6.1 reports 19.6 KB at paper scale)",
        meter.total_bytes() as f64 / inbox.len() as f64 / 1024.0
    );
    assert!(
        !replay.check_and_record("provider-mailbox", 0),
        "replays are rejected"
    );
    println!("Replaying email 0 is rejected by the client's replay guard.");
}

fn verdict(spam: bool) -> &'static str {
    if spam {
        "SPAM"
    } else {
        "ham "
    }
}
