//! Topic extraction with decomposed classification (§4.3): the provider
//! learns one topic per email for ad targeting, while the email itself and
//! the client's candidate set stay hidden.
//!
//! The protocol's guarantee is exact: the topic the provider learns is the
//! argmax of the *quantized* model over the candidates the client submitted,
//! the first candidate winning ties. The example checks that for every email
//! and exits non-zero on any difference. Agreement with the full-model,
//! non-private classifier is printed too, but only as information: a weak
//! public candidate model can leave the true topic off the shortlist.
//!
//! Run with: `cargo run --release --example topic_extraction`

use pretzel_classifiers::nb::MultinomialNbTrainer;
use pretzel_classifiers::{QuantizedModel, SparseVector, Trainer};
use pretzel_core::spam::AheVariant;
use pretzel_core::topic::{CandidateMode, TopicClient, TopicProvider};
use pretzel_core::{NoPrivProvider, PretzelConfig};
use pretzel_datasets::{newsgroups_like, Corpus};
use pretzel_transport::{memory_pair, MeteredChannel};

fn main() {
    let mut rng = rand::thread_rng();
    let config = PretzelConfig::test();
    let b_prime = 4usize;

    // The provider's proprietary topic model, trained on the full corpus.
    let corpus = newsgroups_like(0.04).generate();
    let (train, test) = corpus.train_test_split(0.8, 3);
    let provider_model =
        MultinomialNbTrainer::default().train(&train, corpus.num_features, corpus.num_classes);
    // The public candidate model is trained on only 10% of the training data
    // (Figure 14's premise): good enough to shortlist candidates, not to pick
    // the winner.
    let public_subset = Corpus::subsample(&train, 0.10, 5);
    let candidate_model = MultinomialNbTrainer::default().train(
        &public_subset,
        corpus.num_features,
        corpus.num_classes,
    );
    let noprivate = NoPrivProvider::new(provider_model.clone());

    // One email from each of eight labels spread over the topic space (the
    // test split is grouped by label, so its first emails share one topic).
    let n_emails = 8;
    let emails: Vec<_> = (0..n_emails)
        .filter_map(|i| {
            let label = i * corpus.num_classes / n_emails;
            test.iter().find(|ex| ex.label == label).cloned()
        })
        .collect();
    println!(
        "{} topics, {} features; provider model trained on {} docs, public candidate model on {} docs.",
        corpus.num_classes,
        corpus.num_features,
        train.len(),
        public_subset.len()
    );
    println!(
        "Extracting topics for {} emails with B' = {b_prime} candidates…\n",
        emails.len()
    );

    let (mut provider_chan, client_chan) = memory_pair();
    let mut metered = MeteredChannel::new(client_chan);
    let meter = metered.meter();
    let provider_cfg = config.clone();
    let model_for_provider = provider_model.clone();
    let n_emails = emails.len();
    let quantized = QuantizedModel::from_model(&provider_model, config.weight_bits);
    // What the provider must learn: the quantized argmax over the submitted
    // candidates, in submission order, the first winning ties.
    let candidate_argmax = |features: &SparseVector, candidates: &[usize]| {
        let scores = quantized.scores(&quantized.protocol_features(features, config.freq_bits));
        candidates
            .iter()
            .copied()
            .reduce(|best, c| if scores[c] > scores[best] { c } else { best })
    };
    let provider_thread = std::thread::spawn(move || {
        let mut rng = rand::thread_rng();
        let mut provider = TopicProvider::setup(
            &mut provider_chan,
            &model_for_provider,
            &provider_cfg,
            AheVariant::Pretzel,
            CandidateMode::Decomposed(b_prime),
            &mut rng,
        )
        .expect("provider setup");
        (0..n_emails)
            .map(|_| {
                provider
                    .process_email(&mut provider_chan, &mut rng)
                    .expect("provider step")
            })
            .collect::<Vec<usize>>()
    });

    let mut client = TopicClient::setup(
        &mut metered,
        &config,
        AheVariant::Pretzel,
        CandidateMode::Decomposed(b_prime),
        Some(candidate_model),
        &mut rng,
    )
    .expect("client setup");
    meter.reset();

    let mut candidate_sets = Vec::new();
    for example in &emails {
        let candidates = client
            .extract(&mut metered, &example.features, &mut rng)
            .expect("topic extraction");
        candidate_sets.push(candidates);
    }
    let provider_topics = provider_thread.join().unwrap();

    let mut match_protocol = 0usize;
    let mut match_noprivate = 0usize;
    for (i, example) in emails.iter().enumerate() {
        let private_topic = provider_topics[i];
        let expected = candidate_argmax(&example.features, &candidate_sets[i]);
        let noprivate_topic = noprivate.classify(&example.features);
        match_protocol += usize::from(expected == Some(private_topic));
        match_noprivate += usize::from(private_topic == noprivate_topic);
        println!(
            "email {i}: provider learned topic {private_topic:>2}  (candidates sent: {:?}, quantized candidate argmax {}, NoPriv would say {noprivate_topic}, true label {})",
            candidate_sets[i],
            expected.map_or("-".into(), |t| t.to_string()),
            example.label
        );
    }
    println!(
        "\nProvider's topic equals the quantized argmax over the submitted candidates on {match_protocol}/{} emails",
        emails.len()
    );
    println!(
        "(informational) it matched the full-model non-private classifier on {match_noprivate}/{} emails",
        emails.len()
    );
    println!(
        "Average per-email network: {:.1} KB (decomposition keeps this flat in B — Figure 11)",
        meter.total_bytes() as f64 / emails.len() as f64 / 1024.0
    );
    println!("The provider never saw the email text or the {b_prime}-candidate shortlist.");
    if match_protocol != emails.len() {
        eprintln!("error: the provider's topic differs from the candidate-restricted argmax");
        std::process::exit(1);
    }
}
