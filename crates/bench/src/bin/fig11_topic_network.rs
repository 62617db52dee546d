//! Figure 11: network transfers per email for topic extraction, varying B and
//! B′, for Baseline and Pretzel. Measured by wrapping the client's channel in
//! a byte-counting meter and running the real protocol.

use pretzel_bench::{human_bytes, parse_scale, print_header, print_row, synthetic_model};
use pretzel_classifiers::SparseVector;
use pretzel_core::spam::AheVariant;
use pretzel_core::topic::{CandidateMode, TopicClient, TopicProvider};
use pretzel_core::{PretzelConfig, Scale};
use pretzel_datasets::synthetic_features;
use pretzel_transport::{memory_pair, Meter, MeteredChannel};

/// Runs the protocol for `emails` emails and returns the average per-email
/// network traffic in bytes (both directions, excluding the setup phase).
fn per_email_network(
    variant: AheVariant,
    mode: CandidateMode,
    config: &PretzelConfig,
    model_features: usize,
    categories: usize,
    email_features: usize,
    emails: usize,
) -> f64 {
    let model = synthetic_model(model_features, categories, 21);
    let candidate_model = synthetic_model(model_features, categories, 22);
    let features: Vec<SparseVector> = (0..emails)
        .map(|i| synthetic_features(model_features, email_features, 15, 500 + i as u64))
        .collect();
    let config_provider = config.clone();
    let config_client = config.clone();
    let features_client = features.clone();

    let (provider_chan, client_chan) = memory_pair();
    let meter = Meter::new();
    let mut metered_client = MeteredChannel::with_meter(client_chan, meter.clone());

    let handle = std::thread::spawn(move || {
        let mut provider_chan = provider_chan;
        let mut rng = rand::thread_rng();
        let mut provider = TopicProvider::setup(
            &mut provider_chan,
            &model,
            &config_provider,
            variant,
            mode,
            &mut rng,
        )
        .unwrap();
        for _ in 0..emails {
            provider
                .process_email(&mut provider_chan, &mut rng)
                .unwrap();
        }
    });

    let mut rng = rand::thread_rng();
    let mut client = TopicClient::setup(
        &mut metered_client,
        &config_client,
        variant,
        mode,
        Some(candidate_model),
        &mut rng,
    )
    .unwrap();
    meter.reset(); // exclude the setup phase (model shipping)
    for f in &features_client {
        client.extract(&mut metered_client, f, &mut rng).unwrap();
    }
    handle.join().unwrap();
    meter.total_bytes() as f64 / emails as f64
}

fn main() {
    let scale = parse_scale();
    // The closure inside the provider thread takes the config by value.
    let config = PretzelConfig::for_scale(scale);
    let (model_features, b_values, emails) = match scale {
        Scale::Test => (1_000usize, vec![16usize, 64, 128], 2usize),
        Scale::Paper => (100_000, vec![128, 512, 2048], 3),
    };
    let email_features = 692.min(model_features);
    let (bp_small, bp_large) = match scale {
        Scale::Test => (5usize, 8usize),
        Scale::Paper => (10, 20),
    };

    println!("Figure 11: topic extraction, network transfers per email (scale {scale:?})\n");
    let mut widths = vec![24usize];
    widths.extend(std::iter::repeat_n(14, b_values.len()));
    let mut header = vec!["system".to_string()];
    for &b in &b_values {
        header.push(format!("B={b}"));
    }
    print_header(
        &header.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        &widths,
    );

    let configs: Vec<(String, AheVariant, CandidateMode)> = vec![
        ("Baseline".into(), AheVariant::Baseline, CandidateMode::Full),
        (
            "Pretzel (B'=B)".into(),
            AheVariant::Pretzel,
            CandidateMode::Full,
        ),
        (
            format!("Pretzel (B'={bp_large})"),
            AheVariant::Pretzel,
            CandidateMode::Decomposed(bp_large),
        ),
        (
            format!("Pretzel (B'={bp_small})"),
            AheVariant::Pretzel,
            CandidateMode::Decomposed(bp_small),
        ),
    ];
    for (name, variant, mode) in configs {
        let mut row = vec![name];
        for &b in &b_values {
            let bytes = per_email_network(
                variant,
                mode,
                &config,
                model_features,
                b,
                email_features,
                emails,
            );
            row.push(human_bytes(bytes));
        }
        print_row(&row, &widths);
    }
    println!("\nPaper shape: Baseline and Pretzel (B'=B) grow with B (0.5 MB -> 8 MB);");
    println!("decomposed Pretzel is flat in B (402 KB at B'=20, 201 KB at B'=10).");
}
