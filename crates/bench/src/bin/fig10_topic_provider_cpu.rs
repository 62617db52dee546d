//! Figure 10: provider-side CPU time per email for topic extraction, varying
//! the number of categories B and the number of candidate topics B′
//! (B′ = B means decomposed classification is disabled).

use std::time::Duration;

use pretzel_bench::{
    human_us, parse_scale, print_header, print_row, synthetic_model, time, time_avg,
};
use pretzel_classifiers::SparseVector;
use pretzel_core::spam::AheVariant;
use pretzel_core::topic::{CandidateMode, TopicClient, TopicProvider};
use pretzel_core::{NoPrivProvider, PretzelConfig, Scale};
use pretzel_datasets::synthetic_features;
use pretzel_transport::memory_pair;

struct Point {
    name: String,
    per_b: Vec<String>,
}

/// Runs the private topic protocol and times the provider's `process_email`.
fn private_provider_cpu(
    variant: AheVariant,
    mode: CandidateMode,
    config: &PretzelConfig,
    model_features: usize,
    categories: usize,
    email_features: usize,
    emails: usize,
) -> Duration {
    let model = synthetic_model(model_features, categories, 11);
    let candidate_model = synthetic_model(model_features, categories, 12);
    let features: Vec<SparseVector> = (0..emails)
        .map(|i| synthetic_features(model_features, email_features, 15, 100 + i as u64))
        .collect();
    let features_client = features.clone();
    let config_client = config.clone();

    let (mut provider_chan, mut client_chan) = memory_pair();
    let handle = std::thread::spawn(move || {
        let mut rng = rand::thread_rng();
        let mut client = TopicClient::setup(
            &mut client_chan,
            &config_client,
            variant,
            mode,
            Some(candidate_model),
            &mut rng,
        )
        .unwrap();
        for f in &features_client {
            client.extract(&mut client_chan, f, &mut rng).unwrap();
        }
    });

    let mut rng = rand::thread_rng();
    let mut provider =
        TopicProvider::setup(&mut provider_chan, &model, config, variant, mode, &mut rng).unwrap();
    let mut total = Duration::ZERO;
    for _ in 0..emails {
        let (_, d) = time(|| {
            provider
                .process_email(&mut provider_chan, &mut rng)
                .unwrap()
        });
        total += d;
    }
    handle.join().unwrap();
    total / emails as u32
}

fn main() {
    let scale = parse_scale();
    let config = PretzelConfig::for_scale(scale);
    // N = 100K and L = 692 in the paper; provider CPU is independent of both
    // for the private systems, so the small scale shrinks N.
    let (model_features, b_values, emails) = match scale {
        Scale::Test => (2_000usize, vec![16usize, 64, 128], 2usize),
        Scale::Paper => (100_000, vec![128, 512, 2048], 5),
    };
    let email_features = 692.min(model_features);
    let b_prime_small = match scale {
        Scale::Test => 5usize,
        Scale::Paper => 10,
    };
    let b_prime_large = match scale {
        Scale::Test => 8usize,
        Scale::Paper => 20,
    };

    println!("Figure 10: topic extraction, provider CPU per email (N={model_features}, L={email_features}, scale {scale:?})\n");
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

    let mut points = vec![
        Point {
            name: "NoPriv".into(),
            per_b: vec![],
        },
        Point {
            name: "Baseline".into(),
            per_b: vec![],
        },
        Point {
            name: "Pretzel (B'=B)".into(),
            per_b: vec![],
        },
        Point {
            name: format!("Pretzel (B'={b_prime_large})"),
            per_b: vec![],
        },
        Point {
            name: format!("Pretzel (B'={b_prime_small})"),
            per_b: vec![],
        },
    ];

    for &b in &b_values {
        // NoPriv
        let noprivate = NoPrivProvider::new(synthetic_model(model_features, b, 11));
        let email = synthetic_features(model_features, email_features, 15, 4);
        let d = time_avg(20, || {
            std::hint::black_box(noprivate.classify(&email));
        });
        points[0].per_b.push(human_us(d));

        points[1].per_b.push(human_us(private_provider_cpu(
            AheVariant::Baseline,
            CandidateMode::Full,
            &config,
            model_features,
            b,
            email_features,
            emails,
        )));
        points[2].per_b.push(human_us(private_provider_cpu(
            AheVariant::Pretzel,
            CandidateMode::Full,
            &config,
            model_features,
            b,
            email_features,
            emails,
        )));
        points[3].per_b.push(human_us(private_provider_cpu(
            AheVariant::Pretzel,
            CandidateMode::Decomposed(b_prime_large),
            &config,
            model_features,
            b,
            email_features,
            emails,
        )));
        points[4].per_b.push(human_us(private_provider_cpu(
            AheVariant::Pretzel,
            CandidateMode::Decomposed(b_prime_small),
            &config,
            model_features,
            b,
            email_features,
            emails,
        )));
    }
    for p in points {
        let mut row = vec![p.name];
        row.extend(p.per_b);
        print_row(&row, &widths);
    }
    println!("\nPaper shape: Baseline ≫ Pretzel (B'=B) ≫ Pretzel with decomposition; at B=2048,");
    println!("Pretzel B'=20 is ~1.8x NoPriv and B'=10 is ~1.0x NoPriv.");
}
