//! §6.1–§6.3 headline numbers: Pretzel-vs-NoPriv and Pretzel-vs-Baseline
//! ratios for provider CPU and network, plus client CPU per email and
//! client storage, measured at a single operating point by running the full
//! protocols (spam and topic extraction) over metered in-memory channels.

use std::time::Duration;

use pretzel_bench::{
    human_bytes, human_us, parse_scale, print_header, print_row, synthetic_model, time,
};
use pretzel_classifiers::SparseVector;
use pretzel_core::bank::empty_source;
use pretzel_core::spam::{AheVariant, SpamClient, SpamProvider};
use pretzel_core::topic::{CandidateMode, TopicClient, TopicProvider};
use pretzel_core::{NoPrivProvider, PretzelConfig, Scale};
use pretzel_datasets::synthetic_features;
use pretzel_transport::{memory_pair, Meter, MeteredChannel};

struct Measured {
    provider_cpu: Duration,
    client_cpu: Duration,
    network_bytes: f64,
    client_storage: usize,
}

fn measure_spam(
    variant: AheVariant,
    config: &PretzelConfig,
    n: usize,
    l: usize,
    emails: usize,
) -> Measured {
    let model = synthetic_model(n, 2, 1);
    let features: Vec<SparseVector> = (0..emails)
        .map(|i| synthetic_features(n, l, 15, i as u64))
        .collect();
    let config_client = config.clone();
    let features_client = features.clone();

    let (mut provider_chan, client_chan) = memory_pair();
    let meter = Meter::new();
    let mut metered = MeteredChannel::with_meter(client_chan, meter.clone());

    let handle = std::thread::spawn(move || {
        let mut rng = rand::thread_rng();
        let mut client =
            SpamClient::setup(&mut metered, &config_client, variant, &mut rng).unwrap();
        let storage = client.model_storage_bytes();
        meter.reset();
        let mut client_cpu = Duration::ZERO;
        for f in &features_client {
            let (_, d) = time(|| client.classify(&mut metered, f, &mut rng).unwrap());
            client_cpu += d;
        }
        (
            client_cpu / features_client.len() as u32,
            meter.total_bytes() as f64 / features_client.len() as f64,
            storage,
        )
    });

    let mut rng = rand::thread_rng();
    let mut provider = SpamProvider::setup(
        &mut provider_chan,
        &model,
        config,
        variant,
        &empty_source(),
        &mut rng,
    )
    .unwrap();
    let mut provider_cpu = Duration::ZERO;
    for _ in 0..emails {
        let (_, d) = time(|| {
            provider
                .process_email(&mut provider_chan, &mut rng)
                .unwrap()
        });
        provider_cpu += d;
    }
    let (client_cpu, network_bytes, client_storage) = handle.join().unwrap();
    Measured {
        provider_cpu: provider_cpu / emails as u32,
        client_cpu,
        network_bytes,
        client_storage,
    }
}

fn measure_topic(
    variant: AheVariant,
    mode: CandidateMode,
    config: &PretzelConfig,
    n: usize,
    b: usize,
    l: usize,
    emails: usize,
) -> Measured {
    let model = synthetic_model(n, b, 2);
    let candidate_model = synthetic_model(n, b, 3);
    let features: Vec<SparseVector> = (0..emails)
        .map(|i| synthetic_features(n, l, 15, 50 + i as u64))
        .collect();
    let config_client = config.clone();
    let features_client = features.clone();

    let (mut provider_chan, client_chan) = memory_pair();
    let meter = Meter::new();
    let mut metered = MeteredChannel::with_meter(client_chan, meter.clone());

    let handle = std::thread::spawn(move || {
        let mut rng = rand::thread_rng();
        let mut client = TopicClient::setup(
            &mut metered,
            &config_client,
            variant,
            mode,
            Some(candidate_model),
            &mut rng,
        )
        .unwrap();
        let storage = client.model_storage_bytes();
        meter.reset();
        let mut client_cpu = Duration::ZERO;
        for f in &features_client {
            let (_, d) = time(|| client.extract(&mut metered, f, &mut rng).unwrap());
            client_cpu += d;
        }
        (
            client_cpu / features_client.len() as u32,
            meter.total_bytes() as f64 / features_client.len() as f64,
            storage,
        )
    });

    let mut rng = rand::thread_rng();
    let mut provider =
        TopicProvider::setup(&mut provider_chan, &model, config, variant, mode, &mut rng).unwrap();
    let mut provider_cpu = Duration::ZERO;
    for _ in 0..emails {
        let (_, d) = time(|| {
            provider
                .process_email(&mut provider_chan, &mut rng)
                .unwrap()
        });
        provider_cpu += d;
    }
    let (client_cpu, network_bytes, client_storage) = handle.join().unwrap();
    Measured {
        provider_cpu: provider_cpu / emails as u32,
        client_cpu,
        network_bytes,
        client_storage,
    }
}

fn noprivate_cpu(n: usize, b: usize, l: usize) -> Duration {
    let provider = NoPrivProvider::new(synthetic_model(n, b, 1));
    let email = synthetic_features(n, l, 15, 9);
    let iters = 30;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(provider.classify(&email));
    }
    start.elapsed() / iters
}

fn report(name: &str, m: &Measured, noprivate: Duration, email_bytes: f64) {
    let widths = [26, 16, 16, 16, 16];
    print_row(
        &[
            name.to_string(),
            human_us(m.provider_cpu),
            human_us(m.client_cpu),
            human_bytes(m.network_bytes),
            human_bytes(m.client_storage as f64),
        ],
        &widths,
    );
    println!(
        "    -> provider CPU = {:.2}x NoPriv; network overhead = {:.2}x the email size",
        m.provider_cpu.as_secs_f64() / noprivate.as_secs_f64().max(1e-9),
        m.network_bytes / email_bytes
    );
}

fn main() {
    let scale = parse_scale();
    let config = PretzelConfig::for_scale(scale);
    let (n_spam, n_topic, b, l, emails) = match scale {
        Scale::Test => (5_000usize, 1_000usize, 64usize, 300usize, 2usize),
        Scale::Paper => (200_000, 20_000, 2048, 692, 3),
    };
    let b_prime = config.candidate_topics;
    let email_bytes = 75.0 * 1024.0;

    println!("Headline ratios (§6.1–§6.3), scale {scale:?}: N_spam={n_spam}, N_topic={n_topic}, B={b}, B'={b_prime}, L={l}\n");
    let widths = [26, 16, 16, 16, 16];
    print_header(
        &[
            "configuration",
            "provider CPU",
            "client CPU",
            "net/email",
            "client storage",
        ],
        &widths,
    );

    let np_spam = noprivate_cpu(n_spam, 2, l);
    print_row(
        &[
            "NoPriv spam".into(),
            human_us(np_spam),
            "-".into(),
            human_bytes(email_bytes),
            "-".into(),
        ],
        &widths,
    );
    let spam_base = measure_spam(AheVariant::Baseline, &config, n_spam, l, emails);
    report("Baseline spam", &spam_base, np_spam, email_bytes);
    let spam_pz = measure_spam(AheVariant::Pretzel, &config, n_spam, l, emails);
    report("Pretzel spam", &spam_pz, np_spam, email_bytes);

    println!();
    let np_topic = noprivate_cpu(n_topic, b, l);
    print_row(
        &[
            "NoPriv topics".into(),
            human_us(np_topic),
            "-".into(),
            human_bytes(email_bytes),
            "-".into(),
        ],
        &widths,
    );
    let topic_full = measure_topic(
        AheVariant::Pretzel,
        CandidateMode::Full,
        &config,
        n_topic,
        b,
        l,
        emails,
    );
    report("Pretzel topics (B'=B)", &topic_full, np_topic, email_bytes);
    let topic_dec = measure_topic(
        AheVariant::Pretzel,
        CandidateMode::Decomposed(b_prime),
        &config,
        n_topic,
        b,
        l,
        emails,
    );
    report(
        &format!("Pretzel topics (B'={b_prime})"),
        &topic_dec,
        np_topic,
        email_bytes,
    );

    println!("\nPaper headline: spam provider CPU 0.65x NoPriv (at L=692); topics 1.03–1.78x NoPriv with");
    println!(
        "decomposition; network 2.7–5.4x the email size; client CPU < 1 s; storage hundreds of MB."
    );
}
