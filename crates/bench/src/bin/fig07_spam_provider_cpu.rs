//! Figure 7: provider-side CPU time per email for the spam-filtering module,
//! varying the number of model features (N) and the number of features per
//! email (L), for NoPriv, Baseline and Pretzel.
//!
//! Provider CPU for Baseline/Pretzel is independent of N and L (one AHE
//! decryption plus one Yao comparison); NoPriv grows linearly in L. At
//! `--scale small` N is shrunk (the provider-side numbers do not depend on
//! it) and the protocol runs end-to-end; at `--scale paper` the paper's N
//! values are used for the setup phase as well.

use std::time::Duration;

use pretzel_bench::{
    human_us, parse_scale, print_header, print_row, synthetic_model, time, time_avg,
};
use pretzel_classifiers::SparseVector;
use pretzel_core::spam::{AheVariant, SpamClient, SpamProvider};
use pretzel_core::{NoPrivProvider, PretzelConfig, Scale};
use pretzel_datasets::synthetic_features;
use pretzel_transport::memory_pair;

/// Measures provider CPU per email for one private variant by running the
/// full two-party protocol and timing only the provider's `process_email`.
fn private_provider_cpu(
    variant: AheVariant,
    config: &PretzelConfig,
    model_features: usize,
    email_features: usize,
    emails: usize,
) -> Duration {
    let model = synthetic_model(model_features, 2, 7);
    let features: Vec<SparseVector> = (0..emails)
        .map(|i| synthetic_features(model_features, email_features, 15, i as u64))
        .collect();
    let features_client = features.clone();
    let config_client = config.clone();

    let (mut provider_chan, mut client_chan) = memory_pair();
    let handle = std::thread::spawn(move || {
        let mut rng = rand::thread_rng();
        let mut client =
            SpamClient::setup(&mut client_chan, &config_client, variant, &mut rng).unwrap();
        for f in &features_client {
            let _ = client.classify(&mut client_chan, f, &mut rng).unwrap();
        }
    });

    let mut rng = rand::thread_rng();
    let mut provider =
        SpamProvider::setup(&mut provider_chan, &model, config, variant, &mut rng).unwrap();
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
    // Provider CPU does not depend on N for the private variants; the N axis
    // matters for setup/storage (Figure 8). Scale N down accordingly.
    let n_values: Vec<usize> = match scale {
        Scale::Test => vec![2_000, 10_000, 50_000],
        Scale::Paper => vec![200_000, 1_000_000, 5_000_000],
    };
    let l_values = [200usize, 1_000, 5_000];
    let emails = match scale {
        Scale::Test => 3,
        Scale::Paper => 10,
    };

    println!("Figure 7: spam filtering, provider CPU time per email (scale {scale:?})\n");
    let widths = [26, 14, 14, 14];
    print_header(&["system", "L=200", "L=1000", "L=5000"], &widths);

    // NoPriv: linear in L, measured directly.
    let noprivate_model = synthetic_model(n_values[0], 2, 7);
    let noprivate = NoPrivProvider::new(noprivate_model);
    let mut noprivate_row = vec![format!("NoPriv (N={})", n_values[0])];
    for &l in &l_values {
        let email = synthetic_features(n_values[0], l, 15, 3);
        let d = time_avg(50, || {
            std::hint::black_box(noprivate.classify(&email));
        });
        noprivate_row.push(human_us(d));
    }
    print_row(&noprivate_row, &widths);

    // Baseline and Pretzel: one row per N (provider CPU ≈ constant in L and N).
    for &n in &n_values {
        // Keep the end-to-end run tractable: the setup phase encrypts N rows.
        let run_n = match scale {
            Scale::Test => n.min(10_000),
            Scale::Paper => n,
        };
        for (name, variant) in [
            ("Baseline", AheVariant::Baseline),
            ("Pretzel", AheVariant::Pretzel),
        ] {
            let mut row = vec![format!("{name} (N={n})")];
            for &l in &l_values {
                let d = private_provider_cpu(variant, &config, run_n, l.min(run_n), emails);
                row.push(human_us(d));
            }
            print_row(&row, &widths);
        }
    }
    println!("\nPaper shape: NoPriv grows with L; Baseline ≈ 0.7–0.8 ms (Paillier Dec dominates);");
    println!("Pretzel ≈ 0.1–0.5 ms (XPIR-BV Dec + one Yao comparison), i.e. below Baseline and");
    println!("within a small factor of NoPriv at L = 692.");
}
