//! Cross-crate integration tests on the secure computation itself:
//!
//! * the Baseline (Paillier) and Pretzel (XPIR-BV) instantiations of the spam
//!   protocol produce identical verdicts, and both agree with a plaintext
//!   evaluation of the same quantized model;
//! * property test: for random models and emails, the secure dot products
//!   (both packings, both cryptosystems) equal the plaintext dot product.

use proptest::prelude::*;

use pretzel::classifiers::svm::BinarySvmTrainer;
use pretzel::classifiers::{LabeledExample, QuantizedModel, SparseVector, Trainer};
use pretzel::core::bank::empty_source;
use pretzel::core::spam::{AheVariant, SpamClient, SpamProvider};
use pretzel::core::{NoPrivProvider, PretzelConfig};
use pretzel::sdp::paillier_pack::{self, PaillierPackParams};
use pretzel::sdp::rlwe_pack::{self, Packing};
use pretzel::sdp::ModelMatrix;
use pretzel::transport::memory_pair;

mod common;
use common::test_rng;
fn example(pairs: &[(usize, u32)], label: usize) -> LabeledExample {
    LabeledExample {
        features: SparseVector::from_pairs(pairs.to_vec()),
        label,
    }
}

fn spam_model() -> pretzel::classifiers::LinearModel {
    let mut corpus = Vec::new();
    for i in 0..25 {
        corpus.push(example(&[(i % 6, 2), ((i + 1) % 6, 1)], 1));
        corpus.push(example(&[(6 + i % 6, 2), (6 + (i + 2) % 6, 1)], 0));
    }
    BinarySvmTrainer::default().train(&corpus, 12, 2)
}

fn classify_privately(variant: AheVariant, emails: &[SparseVector]) -> Vec<bool> {
    let model = spam_model();
    let config = PretzelConfig::test();
    let config_client = config.clone();
    let emails_client = emails.to_vec();

    let (mut provider_chan, mut client_chan) = memory_pair();
    let n = emails.len();
    let provider = std::thread::spawn(move || {
        let mut rng = test_rng(1);
        let mut p = SpamProvider::setup(
            &mut provider_chan,
            &model,
            &config,
            variant,
            &empty_source(),
            &mut rng,
        )
        .unwrap();
        for _ in 0..n {
            p.process_email(&mut provider_chan, &mut rng).unwrap();
        }
    });
    let mut rng = test_rng(2);
    let mut client =
        SpamClient::setup(&mut client_chan, &config_client, variant, &mut rng).unwrap();
    let verdicts = emails_client
        .iter()
        .map(|f| client.classify(&mut client_chan, f, &mut rng).unwrap())
        .collect();
    provider.join().unwrap();
    verdicts
}

#[test]
fn baseline_and_pretzel_agree_with_each_other_and_with_noprivate() {
    let emails = vec![
        SparseVector::from_pairs(vec![(0, 2), (1, 1), (3, 1)]),
        SparseVector::from_pairs(vec![(7, 2), (8, 1)]),
        SparseVector::from_pairs(vec![(2, 1), (9, 1), (10, 2)]),
        SparseVector::from_pairs(vec![(5, 3)]),
    ];
    let pretzel_verdicts = classify_privately(AheVariant::Pretzel, &emails);
    let baseline_verdicts = classify_privately(AheVariant::Baseline, &emails);
    assert_eq!(pretzel_verdicts, baseline_verdicts);

    // The secure protocols operate on the quantized model (the paper's
    // b_in-bit parameters, §4.2); their verdicts must reproduce a plaintext
    // evaluation of that same quantized model exactly.
    let config = PretzelConfig::test();
    let quantized = QuantizedModel::from_model(&spam_model(), config.weight_bits);
    for (email, &verdict) in emails.iter().zip(&pretzel_verdicts) {
        let protocol_features = quantized.protocol_features(email, config.freq_bits);
        let quantized_verdict = quantized.predict(&protocol_features) == 1;
        assert_eq!(verdict, quantized_verdict);
    }

    // The float model (what NoPriv would run) must agree on all but
    // quantization-boundary cases; on this tiny corpus we only require
    // majority agreement, which guards against systematic sign/column swaps.
    let noprivate = NoPrivProvider::new(spam_model());
    let agreements = emails
        .iter()
        .zip(&pretzel_verdicts)
        .filter(|(email, &verdict)| verdict == noprivate.is_spam(email))
        .count();
    assert!(
        agreements * 2 >= emails.len(),
        "private verdicts should mostly agree with the float model ({agreements}/{})",
        emails.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Secure dot products equal plaintext dot products for random inputs,
    /// for both RLWE packings.
    #[test]
    fn rlwe_secure_dot_product_matches_plaintext(
        rows in 2usize..40,
        cols in 1usize..6,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let params = pretzel::rlwe::Params::new(64, 30);
        let (sk, pk) = pretzel::rlwe::keygen(&params, None, &mut rng);
        let data: Vec<u64> = (0..rows * cols).map(|_| rng.gen_range(0..500)).collect();
        let model = ModelMatrix::from_rows(rows, cols, data);
        let features: Vec<(usize, u64)> = (0..rows.min(10))
            .map(|i| (rng.gen_range(0..rows), 1 + (i as u64 % 7)))
            .collect();
        let expected = model.dot_sparse(&features);

        for packing in [Packing::AcrossRow, Packing::LegacyPerRow] {
            let enc = rlwe_pack::encrypt_model(&pk, &model, packing, &mut rng).unwrap();
            let result = rlwe_pack::client_dot_product(&pk, &enc, &features).unwrap();
            let decrypted = rlwe_pack::provider_decrypt_columns(&sk, &result, cols);
            prop_assert_eq!(&decrypted, &expected, "packing {:?}", packing);
        }
    }

    /// The Baseline's Paillier packing computes the same dot products.
    #[test]
    fn paillier_secure_dot_product_matches_plaintext(
        rows in 2usize..20,
        cols in 1usize..4,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = pretzel::paillier::keygen(256, &mut rng);
        let pk = sk.public();
        let pack = PaillierPackParams { slot_bits: 24 };
        let data: Vec<u64> = (0..rows * cols).map(|_| rng.gen_range(0..500)).collect();
        let model = ModelMatrix::from_rows(rows, cols, data);
        let features: Vec<(usize, u64)> = (0..rows.min(8))
            .map(|i| (rng.gen_range(0..rows), 1 + (i as u64 % 5)))
            .collect();
        let expected = model.dot_sparse(&features);

        let enc = paillier_pack::encrypt_model(pk, &model, pack, &mut rng).unwrap();
        let result = paillier_pack::client_dot_product(pk, &enc, &features, &mut rng).unwrap();
        let decrypted =
            paillier_pack::provider_decrypt(&sk, cols, 24, pack.slots_per_ct(pk), &result).unwrap();
        prop_assert_eq!(&decrypted, &expected);
    }
}
