//! Private virus scanning of email attachments (paper §7 future work).
//!
//! The provider holds a proprietary two-class attachment model over hashed
//! byte n-grams; the client holds the decrypted attachments. They run the
//! same secure protocol as spam filtering: the client learns one bit per
//! attachment ("malicious" / "clean") and the provider learns nothing about
//! the attachment bytes.
//!
//! Run with: `cargo run --release --example virus_scanning`

use pretzel_classifiers::NGramExtractor;
use pretzel_core::bank::empty_source;
use pretzel_core::spam::AheVariant;
use pretzel_core::virus::{VirusModelBuilder, VirusScanClient, VirusScanProvider};
use pretzel_core::PretzelConfig;
use pretzel_transport::memory_pair;

/// Synthetic "malware family": executables that share a distinctive byte
/// motif. A real provider would train on a malware corpus; the protocol is
/// identical.
fn malicious_sample(variant: u8) -> Vec<u8> {
    let mut bytes = vec![0x4d, 0x5a, 0x90, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x13, 0x37];
    bytes.extend(std::iter::repeat_n(0xcc, 24));
    bytes.extend_from_slice(&[variant, variant.wrapping_mul(7), 0x00]);
    bytes
}

fn benign_sample(i: usize) -> Vec<u8> {
    format!(
        "Quarterly planning notes, revision {i}. Agenda: budget review, hiring, \
         offsite logistics. Please add comments inline before Friday."
    )
    .into_bytes()
}

fn main() {
    let mut rng = rand::thread_rng();
    let config = PretzelConfig::test();

    // --- Provider trains its proprietary attachment model. -----------------
    println!("[provider] training an attachment model over hashed 3-gram features…");
    let extractor = NGramExtractor::new(3, 2048);
    let mut builder = VirusModelBuilder::new(extractor);
    for i in 0..40 {
        builder.add_malicious(&malicious_sample(i as u8));
        builder.add_benign(&benign_sample(i));
    }
    let model = builder.train();
    println!(
        "[provider] model: {} features x {} classes",
        model.num_features(),
        model.num_classes()
    );

    // --- Client and provider run the private scanning protocol. ------------
    let (mut provider_chan, mut client_chan) = memory_pair();
    let provider_cfg = config.clone();
    let scans = 4usize;
    let provider = std::thread::spawn(move || {
        let mut rng = rand::thread_rng();
        let mut provider = VirusScanProvider::setup(
            &mut provider_chan,
            &model,
            extractor,
            &provider_cfg,
            AheVariant::Pretzel,
            // No precompute bank here: every offline artifact is made inline.
            &empty_source(),
            &mut rng,
        )
        .expect("provider setup");
        for _ in 0..scans {
            provider
                .process_attachment(&mut provider_chan, &mut rng)
                .expect("provider scan");
        }
    });

    let mut client =
        VirusScanClient::setup(&mut client_chan, &config, AheVariant::Pretzel, &mut rng)
            .expect("client setup");
    println!(
        "[client]   stored the encrypted attachment model: {} bytes",
        client.model_storage_bytes()
    );

    let attachments: Vec<(&str, Vec<u8>)> = vec![
        ("invoice.exe", malicious_sample(200)),
        ("notes.txt", benign_sample(99)),
        ("update.bin", malicious_sample(201)),
        ("minutes.txt", benign_sample(100)),
    ];
    for (name, bytes) in &attachments {
        let malicious = client
            .scan(&mut client_chan, bytes, &mut rng)
            .expect("client scan");
        println!(
            "[client]   {name:<12} -> {}",
            if malicious {
                "MALICIOUS (quarantined)"
            } else {
                "clean"
            }
        );
    }
    provider.join().unwrap();

    println!();
    println!("The provider scanned {scans} attachments without ever seeing their bytes.");
}
