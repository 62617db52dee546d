//! Cross-crate integration test for the future-work extensions: an encrypted
//! email with an attachment flows through decryption, private virus scanning
//! (provider never sees the attachment), and provider-side encrypted search
//! (provider never sees keywords), alongside the paper's client-side index.

use pretzel::classifiers::NGramExtractor;
use pretzel::core::spam::AheVariant;
use pretzel::core::virus::{VirusModelBuilder, VirusScanClient, VirusScanProvider};
use pretzel::core::PretzelConfig;
use pretzel::e2e::{DhGroup, Email, Identity};
use pretzel::search::SearchIndex;
use pretzel::sse::{SseClient, SseClientEndpoint, SseProviderEndpoint};
use pretzel::transport::memory_pair;

mod common;
use common::test_rng;
fn attachment_model() -> (NGramExtractor, pretzel::classifiers::LinearModel) {
    let extractor = NGramExtractor::new(3, 1024);
    let mut builder = VirusModelBuilder::new(extractor);
    for i in 0..25u8 {
        let mut bad = vec![0x4d, 0x5a, 0x90, 0x00, 0xde, 0xad, 0xbe, 0xef];
        bad.extend(std::iter::repeat_n(0xcc, 16));
        bad.push(i);
        builder.add_malicious(&bad);
        builder.add_benign(format!("status update number {i}: all services nominal").as_bytes());
    }
    (extractor, builder.train())
}

#[test]
fn encrypted_mail_with_attachment_is_scanned_and_searchable_privately() {
    let mut rng = test_rng(1);
    let config = PretzelConfig::test();

    // --- e2e leg: Alice sends Bob an email whose body describes an attachment.
    let dh = DhGroup::insecure_test_group(80, &mut rng);
    let alice = Identity::generate("alice@example.com", &dh, &mut rng);
    let bob = Identity::generate("bob@example.com", &dh, &mut rng);
    let email = Email {
        from: alice.address.clone(),
        to: bob.address.clone(),
        subject: "invoice attached".into(),
        body: "please review the attached invoice before the quarterly deadline".into(),
    };
    let mut attachment = vec![0x4d, 0x5a, 0x90, 0x00, 0xde, 0xad, 0xbe, 0xef];
    attachment.extend(std::iter::repeat_n(0xcc, 16));

    let encrypted = alice.encrypt_email(&bob.public(), &email, &mut rng);
    let decrypted = bob.decrypt_email(&alice.public(), &encrypted).unwrap();
    assert_eq!(decrypted.body, email.body);

    // --- Private virus scan of the attachment.
    let (extractor, model) = attachment_model();
    let (mut provider_chan, mut client_chan) = memory_pair();
    let provider_cfg = config.clone();
    let scanner = std::thread::spawn(move || {
        let mut rng = test_rng(2);
        let mut provider = VirusScanProvider::setup(
            &mut provider_chan,
            &model,
            extractor,
            &provider_cfg,
            AheVariant::Pretzel,
            &mut rng,
        )
        .unwrap();
        provider
            .process_attachment(&mut provider_chan, &mut rng)
            .unwrap();
        provider
            .process_attachment(&mut provider_chan, &mut rng)
            .unwrap();
    });
    let mut scan_client =
        VirusScanClient::setup(&mut client_chan, &config, AheVariant::Pretzel, &mut rng).unwrap();
    let malicious = scan_client
        .scan(&mut client_chan, &attachment, &mut rng)
        .unwrap();
    let body_clean = scan_client
        .scan(&mut client_chan, decrypted.body.as_bytes(), &mut rng)
        .unwrap();
    scanner.join().unwrap();
    assert!(malicious, "the booby-trapped attachment must be flagged");
    assert!(!body_clean, "ordinary text must not be flagged");

    // --- Provider-side encrypted search over the decrypted body.
    let (mut sse_provider_chan, mut sse_client_chan) = memory_pair();
    let sse_provider = std::thread::spawn(move || {
        let mut endpoint = SseProviderEndpoint::new();
        endpoint.serve(&mut sse_provider_chan).unwrap();
        endpoint.index().len()
    });
    let mut sse = SseClientEndpoint::new(SseClient::from_master_key([9u8; 32]));
    sse.index_and_upload(&mut sse_client_chan, 1, &decrypted.classification_text())
        .unwrap();
    let hits = sse.search(&mut sse_client_chan, "invoice").unwrap();
    let misses = sse.search(&mut sse_client_chan, "unrelated").unwrap();
    sse.close(&mut sse_client_chan).unwrap();
    let stored = sse_provider.join().unwrap();
    assert_eq!(hits, vec![1]);
    assert!(misses.is_empty());
    assert!(stored > 0);

    // --- The client-side index of §5 still works alongside the SSE extension.
    let mut local = SearchIndex::new();
    local.add_document(&decrypted.classification_text());
    assert_eq!(local.query("invoice").len(), 1);
}
