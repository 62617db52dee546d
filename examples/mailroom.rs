//! Provider mailroom walkthrough: one provider serves ten concurrent client
//! sessions — spam filtering, topic extraction, virus scanning, encrypted
//! keyword search, **and a custom fifth function registered from this
//! example** — over in-memory channels, then prints per-session and
//! fleet-wide meter stats.
//!
//! The fifth function (`attach-stats`, wire tag 7) is the point of the
//! function-module registry: an attachment-size analytics protocol built
//! from `pretzel_sdp`'s RLWE machinery, registered with
//! [`Mailroom::start_with_registry`] without touching `pretzel_core` — no
//! enum arm, no session.rs edit, no mailroom change. Spam sessions here
//! also submit their emails as one **batched** round
//! ([`MailroomClient::process_batch`]) instead of four sequential ones.
//!
//! Run with: `cargo run --release --example mailroom`

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use pretzel::classifiers::nb::{GrNbTrainer, MultinomialNbTrainer};
use pretzel::classifiers::{NGramExtractor, SparseVector, Trainer};
use pretzel::core::registry::{
    ClientContext, ClientModule, FunctionModule, ProtocolRegistry, ProviderModule, WireTag,
};
use pretzel::core::session::{EmailPayload, Verdict};
use pretzel::core::spam::AheVariant;
use pretzel::core::topic::CandidateMode;
use pretzel::core::{PretzelConfig, PretzelError, ProviderModelSuite};
use pretzel::datasets::{ling_spam_like, newsgroups_like};
use pretzel::sdp::rlwe_pack::{self, Packing};
use pretzel::sdp::ModelMatrix;
use pretzel::server::{ClientSpecBuilder, Mailroom, MailroomClient, MailroomConfig};
use pretzel::transport::{memory_pair, Channel};

// ---------------------------------------------------------------------------
// The fifth function module: attachment-size analytics.
//
// The provider holds a proprietary per-size-bucket cost weight vector
// (encrypted under its own RLWE key, exactly like the classification
// models); the client maps each attachment to a size bucket, computes the
// encrypted weight lookup as a one-hot secure dot product, blinds it, and
// learns the weighted cost score. The provider never sees the attachment or
// its size bucket; the client never sees the weight vector.
// ---------------------------------------------------------------------------

/// Attachment sizes are bucketed by KiB up to this many buckets.
const STATS_BUCKETS: usize = 16;

/// The example's registrable analytics function (wire tag 7 — any free tag
/// in the provider's registry works).
struct AttachmentStatsFunction;

impl AttachmentStatsFunction {
    const WIRE_TAG: WireTag = 7;

    fn bucket(len: usize) -> usize {
        (len / 1024).min(STATS_BUCKETS - 1)
    }
}

impl FunctionModule for AttachmentStatsFunction {
    fn wire_tag(&self) -> WireTag {
        Self::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "attach-stats"
    }

    fn provider_setup(
        &self,
        channel: &mut dyn Channel,
        suite: &ProviderModelSuite,
        _variant: AheVariant,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ProviderModule>, PretzelError> {
        let params = suite.config.rlwe_params();
        let (sk, pk) = pretzel::rlwe::keygen(&params, None, rng);
        // The proprietary per-bucket weights: storage cost grows with size.
        let weights: Vec<u64> = (0..STATS_BUCKETS as u64).map(|b| 3 + 2 * b).collect();
        let matrix = ModelMatrix::from_rows(STATS_BUCKETS, 1, weights);
        let enc = rlwe_pack::encrypt_model(&pk, &matrix, Packing::AcrossRow, rng)?;
        channel.send(&pk.to_bytes())?;
        channel.send(&(enc.ciphertext_count() as u64).to_le_bytes())?;
        let mut blob = Vec::with_capacity(enc.ciphertext_count() * params.ciphertext_bytes());
        for ct in enc.ciphertexts() {
            blob.extend_from_slice(&ct.to_bytes());
        }
        channel.send(&blob)?;
        Ok(Box::new(StatsProvider { sk }))
    }

    fn client_setup(
        &self,
        channel: &mut dyn Channel,
        ctx: &ClientContext,
        _rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ClientModule>, PretzelError> {
        let params = ctx.config.rlwe_params();
        let pk = pretzel::rlwe::PublicKey::from_bytes(&params, &channel.recv()?)
            .map_err(|e| PretzelError::Ahe(e.to_string()))?;
        let count_frame = channel.recv()?;
        let count = u64::from_le_bytes(
            count_frame
                .get(..8)
                .and_then(|b| b.try_into().ok())
                .ok_or_else(|| PretzelError::Protocol("bad ciphertext count".into()))?,
        ) as usize;
        let blob = channel.recv()?;
        let ct_len = params.ciphertext_bytes();
        if blob.len() != count * ct_len {
            return Err(PretzelError::Protocol("bad weight blob size".into()));
        }
        let cts = blob
            .chunks_exact(ct_len)
            .map(|c| pretzel::rlwe::Ciphertext::from_bytes(&params, c))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| PretzelError::Ahe(e.to_string()))?;
        let model = rlwe_pack::EncryptedModel::from_parts(
            Packing::AcrossRow,
            cts,
            STATS_BUCKETS,
            1,
            params.slots(),
        );
        Ok(Box::new(StatsClient { pk, model }))
    }
}

/// Provider endpoint: decrypts blinded weight lookups and echoes them back.
struct StatsProvider {
    sk: pretzel::rlwe::SecretKey,
}

impl ProviderModule for StatsProvider {
    fn wire_tag(&self) -> WireTag {
        AttachmentStatsFunction::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "attach-stats"
    }

    /// Nothing to coalesce in a two-message round: a batch is a loop.
    fn process_batch(
        &mut self,
        channel: &mut dyn Channel,
        count: usize,
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<Option<usize>>, PretzelError> {
        for _ in 0..count {
            let blob = channel.recv()?;
            let ct = pretzel::rlwe::Ciphertext::from_bytes(self.sk.params(), &blob)
                .map_err(|e| PretzelError::Ahe(e.to_string()))?;
            // The blinding noise hides the true score (and thus the bucket).
            let blinded = rlwe_pack::provider_decrypt(&self.sk, &[ct], 1)[0][0];
            channel.send(&blinded.to_le_bytes())?;
        }
        Ok(vec![None; count])
    }
}

/// Client endpoint: one-hot dot product against the encrypted weights.
struct StatsClient {
    pk: pretzel::rlwe::PublicKey,
    model: rlwe_pack::EncryptedModel,
}

impl StatsClient {
    /// One attachment's round: blinded lookup out, masked score back.
    fn round(
        &mut self,
        channel: &mut dyn Channel,
        payload: &EmailPayload,
        rng: &mut dyn RngCore,
    ) -> Result<Verdict, PretzelError> {
        let EmailPayload::Opaque(attachment) = payload else {
            return Err(PretzelError::Protocol(
                "attach-stats sessions take opaque attachment bytes".into(),
            ));
        };
        let one_hot = vec![(AttachmentStatsFunction::bucket(attachment.len()), 1u64)];
        let accs = rlwe_pack::client_dot_product(&self.pk, &self.model, &one_hot)?;
        let (blinded, noise) = rlwe_pack::blind(&self.pk, &accs[0], 1, rng);
        channel.send(&blinded.to_bytes())?;
        let reply = channel.recv()?;
        let masked = u64::from_le_bytes(
            reply
                .get(..8)
                .and_then(|b| b.try_into().ok())
                .ok_or_else(|| PretzelError::Protocol("bad score reply".into()))?,
        );
        let t = self.pk.params().t;
        let score = masked.wrapping_sub(noise[0]) & (t - 1);
        Ok(Verdict::Custom {
            tag: AttachmentStatsFunction::WIRE_TAG,
            value: score,
        })
    }
}

impl ClientModule for StatsClient {
    fn wire_tag(&self) -> WireTag {
        AttachmentStatsFunction::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "attach-stats"
    }

    fn model_storage_bytes(&self) -> usize {
        self.model.size_bytes(&self.pk)
    }

    fn process_batch(
        &mut self,
        channel: &mut dyn Channel,
        payloads: &[EmailPayload],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Verdict>, PretzelError> {
        payloads
            .iter()
            .map(|payload| self.round(channel, payload, rng))
            .collect()
    }
}

fn main() {
    let config = PretzelConfig::test();

    // Train the provider's three proprietary models on synthetic corpora.
    let mut spam_spec = ling_spam_like(0.05);
    spam_spec.shared_vocab = 200;
    spam_spec.class_vocab = 80;
    let spam_corpus = spam_spec.generate();
    let (spam_train, spam_test) = spam_corpus.train_test_split(0.8, 7);
    let spam_model = GrNbTrainer::default().train(&spam_train, spam_corpus.num_features, 2);

    let mut topic_spec = newsgroups_like(0.02);
    topic_spec.shared_vocab = 150;
    topic_spec.class_vocab = 40;
    let topic_corpus = topic_spec.generate();
    let (topic_train, topic_test) = topic_corpus.train_test_split(0.8, 9);
    let topic_model = MultinomialNbTrainer::default().train(
        &topic_train,
        topic_corpus.num_features,
        topic_corpus.num_classes,
    );

    let extractor = NGramExtractor::new(3, 512);
    let mut virus_examples = Vec::new();
    for i in 0..30u8 {
        let mut bad = vec![0x4d, 0x5a, 0x90, 0x00, 0xde, 0xad, 0xbe, 0xef];
        bad.extend(std::iter::repeat_n(0xcc, 20));
        bad.push(i);
        virus_examples.push(pretzel::classifiers::LabeledExample {
            features: extractor.extract(&bad),
            label: 1,
        });
        let good = format!("quarterly report attachment number {i}");
        virus_examples.push(pretzel::classifiers::LabeledExample {
            features: extractor.extract(good.as_bytes()),
            label: 0,
        });
    }
    let virus_model = GrNbTrainer::default().train(&virus_examples, extractor.buckets, 2);

    let suite = ProviderModelSuite {
        spam: spam_model,
        topic: topic_model,
        topic_mode: CandidateMode::Full,
        virus: virus_model,
        virus_extractor: extractor,
        config: config.clone(),
    };

    // The registry: four built-ins plus this example's analytics module —
    // the whole "add a fifth function" cost is this one registration.
    let registry = ProtocolRegistry::builtin()
        .with_module(Arc::new(AttachmentStatsFunction))
        .expect("tag 7 is free");
    println!(
        "Registry serves {} function modules: {:?}\n",
        registry.len(),
        registry
    );

    // Start the mailroom: a worker pool with a bounded intake queue.
    let mailroom_cfg = MailroomConfig::builder().queue_capacity(10).build();
    println!(
        "Mailroom up: {} worker(s), intake queue of {}.\n",
        mailroom_cfg.workers, mailroom_cfg.queue_capacity
    );
    let mailroom = Mailroom::start_with_registry(suite, registry, mailroom_cfg);

    // Ten concurrent senders: two per function module.
    let mut handles = Vec::new();
    for i in 0..10usize {
        let (provider_end, client_end) = memory_pair();
        mailroom.submit(provider_end).expect("intake has room");
        let config = config.clone();
        let spam_emails: Vec<SparseVector> = spam_test
            .iter()
            .skip(i * 4)
            .take(4)
            .map(|e| e.features.clone())
            .collect();
        let topic_emails: Vec<SparseVector> = topic_test
            .iter()
            .skip(i * 4)
            .take(4)
            .map(|e| e.features.clone())
            .collect();
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(90 + i as u64);
            match i % 5 {
                0 => {
                    let spec = ClientSpecBuilder::spam(config).build();
                    let mut client =
                        MailroomClient::connect(client_end, &spec, &mut rng).expect("connect");
                    let version = client.negotiated().version;
                    // All four emails travel as ONE batched round: one
                    // coalesced ciphertext frame, one batched Yao exchange.
                    let payloads: Vec<EmailPayload> = spam_emails
                        .iter()
                        .map(|e| EmailPayload::Tokens(e.clone()))
                        .collect();
                    let verdicts = client.process_batch(&payloads, &mut rng).expect("batch");
                    let spam_count = verdicts
                        .iter()
                        .filter(|v| matches!(v, Verdict::Spam { is_spam: true }))
                        .count();
                    client.finish().expect("teardown");
                    format!(
                        "client {i}: spam session over {version}, batched 4 rounds, \
                         {spam_count}/4 flagged"
                    )
                }
                1 => {
                    let spec = ClientSpecBuilder::topic(config)
                        .topic_mode(CandidateMode::Full)
                        .build();
                    let mut client =
                        MailroomClient::connect(client_end, &spec, &mut rng).expect("connect");
                    for email in &topic_emails {
                        client.extract_topic(email, &mut rng).expect("extract");
                    }
                    client.finish().expect("teardown");
                    format!("client {i}: topic session, 4 emails (indices go to the provider)")
                }
                2 => {
                    let spec = ClientSpecBuilder::virus(config).build();
                    let mut client =
                        MailroomClient::connect(client_end, &spec, &mut rng).expect("connect");
                    let mut bad = vec![0x4d, 0x5a, 0x90, 0x00, 0xde, 0xad, 0xbe, 0xef];
                    bad.extend(std::iter::repeat_n(0xcc, 20));
                    let flagged = client.scan_attachment(&bad, &mut rng).expect("scan");
                    let clean = client
                        .scan_attachment(b"meeting notes for tuesday", &mut rng)
                        .expect("scan");
                    client.finish().expect("teardown");
                    format!(
                        "client {i}: virus session, malicious flagged={flagged}, benign flagged={clean}"
                    )
                }
                3 => {
                    let spec = ClientSpecBuilder::search(config).build();
                    let mut client =
                        MailroomClient::connect(client_end, &spec, &mut rng).expect("connect");
                    client
                        .index_email(1, "quarterly budget review tomorrow", &mut rng)
                        .expect("index");
                    client
                        .index_email(2, "offsite travel budget approved", &mut rng)
                        .expect("index");
                    let hits = client.search_keyword("budget", &mut rng).expect("query");
                    client.finish().expect("teardown");
                    format!(
                        "client {i}: search session, \"budget\" matched {} of 2 indexed emails",
                        hits.len()
                    )
                }
                _ => {
                    // The fifth, example-registered function module.
                    let spec =
                        ClientSpecBuilder::for_module(Arc::new(AttachmentStatsFunction), config).build();
                    let mut client =
                        MailroomClient::connect(client_end, &spec, &mut rng).expect("connect");
                    let small = vec![0u8; 700]; // bucket 0 → weight 3
                    let large = vec![0u8; 5 * 1024]; // bucket 5 → weight 13
                    let mut scores = Vec::new();
                    for attachment in [&small, &large] {
                        match client
                            .process(&EmailPayload::Opaque(attachment.clone()), &mut rng)
                            .expect("stats round")
                        {
                            Verdict::Custom { value, .. } => scores.push(value),
                            other => panic!("unexpected verdict {other:?}"),
                        }
                    }
                    client.finish().expect("teardown");
                    format!(
                        "client {i}: attach-stats session, cost scores {scores:?} \
                         (provider never saw the sizes)"
                    )
                }
            }
        }));
    }
    for handle in handles {
        println!("{}", handle.join().expect("client thread"));
    }

    // Graceful shutdown returns the final per-session + fleet accounting.
    let report = mailroom.shutdown();
    println!("\nper-session accounting:");
    println!("  id  protocol      wire  state       emails  sent       received   topics");
    for s in &report.sessions {
        println!(
            "  {:<3} {:<13} {:<5} {:<11} {:<7} {:<10} {:<10} {:?}",
            s.id,
            s.kind_name.unwrap_or("?"),
            s.version
                .map(|v| v.to_string())
                .unwrap_or_else(|| "?".into()),
            format!("{:?}", s.state),
            s.emails,
            format!("{:.1} KB", s.bytes_sent as f64 / 1024.0),
            format!("{:.1} KB", s.bytes_received as f64 / 1024.0),
            s.topics,
        );
    }
    println!("\nper-kind fleet totals:");
    for (tag, totals) in report.by_kind() {
        println!(
            "  tag {tag}: {} sessions, {} emails, {:.1} KB sent",
            totals.sessions,
            totals.emails,
            totals.bytes_sent as f64 / 1024.0,
        );
    }
    println!(
        "\nfleet: {} sessions ({} completed), {} emails, {:.1} KB sent, {:.1} KB received, {:.1} KB/email",
        report.sessions.len(),
        report.completed(),
        report.emails_total,
        report.fleet_bytes_sent as f64 / 1024.0,
        report.fleet_bytes_received as f64 / 1024.0,
        report.bytes_per_email() / 1024.0,
    );
}
