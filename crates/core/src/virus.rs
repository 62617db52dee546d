//! Private virus scanning of email attachments.
//!
//! The paper names virus scanning as one of the provider functions that
//! end-to-end encryption supposedly rules out (§1) and lists extending Pretzel
//! to it as future work (§7). Structurally it is the same problem as spam
//! filtering: a two-class linear classifier applied to an email, with the
//! provider holding proprietary model parameters and the client holding the
//! content. The only differences are the feature space — hashed byte n-grams
//! of the attachment bytes instead of word tokens
//! ([`pretzel_classifiers::NGramExtractor`]) — and who cares about the
//! verdict (the *client*, who wants to know whether an attachment is safe to
//! open, mirroring the spam arrangement where the output goes to the client).
//!
//! The module therefore reuses the spam protocol wholesale and adds only
//! what is its own: setup ships the n-gram parameters (public, like the
//! choice of classification algorithm in §2.1) ahead of spam's setup, and
//! the client hashes each attachment into that feature space before handing
//! it to spam's online phase — each scan is one secure dot product and one
//! Yao comparison. Guarantees 1 and 2 of §4.4 carry over unchanged: the
//! provider never sees attachment bytes, and the client learns one bit per
//! scan.

use rand::{Rng, RngCore};

use pretzel_classifiers::nb::GrNbTrainer;
use pretzel_classifiers::{LabeledExample, LinearModel, NGramExtractor, Trainer};
use pretzel_transport::Channel;

use crate::config::PretzelConfig;
use crate::registry::{ClientContext, ClientModule, FunctionModule, ProviderModule, WireTag};
use crate::session::{
    client_round, payload_mismatch, provider_round, EmailPayload, ProviderModelSuite, Verdict,
};
use crate::spam::{AheVariant, SpamClient, SpamProvider};
use crate::{parse_u64, u64_bytes, PretzelError, Result};

/// Builds a two-class attachment model from labeled malicious and benign
/// samples.
///
/// Providers in practice train on large malware corpora; this builder stands
/// in for that pipeline so the examples and tests can exercise the protocol
/// end to end. Class 1 is "malicious", class 0 is "benign", matching the spam
/// module's convention that class 1 is the positive class.
#[derive(Clone, Debug)]
pub struct VirusModelBuilder {
    extractor: NGramExtractor,
    examples: Vec<LabeledExample>,
}

impl VirusModelBuilder {
    /// Starts a builder over the given feature space.
    pub fn new(extractor: NGramExtractor) -> Self {
        VirusModelBuilder {
            extractor,
            examples: Vec::new(),
        }
    }

    /// The feature extractor the resulting model expects.
    pub fn extractor(&self) -> NGramExtractor {
        self.extractor
    }

    /// Adds a known-malicious sample (e.g. a signature corpus entry).
    pub fn add_malicious(&mut self, content: &[u8]) -> &mut Self {
        self.push(content, 1);
        self
    }

    /// Adds a known-benign sample.
    pub fn add_benign(&mut self, content: &[u8]) -> &mut Self {
        self.push(content, 0);
        self
    }

    /// Number of training samples added so far.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// True when no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Trains the two-class model with the given trainer (any of the paper's
    /// linear classifiers works; Graham–Robinson NB is the default used by
    /// [`VirusModelBuilder::train`]).
    pub fn train_with(&self, trainer: &dyn Trainer) -> LinearModel {
        trainer.train(&self.examples, self.extractor.buckets, 2)
    }

    /// Trains with the default GR-NB trainer.
    pub fn train(&self) -> LinearModel {
        self.train_with(&GrNbTrainer::default())
    }

    fn push(&mut self, content: &[u8], label: usize) {
        self.examples.push(LabeledExample {
            features: self.extractor.extract(content),
            label,
        });
    }
}

/// Provider endpoint of the virus-scanning module.
pub struct VirusScanProvider {
    inner: SpamProvider,
}

impl VirusScanProvider {
    /// Runs the setup phase as the provider: ships the (public) n-gram
    /// parameters and the encrypted model, then establishes the Yao session.
    pub fn setup<C: Channel, R: Rng + ?Sized>(
        channel: &mut C,
        model: &LinearModel,
        extractor: NGramExtractor,
        config: &PretzelConfig,
        variant: AheVariant,
        rng: &mut R,
    ) -> Result<Self> {
        if model.num_features() != extractor.buckets {
            return Err(PretzelError::Protocol(format!(
                "model has {} features but the extractor hashes into {} buckets",
                model.num_features(),
                extractor.buckets
            )));
        }
        // The feature-space parameters are public (only model parameters are
        // proprietary, §2.1), so they travel in the clear ahead of the spam
        // machinery's setup.
        channel.send(&u64_bytes(extractor.n as u64))?;
        channel.send(&u64_bytes(extractor.buckets as u64))?;
        let inner = SpamProvider::setup(channel, model, config, variant, rng)?;
        Ok(VirusScanProvider { inner })
    }

    /// Per-attachment phase, provider side — a batch of one. The provider
    /// learns nothing about the attachment or the verdict.
    pub fn process_attachment<C: Channel, R: Rng + ?Sized>(
        &mut self,
        channel: &mut C,
        rng: &mut R,
    ) -> Result<()> {
        provider_round(self, channel, rng).map(|_| ())
    }
}

/// Client endpoint of the virus-scanning module.
pub struct VirusScanClient {
    inner: SpamClient,
    extractor: NGramExtractor,
}

impl VirusScanClient {
    /// Runs the setup phase as the client: learns the (public) feature-space
    /// parameters, receives and stores the encrypted model, and establishes
    /// the Yao session.
    pub fn setup<C: Channel, R: Rng + ?Sized>(
        channel: &mut C,
        config: &PretzelConfig,
        variant: AheVariant,
        rng: &mut R,
    ) -> Result<Self> {
        let n = parse_u64(&channel.recv()?)? as usize;
        let buckets = parse_u64(&channel.recv()?)? as usize;
        if n == 0 || buckets == 0 {
            return Err(PretzelError::Protocol(
                "n-gram parameters must be non-zero".into(),
            ));
        }
        let inner = SpamClient::setup(channel, config, variant, rng)?;
        Ok(VirusScanClient {
            inner,
            extractor: NGramExtractor::new(n, buckets),
        })
    }

    /// The feature extractor announced by the provider.
    pub fn extractor(&self) -> NGramExtractor {
        self.extractor
    }

    /// Client-side storage consumed by the encrypted model, in bytes.
    pub fn model_storage_bytes(&self) -> usize {
        self.inner.model_storage_bytes()
    }

    /// Scans one attachment — a batch of one; returns `true` when it is
    /// classified malicious. The provider learns nothing (Guarantee 2
    /// analogue: one bit, to the client only).
    pub fn scan<C: Channel, R: Rng + ?Sized>(
        &mut self,
        channel: &mut C,
        attachment: &[u8],
        rng: &mut R,
    ) -> Result<bool> {
        let scan = EmailPayload::Attachment(attachment.to_vec());
        let verdict = client_round(self, channel, &scan, rng)?;
        Ok(verdict == Verdict::Virus { is_malicious: true })
    }
}

/// The registrable virus-scanning function module (wire tag 3).
pub struct VirusFunction;

impl VirusFunction {
    /// Handshake byte of the virus module.
    pub const WIRE_TAG: WireTag = 3;
}

impl FunctionModule for VirusFunction {
    fn wire_tag(&self) -> WireTag {
        Self::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "virus"
    }

    fn provider_setup(
        &self,
        mut channel: &mut dyn Channel,
        suite: &ProviderModelSuite,
        variant: AheVariant,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ProviderModule>> {
        Ok(Box::new(VirusScanProvider::setup(
            &mut channel,
            &suite.virus,
            suite.virus_extractor,
            &suite.config,
            variant,
            rng,
        )?))
    }

    fn client_setup(
        &self,
        mut channel: &mut dyn Channel,
        ctx: &ClientContext,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ClientModule>> {
        Ok(Box::new(VirusScanClient::setup(
            &mut channel,
            &ctx.config,
            ctx.variant,
            rng,
        )?))
    }
}

impl ProviderModule for VirusScanProvider {
    fn wire_tag(&self) -> WireTag {
        VirusFunction::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "virus"
    }

    /// Serves `count` scans as one exchange — spam's online phase, as is.
    fn process_batch(
        &mut self,
        channel: &mut dyn Channel,
        count: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Option<usize>>> {
        self.inner.process_batch(channel, count, rng)
    }
}

impl ClientModule for VirusScanClient {
    fn wire_tag(&self) -> WireTag {
        VirusFunction::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "virus"
    }

    fn model_storage_bytes(&self) -> usize {
        VirusScanClient::model_storage_bytes(self)
    }

    /// Scans every attachment in one exchange: hashes each into the
    /// announced feature space, then runs spam's online phase over the
    /// feature vectors.
    fn process_batch(
        &mut self,
        channel: &mut dyn Channel,
        payloads: &[EmailPayload],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Verdict>> {
        let features = payloads
            .iter()
            .map(|p| match p {
                EmailPayload::Attachment(bytes) => {
                    Ok(EmailPayload::Tokens(self.extractor.extract(bytes)))
                }
                other => Err(payload_mismatch("virus", other)),
            })
            .collect::<Result<Vec<_>>>()?;
        let verdicts = self.inner.process_batch(channel, &features, rng)?;
        Ok(verdicts
            .into_iter()
            .map(|verdict| Verdict::Virus {
                is_malicious: verdict == Verdict::Spam { is_spam: true },
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_transport::run_two_party;

    /// Synthetic "malware" shares a distinctive byte motif; benign content is
    /// plain text. Small on purpose — the protocol is identical at any scale.
    fn training_builder() -> VirusModelBuilder {
        let extractor = NGramExtractor::new(3, 512);
        let mut builder = VirusModelBuilder::new(extractor);
        for i in 0..30u8 {
            let mut bad = vec![0x4d, 0x5a, 0x90, 0x00, 0xde, 0xad, 0xbe, 0xef];
            bad.extend(std::iter::repeat_n(0xcc, 20));
            bad.push(i);
            builder.add_malicious(&bad);

            let good = format!("dear colleague, please find attached report number {i} for review");
            builder.add_benign(good.as_bytes());
        }
        builder
    }

    #[test]
    fn builder_counts_and_trains_a_two_class_model() {
        let builder = training_builder();
        assert_eq!(builder.len(), 60);
        assert!(!builder.is_empty());
        let model = builder.train();
        assert_eq!(model.num_classes(), 2);
        assert_eq!(model.num_features(), builder.extractor().buckets);
    }

    #[test]
    fn provider_rejects_a_model_feature_space_mismatch() {
        let builder = training_builder();
        let model = builder.train();
        let wrong_extractor = NGramExtractor::new(3, 1024);
        let (mut chan, _peer) = pretzel_transport::memory_pair();
        let err = VirusScanProvider::setup(
            &mut chan,
            &model,
            wrong_extractor,
            &PretzelConfig::test(),
            AheVariant::Pretzel,
            &mut rand::thread_rng(),
        );
        assert!(matches!(err, Err(PretzelError::Protocol(_))));
    }

    #[test]
    fn private_scan_flags_malicious_and_clears_benign_attachments() {
        let builder = training_builder();
        let extractor = builder.extractor();
        let model = builder.train();
        let config = PretzelConfig::test();
        let config_client = config.clone();

        let mut malicious = vec![0x4d, 0x5a, 0x90, 0x00, 0xde, 0xad, 0xbe, 0xef];
        malicious.extend(std::iter::repeat_n(0xcc, 20));
        let benign = b"meeting notes from tuesday, action items listed below".to_vec();
        let malicious_client = malicious.clone();
        let benign_client = benign.clone();

        let (provider_res, client_res) = run_two_party(
            move |chan| -> Result<()> {
                let mut rng = rand::thread_rng();
                let mut provider = VirusScanProvider::setup(
                    chan,
                    &model,
                    extractor,
                    &config,
                    AheVariant::Pretzel,
                    &mut rng,
                )?;
                provider.process_attachment(chan, &mut rng)?;
                provider.process_attachment(chan, &mut rng)?;
                Ok(())
            },
            move |chan| -> Result<(bool, bool, usize)> {
                let mut rng = rand::thread_rng();
                let mut client =
                    VirusScanClient::setup(chan, &config_client, AheVariant::Pretzel, &mut rng)?;
                let bad = client.scan(chan, &malicious_client, &mut rng)?;
                let good = client.scan(chan, &benign_client, &mut rng)?;
                Ok((bad, good, client.model_storage_bytes()))
            },
        );
        provider_res.unwrap();
        let (bad, good, storage) = client_res.unwrap();
        assert!(bad, "the malicious attachment must be flagged");
        assert!(!good, "the benign attachment must not be flagged");
        assert!(storage > 0);
    }

    #[test]
    fn client_learns_the_announced_feature_space() {
        let builder = training_builder();
        let extractor = builder.extractor();
        let model = builder.train();
        let config = PretzelConfig::test();
        let config_client = config.clone();

        let (provider_res, client_res) = run_two_party(
            move |chan| {
                let mut rng = rand::thread_rng();
                VirusScanProvider::setup(
                    chan,
                    &model,
                    extractor,
                    &config,
                    AheVariant::Pretzel,
                    &mut rng,
                )
                .map(|_| ())
            },
            move |chan| {
                let mut rng = rand::thread_rng();
                VirusScanClient::setup(chan, &config_client, AheVariant::Pretzel, &mut rng)
                    .map(|c| c.extractor())
            },
        );
        provider_res.unwrap();
        assert_eq!(client_res.unwrap(), NGramExtractor::new(3, 512));
    }
}
