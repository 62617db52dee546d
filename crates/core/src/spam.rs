//! Private spam filtering (paper §3.3 Baseline, §4.1–§4.2 Pretzel).
//!
//! Roles and information flow (Figure 2 applied to spam, B = 2):
//!
//! * **Setup phase** (run once per client): the two parties derive joint
//!   randomness for the AHE parameters (§3.3 footnote 3), the provider
//!   quantizes its model, encrypts it column-group-wise under its own AHE
//!   key, and ships the encrypted model plus public key to the client (this
//!   is the client-storage cost of Figure 8); both parties also run the base
//!   OTs of the Yao session so per-email circuits only use cheap OT
//!   extension.
//! * **Per-email phase**: the client (who has the decrypted email) computes
//!   the encrypted per-class dot products, blinds them and sends them to the
//!   provider; the provider decrypts and the two parties run Yao's protocol
//!   on a circuit that removes the blinding and compares the spam score to
//!   the ham score. Only the client learns the resulting bit (Guarantee 2,
//!   §4.4).
//!
//! Two variants share this module: [`AheVariant::Pretzel`] (XPIR-BV with
//! across-row packing) and [`AheVariant::Baseline`] (Paillier with legacy
//! packing), which is exactly the pair compared in Figures 7 and 8.
//!
//! The AHE half of both phases — key generation, the encrypted-model
//! transfer, the dot product, blinding and decryption — is the shared
//! [`crate::ahe`] endpoint; this module adds what is spam's own: the
//! comparison circuit, the provider as garbler, and the one-bit output to
//! the client. The provider's `YaoGarbler::run_batch` garbles each round's
//! comparison circuit inline with the session RNG (a spam circuit garbles in
//! tens of microseconds), and a Baseline client samples its Paillier
//! randomizers inline in the dot product.

use rand::{Rng, RngCore};

use pretzel_classifiers::{LinearModel, SparseVector};
use pretzel_gc::{spam_compare_circuit, to_bits, Circuit, OutputMode, YaoEvaluator, YaoGarbler};
use pretzel_transport::{recv_rounds, send_rounds, Channel};

pub use crate::ahe::AheVariant;
use crate::ahe::{AheClient, AheProvider};
use crate::config::PretzelConfig;
use crate::registry::{ClientContext, ClientModule, FunctionModule, ProviderModule, WireTag};
use crate::session::{
    client_round, provider_round, token_payloads, EmailPayload, ProviderModelSuite, Verdict,
};
use crate::{PretzelError, Result};

/// Provider endpoint of the spam-filtering module.
pub struct SpamProvider {
    ahe: AheProvider,
    yao: YaoGarbler,
    circuit: Circuit,
}

/// Client endpoint of the spam-filtering module.
pub struct SpamClient {
    ahe: AheClient,
    yao: YaoEvaluator,
    circuit: Circuit,
}

impl SpamProvider {
    /// Runs the setup phase as the provider: encrypts and ships the model
    /// and establishes the Yao session. `model` is the provider's trained
    /// spam model (2 classes, class 1 = spam).
    pub fn setup<C: Channel, R: Rng + ?Sized>(
        channel: &mut C,
        model: &LinearModel,
        config: &PretzelConfig,
        variant: AheVariant,
        rng: &mut R,
    ) -> Result<Self> {
        assert_eq!(model.num_classes(), 2, "spam filtering uses two classes");
        let (ahe, seed) = AheProvider::setup(channel, model, config, variant, rng)?;
        let yao = YaoGarbler::setup(channel, &config.ot_group(&seed), rng)?;
        let circuit = spam_compare_circuit(ahe.width);
        Ok(SpamProvider { ahe, yao, circuit })
    }

    /// Decrypts one round's blinded (ham, spam) dot products and lays them
    /// out as garbler input bits (spam column first, matching the circuit).
    fn garbler_bits_for(&self, blob: &[u8]) -> Result<Vec<bool>> {
        let blinded = self.ahe.decrypt_blinded(blob, None)?;
        let width = self.ahe.width;
        let mut garbler_bits = to_bits(blinded[1], width); // spam column
        garbler_bits.extend(to_bits(blinded[0], width)); // ham column
        Ok(garbler_bits)
    }

    /// Per-email phase, provider side — a batch of one: decrypts the blinded
    /// dot products and plays the garbler in the comparison circuit. The
    /// provider learns nothing about the email or the result.
    pub fn process_email<C: Channel, R: Rng + ?Sized>(
        &mut self,
        channel: &mut C,
        rng: &mut R,
    ) -> Result<()> {
        provider_round(self, channel, rng).map(|_| ())
    }
}

impl SpamClient {
    /// Runs the setup phase as the client: derives joint randomness, receives
    /// and stores the encrypted model, and establishes the Yao session.
    pub fn setup<C: Channel, R: Rng + ?Sized>(
        channel: &mut C,
        config: &PretzelConfig,
        variant: AheVariant,
        rng: &mut R,
    ) -> Result<Self> {
        let (ahe, seed) = AheClient::setup(channel, config, variant, Some(2), rng)?;
        let yao = YaoEvaluator::setup(channel, &config.ot_group(&seed), rng)?;
        let circuit = spam_compare_circuit(ahe.width);
        Ok(SpamClient { ahe, yao, circuit })
    }

    /// Client-side storage consumed by the encrypted model in bytes — the
    /// quantity Figure 8 reports.
    pub fn model_storage_bytes(&self) -> usize {
        self.ahe.model_storage_bytes()
    }

    /// Computes one email's blinded dot-product ciphertext and the matching
    /// evaluator input bits, without touching the channel.
    fn blinded_round<R: Rng + ?Sized>(
        &self,
        features: &SparseVector,
        rng: &mut R,
    ) -> Result<(Vec<u8>, Vec<bool>)> {
        let (blob, noise) = self.ahe.blinded_round(features, None, rng)?;
        // Evaluator inputs: noise for the spam column, then the ham column.
        let width = self.ahe.width;
        let mut evaluator_bits = to_bits(noise[1], width);
        evaluator_bits.extend(to_bits(noise[0], width));
        Ok((blob, evaluator_bits))
    }

    /// Per-email phase, client side — a batch of one: returns `true` when
    /// the email is spam. The provider learns nothing (the output goes only
    /// to the client).
    pub fn classify<C: Channel, R: Rng + ?Sized>(
        &mut self,
        channel: &mut C,
        features: &SparseVector,
        rng: &mut R,
    ) -> Result<bool> {
        let email = EmailPayload::Tokens(features.clone());
        let verdict = client_round(self, channel, &email, rng)?;
        Ok(verdict == Verdict::Spam { is_spam: true })
    }
}

/// The registrable spam-filtering function module (wire tag 1).
pub struct SpamFunction;

impl SpamFunction {
    /// Handshake byte of the spam module.
    pub const WIRE_TAG: WireTag = 1;
}

impl FunctionModule for SpamFunction {
    fn wire_tag(&self) -> WireTag {
        Self::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "spam"
    }

    fn provider_setup(
        &self,
        mut channel: &mut dyn Channel,
        suite: &ProviderModelSuite,
        variant: AheVariant,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ProviderModule>> {
        Ok(Box::new(SpamProvider::setup(
            &mut channel,
            &suite.spam,
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
        Ok(Box::new(SpamClient::setup(
            &mut channel,
            &ctx.config,
            ctx.variant,
            rng,
        )?))
    }
}

impl ProviderModule for SpamProvider {
    fn wire_tag(&self) -> WireTag {
        SpamFunction::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "spam"
    }

    /// Serves `count` rounds as one exchange: the blinded dot products
    /// arrive as one frame (see [`pretzel_transport::send_rounds`]), then one
    /// Yao exchange compares them all. An empty batch exchanges no traffic.
    fn process_batch(
        &mut self,
        mut channel: &mut dyn Channel,
        count: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Option<usize>>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        // Garble only once every blob has decrypted: the count is the peer's
        // word, and a stalled or malformed round must cost no garbling.
        let inputs = recv_rounds(channel, count)?
            .iter()
            .map(|blob| self.garbler_bits_for(blob))
            .collect::<Result<Vec<_>>>()?;
        self.yao.run_batch(
            &mut channel,
            &self.circuit,
            &inputs,
            OutputMode::EvaluatorOnly,
            rng,
        )?;
        Ok(vec![None; count])
    }
}

impl ClientModule for SpamClient {
    fn wire_tag(&self) -> WireTag {
        SpamFunction::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "spam"
    }

    fn model_storage_bytes(&self) -> usize {
        SpamClient::model_storage_bytes(self)
    }

    /// Classifies every email in one exchange: all blinded dot products
    /// travel in one frame and the comparison circuits run as one Yao
    /// exchange. An empty batch exchanges no traffic.
    fn process_batch(
        &mut self,
        mut channel: &mut dyn Channel,
        payloads: &[EmailPayload],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Verdict>> {
        let emails = token_payloads("spam", payloads)?;
        if emails.is_empty() {
            return Ok(Vec::new());
        }
        let mut blobs = Vec::with_capacity(emails.len());
        let mut inputs = Vec::with_capacity(emails.len());
        for features in emails {
            let (blob, evaluator_bits) = self.blinded_round(features, rng)?;
            blobs.push(blob);
            inputs.push(evaluator_bits);
        }
        send_rounds(channel, &blobs)?;
        let outs = self.yao.run_batch(
            &mut channel,
            &self.circuit,
            &inputs,
            OutputMode::EvaluatorOnly,
        )?;
        outs.into_iter()
            .map(|out| {
                out.map(|bits| Verdict::Spam { is_spam: bits[0] })
                    .ok_or_else(|| PretzelError::Protocol("missing Yao output".into()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_classifiers::nb::GrNbTrainer;
    use pretzel_classifiers::{LabeledExample, Trainer};
    use pretzel_transport::run_two_party;

    fn example(pairs: &[(usize, u32)], label: usize) -> LabeledExample {
        LabeledExample {
            features: SparseVector::from_pairs(pairs.to_vec()),
            label,
        }
    }

    /// 8-feature training corpus: features 0–3 are spammy, 4–7 are hammy.
    fn train_model() -> LinearModel {
        let mut corpus = Vec::new();
        for i in 0..20 {
            corpus.push(example(&[(i % 4, 2), ((i + 1) % 4, 1)], 1));
            corpus.push(example(&[(4 + i % 4, 2), (4 + (i + 1) % 4, 1)], 0));
        }
        GrNbTrainer::default().train(&corpus, 8, 2)
    }

    fn run_spam_exchange(variant: AheVariant) {
        let model = train_model();
        let model_for_provider = model.clone();
        let config = PretzelConfig::test();
        let config_client = config.clone();

        let spam_email = SparseVector::from_pairs(vec![(0, 3), (1, 1), (2, 1)]);
        let ham_email = SparseVector::from_pairs(vec![(4, 2), (5, 2), (6, 1)]);
        let spam_b = spam_email.clone();
        let ham_b = ham_email.clone();

        let (provider_res, client_res) = run_two_party(
            move |chan| -> Result<()> {
                let mut rng = rand::thread_rng();
                let mut provider =
                    SpamProvider::setup(chan, &model_for_provider, &config, variant, &mut rng)?;
                provider.process_email(chan, &mut rng)?;
                provider.process_email(chan, &mut rng)?;
                Ok(())
            },
            move |chan| -> Result<(bool, bool, usize)> {
                let mut rng = rand::thread_rng();
                let mut client = SpamClient::setup(chan, &config_client, variant, &mut rng)?;
                let storage = client.model_storage_bytes();
                let spam_result = client.classify(chan, &spam_b, &mut rng)?;
                let ham_result = client.classify(chan, &ham_b, &mut rng)?;
                Ok((spam_result, ham_result, storage))
            },
        );
        provider_res.unwrap();
        let (spam_result, ham_result, storage) = client_res.unwrap();
        assert!(
            spam_result,
            "{variant:?}: spammy email must classify as spam"
        );
        assert!(!ham_result, "{variant:?}: hammy email must classify as ham");
        assert!(storage > 0);

        // The private decision must agree with a non-private classification.
        let noprivate = crate::NoPrivProvider::new(model);
        assert!(noprivate.is_spam(&spam_email));
        assert!(!noprivate.is_spam(&ham_email));
    }

    /// One batch of three must classify each email as the single rounds of
    /// `run_spam_exchange` do.
    fn run_spam_batch(variant: AheVariant) {
        let model = train_model();
        let config = PretzelConfig::test();
        let config_client = config.clone();
        let emails = [
            vec![(0, 3), (1, 1), (2, 1)],
            vec![(4, 2), (5, 2), (6, 1)],
            vec![(1, 2), (3, 2)],
        ]
        .map(|pairs| EmailPayload::Tokens(SparseVector::from_pairs(pairs)));

        let (provider_res, client_res) = run_two_party(
            move |chan| -> Result<()> {
                let mut rng = rand::thread_rng();
                let mut provider = SpamProvider::setup(chan, &model, &config, variant, &mut rng)?;
                ProviderModule::process_batch(&mut provider, chan, 3, &mut rng).map(|_| ())
            },
            move |chan| -> Result<Vec<Verdict>> {
                let mut rng = rand::thread_rng();
                let mut client = SpamClient::setup(chan, &config_client, variant, &mut rng)?;
                ClientModule::process_batch(&mut client, chan, &emails, &mut rng)
            },
        );
        provider_res.unwrap();
        assert_eq!(
            client_res.unwrap(),
            [true, false, true].map(|is_spam| Verdict::Spam { is_spam }),
            "{variant:?}: batched verdicts must match the sequential ones"
        );
    }

    /// A round whose blob carries one ciphertext too many is refused as a
    /// protocol error before the provider garbles anything.
    #[test]
    fn oversized_round_is_refused() {
        for variant in [AheVariant::Pretzel, AheVariant::Baseline] {
            let model = train_model();
            let config = PretzelConfig::test();
            let config_client = config.clone();

            let (provider_res, client_res) = run_two_party(
                move |chan| -> Result<()> {
                    let mut rng = rand::thread_rng();
                    let mut provider =
                        SpamProvider::setup(chan, &model, &config, variant, &mut rng)?;
                    provider.process_email(chan, &mut rng)
                },
                move |chan| -> Result<()> {
                    let mut rng = rand::thread_rng();
                    let client = SpamClient::setup(chan, &config_client, variant, &mut rng)?;
                    let email = SparseVector::from_pairs(vec![(0, 3), (1, 1)]);
                    let (blob, _) = client.blinded_round(&email, &mut rng)?;
                    chan.send(&[blob.clone(), blob].concat())?;
                    Ok(())
                },
            );
            client_res.unwrap();
            let err = provider_res.expect_err("two ciphertexts are not a spam round");
            assert!(
                matches!(err, PretzelError::Protocol(_)),
                "{variant:?}: {err:?}"
            );
        }
    }

    #[test]
    fn batched_classification_matches_sequential_verdicts() {
        run_spam_batch(AheVariant::Pretzel);
        run_spam_batch(AheVariant::Baseline);
    }

    #[test]
    fn pretzel_spam_end_to_end() {
        run_spam_exchange(AheVariant::Pretzel);
    }

    #[test]
    fn baseline_spam_end_to_end() {
        run_spam_exchange(AheVariant::Baseline);
    }
}
