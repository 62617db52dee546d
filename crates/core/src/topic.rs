//! Private topic extraction with decomposed classification (paper §4.3,
//! Figure 5, Figures 10–14).
//!
//! Roles are the mirror image of spam filtering: the **provider** obtains the
//! output (one topic index per email, Guarantee 3 of §4.4) and the client's
//! email — and even which candidate topics were considered — stays hidden.
//! Consequently the *client* garbles the argmax circuit and the *provider*
//! evaluates it, which is also what gives the client the paper's
//! plausible-deniability opt-out (§4.4 "Integrity").
//!
//! Decomposed classification (§4.3): the client first runs a public,
//! non-proprietary candidate model locally to map the email to B′ candidate
//! topics, then the secure protocol picks the best candidate using the
//! provider's proprietary model. Setting `candidates = None` disables the
//! decomposition (the "Pretzel (B′=B)" and Baseline configurations of
//! Figures 10 and 11).

use std::sync::Arc;

use rand::{Rng, RngCore};

use pretzel_classifiers::{LinearModel, SparseVector};
use pretzel_gc::{
    from_bits, to_bits, topic_argmax_circuit, Circuit, OutputMode, PrecomputedGarbling,
    YaoEvaluator, YaoGarbler,
};
use pretzel_transport::{recv_rounds, send_rounds, Channel};

use crate::ahe::{AheClient, AheProvider};
use crate::bank::{PrecomputeSource, Stock};
use crate::config::PretzelConfig;
use crate::registry::{ClientContext, ClientModule, FunctionModule, ProviderModule, WireTag};
use crate::session::{
    client_round, provider_round, token_payloads, EmailPayload, ProviderModelSuite, Verdict,
};
use crate::spam::AheVariant;
use crate::{PretzelError, Result};

/// How many candidates the client prunes to before the secure step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateMode {
    /// Decomposed classification with B′ candidates (§4.3).
    Decomposed(usize),
    /// No decomposition: the secure argmax ranges over all B topics.
    Full,
}

impl CandidateMode {
    fn count(&self, categories: usize) -> usize {
        match self {
            CandidateMode::Decomposed(b_prime) => (*b_prime).min(categories),
            CandidateMode::Full => categories,
        }
    }
}

/// Provider endpoint of the topic-extraction module.
pub struct TopicProvider {
    ahe: AheProvider,
    yao: YaoEvaluator,
    circuit: Circuit,
    index_width: usize,
    candidates: usize,
}

/// Client endpoint of the topic-extraction module.
pub struct TopicClient {
    ahe: AheClient,
    yao: YaoGarbler,
    circuit: Circuit,
    index_width: usize,
    mode: CandidateMode,
    candidates: usize,
    /// Public, non-proprietary candidate model (required for decomposition).
    candidate_model: Option<LinearModel>,
    /// Argmax circuits garbled in the offline phase (the client garbles in
    /// this module — roles are mirrored vs. spam).
    ready: Stock<PrecomputedGarbling>,
}

impl TopicProvider {
    /// Setup phase, provider side: ship the encrypted proprietary topic model
    /// and establish the Yao session (as evaluator — the client garbles).
    ///
    pub fn setup<C: Channel, R: Rng + ?Sized>(
        channel: &mut C,
        model: &LinearModel,
        config: &PretzelConfig,
        variant: AheVariant,
        mode: CandidateMode,
        rng: &mut R,
    ) -> Result<Self> {
        let (ahe, seed) = AheProvider::setup(channel, model, config, variant, rng)?;
        let candidates = mode.count(ahe.cols);
        let index_width = index_width_for(ahe.cols);

        let group = config.ot_group(&seed);
        let yao = YaoEvaluator::setup(channel, &group, rng)?;
        Ok(TopicProvider {
            circuit: topic_argmax_circuit(candidates, ahe.width, index_width),
            ahe,
            yao,
            index_width,
            candidates,
        })
    }

    /// Number of output bits the provider learns per processed email — the
    /// bound of Guarantee 3 (§4.4): at most `log B` bits, where `B` is the
    /// number of categories in the model.
    pub fn output_bits_per_email(&self) -> usize {
        self.index_width
    }

    /// Per-email phase, provider side — a batch of one: decrypts the blinded
    /// candidate dot products and evaluates the client-garbled argmax
    /// circuit, learning the chosen topic index (at most log B bits,
    /// Guarantee 3).
    pub fn process_email<C: Channel, R: Rng + ?Sized>(
        &mut self,
        channel: &mut C,
        rng: &mut R,
    ) -> Result<usize> {
        provider_round(self, channel, rng)?
            .ok_or_else(|| PretzelError::Protocol("missing Yao output".into()))
    }

    /// Decrypts one round's blinded candidate values into evaluator bits.
    fn evaluator_bits_for(&self, blob: &[u8]) -> Result<Vec<bool>> {
        let blinded = self.ahe.decrypt_blinded(blob, Some(self.candidates))?;
        let width = self.ahe.width;
        let mut evaluator_bits = Vec::with_capacity(self.candidates * width);
        for &v in blinded.iter().take(self.candidates) {
            evaluator_bits.extend(to_bits(v, width));
        }
        Ok(evaluator_bits)
    }
}

impl TopicClient {
    /// Setup phase, client side. `candidate_model` is the public,
    /// non-proprietary classifier used for the local pruning step; it is
    /// required when `mode` is [`CandidateMode::Decomposed`].
    pub fn setup<C: Channel, R: Rng + ?Sized>(
        channel: &mut C,
        config: &PretzelConfig,
        variant: AheVariant,
        mode: CandidateMode,
        candidate_model: Option<LinearModel>,
        rng: &mut R,
    ) -> Result<Self> {
        if matches!(mode, CandidateMode::Decomposed(_)) && candidate_model.is_none() {
            return Err(PretzelError::Protocol(
                "decomposed classification requires a candidate model".into(),
            ));
        }
        let (ahe, seed) = AheClient::setup(channel, config, variant, None, rng)?;
        let candidates = mode.count(ahe.cols);
        let index_width = index_width_for(ahe.cols);
        let yao = YaoGarbler::setup(channel, &config.ot_group(&seed), rng)?;
        Ok(TopicClient {
            circuit: topic_argmax_circuit(candidates, ahe.width, index_width),
            ahe,
            yao,
            index_width,
            mode,
            candidates,
            candidate_model,
            ready: Stock::default(),
        })
    }

    /// Offline phase, client side: pre-garbles argmax circuits (the client
    /// is the garbler here) and, for the Baseline variant, precomputes the
    /// Paillier randomizers `target` future rounds will consume. Returns the
    /// number of work units (circuits + randomizers) produced.
    pub fn precompute<R: Rng + ?Sized>(&mut self, target: usize, rng: &mut R) -> usize {
        let garbled = self
            .ready
            .refill(target, || PrecomputedGarbling::garble(&self.circuit, rng));
        garbled + self.ahe.precompute(target, rng)
    }

    /// Client-side storage consumed by the encrypted model (Figure 12).
    pub fn model_storage_bytes(&self) -> usize {
        self.ahe.model_storage_bytes()
    }

    /// The candidate topics the client would submit for an email — exposed
    /// for the Figure 14 analysis and tests.
    pub fn candidate_topics(&self, features: &SparseVector) -> Vec<usize> {
        match (&self.mode, &self.candidate_model) {
            (CandidateMode::Decomposed(_), Some(model)) => model.top_k(features, self.candidates),
            _ => (0..self.ahe.cols).collect(),
        }
    }

    /// One round's garbled argmax circuit: stocked by the offline phase, or
    /// garbled inline when the stock is dry.
    fn draw_garbling<R: Rng + ?Sized>(&mut self, rng: &mut R) -> PrecomputedGarbling {
        self.ready
            .draw()
            .unwrap_or_else(|| PrecomputedGarbling::garble(&self.circuit, rng))
    }

    /// Per-email phase, client side — a batch of one: runs the secure topic
    /// extraction for one decrypted email. The client learns nothing; the
    /// provider learns the selected topic index. Returns the candidate set
    /// that was submitted (useful for tests and diagnostics — it is local
    /// information the client already knows).
    pub fn extract<C: Channel, R: Rng + ?Sized>(
        &mut self,
        channel: &mut C,
        features: &SparseVector,
        rng: &mut R,
    ) -> Result<Vec<usize>> {
        let email = EmailPayload::Tokens(features.clone());
        let verdict = client_round(self, channel, &email, rng)?;
        let Verdict::Topic { candidates } = verdict else {
            unreachable!("a topic round yields a topic verdict, got {verdict:?}")
        };
        Ok(candidates)
    }

    /// Computes one email's blinded candidate accumulators, the candidate
    /// set, and the matching garbler input bits, without touching the
    /// channel.
    #[allow(clippy::type_complexity)]
    fn blinded_round<R: Rng + ?Sized>(
        &mut self,
        features: &SparseVector,
        rng: &mut R,
    ) -> Result<(Vec<u8>, Vec<usize>, Vec<bool>)> {
        let candidate_cols = self.candidate_topics(features);
        // Decomposed: only the candidates' dot products travel, one value
        // each. Full: every column travels, and candidate j is column j.
        let extracted = match self.mode {
            CandidateMode::Decomposed(_) => Some(candidate_cols.as_slice()),
            CandidateMode::Full => None,
        };
        let (blob, noises) = self.ahe.blinded_round(features, extracted, rng)?;

        // Garbler inputs: candidate indices, then per-candidate noises.
        let width = self.ahe.width;
        let mut garbler_bits = Vec::with_capacity(self.candidates * (self.index_width + width));
        for &col in &candidate_cols {
            garbler_bits.extend(to_bits(col as u64, self.index_width));
        }
        for noise in &noises[..candidate_cols.len()] {
            garbler_bits.extend(to_bits(*noise, width));
        }
        Ok((blob, candidate_cols, garbler_bits))
    }
}

/// Bit width needed to represent a topic index in `0..categories`.
pub fn index_width_for(categories: usize) -> usize {
    (usize::BITS - (categories.max(2) - 1).leading_zeros()) as usize
}

/// Offline helper for Figure 14: the fraction of `test` documents whose
/// reference label (per `reference_model`) appears among the top-B′
/// candidates of `candidate_model`.
pub fn candidate_hit_rate(
    candidate_model: &LinearModel,
    reference_model: &LinearModel,
    test: &[pretzel_classifiers::LabeledExample],
    b_prime: usize,
) -> f64 {
    if test.is_empty() {
        return 0.0;
    }
    let hits = test
        .iter()
        .filter(|ex| {
            let reference = reference_model.predict(&ex.features);
            candidate_model
                .top_k(&ex.features, b_prime)
                .contains(&reference)
        })
        .count();
    hits as f64 / test.len() as f64
}

/// The registrable topic-extraction function module (wire tag 2).
pub struct TopicFunction;

impl TopicFunction {
    /// Handshake byte of the topic module.
    pub const WIRE_TAG: WireTag = 2;
}

impl FunctionModule for TopicFunction {
    fn wire_tag(&self) -> WireTag {
        Self::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "topic"
    }

    fn provider_setup(
        &self,
        mut channel: &mut dyn Channel,
        suite: &ProviderModelSuite,
        variant: AheVariant,
        _source: &Arc<dyn PrecomputeSource>,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ProviderModule>> {
        Ok(Box::new(TopicProvider::setup(
            &mut channel,
            &suite.topic,
            &suite.config,
            variant,
            suite.topic_mode,
            rng,
        )?))
    }

    fn client_setup(
        &self,
        mut channel: &mut dyn Channel,
        ctx: &ClientContext,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ClientModule>> {
        Ok(Box::new(TopicClient::setup(
            &mut channel,
            &ctx.config,
            ctx.variant,
            ctx.topic_mode,
            ctx.candidate_model.clone(),
            rng,
        )?))
    }
}

impl ProviderModule for TopicProvider {
    fn wire_tag(&self) -> WireTag {
        TopicFunction::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "topic"
    }

    /// Serves `count` extraction rounds as one exchange: the blinded
    /// candidate accumulators arrive as one frame, then one Yao evaluation
    /// yields every round's topic index. An empty batch exchanges no traffic.
    fn process_batch(
        &mut self,
        mut channel: &mut dyn Channel,
        count: usize,
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<Option<usize>>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let inputs = recv_rounds(channel, count)?
            .iter()
            .map(|blob| self.evaluator_bits_for(blob))
            .collect::<Result<Vec<_>>>()?;
        let outs = self.yao.run_batch(
            &mut channel,
            &self.circuit,
            &inputs,
            OutputMode::EvaluatorOnly,
        )?;
        outs.into_iter()
            .map(|out| {
                out.map(|bits| Some(from_bits(&bits) as usize))
                    .ok_or_else(|| PretzelError::Protocol("missing Yao output".into()))
            })
            .collect()
    }
}

impl ClientModule for TopicClient {
    fn wire_tag(&self) -> WireTag {
        TopicFunction::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "topic"
    }

    fn model_storage_bytes(&self) -> usize {
        TopicClient::model_storage_bytes(self)
    }

    fn precompute(&mut self, budget: usize, rng: &mut dyn RngCore) -> usize {
        TopicClient::precompute(self, budget, rng)
    }

    /// Runs one extraction round per email as one exchange: every blinded
    /// accumulator travels in one frame and the argmax circuits run as one
    /// Yao exchange. Each verdict is that email's submitted candidate set.
    /// An empty batch exchanges no traffic.
    fn process_batch(
        &mut self,
        mut channel: &mut dyn Channel,
        payloads: &[EmailPayload],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Verdict>> {
        let emails = token_payloads("topic", payloads)?;
        if emails.is_empty() {
            return Ok(Vec::new());
        }
        let mut blobs = Vec::with_capacity(emails.len());
        let mut verdicts = Vec::with_capacity(emails.len());
        let mut inputs = Vec::with_capacity(emails.len());
        for features in emails {
            let (blob, candidates, garbler_bits) = self.blinded_round(features, rng)?;
            blobs.push(blob);
            verdicts.push(Verdict::Topic { candidates });
            inputs.push(garbler_bits);
        }
        send_rounds(channel, &blobs)?;
        let pres = (0..inputs.len()).map(|_| self.draw_garbling(rng)).collect();
        self.yao.run_batch(
            &mut channel,
            &self.circuit,
            pres,
            &inputs,
            OutputMode::EvaluatorOnly,
        )?;
        Ok(verdicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_classifiers::nb::MultinomialNbTrainer;
    use pretzel_classifiers::{LabeledExample, Trainer};
    use pretzel_transport::run_two_party;

    fn example(pairs: &[(usize, u32)], label: usize) -> LabeledExample {
        LabeledExample {
            features: SparseVector::from_pairs(pairs.to_vec()),
            label,
        }
    }

    /// Six topics over 24 features; topic t owns features 4t..4t+4.
    fn topic_corpus() -> Vec<LabeledExample> {
        let mut corpus = Vec::new();
        for round in 0..10u32 {
            for topic in 0..6usize {
                let base = topic * 4;
                corpus.push(example(
                    &[
                        (base, 2 + round % 2),
                        (base + 1, 1),
                        (base + 2 + (round as usize % 2), 1),
                    ],
                    topic,
                ));
            }
        }
        corpus
    }

    fn run_topic_exchange(variant: AheVariant, mode: CandidateMode) {
        let corpus = topic_corpus();
        let model = MultinomialNbTrainer::default().train(&corpus, 24, 6);
        // The public candidate model is trained on a small subset (as §4.3
        // envisions); here the first third of the corpus.
        let candidate_model =
            MultinomialNbTrainer::default().train(&corpus[..corpus.len() / 3], 24, 6);
        let provider_model = model.clone();
        let config = PretzelConfig::test();
        let config_client = config.clone();

        // Emails clearly about topic 2 and topic 5.
        let email_t2 = SparseVector::from_pairs(vec![(8, 3), (9, 2), (10, 1)]);
        let email_t5 = SparseVector::from_pairs(vec![(20, 2), (21, 2), (23, 1)]);
        let email_t2_b = email_t2.clone();
        let email_t5_b = email_t5.clone();

        let (provider_res, client_res) = run_two_party(
            move |chan| -> Result<Vec<usize>> {
                let mut rng = rand::thread_rng();
                let mut provider =
                    TopicProvider::setup(chan, &provider_model, &config, variant, mode, &mut rng)?;
                let t1 = provider.process_email(chan, &mut rng)?;
                let t2 = provider.process_email(chan, &mut rng)?;
                Ok(vec![t1, t2])
            },
            move |chan| -> Result<(Vec<usize>, Vec<usize>)> {
                let mut rng = rand::thread_rng();
                let mut client = TopicClient::setup(
                    chan,
                    &config_client,
                    variant,
                    mode,
                    Some(candidate_model),
                    &mut rng,
                )?;
                let c1 = client.extract(chan, &email_t2_b, &mut rng)?;
                let c2 = client.extract(chan, &email_t5_b, &mut rng)?;
                Ok((c1, c2))
            },
        );
        let topics = provider_res.unwrap();
        let (cands1, cands2) = client_res.unwrap();
        assert_eq!(topics[0], 2, "{variant:?} {mode:?}: topic of email 1");
        assert_eq!(topics[1], 5, "{variant:?} {mode:?}: topic of email 2");
        // The provider's answer must be among the candidates the client sent.
        assert!(cands1.contains(&topics[0]));
        assert!(cands2.contains(&topics[1]));

        // Cross-check against the non-private reference.
        let noprivate = crate::NoPrivProvider::new(model);
        assert_eq!(noprivate.classify(&email_t2), 2);
        assert_eq!(noprivate.classify(&email_t5), 5);
    }

    #[test]
    fn pretzel_decomposed_topic_extraction() {
        run_topic_exchange(AheVariant::Pretzel, CandidateMode::Decomposed(3));
    }

    /// The offline circuit stock lives client-side in this module; warming it
    /// must not change the topic the provider learns.
    #[test]
    fn precomputed_topic_extraction_matches_inline() {
        let corpus = topic_corpus();
        let model = MultinomialNbTrainer::default().train(&corpus, 24, 6);
        let provider_model = model.clone();
        let config = PretzelConfig::test();
        let config_client = config.clone();
        let email = SparseVector::from_pairs(vec![(8, 3), (9, 2), (10, 1)]);

        let (provider_res, client_res) = run_two_party(
            move |chan| -> Result<Vec<usize>> {
                let mut rng = rand::thread_rng();
                let mut provider = TopicProvider::setup(
                    chan,
                    &provider_model,
                    &config,
                    AheVariant::Baseline,
                    CandidateMode::Full,
                    &mut rng,
                )?;
                let t1 = provider.process_email(chan, &mut rng)?;
                let t2 = provider.process_email(chan, &mut rng)?;
                Ok(vec![t1, t2])
            },
            move |chan| -> Result<()> {
                let mut rng = rand::thread_rng();
                let mut client = TopicClient::setup(
                    chan,
                    &config_client,
                    AheVariant::Baseline,
                    CandidateMode::Full,
                    None,
                    &mut rng,
                )?;
                // Stock one round's worth: round 1 draws it, round 2 finds
                // the stock dry and computes inline.
                let one_round = client.precompute(1, &mut rng);
                assert!(one_round > 0);
                assert_eq!(client.precompute(1, &mut rng), 0, "already stocked");
                client.extract(chan, &email, &mut rng)?;
                client.extract(chan, &email, &mut rng)?;
                assert_eq!(
                    client.precompute(1, &mut rng),
                    one_round,
                    "the rounds drained the stock"
                );
                Ok(())
            },
        );
        client_res.unwrap();
        assert_eq!(provider_res.unwrap(), vec![2, 2]);
    }

    #[test]
    fn pretzel_full_topic_extraction() {
        run_topic_exchange(AheVariant::Pretzel, CandidateMode::Full);
    }

    #[test]
    fn baseline_full_topic_extraction() {
        run_topic_exchange(AheVariant::Baseline, CandidateMode::Full);
    }

    /// A batch of three must hand the provider the topic indices the single
    /// rounds of `run_topic_exchange` do, with the client's circuit stock
    /// only partially covering the batch.
    #[test]
    fn batched_extraction_matches_sequential_topics() {
        let corpus = topic_corpus();
        let model = MultinomialNbTrainer::default().train(&corpus, 24, 6);
        let provider_model = model.clone();
        let config = PretzelConfig::test();
        let config_client = config.clone();
        let emails = [
            vec![(8, 3), (9, 2), (10, 1)],
            vec![(20, 2), (21, 2), (23, 1)],
            vec![(0, 2), (1, 1), (2, 1)],
        ]
        .map(|pairs| EmailPayload::Tokens(SparseVector::from_pairs(pairs)));

        let (provider_res, client_res) = run_two_party(
            move |chan| -> Result<Vec<Option<usize>>> {
                let mut rng = rand::thread_rng();
                let mut provider = TopicProvider::setup(
                    chan,
                    &provider_model,
                    &config,
                    AheVariant::Pretzel,
                    CandidateMode::Full,
                    &mut rng,
                )?;
                ProviderModule::process_batch(&mut provider, chan, 3, &mut rng)
            },
            move |chan| -> Result<Vec<Verdict>> {
                let mut rng = rand::thread_rng();
                let mut client = TopicClient::setup(
                    chan,
                    &config_client,
                    AheVariant::Pretzel,
                    CandidateMode::Full,
                    None,
                    &mut rng,
                )?;
                assert_eq!(client.precompute(1, &mut rng), 1, "one garbling");
                let out = ClientModule::process_batch(&mut client, chan, &emails, &mut rng)?;
                assert_eq!(
                    client.precompute(1, &mut rng),
                    1,
                    "the batch drained the stock"
                );
                Ok(out)
            },
        );
        let topics = provider_res.unwrap();
        assert_eq!(topics, [Some(2), Some(5), Some(0)]);
        for (topic, verdict) in topics.iter().flatten().zip(client_res.unwrap()) {
            let Verdict::Topic { candidates } = verdict else {
                panic!("expected a topic verdict, got {verdict:?}");
            };
            assert!(candidates.contains(topic));
        }
    }

    #[test]
    fn index_width_covers_the_category_space() {
        assert_eq!(index_width_for(2), 1);
        assert_eq!(index_width_for(128), 7);
        assert_eq!(index_width_for(129), 8);
        assert_eq!(index_width_for(2048), 11);
        assert_eq!(index_width_for(2208), 12);
    }

    #[test]
    fn candidate_hit_rate_improves_with_more_candidates() {
        let corpus = topic_corpus();
        let full = MultinomialNbTrainer::default().train(&corpus, 24, 6);
        let weak = MultinomialNbTrainer::default().train(&corpus[..12], 24, 6);
        let r1 = candidate_hit_rate(&weak, &full, &corpus, 1);
        let r3 = candidate_hit_rate(&weak, &full, &corpus, 3);
        let r6 = candidate_hit_rate(&weak, &full, &corpus, 6);
        assert!(r1 <= r3 && r3 <= r6);
        assert!(
            (r6 - 1.0).abs() < 1e-9,
            "B'=B always contains the reference topic"
        );
    }
}
