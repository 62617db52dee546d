//! Correctness oracle: what every round must return, computed in plaintext.
//!
//! * spam / virus — the verdict of the **quantized** model (the secure
//!   protocols reproduce the quantized model exactly and the float model
//!   only approximately; cf. `tests/protocol_equivalence.rs`);
//! * topic — the index the provider learns must be the quantized argmax over
//!   the candidates the client submitted, first candidate winning ties (the
//!   circuit folds with a strict greater-than);
//! * search — every query's hit list must equal a plaintext
//!   `pretzel_search::SearchIndex` fed the same documents.
//!
//! Expectations are computed before the timed window; inside it a check is a
//! comparison.

use pretzel_classifiers::{NGramExtractor, QuantizedModel, SparseVector};
use pretzel_core::session::{EmailPayload, Verdict};
use pretzel_core::ProviderModelSuite;
use pretzel_search::SearchIndex;

use crate::workloads::Kind;

/// What the oracle expects for one payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expected {
    /// Spam verdict bit.
    Spam(bool),
    /// Virus verdict bit.
    Virus(bool),
    /// Topic rounds are checked after the run, against the provider's report
    /// ([`Oracle::topic_reference`]).
    Topic,
    /// An index upload: the provider must acknowledge at least one posting.
    SearchIndexed,
    /// A query: the exact hit list.
    SearchHits(Vec<u64>),
}

/// Plaintext reference evaluators for one provider suite.
pub struct Oracle {
    spam: QuantizedModel,
    topic: QuantizedModel,
    virus: QuantizedModel,
    extractor: NGramExtractor,
    freq_bits: u32,
}

impl Oracle {
    /// Quantizes the suite's models exactly as the protocols do.
    pub fn new(suite: &ProviderModelSuite) -> Oracle {
        let bits = suite.config.weight_bits;
        Oracle {
            spam: QuantizedModel::from_model(&suite.spam, bits),
            topic: QuantizedModel::from_model(&suite.topic, bits),
            virus: QuantizedModel::from_model(&suite.virus, bits),
            extractor: suite.virus_extractor,
            freq_bits: suite.config.freq_bits,
        }
    }

    fn predict(&self, model: &QuantizedModel, features: &SparseVector) -> usize {
        model.predict(&model.protocol_features(features, self.freq_bits))
    }

    /// Expectations for one session's payloads, in order (search payloads
    /// are replayed into a fresh plaintext index).
    pub fn expectations(&self, kind: Kind, payloads: &[EmailPayload]) -> Vec<Expected> {
        let mut index = SearchIndex::new();
        payloads
            .iter()
            .map(|payload| match (kind, payload) {
                (Kind::Spam, EmailPayload::Tokens(f)) => {
                    Expected::Spam(self.predict(&self.spam, f) == 1)
                }
                (Kind::Virus, EmailPayload::Attachment(bytes)) => {
                    Expected::Virus(self.predict(&self.virus, &self.extractor.extract(bytes)) == 1)
                }
                (Kind::Topic, EmailPayload::Tokens(_)) => Expected::Topic,
                (Kind::Search, EmailPayload::SearchIndex { doc_id, body }) => {
                    index.add_document_with_id(*doc_id, body);
                    Expected::SearchIndexed
                }
                (Kind::Search, EmailPayload::SearchQuery(keyword)) => {
                    Expected::SearchHits(index.query(keyword))
                }
                (kind, payload) => panic!("{payload:?} is not a {kind:?} payload"),
            })
            .collect()
    }

    /// The topic index the provider must learn for `features` when the
    /// client submitted `candidates` (in that order).
    pub fn topic_reference(&self, features: &SparseVector, candidates: &[usize]) -> Option<usize> {
        let scores = self
            .topic
            .scores(&self.topic.protocol_features(features, self.freq_bits));
        let mut best = *candidates.first()?;
        for &c in &candidates[1..] {
            if scores.get(c)? > scores.get(best)? {
                best = c;
            }
        }
        Some(best)
    }
}

/// Whether `verdict` is what the oracle expected. Topic verdicts pass here
/// (the client learns nothing to check) and are settled after the run.
pub fn verdict_matches(expected: &Expected, verdict: &Verdict) -> bool {
    match (expected, verdict) {
        (Expected::Spam(want), Verdict::Spam { is_spam }) => want == is_spam,
        (Expected::Virus(want), Verdict::Virus { is_malicious }) => want == is_malicious,
        (Expected::Topic, Verdict::Topic { .. }) => true,
        (Expected::SearchIndexed, Verdict::SearchIndexed { postings }) => *postings > 0,
        (Expected::SearchHits(want), Verdict::SearchHits { ids, total }) => {
            want == ids && *total == want.len() as u64
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_bench::synthetic_model;
    use pretzel_core::topic::CandidateMode;
    use pretzel_core::PretzelConfig;

    fn suite() -> ProviderModelSuite {
        ProviderModelSuite {
            spam: synthetic_model(32, 2, 1),
            topic: synthetic_model(32, 6, 2),
            topic_mode: CandidateMode::Decomposed(3),
            virus: synthetic_model(32, 2, 3),
            virus_extractor: NGramExtractor::new(3, 32),
            config: PretzelConfig::test(),
        }
    }

    #[test]
    fn an_injected_wrong_verdict_is_caught() {
        let oracle = Oracle::new(&suite());
        let email = SparseVector::from_pairs(vec![(1, 2), (5, 1), (30, 3)]);
        let payloads = [EmailPayload::Tokens(email)];
        let expected = oracle.expectations(Kind::Spam, &payloads);
        let Expected::Spam(truth) = expected[0] else {
            panic!("spam payloads expect spam verdicts");
        };
        assert!(verdict_matches(
            &expected[0],
            &Verdict::Spam { is_spam: truth }
        ));
        assert!(!verdict_matches(
            &expected[0],
            &Verdict::Spam { is_spam: !truth }
        ));
        // A verdict of the wrong shape is a mismatch too.
        assert!(!verdict_matches(
            &expected[0],
            &Verdict::Virus {
                is_malicious: truth
            }
        ));
    }

    #[test]
    fn search_expectations_follow_a_plaintext_index() {
        let oracle = Oracle::new(&suite());
        let payloads = [
            EmailPayload::SearchIndex {
                doc_id: 4,
                body: "quarterly budget".into(),
            },
            EmailPayload::SearchIndex {
                doc_id: 9,
                body: "budget review".into(),
            },
            EmailPayload::SearchQuery("budget".into()),
            EmailPayload::SearchQuery("absent".into()),
        ];
        let expected = oracle.expectations(Kind::Search, &payloads);
        assert_eq!(expected[2], Expected::SearchHits(vec![4, 9]));
        assert_eq!(expected[3], Expected::SearchHits(vec![]));
        assert!(verdict_matches(
            &expected[2],
            &Verdict::SearchHits {
                ids: vec![4, 9],
                total: 2
            }
        ));
        assert!(!verdict_matches(
            &expected[2],
            &Verdict::SearchHits {
                ids: vec![4],
                total: 1
            }
        ));
    }

    #[test]
    fn topic_reference_is_the_first_best_candidate() {
        let oracle = Oracle::new(&suite());
        let email = SparseVector::from_pairs(vec![(0, 1), (7, 2)]);
        let scores = oracle
            .topic
            .scores(&oracle.topic.protocol_features(&email, 4));
        let best = (0..6)
            .max_by_key(|&c| (scores[c], std::cmp::Reverse(c)))
            .unwrap();
        assert_eq!(
            oracle.topic_reference(&email, &[0, 1, 2, 3, 4, 5]),
            Some(best)
        );
        // Restricting the candidates restricts the answer.
        let others: Vec<usize> = (0..6).filter(|&c| c != best).collect();
        assert_ne!(oracle.topic_reference(&email, &others), Some(best));
        assert_eq!(oracle.topic_reference(&email, &[]), None);
    }
}
