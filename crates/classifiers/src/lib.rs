//! Linear classifiers for Pretzel's function modules (paper §3.1).
//!
//! Pretzel is geared to linear classifiers: Graham–Robinson Naive Bayes and
//! multinomial Naive Bayes, binary and multinomial logistic regression, and
//! two-class / one-vs-all linear SVMs. When *applying* a trained model they
//! all reduce to the same shape — a dot product between a feature vector and
//! per-category weight columns plus a bias (expressions (1) and (2)) — which
//! is exactly what the secure dot-product protocol computes.
//!
//! The crate provides:
//!
//! * [`features`] — tokenization, vocabulary construction, sparse feature
//!   vectors (presence for GR-NB, counts for the multinomial models).
//! * [`nb`] — Graham–Robinson NB (spam), the original Graham variant, and
//!   multinomial NB (topics).
//! * [`lr`] — binary and multinomial logistic regression trained with SGD.
//! * [`svm`] — linear SVM trained with Pegasos, two-class and one-vs-all.
//! * [`select`] — chi-square feature selection (§4.3 / Figure 13).
//! * [`quantize`] — fixed-point quantization of trained models into the
//!   non-negative integer matrices the AHE protocols operate on (§4.2's
//!   `b_in`-bit model parameters).
//! * [`metrics`] — accuracy / precision / recall (Figure 9, 13, 14).

pub mod features;
pub mod lr;
pub mod metrics;
pub mod nb;
pub mod ngrams;
pub mod quantize;
pub mod select;
pub mod svm;

pub use features::{SparseVector, Tokenizer, Vocabulary};
pub use metrics::{accuracy, confusion_binary, precision_recall, BinaryConfusion};
pub use ngrams::NGramExtractor;
pub use quantize::QuantizedModel;

/// A labeled training/testing example: sparse features plus a class label.
#[derive(Clone, Debug)]
pub struct LabeledExample {
    /// Sparse feature vector.
    pub features: SparseVector,
    /// Class label in `0..num_classes`.
    pub label: usize,
}

/// A trained linear model: one weight column and one bias per class.
///
/// `score_j(x) = Σ_i x_i · weights[j][i] + bias[j]`, prediction = argmax_j.
/// For binary models class 1 is the "positive" class (spam).
#[derive(Clone, Debug)]
pub struct LinearModel {
    /// `weights[class][feature]`.
    pub weights: Vec<Vec<f64>>,
    /// Per-class bias terms.
    pub bias: Vec<f64>,
}

impl LinearModel {
    /// Number of classes (the paper's B).
    pub fn num_classes(&self) -> usize {
        self.weights.len()
    }

    /// Number of features (the paper's N).
    pub fn num_features(&self) -> usize {
        self.weights.first().map_or(0, |w| w.len())
    }

    /// Raw per-class scores for a sparse feature vector.
    pub fn scores(&self, x: &SparseVector) -> Vec<f64> {
        self.weights
            .iter()
            .zip(self.bias.iter())
            .map(|(w, &b)| {
                x.iter()
                    .map(|(idx, count)| w.get(idx).copied().unwrap_or(0.0) * count as f64)
                    .sum::<f64>()
                    + b
            })
            .collect()
    }

    /// Predicted class = argmax of the scores.
    ///
    /// Ties break toward the lowest class index, the same convention the Yao
    /// comparison/argmax circuits and [`crate::QuantizedModel::predict`] use.
    pub fn predict(&self, x: &SparseVector) -> usize {
        let scores = self.scores(x);
        let mut best = 0usize;
        for (i, &s) in scores.iter().enumerate().skip(1) {
            if s > scores[best] {
                best = i;
            }
        }
        best
    }

    /// Restricted argmax over a candidate subset of classes (used by the
    /// decomposed-classification client step, §4.3). Returns the *global*
    /// class index of the best candidate. Ties break toward the earliest
    /// candidate in `candidates`, matching the argmax circuit.
    pub fn predict_among(&self, x: &SparseVector, candidates: &[usize]) -> usize {
        let scores = self.scores(x);
        let mut iter = candidates.iter().copied();
        let Some(mut best) = iter.next() else {
            return 0;
        };
        for c in iter {
            if scores[c] > scores[best] {
                best = c;
            }
        }
        best
    }

    /// The top-k classes by score, best first (the client's candidate-topic
    /// selection, §4.3 step (i)).
    pub fn top_k(&self, x: &SparseVector, k: usize) -> Vec<usize> {
        let scores = self.scores(x);
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order.truncate(k);
        order
    }

    /// Restricts the model to a subset of features (after feature selection):
    /// feature `kept[i]` of the original model becomes feature `i`.
    pub fn restrict_features(&self, kept: &[usize]) -> LinearModel {
        LinearModel {
            weights: self
                .weights
                .iter()
                .map(|w| kept.iter().map(|&i| w[i]).collect())
                .collect(),
            bias: self.bias.clone(),
        }
    }
}

/// Trait implemented by every trainer in this crate so harnesses can sweep
/// over algorithms uniformly (the rows of Figures 9 and 13).
pub trait Trainer {
    /// Human-readable name used in experiment output ("GR-NB", "LR", "SVM").
    fn name(&self) -> &'static str;
    /// Trains a linear model on labeled examples with `num_features` features
    /// and `num_classes` classes.
    fn train(
        &self,
        examples: &[LabeledExample],
        num_features: usize,
        num_classes: usize,
    ) -> LinearModel;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(pairs: &[(usize, u32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec())
    }

    fn toy_model() -> LinearModel {
        LinearModel {
            weights: vec![vec![1.0, 0.0, -1.0], vec![0.0, 2.0, 0.5]],
            bias: vec![0.5, -0.5],
        }
    }

    #[test]
    fn scores_and_predict() {
        let m = toy_model();
        let x = vec_of(&[(0, 2), (2, 1)]);
        let s = m.scores(&x);
        assert!((s[0] - (2.0 - 1.0 + 0.5)).abs() < 1e-9);
        assert!((s[1] - (0.5 - 0.5)).abs() < 1e-9);
        assert_eq!(m.predict(&x), 0);
    }

    #[test]
    fn predict_among_restricts_to_candidates() {
        let m = LinearModel {
            weights: vec![vec![1.0], vec![5.0], vec![3.0]],
            bias: vec![0.0; 3],
        };
        let x = vec_of(&[(0, 1)]);
        assert_eq!(m.predict(&x), 1);
        assert_eq!(m.predict_among(&x, &[0, 2]), 2);
    }

    #[test]
    fn top_k_orders_by_score() {
        let m = LinearModel {
            weights: vec![vec![1.0], vec![5.0], vec![3.0], vec![4.0]],
            bias: vec![0.0; 4],
        };
        let x = vec_of(&[(0, 1)]);
        assert_eq!(m.top_k(&x, 2), vec![1, 3]);
        assert_eq!(m.top_k(&x, 10), vec![1, 3, 2, 0]);
    }

    #[test]
    fn restrict_features_remaps_weights() {
        let m = toy_model();
        let r = m.restrict_features(&[2, 0]);
        assert_eq!(r.num_features(), 2);
        assert_eq!(r.weights[0], vec![-1.0, 1.0]);
        assert_eq!(r.weights[1], vec![0.5, 0.0]);
    }

    #[test]
    fn unknown_feature_indices_are_ignored_in_scoring() {
        let m = toy_model();
        let x = vec_of(&[(100, 3)]);
        let s = m.scores(&x);
        assert_eq!(s, vec![0.5, -0.5]);
    }
}
