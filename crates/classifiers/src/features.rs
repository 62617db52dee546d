//! Tokenization, vocabulary construction and sparse feature vectors.
//!
//! The paper represents an email as a feature vector `x = (x_1, …, x_N)`
//! where `x_i` is either the presence (GR-NB spam filtering) or the frequency
//! (multinomial NB topic extraction) of feature `i` (§3.1). The mapping from
//! documents to features is deliberately simple — lowercased alphanumeric
//! words — because the protocols are agnostic to it; what matters for the
//! cost model is `N` (vocabulary size) and `L` (features per email).

use std::collections::HashMap;

/// A sparse feature vector: sorted `(feature index, count)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SparseVector {
    entries: Vec<(usize, u32)>,
}

impl SparseVector {
    /// Builds a vector from (index, count) pairs; duplicate indices are
    /// merged and zero counts dropped.
    pub fn from_pairs(mut pairs: Vec<(usize, u32)>) -> Self {
        pairs.sort_by_key(|&(i, _)| i);
        let mut entries: Vec<(usize, u32)> = Vec::with_capacity(pairs.len());
        for (i, c) in pairs {
            if c == 0 {
                continue;
            }
            match entries.last_mut() {
                Some((last_i, last_c)) if *last_i == i => *last_c += c,
                _ => entries.push((i, c)),
            }
        }
        SparseVector { entries }
    }

    /// Number of distinct features present (the paper's `L`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no features are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(feature index, count)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// Count for a specific feature (0 if absent).
    pub fn get(&self, index: usize) -> u32 {
        self.entries
            .binary_search_by_key(&index, |&(i, _)| i)
            .map(|pos| self.entries[pos].1)
            .unwrap_or(0)
    }

    /// Sum of all counts (document length under the multinomial model).
    pub fn total_count(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| c as u64).sum()
    }

    /// Converts counts to presence indicators (for Bernoulli/GR-NB).
    pub fn to_presence(&self) -> SparseVector {
        SparseVector {
            entries: self.entries.iter().map(|&(i, _)| (i, 1)).collect(),
        }
    }

    /// Caps each count at `max` (the paper's `f_in`-bit frequencies, §4.2).
    pub fn clamp_counts(&self, max: u32) -> SparseVector {
        SparseVector {
            entries: self.entries.iter().map(|&(i, c)| (i, c.min(max))).collect(),
        }
    }

    /// Keeps only features present in the remapping table, renumbering them
    /// (used after feature selection).
    pub fn remap(&self, mapping: &HashMap<usize, usize>) -> SparseVector {
        SparseVector::from_pairs(
            self.entries
                .iter()
                .filter_map(|&(i, c)| mapping.get(&i).map(|&new_i| (new_i, c)))
                .collect(),
        )
    }
}

/// Lowercasing alphanumeric tokenizer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tokenizer {
    /// Minimum token length (shorter tokens are dropped).
    pub min_len: usize,
}

impl Tokenizer {
    /// Tokenizer with the default minimum token length of 2.
    pub fn new() -> Self {
        Tokenizer { min_len: 2 }
    }

    /// Splits text into lowercase alphanumeric tokens.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|t| t.len() >= self.min_len)
            .map(|t| t.to_lowercase())
            .collect()
    }
}

/// A term → feature-index vocabulary.
#[derive(Clone, Debug, Default)]
pub struct Vocabulary {
    index: HashMap<String, usize>,
    terms: Vec<String>,
}

impl Vocabulary {
    /// Empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of known terms (the paper's N, before feature selection).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Index of a term, if known.
    pub fn get(&self, term: &str) -> Option<usize> {
        self.index.get(term).copied()
    }

    /// Term for an index.
    pub fn term(&self, index: usize) -> Option<&str> {
        self.terms.get(index).map(|s| s.as_str())
    }

    /// Adds a term (or returns its existing index).
    pub fn add(&mut self, term: &str) -> usize {
        if let Some(&i) = self.index.get(term) {
            return i;
        }
        let i = self.terms.len();
        self.terms.push(term.to_string());
        self.index.insert(term.to_string(), i);
        i
    }

    /// Builds a vocabulary from a corpus of documents.
    pub fn build(tokenizer: &Tokenizer, documents: &[&str]) -> Self {
        let mut vocab = Vocabulary::new();
        for doc in documents {
            for token in tokenizer.tokenize(doc) {
                vocab.add(&token);
            }
        }
        vocab
    }

    /// Converts a document into a count feature vector, ignoring unknown
    /// terms (frozen-vocabulary mode, the usual test-time behaviour).
    pub fn vectorize(&self, tokenizer: &Tokenizer, text: &str) -> SparseVector {
        let mut counts: HashMap<usize, u32> = HashMap::new();
        for token in tokenizer.tokenize(text) {
            if let Some(idx) = self.get(&token) {
                *counts.entry(idx).or_insert(0) += 1;
            }
        }
        SparseVector::from_pairs(counts.into_iter().collect())
    }

    /// Converts a document into a count vector, adding unknown terms to the
    /// vocabulary (training-time behaviour).
    pub fn vectorize_and_grow(&mut self, tokenizer: &Tokenizer, text: &str) -> SparseVector {
        let mut counts: HashMap<usize, u32> = HashMap::new();
        for token in tokenizer.tokenize(text) {
            let idx = self.add(&token);
            *counts.entry(idx).or_insert(0) += 1;
        }
        SparseVector::from_pairs(counts.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_vector_merges_and_sorts() {
        let v = SparseVector::from_pairs(vec![(5, 2), (1, 1), (5, 3), (9, 0)]);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![(1, 1), (5, 5)]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(5), 5);
        assert_eq!(v.get(9), 0);
        assert_eq!(v.total_count(), 6);
    }

    #[test]
    fn presence_and_clamping() {
        let v = SparseVector::from_pairs(vec![(0, 7), (3, 1)]);
        assert_eq!(
            v.to_presence().iter().collect::<Vec<_>>(),
            vec![(0, 1), (3, 1)]
        );
        assert_eq!(v.clamp_counts(3).get(0), 3);
        assert_eq!(v.clamp_counts(3).get(3), 1);
    }

    #[test]
    fn remap_filters_and_renumbers() {
        let v = SparseVector::from_pairs(vec![(0, 1), (5, 2), (9, 3)]);
        let mapping: HashMap<usize, usize> = [(5, 0), (9, 1)].into_iter().collect();
        let r = v.remap(&mapping);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn tokenizer_lowercases_and_filters() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize("Hello, WORLD! A b2b offer: FREE $$$ v1agra"),
            vec!["hello", "world", "b2b", "offer", "free", "v1agra"]
        );
        assert!(t.tokenize("!!! ??? ...").is_empty());
    }

    #[test]
    fn vocabulary_growth_and_freezing() {
        let t = Tokenizer::new();
        let mut vocab = Vocabulary::new();
        let v1 = vocab.vectorize_and_grow(&t, "buy cheap pills cheap");
        assert_eq!(vocab.len(), 3);
        assert_eq!(v1.get(vocab.get("cheap").unwrap()), 2);

        // Frozen vectorization ignores unknown words.
        let v2 = vocab.vectorize(&t, "cheap unknown word");
        assert_eq!(v2.len(), 1);
        assert_eq!(v2.get(vocab.get("cheap").unwrap()), 1);
    }

    #[test]
    fn vocabulary_term_roundtrip() {
        let mut vocab = Vocabulary::new();
        let i = vocab.add("pretzel");
        assert_eq!(vocab.term(i), Some("pretzel"));
        assert_eq!(vocab.get("pretzel"), Some(i));
        assert_eq!(vocab.add("pretzel"), i, "adding twice keeps the index");
    }

    #[test]
    fn build_from_corpus() {
        let t = Tokenizer::new();
        let vocab = Vocabulary::build(&t, &["spam offer free", "meeting notes agenda"]);
        assert_eq!(vocab.len(), 6);
        let v = vocab.vectorize(&t, "free meeting");
        assert_eq!(v.len(), 2);
    }
}
