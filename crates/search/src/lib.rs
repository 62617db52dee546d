//! Client-side keyword search (paper §5, Figure 15).
//!
//! Pretzel's keyword-search module is an existence proof that the provider's
//! servers are not essential for search: the client maintains a local
//! inverted index over its decrypted emails and answers queries from it. The
//! paper implements this over SQLite FTS4; we implement an in-memory inverted
//! index with the same externally visible behaviour — index size, query
//! latency and update latency are what Figure 15 reports.

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};

use pretzel_classifiers::Tokenizer;

/// Identifier assigned to an indexed email.
pub type DocId = u64;

/// A client-side inverted index over email bodies.
#[derive(Clone, Debug, Default)]
pub struct SearchIndex {
    /// term → sorted list of document ids containing the term.
    postings: BTreeMap<String, Vec<DocId>>,
    /// document id → number of distinct terms (for stats / deletion support).
    doc_terms: HashMap<DocId, usize>,
    next_id: DocId,
}

/// Summary statistics of an index (the columns of Figure 15).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of indexed documents.
    pub documents: usize,
    /// Number of distinct terms.
    pub terms: usize,
    /// Total postings entries.
    pub postings: usize,
    /// Estimated serialized size in bytes.
    pub size_bytes: usize,
}

impl SearchIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes an email body, returning its document id. This is the
    /// "update time" operation of Figure 15.
    pub fn add_document(&mut self, body: &str) -> DocId {
        let id = self.next_id;
        self.next_id += 1;
        let tokenizer = Tokenizer::new();
        let mut seen: Vec<String> = tokenizer.tokenize(body);
        seen.sort();
        seen.dedup();
        for term in &seen {
            let list = self.postings.entry(term.clone()).or_default();
            // Doc ids are assigned monotonically, so pushing keeps lists sorted.
            list.push(id);
        }
        self.doc_terms.insert(id, seen.len());
        id
    }

    /// Adds a document with an externally chosen id (used when replaying a
    /// mailbox with stable message ids). Panics if the id was already used.
    pub fn add_document_with_id(&mut self, id: DocId, body: &str) {
        assert!(
            !self.doc_terms.contains_key(&id),
            "document id {id} already indexed"
        );
        let tokenizer = Tokenizer::new();
        let mut seen: Vec<String> = tokenizer.tokenize(body);
        seen.sort();
        seen.dedup();
        for term in &seen {
            let list = self.postings.entry(term.clone()).or_default();
            match list.binary_search(&id) {
                Ok(_) => {}
                Err(pos) => list.insert(pos, id),
            }
        }
        self.doc_terms.insert(id, seen.len());
        self.next_id = self.next_id.max(id + 1);
    }

    /// Removes a document from the index.
    pub fn remove_document(&mut self, id: DocId) -> bool {
        if self.doc_terms.remove(&id).is_none() {
            return false;
        }
        for list in self.postings.values_mut() {
            if let Ok(pos) = list.binary_search(&id) {
                list.remove(pos);
            }
        }
        self.postings.retain(|_, list| !list.is_empty());
        true
    }

    /// Single-keyword query: ids of emails containing `keyword` (the
    /// "query time" operation of Figure 15).
    pub fn query(&self, keyword: &str) -> Vec<DocId> {
        self.postings
            .get(&keyword.to_lowercase())
            .cloned()
            .unwrap_or_default()
    }

    /// Conjunctive query: ids of emails containing *all* keywords.
    pub fn query_all(&self, keywords: &[&str]) -> Vec<DocId> {
        if keywords.is_empty() {
            return Vec::new();
        }
        let mut lists: Vec<&Vec<DocId>> = Vec::with_capacity(keywords.len());
        for kw in keywords {
            match self.postings.get(&kw.to_lowercase()) {
                Some(list) => lists.push(list),
                None => return Vec::new(),
            }
        }
        // Intersect starting from the shortest list.
        lists.sort_by_key(|l| l.len());
        let mut result = lists[0].clone();
        for list in &lists[1..] {
            result.retain(|id| list.binary_search(id).is_ok());
        }
        result
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.doc_terms.len()
    }

    /// True when no documents are indexed.
    pub fn is_empty(&self) -> bool {
        self.doc_terms.is_empty()
    }

    /// Index statistics (Figure 15's size column uses `size_bytes`).
    pub fn stats(&self) -> IndexStats {
        let postings: usize = self.postings.values().map(|v| v.len()).sum();
        let term_bytes: usize = self.postings.keys().map(|k| k.len()).sum();
        IndexStats {
            documents: self.doc_terms.len(),
            terms: self.postings.len(),
            postings,
            // 8 bytes per posting + term strings + per-term overhead.
            size_bytes: postings * 8 + term_bytes + self.postings.len() * 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_index() -> SearchIndex {
        let mut idx = SearchIndex::new();
        idx.add_document("quarterly budget review meeting tomorrow");
        idx.add_document("free pills discount offer budget");
        idx.add_document("meeting notes and budget discussion");
        idx
    }

    #[test]
    fn single_keyword_queries() {
        let idx = demo_index();
        assert_eq!(idx.query("budget"), vec![0, 1, 2]);
        assert_eq!(idx.query("meeting"), vec![0, 2]);
        assert_eq!(idx.query("BUDGET"), vec![0, 1, 2], "case-insensitive");
        assert!(idx.query("nonexistent").is_empty());
    }

    #[test]
    fn conjunctive_queries_intersect() {
        let idx = demo_index();
        assert_eq!(idx.query_all(&["budget", "meeting"]), vec![0, 2]);
        assert_eq!(idx.query_all(&["budget", "pills"]), vec![1]);
        assert!(idx.query_all(&["budget", "nonexistent"]).is_empty());
        assert!(idx.query_all(&[]).is_empty());
    }

    #[test]
    fn duplicate_terms_in_a_document_index_once() {
        let mut idx = SearchIndex::new();
        idx.add_document("spam spam spam eggs");
        assert_eq!(idx.query("spam"), vec![0]);
        assert_eq!(idx.stats().postings, 2);
    }

    #[test]
    fn removal_unindexes_the_document() {
        let mut idx = demo_index();
        assert!(idx.remove_document(1));
        assert_eq!(idx.query("pills"), Vec::<DocId>::new());
        assert_eq!(idx.query("budget"), vec![0, 2]);
        assert!(!idx.remove_document(1), "double remove returns false");
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn explicit_ids_are_respected() {
        let mut idx = SearchIndex::new();
        idx.add_document_with_id(42, "hello world");
        idx.add_document_with_id(7, "hello pretzel");
        assert_eq!(idx.query("hello"), vec![7, 42]);
        // Auto ids continue after the largest explicit id.
        let id = idx.add_document("another hello");
        assert_eq!(id, 43);
    }

    #[test]
    #[should_panic]
    fn duplicate_explicit_id_panics() {
        let mut idx = SearchIndex::new();
        idx.add_document_with_id(1, "a b");
        idx.add_document_with_id(1, "c d");
    }

    #[test]
    fn stats_grow_with_content() {
        let mut idx = SearchIndex::new();
        let s0 = idx.stats();
        assert_eq!(s0.documents, 0);
        idx.add_document("alpha beta gamma");
        let s1 = idx.stats();
        assert_eq!(s1.documents, 1);
        assert_eq!(s1.terms, 3);
        assert!(s1.size_bytes > s0.size_bytes);
    }

    #[test]
    fn cloned_index_preserves_queries() {
        let idx = demo_index();
        let copy = idx.clone();
        assert_eq!(copy.query("budget"), idx.query("budget"));
        assert_eq!(copy.stats(), idx.stats());
    }
}
