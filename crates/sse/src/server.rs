//! Provider-side store of the SSE scheme: an opaque label → ciphertext map.

use std::collections::BTreeMap;

use crate::client::posting_label;
use crate::{SealedPosting, UpdateBatch};

/// Bytes of a label the index keeps. Labels are PRF outputs, so 128 bits
/// keep them collision-free at any mailbox size while halving the key
/// memory.
const STORED_LABEL_LEN: usize = 16;

/// The stored form of a label: its first [`STORED_LABEL_LEN`] bytes.
fn stored_label(label: &[u8; 32]) -> [u8; STORED_LABEL_LEN] {
    label[..STORED_LABEL_LEN]
        .try_into()
        .expect("a label is 32 bytes")
}

/// The provider's encrypted search index.
///
/// The provider only ever sees 32-byte labels and 16-byte sealed postings,
/// both of which are indistinguishable from random without the client's
/// keys. The store therefore reveals nothing about keywords or email
/// contents — only the total number of postings (and, at query time, the
/// per-query result count and access pattern, the standard SSE leakage).
///
/// The map is a B-tree: unlike a hash table, it never holds two copies of
/// itself while it grows, so a mailbox's peak memory tracks its size.
#[derive(Clone, Debug, Default)]
pub struct EncryptedIndex {
    entries: BTreeMap<[u8; STORED_LABEL_LEN], SealedPosting>,
}

impl EncryptedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored (keyword, email) postings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no postings are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate storage the provider dedicates to the index, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.entries.len() * (STORED_LABEL_LEN + 16)
    }

    /// Merges a client upload into the index. Duplicate labels overwrite
    /// (labels are collision-free under the client's PRF, so this only
    /// happens if a client re-uploads the same batch).
    pub fn apply(&mut self, batch: &UpdateBatch) {
        for (label, posting) in &batch.entries {
            self.entries.insert(stored_label(label), *posting);
        }
    }

    /// Response-hiding lookup: walks the postings of the keyword whose label
    /// key is given and returns them sealed, in counter order, so that only
    /// the client (who holds the value key) can check their tags and recover
    /// the email ids. The provider learns which stored labels belong to this
    /// (still unknown) keyword, and nothing of the ids.
    pub fn lookup_sealed(&self, label_key: &[u8; 32]) -> Vec<SealedPosting> {
        let mut out = Vec::new();
        for counter in 0u64.. {
            let label = posting_label(label_key, counter);
            match self.entries.get(&stored_label(&label)) {
                Some(posting) => out.push(*posting),
                None => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::sealed_id;
    use crate::{DocId, SseClient};

    fn populated() -> (SseClient, EncryptedIndex) {
        let mut client = SseClient::from_master_key([11u8; 32]);
        let mut index = EncryptedIndex::new();
        index.apply(&client.index_email(1, "project pretzel kickoff agenda"));
        index.apply(&client.index_email(2, "pretzel budget spreadsheet"));
        index.apply(&client.index_email(3, "lunch menu"));
        (client, index)
    }

    /// The ids the client opens from a sealed lookup of `keyword`.
    fn hits(client: &SseClient, index: &EncryptedIndex, keyword: &str) -> Vec<DocId> {
        let sealed = index.lookup_sealed(&client.label_key(keyword));
        client.open_results(keyword, &sealed).unwrap()
    }

    #[test]
    fn lookup_returns_exactly_the_matching_emails() {
        let (client, index) = populated();
        assert_eq!(hits(&client, &index, "pretzel"), vec![1, 2]);
        assert_eq!(hits(&client, &index, "menu"), vec![3]);
        assert!(hits(&client, &index, "absent").is_empty());
    }

    #[test]
    fn sealed_lookup_requires_the_client_to_decrypt() {
        let (client, index) = populated();
        let sealed = index.lookup_sealed(&client.label_key("pretzel"));
        assert_eq!(sealed.len(), 2);
        // The sealed values are not the raw ids.
        for s in &sealed {
            let as_id = DocId::from_le_bytes(*sealed_id(s));
            assert!(as_id != 1 && as_id != 2);
        }
        let mut opened = client.open_results("pretzel", &sealed).unwrap();
        opened.sort_unstable();
        assert_eq!(opened, vec![1, 2]);
    }

    #[test]
    fn a_wrong_key_finds_nothing() {
        let (_, index) = populated();
        let other_client = SseClient::from_master_key([12u8; 32]);
        assert!(index
            .lookup_sealed(&other_client.label_key("pretzel"))
            .is_empty());
    }

    #[test]
    fn size_accounting_tracks_postings() {
        let (_, index) = populated();
        assert_eq!(index.size_bytes(), index.len() * 32);
        assert!(!index.is_empty());
        assert_eq!(EncryptedIndex::new().size_bytes(), 0);
    }

    #[test]
    fn reapplying_the_same_batch_is_idempotent() {
        let mut client = SseClient::from_master_key([13u8; 32]);
        let batch = client.index_email(7, "hello world");
        let mut index = EncryptedIndex::new();
        index.apply(&batch);
        let before = index.len();
        index.apply(&batch);
        assert_eq!(index.len(), before);
    }
}
