//! Client side of the SSE scheme: key material, per-keyword counters,
//! document indexing, and search-token generation.

use std::collections::BTreeMap;

use pretzel_classifiers::Tokenizer;
use pretzel_primitives::{ct_eq, hmac_sha256};
use rand::Rng;

use crate::{DocId, SealedPosting, SseError};

/// Bytes of one entry in [`UpdateBatch::to_wire_bytes`]: a 32-byte label and
/// a 16-byte [`SealedPosting`].
const ENTRY_LEN: usize = 32 + 16;

/// Opaque per-keyword search token handed to the provider.
///
/// Holding a token for keyword `w` allows the provider to find (and decrypt
/// the ids of) every indexed email containing `w` — and nothing else. Tokens
/// for different keywords are unlinkable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchToken {
    /// Key used to derive the storage labels of `w`'s postings.
    pub label_key: [u8; 32],
    /// Key used to seal, tag and open the email ids stored in `w`'s
    /// postings.
    pub value_key: [u8; 32],
}

/// A batch of encrypted index entries ready to upload to the provider.
///
/// Each entry is `(label, sealed posting)`; labels and postings look
/// uniformly random to the provider.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    /// Encrypted postings produced by [`SseClient::index_email`].
    pub entries: Vec<([u8; 32], SealedPosting)>,
}

impl UpdateBatch {
    /// Number of (keyword, email) postings in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the batch carries no postings.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the batch for transmission: a `u64` little-endian posting
    /// count followed by 48 bytes (32-byte label + 16-byte sealed posting)
    /// per posting. The single wire format shared by the bare SSE endpoints
    /// and the mailroom-served search protocol.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.entries.len() * ENTRY_LEN);
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for (label, posting) in &self.entries {
            out.extend_from_slice(label);
            out.extend_from_slice(posting);
        }
        out
    }

    /// Parses bytes produced by [`UpdateBatch::to_wire_bytes`], rejecting
    /// truncated headers and any mismatch between the claimed count and the
    /// payload length (the count is attacker-controlled, so the comparison
    /// is done without multiplying it).
    pub fn from_wire_bytes(bytes: &[u8]) -> crate::Result<Self> {
        if bytes.len() < 8 {
            return Err(SseError::Protocol("truncated upload header".into()));
        }
        let count = u64::from_le_bytes(bytes[..8].try_into().expect("checked length"));
        let entries_bytes = &bytes[8..];
        if !entries_bytes.len().is_multiple_of(ENTRY_LEN)
            || (entries_bytes.len() / ENTRY_LEN) as u64 != count
        {
            return Err(SseError::Protocol("upload length mismatch".into()));
        }
        let entries = entries_bytes
            .chunks_exact(ENTRY_LEN)
            .map(|entry| {
                let (label, posting) = entry.split_at(32);
                (
                    label.try_into().expect("32-byte label"),
                    posting.try_into().expect("16-byte posting"),
                )
            })
            .collect();
        Ok(UpdateBatch { entries })
    }
}

/// Client state of the SSE scheme.
///
/// The state is the 32-byte master key plus one counter per distinct keyword
/// ever indexed. Compared to the fully client-side index of
/// [`pretzel_search::SearchIndex`], this is what lets a user search from a
/// new device after re-deriving (or syncing) only the master key and the
/// counters.
#[derive(Clone, Debug)]
pub struct SseClient {
    master_key: [u8; 32],
    /// Number of postings already uploaded per keyword, keyed by the first
    /// 16 bytes of the keyword's label key — a PRF output, so collision-free
    /// in practice, and a fixed-size key with no allocation per keyword. A
    /// B-tree, unlike a hash table, never holds two copies while it grows.
    counters: BTreeMap<[u8; 16], u64>,
    tokenizer: Tokenizer,
}

impl SseClient {
    /// Creates a client with a freshly sampled master key.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::from_master_key(rng.gen())
    }

    /// Creates a client from an existing master key (e.g. synced from another
    /// device, or derived from the user's e2e key material via HKDF).
    pub fn from_master_key(master_key: [u8; 32]) -> Self {
        SseClient {
            master_key,
            counters: BTreeMap::new(),
            tokenizer: Tokenizer::new(),
        }
    }

    /// The master key (so a caller can persist or sync it).
    pub fn master_key(&self) -> &[u8; 32] {
        &self.master_key
    }

    /// Number of distinct keywords indexed so far.
    pub fn distinct_keywords(&self) -> usize {
        self.counters.len()
    }

    /// Total number of postings uploaded so far.
    pub fn total_postings(&self) -> u64 {
        self.counters.values().sum()
    }

    /// Derives the per-keyword search token.
    pub fn search_token(&self, keyword: &str) -> SearchToken {
        let normalized = normalize(keyword);
        SearchToken {
            label_key: self.subkey(b"label", &normalized),
            value_key: self.subkey(b"value", &normalized),
        }
    }

    /// Indexes a decrypted email body under `doc_id`, producing the encrypted
    /// postings to upload. Each distinct keyword of the body contributes one
    /// posting. Indexing the same body twice produces fresh postings (the
    /// scheme is append-only, like the paper's client-side index which never
    /// removes emails either).
    pub fn index_email(&mut self, doc_id: DocId, body: &str) -> UpdateBatch {
        let mut keywords = self.tokenizer.tokenize(body);
        keywords.sort();
        keywords.dedup();

        let mut entries = Vec::with_capacity(keywords.len());
        for keyword in keywords {
            let token = self.search_token(&keyword);
            let counter_key = token.label_key[..16].try_into().expect("32-byte key");
            let counter = self.counters.entry(counter_key).or_insert(0);
            entries.push((
                posting_label(&token.label_key, *counter),
                seal_posting(&token.value_key, *counter, doc_id),
            ));
            *counter += 1;
        }
        UpdateBatch { entries }
    }

    /// Opens the sealed postings a response-hiding lookup returned
    /// ([`crate::EncryptedIndex::lookup_sealed`]), the `c`-th being the
    /// keyword's `c`-th posting. Every tag must verify under the keyword's
    /// value key at its position, so a forged, substituted or reordered
    /// posting, or one of another keyword, is an [`SseError::Protocol`]
    /// error, never a wrong id.
    pub fn open_results(
        &self,
        keyword: &str,
        postings: &[SealedPosting],
    ) -> crate::Result<Vec<DocId>> {
        let token = self.search_token(keyword);
        postings
            .iter()
            .enumerate()
            .map(|(c, posting)| open_posting(&token.value_key, c as u64, posting))
            .collect()
    }

    fn subkey(&self, purpose: &[u8], keyword: &str) -> [u8; 32] {
        let mut data = Vec::with_capacity(purpose.len() + 1 + keyword.len());
        data.extend_from_slice(purpose);
        data.push(0);
        data.extend_from_slice(keyword.as_bytes());
        hmac_sha256(&self.master_key, &data)
    }
}

/// Normalizes a query keyword the same way indexing does.
fn normalize(keyword: &str) -> String {
    keyword.trim().to_lowercase()
}

/// Label of the `counter`-th posting for a keyword, given its label key.
pub(crate) fn posting_label(label_key: &[u8; 32], counter: u64) -> [u8; 32] {
    hmac_sha256(label_key, &counter.to_le_bytes())
}

/// The `counter`-th posting of a keyword: the sealed id, then its tag.
fn seal_posting(value_key: &[u8; 32], counter: u64, doc_id: DocId) -> SealedPosting {
    let sealed = seal_doc_id(value_key, counter, doc_id);
    let mut posting = [0u8; 16];
    posting[..8].copy_from_slice(&sealed);
    posting[8..].copy_from_slice(&posting_tag(value_key, counter, &sealed));
    posting
}

/// Checks the tag of the `counter`-th posting of a keyword, then opens it.
fn open_posting(
    value_key: &[u8; 32],
    counter: u64,
    posting: &SealedPosting,
) -> crate::Result<DocId> {
    let sealed = sealed_id(posting);
    if !ct_eq(&posting[8..], &posting_tag(value_key, counter, sealed)) {
        return Err(SseError::Protocol(format!(
            "posting {counter} fails its tag check"
        )));
    }
    Ok(open_doc_id(value_key, counter, sealed))
}

/// The sealed-id half of a posting.
pub(crate) fn sealed_id(posting: &SealedPosting) -> &[u8; 8] {
    posting[..8].try_into().expect("a posting is 16 bytes")
}

/// Tag binding a sealed id to its keyword (through the value key) and its
/// position: `HMAC(value_key, counter ‖ sealed)`, truncated to 8 bytes. Its
/// 16-byte input never collides with the 11-byte input of the sealing pad.
fn posting_tag(value_key: &[u8; 32], counter: u64, sealed: &[u8; 8]) -> [u8; 8] {
    let mac = hmac_sha256(value_key, &[&counter.to_le_bytes()[..], sealed].concat());
    mac[..8].try_into().expect("a MAC is 32 bytes")
}

/// Encrypts a document id for the `counter`-th posting of a keyword.
pub(crate) fn seal_doc_id(value_key: &[u8; 32], counter: u64, doc_id: DocId) -> [u8; 8] {
    let pad = hmac_sha256(value_key, &[&counter.to_le_bytes()[..], b"pad"].concat());
    let mut out = doc_id.to_le_bytes();
    for (o, p) in out.iter_mut().zip(pad.iter()) {
        *o ^= p;
    }
    out
}

/// Inverse of [`seal_doc_id`].
pub(crate) fn open_doc_id(value_key: &[u8; 32], counter: u64, sealed: &[u8; 8]) -> DocId {
    let pad = hmac_sha256(value_key, &[&counter.to_le_bytes()[..], b"pad"].concat());
    let mut out = *sealed;
    for (o, p) in out.iter_mut().zip(pad.iter()) {
        *o ^= p;
    }
    DocId::from_le_bytes(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sealing_roundtrips() {
        let key = [9u8; 32];
        for doc in [0u64, 1, 42, u64::MAX] {
            for counter in [0u64, 1, 1000] {
                let sealed = seal_doc_id(&key, counter, doc);
                assert_eq!(open_doc_id(&key, counter, &sealed), doc);
                assert_ne!(
                    sealed,
                    doc.to_le_bytes(),
                    "ciphertext must differ from plaintext"
                );
            }
        }
    }

    #[test]
    fn tokens_are_deterministic_and_keyword_specific() {
        let client = SseClient::from_master_key([3u8; 32]);
        assert_eq!(client.search_token("hello"), client.search_token("hello"));
        assert_eq!(client.search_token("Hello "), client.search_token("hello"));
        assert_ne!(client.search_token("hello"), client.search_token("world"));
        assert_ne!(
            client.search_token("hello").label_key,
            client.search_token("hello").value_key
        );
    }

    #[test]
    fn different_master_keys_produce_unrelated_tokens() {
        let a = SseClient::from_master_key([1u8; 32]);
        let b = SseClient::from_master_key([2u8; 32]);
        assert_ne!(a.search_token("invoice"), b.search_token("invoice"));
    }

    #[test]
    fn indexing_counts_distinct_keywords_once_per_email() {
        let mut client = SseClient::from_master_key([7u8; 32]);
        let batch = client.index_email(1, "the quarterly report report report");
        // Tokenizer drops short tokens ("the" stays: len >= 2), dedup keeps one
        // posting per distinct keyword.
        assert_eq!(batch.len(), 3);
        assert_eq!(client.total_postings(), 3);
        assert_eq!(client.distinct_keywords(), 3);

        let batch2 = client.index_email(2, "report");
        assert_eq!(batch2.len(), 1);
        assert_eq!(client.total_postings(), 4);
        assert_eq!(client.distinct_keywords(), 3);
    }

    #[test]
    fn postings_for_the_same_keyword_have_distinct_labels() {
        let mut client = SseClient::from_master_key([8u8; 32]);
        let b1 = client.index_email(1, "alpha");
        let b2 = client.index_email(2, "alpha");
        assert_ne!(b1.entries[0].0, b2.entries[0].0);
    }

    /// The postings of "keyword" for emails 10, 20, 30, in counter order.
    fn three_postings(client: &mut SseClient) -> Vec<SealedPosting> {
        [10u64, 20, 30]
            .iter()
            .map(|&d| client.index_email(d, "keyword").entries[0].1)
            .collect()
    }

    #[test]
    fn open_results_recovers_doc_ids_in_counter_order() {
        let mut client = SseClient::from_master_key([5u8; 32]);
        let postings = three_postings(&mut client);
        assert_eq!(
            client.open_results("keyword", &postings).unwrap(),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn open_results_rejects_reordered_flipped_and_foreign_postings() {
        let mut client = SseClient::from_master_key([6u8; 32]);
        let postings = three_postings(&mut client);
        let other = client.index_email(40, "other").entries[0].1;
        let rejected = |postings: &[SealedPosting]| {
            matches!(
                client.open_results("keyword", postings),
                Err(SseError::Protocol(_))
            )
        };
        assert!(rejected(&[postings[1], postings[0]]), "reordered");
        assert!(rejected(&[other]), "another keyword's posting");
        for byte in [0, 8, 15] {
            let mut flipped = postings.clone();
            flipped[2][byte] ^= 1;
            assert!(rejected(&flipped), "bit flip in byte {byte}");
        }
        assert!(rejected(&[[0u8; 16]]), "zero padding is not a posting");
    }

    #[test]
    fn wire_format_round_trips_and_checks_the_count() {
        let mut client = SseClient::from_master_key([4u8; 32]);
        let batch = client.index_email(3, "quarterly budget review");
        let bytes = batch.to_wire_bytes();
        assert_eq!(bytes.len(), 8 + batch.len() * ENTRY_LEN);
        assert_eq!(UpdateBatch::from_wire_bytes(&bytes).unwrap(), batch);
        for bad in [&bytes[..7], &bytes[..bytes.len() - 1]] {
            assert!(UpdateBatch::from_wire_bytes(bad).is_err());
        }
    }

    proptest! {
        #[test]
        fn seal_open_roundtrip_for_random_inputs(
            key in any::<[u8; 32]>(),
            counter in any::<u64>(),
            doc in any::<u64>(),
        ) {
            let sealed = seal_doc_id(&key, counter, doc);
            prop_assert_eq!(open_doc_id(&key, counter, &sealed), doc);
            let posting = seal_posting(&key, counter, doc);
            prop_assert_eq!(open_posting(&key, counter, &posting).unwrap(), doc);
        }

        #[test]
        fn labels_never_collide_across_counters(
            key in any::<[u8; 32]>(),
            c1 in 0u64..10_000,
            c2 in 0u64..10_000,
        ) {
            prop_assume!(c1 != c2);
            prop_assert_ne!(posting_label(&key, c1), posting_label(&key, c2));
        }
    }
}
