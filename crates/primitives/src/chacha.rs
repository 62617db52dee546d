//! ChaCha20 (RFC 8439) stream cipher and a deterministic PRG built on it.

/// ChaCha20 keystream generator / stream cipher.
///
/// Used by the e2e module for payload encryption and, through [`Prg`], as the
/// expansion function in OT extension and wire-label generation.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    counter: u32,
}

impl ChaCha20 {
    /// Creates a cipher instance from a 32-byte key and 12-byte nonce, with
    /// the block counter starting at `counter` (RFC 8439 uses 1 for AEAD
    /// payloads, 0 for plain keystream use).
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        let mut key_words = [0u32; 8];
        for (i, w) in key_words.iter_mut().enumerate() {
            *w = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap());
        }
        let mut nonce_words = [0u32; 3];
        for (i, w) in nonce_words.iter_mut().enumerate() {
            *w = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().unwrap());
        }
        ChaCha20 {
            key: key_words,
            nonce: nonce_words,
            counter,
        }
    }

    /// Produces the 64-byte keystream block for block index `counter`.
    pub fn block(&self, counter: u32) -> [u8; 64] {
        let mut state = [
            0x61707865u32,
            0x3320646e,
            0x79622d32,
            0x6b206574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            counter,
            self.nonce[0],
            self.nonce[1],
            self.nonce[2],
        ];
        let initial = state;
        for _ in 0..10 {
            // Column rounds
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal rounds
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = state[i].wrapping_add(initial[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Encrypts or decrypts `data` in place (XOR with the keystream starting
    /// at the instance's initial counter).
    pub fn apply_keystream(&self, data: &mut [u8]) {
        for (block_idx, chunk) in data.chunks_mut(64).enumerate() {
            let ks = self.block(self.counter.wrapping_add(block_idx as u32));
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }

    /// Convenience: returns the encryption/decryption of `data`.
    pub fn process(&self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply_keystream(&mut out);
        out
    }
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Deterministic pseudo-random generator seeded from a 32-byte key.
///
/// Two parties seeding a `Prg` with the same seed derive identical byte
/// streams — this is what OT extension and the "joint randomness" AHE
/// parameter derivation (paper §3.3, footnote 3) rely on.
pub struct Prg {
    cipher: ChaCha20,
    buffer: [u8; 64],
    buffer_pos: usize,
    block_counter: u32,
}

impl Prg {
    /// Creates a PRG from a 32-byte seed.
    pub fn new(seed: &[u8; 32]) -> Self {
        let cipher = ChaCha20::new(seed, &[0u8; 12], 0);
        Prg {
            cipher,
            buffer: [0u8; 64],
            buffer_pos: 64,
            block_counter: 0,
        }
    }

    /// Creates a PRG from an arbitrary-length seed by hashing it first.
    pub fn from_seed_bytes(seed: &[u8]) -> Self {
        Self::new(&crate::sha256(seed))
    }

    /// Fills `out` with pseudo-random bytes: what is left of the buffered
    /// block first, then whole keystream blocks copied straight into `out`,
    /// and the head of one more block for a ragged tail (its rest stays
    /// buffered for the next call). The stream does not depend on how it is
    /// read.
    pub fn fill(&mut self, out: &mut [u8]) {
        let buffered = out.len().min(64 - self.buffer_pos);
        let (head, out) = out.split_at_mut(buffered);
        head.copy_from_slice(&self.buffer[self.buffer_pos..self.buffer_pos + buffered]);
        self.buffer_pos += buffered;
        let mut blocks = out.chunks_exact_mut(64);
        for block in &mut blocks {
            block.copy_from_slice(&self.next_keystream_block());
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            self.buffer = self.next_keystream_block();
            tail.copy_from_slice(&self.buffer[..tail.len()]);
            self.buffer_pos = tail.len();
        }
    }

    /// The keystream block after the last one drawn.
    fn next_keystream_block(&mut self) -> [u8; 64] {
        let block = self.cipher.block(self.block_counter);
        self.block_counter = self.block_counter.wrapping_add(1);
        block
    }

    /// Returns `n` pseudo-random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.fill(&mut out);
        out
    }

    /// Returns a pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_le_bytes(b)
    }

    /// Returns a pseudo-random `u64` below `bound` (rejection sampling).
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns a pseudo-random 128-bit block (garbled-circuit wire label size).
    pub fn next_block(&mut self) -> [u8; 16] {
        let mut b = [0u8; 16];
        self.fill(&mut b);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc8439_block_test_vector() {
        // RFC 8439 §2.3.2
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let cipher = ChaCha20::new(&key, &nonce, 1);
        let block = cipher.block(1);
        assert_eq!(
            hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_test_vector() {
        // RFC 8439 §2.4.2
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let cipher = ChaCha20::new(&key, &nonce, 1);
        let ct = cipher.process(plaintext);
        assert_eq!(
            hex(&ct[..64]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
        );
        // Decryption roundtrips.
        assert_eq!(cipher.process(&ct), plaintext.to_vec());
    }

    #[test]
    fn keystream_differs_across_nonces() {
        let key = [7u8; 32];
        let c1 = ChaCha20::new(&key, &[1u8; 12], 0);
        let c2 = ChaCha20::new(&key, &[2u8; 12], 0);
        assert_ne!(c1.block(0), c2.block(0));
    }

    #[test]
    fn prg_is_deterministic_and_streams() {
        let mut a = Prg::new(&[42u8; 32]);
        let mut b = Prg::new(&[42u8; 32]);
        // Same seed, different read granularity, identical stream.
        let bytes_a = a.bytes(200);
        let mut bytes_b = b.bytes(13);
        bytes_b.extend(b.bytes(187));
        assert_eq!(bytes_a, bytes_b);

        let mut c = Prg::new(&[43u8; 32]);
        assert_ne!(bytes_a, c.bytes(200));
    }

    #[test]
    fn prg_stream_is_the_concatenated_keystream_at_any_read_granularity() {
        let seed = [5u8; 32];
        let cipher = ChaCha20::new(&seed, &[0u8; 12], 0);
        let reads = [1usize, 13, 64, 65, 600, 0, 63, 1, 128, 7];
        let total: usize = reads.iter().sum();
        let keystream: Vec<u8> = (0..total.div_ceil(64) as u32)
            .flat_map(|i| cipher.block(i))
            .collect();
        let mut prg = Prg::new(&seed);
        let mut streamed = Vec::new();
        for n in reads {
            streamed.extend(prg.bytes(n));
        }
        assert_eq!(streamed, keystream[..total]);
        // One read of the whole length gives the same bytes, and both
        // streams continue in step.
        let mut single = Prg::new(&seed);
        assert_eq!(single.bytes(total), streamed);
        assert_eq!(prg.next_block(), single.next_block());
    }

    #[test]
    fn prg_next_u64_below_respects_bound() {
        let mut prg = Prg::from_seed_bytes(b"bound test");
        for _ in 0..1000 {
            assert!(prg.next_u64_below(7) < 7);
        }
    }

    #[test]
    fn prg_from_seed_bytes_distinct_seeds() {
        let mut a = Prg::from_seed_bytes(b"seed one");
        let mut b = Prg::from_seed_bytes(b"seed two");
        assert_ne!(a.bytes(32), b.bytes(32));
    }
}
