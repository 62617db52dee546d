//! The Baseline secure dot product (paper §3.3): Paillier with GLLM's legacy
//! per-row packing.
//!
//! Packing layout: each matrix row is split into groups of
//! `p = ⌊plaintext_bits / slot_bits⌋` column values; a group is encoded as the
//! big integer `v_1 + v_2·2^b + v_3·2^{2b} + …` and encrypted as one Paillier
//! ciphertext. Homomorphic addition adds slot-wise and multiplying the
//! ciphertext by a feature frequency multiplies every slot, provided no slot
//! ever exceeds `b` bits — the caller guarantees this through the paper's
//! `b = log L + b_in + f_in` accounting (§4.2).

use rand::Rng;

use pretzel_bignum::BigUint;
use pretzel_paillier::{Ciphertext, PublicKey, Randomizer, SecretKey};

use crate::{ModelMatrix, SdpError, SparseFeatures};

/// The Baseline's packing/protocol parameters.
#[derive(Clone, Copy, Debug)]
pub struct PaillierPackParams {
    /// Bits per packed slot (the paper's `b`).
    pub slot_bits: u32,
}

impl PaillierPackParams {
    /// Number of slots that fit in one ciphertext of `pk` (the paper's
    /// `p_pail`).
    pub fn slots_per_ct(&self, pk: &PublicKey) -> usize {
        (pk.plaintext_bits() / self.slot_bits as usize).max(1)
    }
}

/// The provider's Paillier-encrypted model (setup phase of the Baseline).
pub struct PaillierEncryptedModel {
    params: PaillierPackParams,
    /// `cts[row * cts_per_row + group]`
    cts: Vec<Ciphertext>,
    rows: usize,
    cols: usize,
    cts_per_row: usize,
    slots: usize,
}

impl PaillierEncryptedModel {
    /// Reassembles an encrypted model from transmitted ciphertexts and layout
    /// metadata (the client side of the Baseline setup phase).
    pub fn from_parts(
        params: PaillierPackParams,
        cts: Vec<Ciphertext>,
        rows: usize,
        cols: usize,
        slots_per_ct: usize,
    ) -> Self {
        PaillierEncryptedModel {
            params,
            cts,
            rows,
            cols,
            cts_per_row: cols.div_ceil(slots_per_ct),
            slots: slots_per_ct,
        }
    }

    /// The raw ciphertexts (setup-phase transmission).
    pub fn ciphertexts(&self) -> &[Ciphertext] {
        &self.cts
    }

    /// Total ciphertext count (`N · ⌈B/p⌉`).
    pub fn ciphertext_count(&self) -> usize {
        self.cts.len()
    }

    /// Client-side storage in bytes (Figure 8 / Figure 12 "Baseline" rows).
    pub fn size_bytes(&self, pk: &PublicKey) -> usize {
        self.cts.len() * Ciphertext::serialized_len(pk.n_bits())
    }

    /// Result ciphertexts per email (β_pail = ⌈B/p⌉).
    pub fn result_ciphertexts(&self) -> usize {
        self.cts_per_row
    }

    /// Number of category columns (the paper's B).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Packing slots per ciphertext (the paper's p_pail).
    pub fn slots_per_ct(&self) -> usize {
        self.slots
    }

    /// Slot width in bits (the paper's b).
    pub fn slot_bits(&self) -> u32 {
        self.params.slot_bits
    }
}

/// Number of ciphertexts the Baseline model occupies, without encrypting
/// (used for paper-scale size accounting).
pub fn model_ciphertext_count(rows: usize, cols: usize, slots_per_ct: usize) -> usize {
    rows * cols.div_ceil(slots_per_ct)
}

/// Packs up to `slots` values of `slot_bits` bits each into one big integer.
fn pack_values(values: &[u64], slot_bits: u32) -> BigUint {
    let mut acc = BigUint::zero();
    for (i, &v) in values.iter().enumerate() {
        acc += &(BigUint::from(v) << (slot_bits as usize * i));
    }
    acc
}

/// Extracts `count` slot values from a packed big integer.
fn unpack_values(packed: &BigUint, slot_bits: u32, count: usize) -> Vec<u64> {
    let mask = if slot_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << slot_bits) - 1
    };
    (0..count)
        .map(|i| {
            let shifted = packed.clone() >> (slot_bits as usize * i);
            shifted.limbs().first().copied().unwrap_or(0) & mask
        })
        .collect()
}

/// Setup phase: the provider encrypts its model under its own Paillier key.
pub fn encrypt_model<R: Rng + ?Sized>(
    pk: &PublicKey,
    model: &ModelMatrix,
    params: PaillierPackParams,
    rng: &mut R,
) -> Result<PaillierEncryptedModel, SdpError> {
    let max = model.max_value();
    if params.slot_bits < 64 && max >= (1u64 << params.slot_bits) {
        return Err(SdpError::ValueTooLarge {
            value: max,
            bits: params.slot_bits,
        });
    }
    let slots = params.slots_per_ct(pk);
    let cols = model.cols();
    let rows = model.rows();
    let cts_per_row = cols.div_ceil(slots);
    let mut cts = Vec::with_capacity(rows * cts_per_row);
    for r in 0..rows {
        for chunk in model.row(r).chunks(slots) {
            let packed = pack_values(chunk, params.slot_bits);
            let ct = pk
                .encrypt(&packed, rng)
                .map_err(|e| SdpError::Ahe(e.to_string()))?;
            cts.push(ct);
        }
    }
    Ok(PaillierEncryptedModel {
        params,
        cts,
        rows,
        cols,
        cts_per_row,
        slots,
    })
}

/// Per-email phase, client side: encrypted dot products, one ciphertext per
/// column group, with fresh randomizers sampled inline.
pub fn client_dot_product<R: Rng + ?Sized>(
    pk: &PublicKey,
    model: &PaillierEncryptedModel,
    features: &SparseFeatures,
    rng: &mut R,
) -> Result<Vec<Ciphertext>, SdpError> {
    client_dot_product_with(pk, model, features, || pk.sample_randomizer(rng))
}

/// [`client_dot_product`] with the accumulators' randomizers (`rⁿ mod n²`,
/// [`PublicKey::sample_randomizer`]) coming from `randomizer` — one call per
/// column group. A caller holding randomizers computed offline hands them
/// out here, and the only full exponentiations on the online path disappear.
pub fn client_dot_product_with(
    pk: &PublicKey,
    model: &PaillierEncryptedModel,
    features: &SparseFeatures,
    mut randomizer: impl FnMut() -> Randomizer,
) -> Result<Vec<Ciphertext>, SdpError> {
    for &(row, _) in features {
        if row >= model.rows {
            return Err(SdpError::FeatureOutOfRange {
                index: row,
                rows: model.rows,
            });
        }
    }
    let zero = BigUint::zero();
    let mut accs = (0..model.cts_per_row)
        .map(|_| pk.encrypt_with_randomizer(&zero, &randomizer()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| SdpError::Ahe(e.to_string()))?;
    for &(row, freq) in features {
        if freq == 0 {
            continue;
        }
        for (g, acc) in accs.iter_mut().enumerate() {
            let ct = &model.cts[row * model.cts_per_row + g];
            let scaled = pk.mul_plain_u64(ct, freq);
            *acc = pk.add(acc, &scaled);
        }
    }
    Ok(accs)
}

/// Per-email phase, client side: blinds each slot of a result ciphertext with
/// noise of `slot_bits - 1` bits (keeping headroom so no carry crosses slot
/// boundaries), returning the blinded ciphertext and the noise values of the
/// first `count` slots.
pub fn blind<R: Rng + ?Sized>(
    pk: &PublicKey,
    model: &PaillierEncryptedModel,
    ct: &Ciphertext,
    count: usize,
    rng: &mut R,
) -> (Ciphertext, Vec<u64>) {
    let slot_bits = model.params.slot_bits;
    let noise_bits = slot_bits - 1;
    let noise: Vec<u64> = (0..model.slots)
        .map(|_| rng.gen_range(0..(1u64 << noise_bits)))
        .collect();
    let packed_noise = pack_values(&noise, slot_bits);
    let blinded = pk.add_plain(ct, &packed_noise);
    (blinded, noise[..count.min(model.slots)].to_vec())
}

/// Per-email phase, provider side: decrypts the blinded results and returns
/// all B slot values, in column order.
pub fn provider_decrypt(
    sk: &SecretKey,
    model_cols: usize,
    slot_bits: u32,
    slots_per_ct: usize,
    cts: &[Ciphertext],
) -> Result<Vec<u64>, SdpError> {
    let mut out = Vec::with_capacity(model_cols);
    for ct in cts {
        let packed = sk.decrypt(ct).map_err(|e| SdpError::Ahe(e.to_string()))?;
        let remaining = model_cols - out.len();
        out.extend(unpack_values(
            &packed,
            slot_bits,
            remaining.min(slots_per_ct),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_paillier::keygen;

    fn test_key() -> SecretKey {
        keygen(256, &mut rand::thread_rng())
    }

    fn demo_model(rows: usize, cols: usize) -> ModelMatrix {
        let data: Vec<u64> = (0..rows * cols)
            .map(|i| ((i * 31 + 5) % 900) as u64)
            .collect();
        ModelMatrix::from_rows(rows, cols, data)
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let values = vec![5u64, 0, 1023, 77, 1];
        let packed = pack_values(&values, 20);
        assert_eq!(unpack_values(&packed, 20, 5), values);
    }

    #[test]
    fn baseline_dot_product_matches_reference() {
        let sk = test_key();
        let pk = sk.public();
        let params = PaillierPackParams { slot_bits: 24 };
        let model = demo_model(30, 2);
        let features: SparseFeatures = (0..12).map(|i| (i * 2 % 30, (i % 3 + 1) as u64)).collect();
        let enc = encrypt_model(pk, &model, params, &mut rand::thread_rng()).unwrap();
        // B = 2 fits one ciphertext per row.
        assert_eq!(enc.ciphertext_count(), 30);
        let result = client_dot_product(pk, &enc, &features, &mut rand::thread_rng()).unwrap();
        assert_eq!(result.len(), 1);
        let decrypted =
            provider_decrypt(&sk, 2, params.slot_bits, params.slots_per_ct(pk), &result).unwrap();
        assert_eq!(decrypted, model.dot_sparse(&features));
    }

    #[test]
    fn baseline_multi_group_columns() {
        let sk = test_key();
        let pk = sk.public();
        let params = PaillierPackParams { slot_bits: 24 };
        let slots = params.slots_per_ct(pk);
        let cols = slots * 2 + 3; // force 3 column groups
        let model = demo_model(10, cols);
        let features: SparseFeatures = vec![(0, 2), (4, 1), (9, 3)];
        let enc = encrypt_model(pk, &model, params, &mut rand::thread_rng()).unwrap();
        assert_eq!(enc.ciphertext_count(), 10 * 3);
        assert_eq!(enc.result_ciphertexts(), 3);
        let result = client_dot_product(pk, &enc, &features, &mut rand::thread_rng()).unwrap();
        let decrypted = provider_decrypt(&sk, cols, params.slot_bits, slots, &result).unwrap();
        assert_eq!(decrypted, model.dot_sparse(&features));
    }

    #[test]
    fn supplied_randomizers_match_reference() {
        let sk = test_key();
        let pk = sk.public();
        let params = PaillierPackParams { slot_bits: 24 };
        let model = demo_model(30, 2);
        let features: SparseFeatures = (0..12).map(|i| (i * 2 % 30, (i % 3 + 1) as u64)).collect();
        let enc = encrypt_model(pk, &model, params, &mut rand::thread_rng()).unwrap();
        // One accumulator group, so one randomizer computed ahead of the round.
        let mut stocked = vec![pk.sample_randomizer(&mut rand::thread_rng())];
        let result = client_dot_product_with(pk, &enc, &features, || {
            stocked.pop().expect("one randomizer per column group")
        })
        .unwrap();
        assert!(stocked.is_empty());
        let decrypted =
            provider_decrypt(&sk, 2, params.slot_bits, params.slots_per_ct(pk), &result).unwrap();
        assert_eq!(decrypted, model.dot_sparse(&features));
    }

    #[test]
    fn blinding_adds_recoverable_noise() {
        let sk = test_key();
        let pk = sk.public();
        let params = PaillierPackParams { slot_bits: 24 };
        let model = demo_model(20, 2);
        let features: SparseFeatures = vec![(1, 1), (7, 2)];
        let enc = encrypt_model(pk, &model, params, &mut rand::thread_rng()).unwrap();
        let result = client_dot_product(pk, &enc, &features, &mut rand::thread_rng()).unwrap();
        let (blinded, noise) = blind(pk, &enc, &result[0], 2, &mut rand::thread_rng());
        let decrypted = provider_decrypt(
            &sk,
            2,
            params.slot_bits,
            params.slots_per_ct(pk),
            &[blinded],
        )
        .unwrap();
        let expected = model.dot_sparse(&features);
        for j in 0..2 {
            assert_eq!(decrypted[j], expected[j] + noise[j]);
        }
    }

    #[test]
    fn size_accounting_matches_formula() {
        let sk = test_key();
        let pk = sk.public();
        let params = PaillierPackParams { slot_bits: 20 };
        let model = demo_model(25, 7);
        let enc = encrypt_model(pk, &model, params, &mut rand::thread_rng()).unwrap();
        let slots = params.slots_per_ct(pk);
        assert_eq!(enc.ciphertext_count(), model_ciphertext_count(25, 7, slots));
        assert_eq!(
            enc.size_bytes(pk),
            enc.ciphertext_count() * Ciphertext::serialized_len(pk.n_bits())
        );
    }

    #[test]
    fn oversized_values_and_features_rejected() {
        let sk = test_key();
        let pk = sk.public();
        let params = PaillierPackParams { slot_bits: 8 };
        let mut model = ModelMatrix::zeros(4, 2);
        model.set(0, 0, 256);
        assert!(matches!(
            encrypt_model(pk, &model, params, &mut rand::thread_rng()),
            Err(SdpError::ValueTooLarge { .. })
        ));
        let ok_model = demo_model(4, 2);
        let enc = encrypt_model(
            pk,
            &ok_model,
            PaillierPackParams { slot_bits: 24 },
            &mut rand::thread_rng(),
        )
        .unwrap();
        assert!(matches!(
            client_dot_product(pk, &enc, &vec![(4, 1)], &mut rand::thread_rng()),
            Err(SdpError::FeatureOutOfRange { .. })
        ));
    }
}
