//! Secure dot products over the XPIR-BV (RLWE) scheme with Pretzel's packing
//! (paper §4.1–§4.2) and the candidate-topic extraction of Figure 5.
//!
//! Packing layouts
//! ---------------
//! Let `p` be the number of slots per ciphertext (the ring degree, 1024 by
//! default) and `B` the number of categories (matrix columns).
//!
//! * **Legacy (per-row) packing** — GLLM's original technique: each matrix
//!   row is packed into `⌈B/p⌉` ciphertexts; rows never share a ciphertext.
//!   With B = 2 and p = 1024 this wastes a factor of 512 (the
//!   `Pretzel-NoOptimPack` row of Figure 8).
//! * **Across-row packing** — Pretzel's refinement: when `B < p`, `⌊p/B⌋`
//!   consecutive rows share one ciphertext, laid out row-major. During the
//!   per-email dot product the client *rotates* the packed ciphertext so the
//!   relevant row lands in slots `0..B`, multiplies by the feature frequency
//!   and accumulates — the "left shift and add" operation whose
//!   microbenchmark appears in Figure 6.
//!
//! In both layouts the client's result ciphertexts carry the B dot products
//! in their leading slots; the client blinds every slot before sending them
//! to the provider (Figure 2 step 2, bullet 2).

use rand::Rng;

use pretzel_rlwe::{Accumulator, Ciphertext, Plaintext, PublicKey, SecretKey};

use crate::{ModelMatrix, SdpError, SparseFeatures};

/// Which packing layout an encrypted model uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Packing {
    /// GLLM's per-row packing (the Figure 8 "Pretzel-NoOptimPack" ablation).
    LegacyPerRow,
    /// Pretzel's across-row packing (§4.2).
    AcrossRow,
}

/// The provider's model, encrypted for a particular client (setup phase).
pub struct EncryptedModel {
    packing: Packing,
    /// Ciphertexts; interpretation depends on the packing (see accessors).
    cts: Vec<Ciphertext>,
    /// Number of feature rows (including bias row).
    rows: usize,
    /// Number of category columns (B).
    cols: usize,
    /// Rows packed per ciphertext (1 for legacy with B ≥ p).
    rows_per_ct: usize,
    /// Ciphertexts per row group along the column axis (⌈B/p⌉).
    cts_per_row: usize,
    /// Slots per ciphertext.
    slots: usize,
}

impl EncryptedModel {
    /// Reassembles an encrypted model from transmitted ciphertexts and layout
    /// metadata (the client side of the setup phase receives exactly this).
    pub fn from_parts(
        packing: Packing,
        cts: Vec<Ciphertext>,
        rows: usize,
        cols: usize,
        slots: usize,
    ) -> Self {
        let (rows_per_ct, cts_per_row) = match packing {
            Packing::LegacyPerRow => (1, cols.div_ceil(slots)),
            Packing::AcrossRow if cols >= slots => (1, cols.div_ceil(slots)),
            Packing::AcrossRow => (slots / cols, 1),
        };
        EncryptedModel {
            packing,
            cts,
            rows,
            cols,
            rows_per_ct,
            cts_per_row,
            slots,
        }
    }

    /// The raw ciphertexts (setup-phase transmission).
    pub fn ciphertexts(&self) -> &[Ciphertext] {
        &self.cts
    }

    /// Total number of ciphertexts.
    pub fn ciphertext_count(&self) -> usize {
        self.cts.len()
    }

    /// Client-side storage in bytes — the quantity reported in Figures 8
    /// and 12.
    pub fn size_bytes(&self, pk: &PublicKey) -> usize {
        self.cts.len() * pk.params().ciphertext_bytes()
    }

    /// The packing layout in use.
    pub fn packing(&self) -> Packing {
        self.packing
    }

    /// Number of category columns (the paper's B).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of feature rows in the model.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Packing slots per ciphertext (the paper's p).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of result ciphertexts a dot product will produce (β in
    /// Figure 3): ⌈B/p⌉ — 1 whenever rows share a ciphertext.
    pub fn result_ciphertexts(&self) -> usize {
        self.cts_per_row
    }
}

/// Computes the number of ciphertexts an encrypted model will occupy without
/// encrypting anything (used by the Figure 8 / Figure 12 size harnesses for
/// paper-scale N where actually encrypting 5M rows would be pointless work).
pub fn model_ciphertext_count(rows: usize, cols: usize, slots: usize, packing: Packing) -> usize {
    match packing {
        Packing::LegacyPerRow => rows * cols.div_ceil(slots),
        Packing::AcrossRow => {
            if cols >= slots {
                rows * cols.div_ceil(slots)
            } else {
                let rows_per_ct = slots / cols;
                rows.div_ceil(rows_per_ct)
            }
        }
    }
}

/// Setup phase, provider side: encrypts the model matrix under the
/// provider's own public key. As in GLLM the matrix owner — the provider —
/// generates the AHE key pair and keeps the secret key; the client receives
/// the public key and the encrypted model, computes on them blindly, and
/// returns blinded results that only the provider can decrypt (Figure 2).
pub fn encrypt_model<R: Rng + ?Sized>(
    pk: &PublicKey,
    model: &ModelMatrix,
    packing: Packing,
    rng: &mut R,
) -> Result<EncryptedModel, SdpError> {
    let params = pk.params();
    let slots = params.slots();
    let plain_max = params.t;
    if model.max_value() >= plain_max {
        return Err(SdpError::ValueTooLarge {
            value: model.max_value(),
            bits: params.plain_bits,
        });
    }
    let rows = model.rows();
    let cols = model.cols();
    let mut cts = Vec::new();

    let (rows_per_ct, cts_per_row) = match packing {
        Packing::LegacyPerRow => (1, cols.div_ceil(slots)),
        Packing::AcrossRow if cols >= slots => (1, cols.div_ceil(slots)),
        Packing::AcrossRow => (slots / cols, 1),
    };

    if rows_per_ct == 1 {
        // One row per ciphertext group; split columns across ⌈B/p⌉ cts.
        for r in 0..rows {
            let row = model.row(r);
            for chunk in row.chunks(slots) {
                let ct = pk
                    .encrypt_slots(chunk, rng)
                    .map_err(|e| SdpError::Ahe(e.to_string()))?;
                cts.push(ct);
            }
        }
    } else {
        // Across-row packing: rows_per_ct consecutive rows share a ciphertext,
        // laid out row-major (row r at slot offset (r mod rows_per_ct) * B).
        for group_start in (0..rows).step_by(rows_per_ct) {
            let group_end = (group_start + rows_per_ct).min(rows);
            let mut slots_buf = Vec::with_capacity(slots);
            for r in group_start..group_end {
                slots_buf.extend_from_slice(model.row(r));
            }
            let ct = pk
                .encrypt_slots(&slots_buf, rng)
                .map_err(|e| SdpError::Ahe(e.to_string()))?;
            cts.push(ct);
        }
    }

    Ok(EncryptedModel {
        packing,
        cts,
        rows,
        cols,
        rows_per_ct,
        cts_per_row,
        slots,
    })
}

/// Per-email phase, client side: computes the encrypted dot products
/// `Enc(d_1 || d_2 || … )` from the sparse feature vector.
///
/// Returns `model.result_ciphertexts()` ciphertexts; with across-row packing
/// the B dot products sit in slots `0..B` of the single result.
pub fn client_dot_product(
    pk: &PublicKey,
    model: &EncryptedModel,
    features: &SparseFeatures,
) -> Result<Vec<Ciphertext>, SdpError> {
    for &(row, _) in features {
        if row >= model.rows {
            return Err(SdpError::FeatureOutOfRange {
                index: row,
                rows: model.rows,
            });
        }
    }
    // One accumulator per result ciphertext: the ⌈B/p⌉ column groups of a
    // row that has ciphertexts to itself, a single one when rows share.
    let groups = model.cts_per_row;
    let mut accs: Vec<_> = (0..groups).map(|_| pk.accumulator()).collect();
    for &(row, freq) in features {
        if freq == 0 {
            continue;
        }
        // "Left shift and add": the row sits `row mod rows_per_ct` rows into
        // its ciphertext, so rotating by that many rows' worth of slots
        // lands its B elements in slots 0..B. Per-row layouts are the
        // rotation-0 case.
        let first_ct = row / model.rows_per_ct * groups;
        let shift = row % model.rows_per_ct * model.cols;
        for (acc, ct) in accs.iter_mut().zip(&model.cts[first_ct..first_ct + groups]) {
            acc.add_rotated_scaled(ct, shift, freq);
        }
    }
    Ok(accs.into_iter().map(Accumulator::finish).collect())
}

/// Per-email phase, client side: blinds every slot of a result ciphertext
/// with fresh uniform noise (mod t), returning the blinded ciphertext and the
/// noise values for the slots of interest (`0..count`). The noise later feeds
/// into Yao as the client's private input.
pub fn blind<R: Rng + ?Sized>(
    pk: &PublicKey,
    ct: &Ciphertext,
    count: usize,
    rng: &mut R,
) -> (Ciphertext, Vec<u64>) {
    let params = pk.params();
    let noise: Vec<u64> = (0..params.slots())
        .map(|_| rng.gen_range(0..params.t))
        .collect();
    let pt = Plaintext::encode(params, &noise).expect("noise fits by construction");
    let blinded = pk.add_plain(ct, &pt);
    (blinded, noise[..count].to_vec())
}

/// Figure 5, step 3 (client side): from the per-column-group dot-product
/// accumulators, extract the candidate columns `candidates` (0-based global
/// column indices), shifting each candidate's dot product into slot 0 of a
/// fresh ciphertext copy.
pub fn extract_candidates(
    pk: &PublicKey,
    accumulators: &[Ciphertext],
    cols: usize,
    candidates: &[usize],
) -> Result<Vec<Ciphertext>, SdpError> {
    let slots = pk.params().slots();
    let mut out = Vec::with_capacity(candidates.len());
    for &col in candidates {
        if col >= cols {
            return Err(SdpError::CandidateOutOfRange { index: col, cols });
        }
        let group = col / slots;
        let slot = col % slots;
        let shifted = pk.rotate_left(&accumulators[group], slot);
        out.push(shifted);
    }
    Ok(out)
}

/// Per-email phase, provider side: reads the first `count` slots of each
/// result ciphertext (Figure 2 step 3 / Figure 5 step 4) with
/// [`SecretKey::decrypt_prefix`]: `count·n` masked adds per ciphertext and no
/// transform for the one or two slots a verdict needs, one transform decrypt
/// when `count` is large enough for that to cost less.
pub fn provider_decrypt(sk: &SecretKey, cts: &[Ciphertext], count: usize) -> Vec<Vec<u64>> {
    cts.iter().map(|ct| sk.decrypt_prefix(ct, count)).collect()
}

/// Reads B dot products from result ciphertexts into one flat vector: the
/// slot groups concatenated, each ciphertext read only as far as it holds
/// one of the `cols` values (two slots of one ciphertext for a spam
/// verdict), through the same prefix decrypt as [`provider_decrypt`].
pub fn provider_decrypt_columns(sk: &SecretKey, cts: &[Ciphertext], cols: usize) -> Vec<u64> {
    let slots = sk.params().slots();
    cts.iter()
        .enumerate()
        .flat_map(|(group, ct)| {
            let count = cols.saturating_sub(group * slots).min(slots);
            sk.decrypt_prefix(ct, count)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_rlwe::{keygen, Params};

    fn setup(n: usize, bits: u32) -> (SecretKey, PublicKey) {
        let params = Params::new(n, bits);
        keygen(&params, None, &mut rand::thread_rng())
    }

    fn demo_model(rows: usize, cols: usize) -> ModelMatrix {
        let data: Vec<u64> = (0..rows * cols)
            .map(|i| ((i * 37 + 11) % 1000) as u64)
            .collect();
        ModelMatrix::from_rows(rows, cols, data)
    }

    fn demo_features(rows: usize, l: usize) -> SparseFeatures {
        (0..l)
            .map(|i| ((i * 7) % rows, (i % 4 + 1) as u64))
            .collect()
    }

    #[test]
    fn across_row_packing_dot_product_matches_reference_spam_shape() {
        // B = 2 (spam), p = 64 slots -> 32 rows per ciphertext.
        let (sk, pk) = setup(64, 24);
        let model = demo_model(100, 2);
        let features = demo_features(100, 40);
        let enc = encrypt_model(&pk, &model, Packing::AcrossRow, &mut rand::thread_rng()).unwrap();
        assert_eq!(enc.rows_per_ct, 32);
        assert_eq!(enc.ciphertext_count(), 100usize.div_ceil(32));
        let result = client_dot_product(&pk, &enc, &features).unwrap();
        assert_eq!(result.len(), 1);
        let expected = model.dot_sparse(&features);
        let decrypted = provider_decrypt(&sk, &result, 2);
        assert_eq!(decrypted[0], expected);
    }

    #[test]
    fn legacy_packing_dot_product_matches_reference() {
        let (sk, pk) = setup(64, 24);
        let model = demo_model(50, 2);
        let features = demo_features(50, 20);
        let enc =
            encrypt_model(&pk, &model, Packing::LegacyPerRow, &mut rand::thread_rng()).unwrap();
        // Legacy: one ciphertext per row.
        assert_eq!(enc.ciphertext_count(), 50);
        let result = client_dot_product(&pk, &enc, &features).unwrap();
        assert_eq!(result.len(), 1);
        let expected = model.dot_sparse(&features);
        let dec = provider_decrypt_columns(&sk, &result, 2);
        assert_eq!(dec, expected);
    }

    #[test]
    fn wide_matrix_spans_multiple_column_groups() {
        // B = 100 > p = 64: both packings degenerate to ⌈B/p⌉ = 2 cts per row.
        let (sk, pk) = setup(64, 24);
        let model = demo_model(30, 100);
        let features = demo_features(30, 15);
        let enc = encrypt_model(&pk, &model, Packing::AcrossRow, &mut rand::thread_rng()).unwrap();
        assert_eq!(enc.ciphertext_count(), 30 * 2);
        let result = client_dot_product(&pk, &enc, &features).unwrap();
        assert_eq!(result.len(), 2);
        let expected = model.dot_sparse(&features);
        let dec = provider_decrypt_columns(&sk, &result, 100);
        assert_eq!(dec, expected);
    }

    #[test]
    fn one_dot_loop_serves_every_layout_with_duplicates_and_zero_frequencies() {
        // Across-row B = 2 (rows share a ciphertext, every rotation in use),
        // per-row legacy (rotation 0, one group) and B > p (rotation 0, two
        // accumulators). The feature list repeats rows, carries zero
        // frequencies, and touches the first and last row of the model and
        // the first and last row of a ciphertext.
        let (sk, pk) = setup(64, 24);
        for (rows, cols, packing, results) in [
            (100usize, 2usize, Packing::AcrossRow, 1usize),
            (50, 2, Packing::LegacyPerRow, 1),
            (30, 100, Packing::AcrossRow, 2),
        ] {
            let model = demo_model(rows, cols);
            let enc = encrypt_model(&pk, &model, packing, &mut rand::thread_rng()).unwrap();
            let last = rows - 1;
            let features: SparseFeatures = vec![
                (0, 3),
                (last, 15),
                (7, 0),
                (7, 2),
                (7, 5),
                (last, 1),
                (enc.rows_per_ct - 1, 4),
                (enc.rows_per_ct % rows, 9),
                (0, 0),
            ];
            let result = client_dot_product(&pk, &enc, &features).unwrap();
            assert_eq!(result.len(), results, "{packing:?} {rows}x{cols}");
            assert_eq!(result.len(), enc.result_ciphertexts());
            assert_eq!(
                provider_decrypt_columns(&sk, &result, cols),
                model.dot_sparse(&features),
                "{packing:?} {rows}x{cols}"
            );
        }
    }

    #[test]
    fn blinding_hides_and_subtracts_out() {
        let (sk, pk) = setup(64, 24);
        let model = demo_model(40, 2);
        let features = demo_features(40, 10);
        let enc = encrypt_model(&pk, &model, Packing::AcrossRow, &mut rand::thread_rng()).unwrap();
        let result = client_dot_product(&pk, &enc, &features).unwrap();
        let (blinded, noise) = blind(&pk, &result[0], 2, &mut rand::thread_rng());
        let expected = model.dot_sparse(&features);
        let dec = provider_decrypt(&sk, &[blinded], 2);
        let t = pk.params().t;
        for j in 0..2 {
            assert_eq!(dec[0][j], (expected[j] + noise[j]) % t);
            // Removing the noise mod t recovers the true dot product.
            assert_eq!((dec[0][j] + t - noise[j]) % t, expected[j] % t);
        }
    }

    #[test]
    fn candidate_extraction_pulls_requested_columns_to_slot_zero() {
        let (sk, pk) = setup(64, 24);
        let cols = 150; // spans 3 column groups of 64
        let model = demo_model(20, cols);
        let features = demo_features(20, 10);
        let enc = encrypt_model(&pk, &model, Packing::AcrossRow, &mut rand::thread_rng()).unwrap();
        let accs = client_dot_product(&pk, &enc, &features).unwrap();
        let expected = model.dot_sparse(&features);
        let candidates = vec![0usize, 63, 64, 100, 149];
        let extracted = extract_candidates(&pk, &accs, cols, &candidates).unwrap();
        for (ct, &col) in extracted.iter().zip(&candidates) {
            assert_eq!(sk.decrypt_slots(ct)[0], expected[col], "column {col}");
        }
        assert!(extract_candidates(&pk, &accs, cols, &[cols]).is_err());
    }

    #[test]
    fn ciphertext_count_formula_matches_actual_encryption() {
        let (_, pk) = setup(64, 24);
        for (rows, cols, packing) in [
            (100usize, 2usize, Packing::AcrossRow),
            (100, 2, Packing::LegacyPerRow),
            (30, 100, Packing::AcrossRow),
            (7, 64, Packing::AcrossRow),
        ] {
            let model = demo_model(rows, cols);
            let enc = encrypt_model(&pk, &model, packing, &mut rand::thread_rng()).unwrap();
            assert_eq!(
                enc.ciphertext_count(),
                model_ciphertext_count(rows, cols, 64, packing),
                "rows={rows} cols={cols} {packing:?}"
            );
        }
    }

    /// Runs encrypt → dot-product → blind → decrypt with every RNG pinned to
    /// `seed`, returning the serialized model bytes and the recovered dot
    /// products. Determinism of this whole pipeline is what lets the
    /// integration suite pin transcripts across runs.
    fn fixed_seed_pipeline(seed: u64, packing: Packing) -> (Vec<u8>, Vec<u64>) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let params = Params::new(64, 24);
        let mut rng = StdRng::seed_from_u64(seed);
        let (sk, pk) = keygen(&params, Some(&[7u8; 32]), &mut rng);
        let model = demo_model(40, 2);
        let features = demo_features(40, 12);
        let enc = encrypt_model(&pk, &model, packing, &mut rng).unwrap();
        let model_bytes: Vec<u8> = enc
            .ciphertexts()
            .iter()
            .flat_map(|c| c.to_bytes())
            .collect();
        let result = client_dot_product(&pk, &enc, &features).unwrap();
        let (blinded, noise) = blind(&pk, &result[0], 2, &mut rng);
        let dec = provider_decrypt(&sk, &[blinded], 2);
        let t = pk.params().t;
        let unblinded: Vec<u64> = dec[0]
            .iter()
            .zip(noise.iter())
            .map(|(&d, &n)| (d + t - n) % t)
            .collect();
        (model_bytes, unblinded)
    }

    #[test]
    fn fixed_seed_roundtrip_is_deterministic_and_correct() {
        for packing in [Packing::AcrossRow, Packing::LegacyPerRow] {
            let (bytes_a, dots_a) = fixed_seed_pipeline(0x5EED, packing);
            let (bytes_b, dots_b) = fixed_seed_pipeline(0x5EED, packing);
            assert_eq!(
                bytes_a, bytes_b,
                "{packing:?}: same seed must give byte-identical encrypted models"
            );
            assert_eq!(dots_a, dots_b);
            // And the recovered values agree with the plaintext reference.
            let expected = demo_model(40, 2).dot_sparse(&demo_features(40, 12));
            assert_eq!(dots_a, expected, "{packing:?}");
        }
    }

    #[test]
    fn different_seeds_change_ciphertexts_but_not_dot_products() {
        let (bytes_a, dots_a) = fixed_seed_pipeline(1, Packing::AcrossRow);
        let (bytes_b, dots_b) = fixed_seed_pipeline(2, Packing::AcrossRow);
        assert_ne!(bytes_a, bytes_b, "encryption must be randomized");
        assert_eq!(dots_a, dots_b, "randomness must not affect results");
    }

    #[test]
    fn oversized_model_values_rejected() {
        let (_, pk) = setup(64, 12);
        let mut model = ModelMatrix::zeros(4, 2);
        model.set(1, 1, 1 << 12);
        assert!(matches!(
            encrypt_model(&pk, &model, Packing::AcrossRow, &mut rand::thread_rng()),
            Err(SdpError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn out_of_range_feature_rejected() {
        let (_, pk) = setup(64, 24);
        let model = demo_model(10, 2);
        let enc = encrypt_model(&pk, &model, Packing::AcrossRow, &mut rand::thread_rng()).unwrap();
        assert!(matches!(
            client_dot_product(&pk, &enc, &vec![(10, 1)]),
            Err(SdpError::FeatureOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_frequency_features_do_not_contribute() {
        let (sk, pk) = setup(64, 24);
        let model = demo_model(20, 2);
        let enc = encrypt_model(&pk, &model, Packing::AcrossRow, &mut rand::thread_rng()).unwrap();
        let features: SparseFeatures = vec![(3, 0), (5, 2)];
        let result = client_dot_product(&pk, &enc, &features).unwrap();
        let dec = provider_decrypt(&sk, &result, 2);
        assert_eq!(dec[0], model.dot_sparse(&[(5, 2)]));
    }
}
