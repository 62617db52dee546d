//! The AHE endpoint the dot-product modules share (paper §3.3, §4.1–§4.3).
//!
//! Spam filtering, topic extraction and virus scanning are one protocol: an
//! AHE dot product over the provider's encrypted model whose blinded result
//! feeds a Yao circuit (Figure 2). Everything on the AHE side of that
//! sentence lives here, once:
//!
//! * **Setup** — joint randomness (§3.3 footnote 3), provider key
//!   generation, model encryption and the `rows, cols, pk, count, blob`
//!   transfer on one side (`AheProvider::setup`); receiving, validating
//!   and reassembling that transfer on the other (`AheClient::setup`).
//! * **Per email** — the client's dot product and blinding
//!   (`AheClient::blinded_round`) and the provider's decryption of the
//!   blinded result (`AheProvider::decrypt_blinded`).
//!
//! The modules keep what the paper says differs between them: the circuit,
//! who garbles, how candidates are chosen, and where the output goes.
//!
//! The provider is not trusted by the client (§2.1), so
//! `AheClient::setup` checks the announced model layout before building
//! anything from it: a malformed header is a [`PretzelError::Protocol`]
//! error, never a panic or an out-of-bounds index several rounds later.

use rand::Rng;

use pretzel_classifiers::{LinearModel, QuantizedModel, SparseVector};
use pretzel_sdp::paillier_pack::{self, PaillierPackParams};
use pretzel_sdp::rlwe_pack::{self, Packing};
use pretzel_sdp::ModelMatrix;
use pretzel_transport::Channel;

use crate::config::PretzelConfig;
use crate::setup::{joint_randomness_initiator, joint_randomness_responder};
use crate::{parse_u64, u64_bytes, PretzelError, Result};

/// Which additively homomorphic cryptosystem (and packing) a session uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AheVariant {
    /// XPIR-BV (Ring-LWE) with Pretzel's across-row packing (§4.1–§4.2).
    Pretzel,
    /// Paillier with GLLM's legacy packing — the §3.3 Baseline.
    Baseline,
}

/// Builds the quantized model matrix (weights plus bias row) the secure
/// protocols operate on.
fn quantize_to_matrix(model: &LinearModel, weight_bits: u32) -> ModelMatrix {
    let q = QuantizedModel::from_model(model, weight_bits);
    ModelMatrix::from_rows(q.rows, q.cols, q.data)
}

/// Low `width` bits set — the mask blinded values and noises are reduced
/// with before they become circuit inputs.
pub(crate) fn bits_mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

fn ahe_error(e: impl std::fmt::Display) -> PretzelError {
    PretzelError::Ahe(e.to_string())
}

enum ProviderCrypto {
    Pretzel {
        sk: pretzel_rlwe::SecretKey,
    },
    Baseline {
        // Boxed: a Paillier secret key (CRT contexts included) dwarfs the
        // RLWE variant, and clippy::large_enum_variant fires otherwise.
        sk: Box<pretzel_paillier::SecretKey>,
        slot_bits: u32,
        slots_per_ct: usize,
    },
}

/// Provider half of the AHE endpoint: the secret key the model was encrypted
/// under, and the layout needed to read blinded results back.
pub(crate) struct AheProvider {
    crypto: ProviderCrypto,
    /// Number of model columns (the paper's B).
    pub(crate) cols: usize,
    /// Bit width of one blinded value — the circuit's input width.
    pub(crate) width: usize,
}

impl AheProvider {
    /// Setup phase, provider side: derives the joint randomness, generates
    /// the AHE key pair, encrypts `model` and ships `rows, cols, pk, count,
    /// blob`. Returns the endpoint and the joint seed (which also fixes the
    /// session's OT group).
    pub(crate) fn setup<C: Channel, R: Rng + ?Sized>(
        channel: &mut C,
        model: &LinearModel,
        config: &PretzelConfig,
        variant: AheVariant,
        rng: &mut R,
    ) -> Result<(Self, [u8; 32])> {
        let matrix = quantize_to_matrix(model, config.weight_bits);
        let seed = joint_randomness_initiator(channel, rng)?;
        channel.send(&u64_bytes(matrix.rows() as u64))?;
        channel.send(&u64_bytes(matrix.cols() as u64))?;

        let (crypto, width, pk_bytes, count, blob) = match variant {
            AheVariant::Pretzel => {
                let params = config.rlwe_params();
                let (sk, pk) = pretzel_rlwe::keygen(&params, Some(&seed), rng);
                let enc = rlwe_pack::encrypt_model(&pk, &matrix, Packing::AcrossRow, rng)?;
                let mut blob = Vec::with_capacity(enc.size_bytes(&pk));
                for ct in enc.ciphertexts() {
                    blob.extend_from_slice(&ct.to_bytes());
                }
                (
                    ProviderCrypto::Pretzel { sk },
                    config.rlwe_plain_bits as usize,
                    pk.to_bytes(),
                    enc.ciphertext_count(),
                    blob,
                )
            }
            AheVariant::Baseline => {
                let sk = pretzel_paillier::keygen(config.paillier_bits, rng);
                let pk = sk.public().clone();
                let pack = PaillierPackParams {
                    slot_bits: config.paillier_slot_bits,
                };
                let enc = paillier_pack::encrypt_model(&pk, &matrix, pack, rng)?;
                let mut blob = Vec::with_capacity(enc.size_bytes(&pk));
                for ct in enc.ciphertexts() {
                    blob.extend_from_slice(&ct.to_bytes(&pk));
                }
                (
                    ProviderCrypto::Baseline {
                        sk: Box::new(sk),
                        slot_bits: config.paillier_slot_bits,
                        slots_per_ct: pack.slots_per_ct(&pk),
                    },
                    config.paillier_slot_bits as usize,
                    pk.to_bytes(),
                    enc.ciphertext_count(),
                    blob,
                )
            }
        };
        channel.send(&pk_bytes)?;
        channel.send(&u64_bytes(count as u64))?;
        channel.send(&blob)?;

        let provider = AheProvider {
            crypto,
            cols: matrix.cols(),
            width,
        };
        Ok((provider, seed))
    }

    /// Decrypts one round's blinded blob into values reduced to the circuit
    /// width: the model's `cols` columns in order — or, when the blob holds
    /// exactly `singles` RLWE ciphertexts, slot 0 of each (the decomposed
    /// candidates of Figure 5, which the Baseline does not have). A blob of
    /// any other size is rejected before anything is decrypted, so the client
    /// cannot buy extra decryptions with a longer message.
    pub(crate) fn decrypt_blinded(&self, blob: &[u8], singles: Option<usize>) -> Result<Vec<u64>> {
        let (ct_len, slots, singles) = match &self.crypto {
            ProviderCrypto::Pretzel { sk } => {
                (sk.params().ciphertext_bytes(), sk.params().slots(), singles)
            }
            ProviderCrypto::Baseline {
                sk, slots_per_ct, ..
            } => (
                pretzel_paillier::Ciphertext::serialized_len(sk.public().n_bits()),
                *slots_per_ct,
                None,
            ),
        };
        let count = blob.len() / ct_len;
        let as_singles = singles == Some(count);
        if blob.is_empty()
            || !blob.len().is_multiple_of(ct_len)
            || !(as_singles || count == self.cols.div_ceil(slots))
        {
            return Err(PretzelError::Protocol("bad per-email blob".into()));
        }
        let chunks = blob.chunks_exact(ct_len);
        let mut values = match &self.crypto {
            ProviderCrypto::Pretzel { sk } => {
                let cts = chunks
                    .map(|c| pretzel_rlwe::Ciphertext::from_bytes(sk.params(), c))
                    .collect::<std::result::Result<Vec<_>, _>>()
                    .map_err(ahe_error)?;
                if as_singles {
                    rlwe_pack::provider_decrypt(sk, &cts, 1).concat()
                } else {
                    rlwe_pack::provider_decrypt_columns(sk, &cts, self.cols)
                }
            }
            ProviderCrypto::Baseline {
                sk,
                slot_bits,
                slots_per_ct,
            } => {
                let cts: Vec<_> = chunks
                    .map(pretzel_paillier::Ciphertext::from_bytes)
                    .collect();
                paillier_pack::provider_decrypt(sk, self.cols, *slot_bits, *slots_per_ct, &cts)?
            }
        };
        let mask = bits_mask(self.width);
        values.iter_mut().for_each(|v| *v &= mask);
        Ok(values)
    }
}

enum ClientCrypto {
    Pretzel {
        pk: pretzel_rlwe::PublicKey,
        model: rlwe_pack::EncryptedModel,
    },
    Baseline {
        pk: pretzel_paillier::PublicKey,
        model: paillier_pack::PaillierEncryptedModel,
    },
}

/// Client half of the AHE endpoint: the provider's public key and encrypted
/// model, as received and validated during setup.
pub(crate) struct AheClient {
    crypto: ClientCrypto,
    /// Number of model columns (the paper's B).
    pub(crate) cols: usize,
    /// Bit width of one blinded value — the circuit's input width.
    pub(crate) width: usize,
    /// Row index of the bias row (= number of model features).
    bias_row: usize,
    max_freq: u64,
}

impl AheClient {
    /// Setup phase, client side: derives the joint randomness, then receives
    /// and validates `rows, cols, pk, count, blob` and reassembles the
    /// encrypted model. A module whose models have a fixed number of columns
    /// names it in `fixed_cols`. Returns the endpoint and the joint seed.
    pub(crate) fn setup<C: Channel, R: Rng + ?Sized>(
        channel: &mut C,
        config: &PretzelConfig,
        variant: AheVariant,
        fixed_cols: Option<usize>,
        rng: &mut R,
    ) -> Result<(Self, [u8; 32])> {
        let seed = joint_randomness_responder(channel, rng)?;
        let rows = parse_u64(&channel.recv()?)? as usize;
        let cols = parse_u64(&channel.recv()?)? as usize;
        // `rows * cols` bounds every product the layout formulas form.
        if rows == 0 || cols == 0 || rows.checked_mul(cols).is_none() {
            return Err(PretzelError::Protocol(format!(
                "model header announces an impossible {rows} x {cols} layout"
            )));
        }
        if let Some(fixed) = fixed_cols.filter(|&fixed| fixed != cols) {
            return Err(PretzelError::Protocol(format!(
                "model header announces {cols} columns, this module's models have {fixed}"
            )));
        }
        let pk_bytes = channel.recv()?;
        let count = parse_u64(&channel.recv()?)? as usize;
        let blob = channel.recv()?;
        // Splits the blob into the `expected` ciphertexts of `ct_len` bytes
        // the announced layout calls for, or rejects the transfer.
        let chunks = |expected: usize, ct_len: usize| {
            if count != expected || count.checked_mul(ct_len) != Some(blob.len()) {
                return Err(PretzelError::Protocol(format!(
                    "model transfer announces {count} ciphertexts in {} bytes; a {rows} x {cols} \
                     model takes {expected} of {ct_len} bytes",
                    blob.len()
                )));
            }
            Ok(blob.chunks_exact(ct_len))
        };

        let (crypto, width) = match variant {
            AheVariant::Pretzel => {
                let params = config.rlwe_params();
                let pk =
                    pretzel_rlwe::PublicKey::from_bytes(&params, &pk_bytes).map_err(ahe_error)?;
                let packing = Packing::AcrossRow;
                let expected =
                    rlwe_pack::model_ciphertext_count(rows, cols, params.slots(), packing);
                let cts = chunks(expected, params.ciphertext_bytes())?
                    .map(|c| pretzel_rlwe::Ciphertext::from_bytes(&params, c))
                    .collect::<std::result::Result<Vec<_>, _>>()
                    .map_err(ahe_error)?;
                let model =
                    rlwe_pack::EncryptedModel::from_parts(packing, cts, rows, cols, params.slots());
                (
                    ClientCrypto::Pretzel { pk, model },
                    config.rlwe_plain_bits as usize,
                )
            }
            AheVariant::Baseline => {
                let pk = pretzel_paillier::PublicKey::from_bytes(&pk_bytes).map_err(ahe_error)?;
                let pack = PaillierPackParams {
                    slot_bits: config.paillier_slot_bits,
                };
                let slots_per_ct = pack.slots_per_ct(&pk);
                let expected = paillier_pack::model_ciphertext_count(rows, cols, slots_per_ct);
                let ct_len = pretzel_paillier::Ciphertext::serialized_len(pk.n_bits());
                let cts = chunks(expected, ct_len)?
                    .map(pretzel_paillier::Ciphertext::from_bytes)
                    .collect();
                let model = paillier_pack::PaillierEncryptedModel::from_parts(
                    pack,
                    cts,
                    rows,
                    cols,
                    slots_per_ct,
                );
                (
                    ClientCrypto::Baseline { pk, model },
                    config.paillier_slot_bits as usize,
                )
            }
        };
        let client = AheClient {
            crypto,
            cols,
            width,
            bias_row: rows - 1,
            max_freq: config.max_frequency(),
        };
        Ok((client, seed))
    }

    /// Client-side storage consumed by the encrypted model in bytes — the
    /// quantity Figures 8 and 12 report.
    pub(crate) fn model_storage_bytes(&self) -> usize {
        match &self.crypto {
            ClientCrypto::Pretzel { pk, model } => model.size_bytes(pk),
            ClientCrypto::Baseline { pk, model } => model.size_bytes(pk),
        }
    }

    /// Converts an email's sparse token counts into the protocol's
    /// (row, frequency) form, clamping frequencies and appending the bias row.
    fn protocol_features(&self, features: &SparseVector) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> = features
            .iter()
            .filter(|&(i, _)| i < self.bias_row)
            .map(|(i, c)| (i, (c as u64).min(self.max_freq)))
            .collect();
        out.push((self.bias_row, 1));
        out
    }

    /// Per-email phase, client side: computes the encrypted dot products of
    /// `features` with every model column and blinds them, without touching
    /// the channel. Returns the blob to send and the blinding noise, reduced
    /// to the circuit width, in the order the provider will read the values
    /// back: one entry per column — or, with `candidates` on the RLWE variant,
    /// one entry per candidate, each candidate's dot product moved into slot
    /// 0 of a ciphertext of its own (Figure 5, step 3). The Baseline has no
    /// such extraction and always sends every column.
    pub(crate) fn blinded_round<R: Rng + ?Sized>(
        &self,
        features: &SparseVector,
        candidates: Option<&[usize]>,
        rng: &mut R,
    ) -> Result<(Vec<u8>, Vec<u64>)> {
        let sparse = self.protocol_features(features);
        let cols = self.cols;
        let (blob, mut noises) = match &self.crypto {
            ClientCrypto::Pretzel { pk, model } => {
                let accs = rlwe_pack::client_dot_product(pk, model, &sparse)?;
                match candidates {
                    Some(candidates) => {
                        let singles = rlwe_pack::extract_candidates(pk, &accs, cols, candidates)?;
                        blind_each(&singles, 1, singles.len(), |ct| {
                            let (blinded, noise) = rlwe_pack::blind(pk, ct, 1, rng);
                            (blinded.to_bytes(), noise)
                        })
                    }
                    None => {
                        let slots = pk.params().slots();
                        blind_each(&accs, slots, cols, |acc| {
                            let (blinded, noise) = rlwe_pack::blind(pk, acc, slots, rng);
                            (blinded.to_bytes(), noise)
                        })
                    }
                }
            }
            ClientCrypto::Baseline { pk, model } => {
                let accs = paillier_pack::client_dot_product(pk, model, &sparse, rng)?;
                let slots = model.slots_per_ct();
                blind_each(&accs, slots, cols, |acc| {
                    let (blinded, noise) = paillier_pack::blind(pk, model, acc, slots, rng);
                    (blinded.to_bytes(pk), noise)
                })
            }
        };
        let mask = bits_mask(self.width);
        noises.iter_mut().for_each(|n| *n &= mask);
        Ok((blob, noises))
    }
}

/// Blinds each ciphertext with `blind` (which returns the blinded bytes and
/// the noise of the ciphertext's first `stride` slots), concatenating the
/// bytes and laying the noise out as `total` consecutive values.
fn blind_each<A>(
    cts: &[A],
    stride: usize,
    total: usize,
    mut blind: impl FnMut(&A) -> (Vec<u8>, Vec<u64>),
) -> (Vec<u8>, Vec<u64>) {
    let mut blob = Vec::new();
    let mut noises = vec![0u64; total];
    for (ct, values) in cts.iter().zip(noises.chunks_mut(stride)) {
        let (bytes, noise) = blind(ct);
        blob.extend_from_slice(&bytes);
        values.copy_from_slice(&noise[..values.len()]);
    }
    (blob, noises)
}
