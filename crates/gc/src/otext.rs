//! IKNP oblivious-transfer extension.
//!
//! Base OTs (public-key operations) are expensive; the IKNP protocol converts
//! 128 of them — run once, during the Yao session's setup phase — into an
//! unbounded stream of fast symmetric-key OTs, one batch per email. This is
//! the standard mechanism behind the paper's statement that the expensive
//! 2PC machinery "can be incurred during the setup phase and amortized"
//! (§3.3). The extended OTs carry the evaluator's wire labels.
//!
//! Protocol sketch (semi-honest):
//!
//! * Setup: the *extension receiver* R (who will hold choice bits) acts as
//!   base-OT **sender** with 128 random seed pairs; the *extension sender* S
//!   acts as base-OT **receiver** with a random 128-bit string `s`, learning
//!   one seed of each pair.
//! * Extend (m OTs): R expands both seeds of pair `i` into m-bit columns
//!   `G(k⁰_i)`, `G(k¹_i)` and sends `u_i = G(k⁰_i) ⊕ G(k¹_i) ⊕ r`, where `r`
//!   is the m-bit choice vector. S reconstructs a matrix Q whose row `j`
//!   satisfies `q_j = t_j ⊕ (r_j · s)`; it then masks each message pair with
//!   `H(q_j, i)` and `H(q_j ⊕ s, i)`. R unmasks its chosen message with
//!   `H(t_j, i)`.
//!
//! `H` is the gate hash, [`pretzel_primitives::gate_hash`]; the tweak `i` of
//! an OT is its position among every OT the session has extended
//! (`take_tweaks`), so no two OTs of a session share one however its
//! batches are sized.
//!
//! Layout: each side holds its matrix (Q or T, and U) as one flat
//! column-major buffer of KAPPA columns of `⌈m/8⌉` bytes, each column filled
//! in place by [`Prg::fill`]. Rows come out of it eight at a time through
//! 8×8 bit-block transposes ([`transpose_8x8`], shared with the software
//! AES), sixteen blocks per eight rows, rather than one bit per column per
//! row.

use rand::Rng;

use pretzel_primitives::{gate_hash, transpose_8x8, Prg};
use pretzel_transport::Channel;

use crate::garble::Label;
use crate::ot::{base_ot_receive, base_ot_send, OtGroup, OT_MSG_LEN};
use crate::GcError;

/// Security parameter: number of base OTs / matrix columns.
pub const KAPPA: usize = 128;

/// Sender side of OT extension (in Yao: the garbler, who owns label pairs).
pub struct OtExtSender {
    /// The 128-bit base-OT choice string `s`.
    s: [bool; KAPPA],
    /// PRG streams seeded with the chosen base-OT seeds `k^{s_i}_i`.
    seeds: Vec<Prg>,
    /// OTs extended so far (the next OT's tweak).
    extended: u64,
}

/// Receiver side of OT extension (in Yao: the evaluator, who owns choices).
pub struct OtExtReceiver {
    /// PRG streams for both seeds of every base pair.
    seeds0: Vec<Prg>,
    seeds1: Vec<Prg>,
    /// OTs extended so far, in step with the sender's count.
    extended: u64,
}

impl OtExtSender {
    /// Runs the setup phase (acts as base-OT receiver with random choices).
    pub fn setup<C: Channel>(
        channel: &mut C,
        group: &OtGroup,
        rng: &mut (impl Rng + ?Sized),
    ) -> Result<Self, GcError> {
        let s: [bool; KAPPA] = std::array::from_fn(|_| rng.gen());
        let received = base_ot_receive(channel, group, &s, rng)?;
        let seeds = received.iter().map(Prg::new).collect();
        Ok(OtExtSender {
            s,
            seeds,
            extended: 0,
        })
    }

    /// Sends one batch of message pairs; the receiver obtains exactly one
    /// label of each pair according to its choice bits.
    pub fn extend<C: Channel>(
        &mut self,
        channel: &mut C,
        pairs: &[(Label, Label)],
    ) -> Result<(), GcError> {
        let m = pairs.len();
        if m == 0 {
            return Ok(());
        }
        let col_bytes = m.div_ceil(8);

        // Receive the correction matrix U (KAPPA columns of m bits).
        let u_flat = channel.recv()?;
        if u_flat.len() != KAPPA * col_bytes {
            return Err(GcError::Protocol("bad OT-extension matrix size".into()));
        }

        // Q column by column: q_i = G(k^{s_i}_i) XOR (s_i ? u_i : 0), the
        // choice applied as a byte mask rather than a branch on s.
        let mut q = vec![0u8; KAPPA * col_bytes];
        let columns = q
            .chunks_exact_mut(col_bytes)
            .zip(u_flat.chunks_exact(col_bytes));
        for ((col, u_col), (seed, &s_i)) in columns.zip(self.seeds.iter_mut().zip(&self.s)) {
            seed.fill(col);
            let select = u8::from(s_i).wrapping_neg();
            for (c, &u) in col.iter_mut().zip(u_col) {
                *c ^= u & select;
            }
        }

        // Transpose to rows, mask the message pairs and send.
        let s_block = bools_to_label(&self.s);
        let mut payload = Vec::with_capacity(m * 32);
        let tweaks = take_tweaks(&mut self.extended, m);
        for (((m0, m1), tweak), q_row) in pairs.iter().zip(tweaks).zip(matrix_rows(&q, m)) {
            let q_xor_s = xor16(&q_row, &s_block);
            let [pad0, pad1] = gate_hash([(q_row, tweak), (q_xor_s, tweak)]);
            payload.extend_from_slice(&xor16(m0, &pad0));
            payload.extend_from_slice(&xor16(m1, &pad1));
        }
        channel.send(&payload)?;
        Ok(())
    }
}

impl OtExtReceiver {
    /// Runs the setup phase (acts as base-OT sender with random seed pairs).
    pub fn setup<C: Channel>(
        channel: &mut C,
        group: &OtGroup,
        rng: &mut (impl Rng + ?Sized),
    ) -> Result<Self, GcError> {
        let pairs: Vec<([u8; OT_MSG_LEN], [u8; OT_MSG_LEN])> =
            (0..KAPPA).map(|_| (rng.gen(), rng.gen())).collect();
        base_ot_send(channel, group, &pairs, rng)?;
        Ok(OtExtReceiver {
            seeds0: pairs.iter().map(|(k0, _)| Prg::new(k0)).collect(),
            seeds1: pairs.iter().map(|(_, k1)| Prg::new(k1)).collect(),
            extended: 0,
        })
    }

    /// Receives one batch of OTs for the given choice bits.
    pub fn extend<C: Channel>(
        &mut self,
        channel: &mut C,
        choices: &[bool],
    ) -> Result<Vec<Label>, GcError> {
        let m = choices.len();
        if m == 0 {
            return Ok(Vec::new());
        }
        let col_bytes = m.div_ceil(8);
        let r_bytes = bools_to_bytes(choices);

        // T columns and the correction matrix U: t_i = G(k⁰_i) and
        // u_i = t_i XOR G(k¹_i) XOR r.
        let mut t = vec![0u8; KAPPA * col_bytes];
        let mut u_flat = vec![0u8; KAPPA * col_bytes];
        let columns = t
            .chunks_exact_mut(col_bytes)
            .zip(u_flat.chunks_exact_mut(col_bytes));
        for ((t_col, u_col), (seed0, seed1)) in
            columns.zip(self.seeds0.iter_mut().zip(&mut self.seeds1))
        {
            seed0.fill(t_col);
            seed1.fill(u_col);
            for ((u, &t), &r) in u_col.iter_mut().zip(t_col.iter()).zip(&r_bytes) {
                *u ^= t ^ r;
            }
        }
        channel.send(&u_flat)?;

        // Receive masked pairs and unmask the chosen one per row.
        let payload = channel.recv()?;
        if payload.len() != m * 32 {
            return Err(GcError::Protocol("bad OT-extension payload size".into()));
        }
        let mut out = Vec::with_capacity(m);
        let tweaks = take_tweaks(&mut self.extended, m);
        let rows = choices.iter().zip(tweaks).zip(matrix_rows(&t, m));
        for (j, ((&c, tweak), t_row)) in rows.enumerate() {
            let [pad] = gate_hash([(t_row, tweak)]);
            let offset = j * 32 + if c { 16 } else { 0 };
            let mut label = [0u8; 16];
            label.copy_from_slice(&payload[offset..offset + 16]);
            out.push(xor16(&label, &pad));
        }
        Ok(out)
    }
}

/// Gate-hash tweaks of OT extension: bit 64 set, above every garbled gate's
/// tweak (`garble::gate_tweaks` stays below 2⁶⁴).
const OT_TWEAK_DOMAIN: u128 = 1 << 64;

/// The tweaks of the next `m` OTs of a session that has extended
/// `*extended` so far, which then advances past them. Counting every OT ever
/// extended, rather than numbering rows within a batch, keeps tweaks
/// distinct across batches of any size.
fn take_tweaks(extended: &mut u64, m: usize) -> impl Iterator<Item = u128> {
    let first = *extended;
    *extended += m as u64;
    (first..*extended).map(|n| OT_TWEAK_DOMAIN | n as u128)
}

fn xor16(a: &Label, b: &Label) -> Label {
    let mut out = [0u8; 16];
    for i in 0..16 {
        out[i] = a[i] ^ b[i];
    }
    out
}

fn bools_to_bytes(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

fn bools_to_label(bits: &[bool; KAPPA]) -> Label {
    let bytes = bools_to_bytes(bits);
    let mut out = [0u8; 16];
    out.copy_from_slice(&bytes[..16]);
    out
}

/// Rows `0..m` of an m × KAPPA bit matrix stored column by column, as
/// labels: column `i` is `matrix[i·⌈m/8⌉..]`, row `j` its bit `j % 8` of
/// byte `j / 8`, and a row holds column `i` at bit `i % 8` of byte `i / 8`.
///
/// Byte `b` of eight neighbouring columns `8c..8c + 8` is an 8×8 bit block
/// of rows `8b..8b + 8`; one [`transpose_8x8`] turns it into byte `c` of
/// each of those rows, so eight rows cost KAPPA/8 = 16 transposes.
fn matrix_rows(matrix: &[u8], m: usize) -> impl Iterator<Item = Label> + '_ {
    let col_bytes = m.div_ceil(8);
    assert_eq!(matrix.len(), KAPPA * col_bytes, "not a KAPPA-column matrix");
    (0..col_bytes)
        .flat_map(move |b| {
            let mut rows = [[0u8; 16]; 8];
            for c in 0..KAPPA / 8 {
                let block = (0..8).fold(0u64, |block, r| {
                    block | u64::from(matrix[(8 * c + r) * col_bytes + b]) << (8 * r)
                });
                for (row, byte) in rows.iter_mut().zip(transpose_8x8(block).to_le_bytes()) {
                    row[c] = byte;
                }
            }
            rows
        })
        .take(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_transport::run_two_party;
    use rand::Rng;

    /// Row `j` of a column-stored matrix, one bit at a time: the oracle
    /// of [`matrix_rows`].
    fn extract_row(matrix: &[u8], col_bytes: usize, j: usize) -> Label {
        let mut row = [0u8; 16];
        for (i, col) in matrix.chunks_exact(col_bytes).enumerate() {
            let bit = (col[j / 8] >> (j % 8)) & 1;
            if bit == 1 {
                row[i / 8] |= 1 << (i % 8);
            }
        }
        row
    }

    #[test]
    fn block_transpose_equals_the_bitwise_rows() {
        let mut rng = rand::thread_rng();
        for m in [1usize, 7, 8, 9, 600, 601, 4800] {
            let col_bytes = m.div_ceil(8);
            let matrix: Vec<u8> = (0..KAPPA * col_bytes).map(|_| rng.gen()).collect();
            let rows: Vec<Label> = matrix_rows(&matrix, m).collect();
            assert_eq!(rows.len(), m);
            for (j, row) in rows.iter().enumerate() {
                assert_eq!(*row, extract_row(&matrix, col_bytes, j), "m={m} row {j}");
            }
        }
    }

    #[test]
    fn extension_delivers_chosen_labels_across_multiple_rounds() {
        let group = OtGroup::insecure_test_group(64, &mut rand::thread_rng());
        let group_b = group.clone();
        let mut rng = rand::thread_rng();

        // Rounds of different sizes, simulating several emails; 1, 9 and
        // 601 leave the last byte of every matrix column partly used.
        let rounds: Vec<usize> = vec![40, 129, 1, 9, 601];
        let all_pairs: Vec<Vec<(Label, Label)>> = rounds
            .iter()
            .map(|&m| (0..m).map(|_| (rng.gen(), rng.gen())).collect())
            .collect();
        let all_choices: Vec<Vec<bool>> = rounds
            .iter()
            .map(|&m| (0..m).map(|_| rng.gen()).collect())
            .collect();

        let pairs_for_sender = all_pairs.clone();
        let choices_for_recv = all_choices.clone();
        let (send_res, recv_res) = run_two_party(
            move |chan| -> Result<(), GcError> {
                let mut rng = rand::thread_rng();
                let mut sender = OtExtSender::setup(chan, &group, &mut rng)?;
                for pairs in &pairs_for_sender {
                    sender.extend(chan, pairs)?;
                }
                Ok(())
            },
            move |chan| -> Result<Vec<Vec<Label>>, GcError> {
                let mut rng = rand::thread_rng();
                let mut receiver = OtExtReceiver::setup(chan, &group_b, &mut rng)?;
                let mut got = Vec::new();
                for choices in &choices_for_recv {
                    got.push(receiver.extend(chan, choices)?);
                }
                Ok(got)
            },
        );
        send_res.unwrap();
        let received = recv_res.unwrap();
        for (round, (pairs, choices)) in all_pairs.iter().zip(all_choices.iter()).enumerate() {
            for j in 0..pairs.len() {
                let expected = if choices[j] { pairs[j].1 } else { pairs[j].0 };
                assert_eq!(received[round][j], expected, "round {round}, OT {j}");
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let group = OtGroup::insecure_test_group(64, &mut rand::thread_rng());
        let group_b = group.clone();
        let (send_res, recv_res) = run_two_party(
            move |chan| -> Result<(), GcError> {
                let mut rng = rand::thread_rng();
                let mut sender = OtExtSender::setup(chan, &group, &mut rng)?;
                sender.extend(chan, &[])
            },
            move |chan| -> Result<Vec<Label>, GcError> {
                let mut rng = rand::thread_rng();
                let mut receiver = OtExtReceiver::setup(chan, &group_b, &mut rng)?;
                receiver.extend(chan, &[])
            },
        );
        send_res.unwrap();
        assert!(recv_res.unwrap().is_empty());
    }

    #[test]
    fn tweaks_stay_distinct_across_a_batch_larger_than_2_pow_20() {
        // One batch of 2²⁰ + 5 OTs (a topic batch of 4096 rounds extends
        // 2 457 600), then a batch of 3: no tweak may repeat.
        let mut extended = 0;
        let mut tweaks: Vec<u128> = take_tweaks(&mut extended, (1 << 20) + 5).collect();
        tweaks.extend(take_tweaks(&mut extended, 3));
        let count = tweaks.len();
        tweaks.sort_unstable();
        tweaks.dedup();
        assert_eq!(tweaks.len(), count, "a tweak was reused");
        assert!(tweaks.iter().all(|t| t >> 64 == 1), "outside the OT domain");
        assert_eq!(extended, (1 << 20) + 8);
    }

    #[test]
    fn bit_packing_helpers() {
        let bits = vec![true, false, false, true, true, false, false, false, true];
        let bytes = bools_to_bytes(&bits);
        assert_eq!(bytes, vec![0b0001_1001, 0b0000_0001]);
        let cols: Vec<u8> = (0..KAPPA).flat_map(|i| [i as u8; 2]).collect();
        let row = matrix_rows(&cols, 16).nth(3).unwrap();
        // Column i contributes bit (i & 0x08 != 0) at row 3 because col value = i.
        for i in 0..KAPPA {
            let expected = (i as u8 >> 3) & 1;
            let got = (row[i / 8] >> (i % 8)) & 1;
            assert_eq!(got, expected);
        }
    }
}
