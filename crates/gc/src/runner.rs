//! Interactive two-party Yao protocol runner.
//!
//! A [`YaoGarbler`]/[`YaoEvaluator`] pair holds the persistent OT-extension
//! state established once during the function module's setup phase; each call
//! to `run_batch` executes N garbled circuits (N emails' comparisons or
//! argmaxes) over the channel as one exchange, and `run` is the N = 1 case of
//! it. This mirrors the paper's amortization of expensive public-key work
//! into setup (§3.3) and keeps the per-email Yao cost at the symmetric-key
//! level measured in Figure 6.
//!
//! Every round makes its own garbling: [`YaoGarbler::run_batch`] checks the
//! batch's inputs, then garbles its N circuits from the caller's RNG, in
//! order, before the first message goes out.

use rand::Rng;

use pretzel_transport::Channel;

use crate::circuit::Circuit;
use crate::garble::{decode_outputs, evaluate, garble, Garbling, Label};
use crate::ot::OtGroup;
use crate::otext::{OtExtReceiver, OtExtSender};
use crate::GcError;

/// Who learns the circuit output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputMode {
    /// Only the evaluator learns the output (spam filtering: the client).
    EvaluatorOnly,
    /// Only the garbler learns the output (topic extraction: the provider is
    /// the evaluator — see the role note in `circuit::topic_argmax_circuit` —
    /// so this mode is used when the garbler must learn).
    GarblerOnly,
    /// Both parties learn the output.
    Both,
}

/// One circuit's garbled tables and labels, as an opaque value.
///
/// No protocol code uses it: [`YaoGarbler::run_batch`] garbles its own
/// circuits and takes none from outside. It stays because the benchmark's
/// bank probe (`benchmark/src/probes.rs`) prices producing garblings with it.
pub struct PrecomputedGarbling {
    _garbling: Garbling,
}

impl PrecomputedGarbling {
    /// Garbles `circuit` with randomness from `rng`.
    pub fn garble<R: Rng + ?Sized>(circuit: &Circuit, rng: &mut R) -> Self {
        PrecomputedGarbling {
            _garbling: garble(circuit, rng),
        }
    }
}

/// Garbler endpoint with persistent OT-extension state.
pub struct YaoGarbler {
    ot: OtExtSender,
}

/// Evaluator endpoint with persistent OT-extension state.
pub struct YaoEvaluator {
    ot: OtExtReceiver,
}

impl YaoGarbler {
    /// Runs the setup phase (base OTs) once.
    pub fn setup<C: Channel>(
        channel: &mut C,
        group: &OtGroup,
        rng: &mut (impl Rng + ?Sized),
    ) -> Result<Self, GcError> {
        Ok(YaoGarbler {
            ot: OtExtSender::setup(channel, group, rng)?,
        })
    }

    /// Garbles `circuit` and runs it as a batch of one: feeds in the
    /// garbler's input bits, serves the evaluator's labels via OT extension,
    /// and (depending on `mode`) receives the output.
    pub fn run<C: Channel>(
        &mut self,
        channel: &mut C,
        circuit: &Circuit,
        my_inputs: &[bool],
        mode: OutputMode,
        rng: &mut (impl Rng + ?Sized),
    ) -> Result<Option<Vec<bool>>, GcError> {
        self.run_batch(channel, circuit, &[my_inputs], mode, rng)
            .map(only)
    }

    /// Runs `inputs.len()` rounds of the same circuit as **one** exchange.
    /// Every input set is checked first, so a malformed call costs no
    /// garbling; then one circuit per round is garbled from `rng`, in round
    /// order. A single frame carries every round's garbled tables and input
    /// labels, a single OT extension covers all rounds' evaluator inputs,
    /// and a single frame decodes the outputs, so N rounds cost at most 5
    /// messages instead of 5·N. The evaluator must mirror the batch with
    /// [`YaoEvaluator::run_batch`]. An empty batch exchanges no messages.
    pub fn run_batch<C: Channel, I: AsRef<[bool]>>(
        &mut self,
        channel: &mut C,
        circuit: &Circuit,
        inputs: &[I],
        mode: OutputMode,
        rng: &mut (impl Rng + ?Sized),
    ) -> Result<Vec<Option<Vec<bool>>>, GcError> {
        let rounds = inputs.len();
        if rounds == 0 {
            return Ok(Vec::new());
        }
        for my_inputs in inputs {
            check_garbler_inputs(circuit, my_inputs.as_ref())?;
        }
        let garblings: Vec<Garbling> = (0..rounds).map(|_| garble(circuit, rng)).collect();

        // One frame: every round's tables + garbler labels, back to back
        // (fixed per-round length, so the evaluator splits by offset).
        let mut msg = Vec::with_capacity(rounds * expected_message_len(circuit));
        for (garbling, my_inputs) in garblings.iter().zip(inputs) {
            append_garbler_message(&mut msg, circuit, garbling, my_inputs.as_ref());
        }
        channel.send(&msg)?;

        // One OT extension spanning all rounds' evaluator inputs, in
        // evaluator-input order.
        let mut pairs = Vec::with_capacity(rounds * circuit.evaluator_inputs.len());
        for garbling in &garblings {
            pairs.extend(evaluator_label_pairs(circuit, garbling));
        }
        self.ot.extend(channel, &pairs)?;

        if matches!(mode, OutputMode::EvaluatorOnly | OutputMode::Both) {
            let mut decode = Vec::with_capacity(rounds * circuit.outputs.len());
            for garbling in &garblings {
                decode.extend_from_slice(&decode_bit_bytes(circuit, garbling));
            }
            channel.send(&decode)?;
        }
        if matches!(mode, OutputMode::GarblerOnly | OutputMode::Both) {
            let raw = channel.recv()?;
            let per_round = circuit.outputs.len() * 16;
            if raw.len() != rounds * per_round {
                return Err(GcError::Protocol("bad output label message".into()));
            }
            return garblings
                .iter()
                .zip(raw.chunks_exact(per_round))
                .map(|(garbling, chunk)| decode_returned_labels(circuit, garbling, chunk).map(Some))
                .collect();
        }
        Ok(vec![None; rounds])
    }
}

/// The one result of a one-round batch.
fn only<T>(mut results: Vec<T>) -> T {
    results.pop().expect("a batch of one yields one result")
}

/// Validates one garbler round's input-bit count.
fn check_garbler_inputs(circuit: &Circuit, my_inputs: &[bool]) -> Result<(), GcError> {
    if my_inputs.len() != circuit.garbler_inputs.len() {
        return Err(GcError::Protocol(format!(
            "garbler supplied {} input bits, circuit expects {}",
            my_inputs.len(),
            circuit.garbler_inputs.len()
        )));
    }
    Ok(())
}

/// Appends one round's first message — garbled tables (two rows per AND
/// gate), the garbler's active input labels, and constant wire labels —
/// onto `msg` (a batch frame concatenates several rounds' worth without
/// intermediate allocations). [`expected_message_len`] is its length.
fn append_garbler_message(
    msg: &mut Vec<u8>,
    circuit: &Circuit,
    garbling: &Garbling,
    my_inputs: &[bool],
) {
    for table in &garbling.tables {
        for row in table {
            msg.extend_from_slice(row);
        }
    }
    for (wire, &bit) in circuit.garbler_inputs.iter().zip(my_inputs) {
        msg.extend_from_slice(&garbling.label_for(*wire, bit));
    }
    if let Some(w) = circuit.const_zero {
        msg.extend_from_slice(&garbling.label_for(w, false));
    }
    if let Some(w) = circuit.const_one {
        msg.extend_from_slice(&garbling.label_for(w, true));
    }
}

/// Byte length of one round's first message for `circuit`: 32 bytes per AND
/// gate, 16 per garbler input and constant wire. The one place the layout
/// is sized.
fn expected_message_len(circuit: &Circuit) -> usize {
    let n_consts = circuit.const_zero.is_some() as usize + circuit.const_one.is_some() as usize;
    circuit.and_count() * TABLE_LEN + (circuit.garbler_inputs.len() + n_consts) * 16
}

/// Bytes of one AND gate's half-gates table on the wire.
const TABLE_LEN: usize = 32;

/// The evaluator's wire-label pairs served over OT, in evaluator-input order.
fn evaluator_label_pairs(circuit: &Circuit, garbling: &Garbling) -> Vec<(Label, Label)> {
    circuit
        .evaluator_inputs
        .iter()
        .map(|&w| (garbling.label_for(w, false), garbling.label_for(w, true)))
        .collect()
}

/// One round's output-decode bits as wire bytes.
fn decode_bit_bytes(circuit: &Circuit, garbling: &Garbling) -> Vec<u8> {
    garbling
        .output_decode_bits(circuit)
        .iter()
        .map(|&b| b as u8)
        .collect()
}

/// Decodes the output labels an evaluator returned for one round.
fn decode_returned_labels(
    circuit: &Circuit,
    garbling: &Garbling,
    raw: &[u8],
) -> Result<Vec<bool>, GcError> {
    let labels: Vec<Label> = raw
        .chunks_exact(16)
        .map(|c| {
            let mut l = [0u8; 16];
            l.copy_from_slice(c);
            l
        })
        .collect();
    garbling
        .decode_output_labels(circuit, &labels)
        .ok_or_else(|| GcError::Protocol("evaluator returned invalid labels".into()))
}

impl YaoEvaluator {
    /// Runs the setup phase (base OTs) once.
    pub fn setup<C: Channel>(
        channel: &mut C,
        group: &OtGroup,
        rng: &mut (impl Rng + ?Sized),
    ) -> Result<Self, GcError> {
        Ok(YaoEvaluator {
            ot: OtExtReceiver::setup(channel, group, rng)?,
        })
    }

    /// Evaluates one circuit as a batch of one: receives the garbled circuit,
    /// obtains its own labels via OT, evaluates and (depending on `mode`)
    /// learns or returns the output.
    pub fn run<C: Channel>(
        &mut self,
        channel: &mut C,
        circuit: &Circuit,
        my_inputs: &[bool],
        mode: OutputMode,
    ) -> Result<Option<Vec<bool>>, GcError> {
        self.run_batch(channel, circuit, &[my_inputs], mode)
            .map(only)
    }

    /// Evaluator half of [`YaoGarbler::run_batch`]: one frame holding every
    /// round's garbled circuit, one OT extension spanning every round's
    /// choice bits, one output-decoding exchange. An empty batch exchanges no
    /// messages.
    pub fn run_batch<C: Channel, I: AsRef<[bool]>>(
        &mut self,
        channel: &mut C,
        circuit: &Circuit,
        inputs: &[I],
        mode: OutputMode,
    ) -> Result<Vec<Option<Vec<bool>>>, GcError> {
        let rounds = inputs.len();
        if rounds == 0 {
            return Ok(Vec::new());
        }
        for my_inputs in inputs {
            check_evaluator_inputs(circuit, my_inputs.as_ref())?;
        }

        // Message 1: every round's tables, garbler input labels and constant
        // labels, split by the fixed per-round length.
        let per_round = expected_message_len(circuit);
        let msg = channel.recv()?;
        if msg.len() != rounds * per_round {
            return Err(GcError::Protocol(format!(
                "garbled circuit message has {} bytes, expected {}",
                msg.len(),
                rounds * per_round
            )));
        }
        let parsed: Vec<_> = msg
            .chunks_exact(per_round)
            .map(|chunk| parse_garbler_message(circuit, chunk))
            .collect();

        // One OT extension for all rounds' choice bits.
        let choices: Vec<bool> = inputs
            .iter()
            .flat_map(|bits| bits.as_ref())
            .copied()
            .collect();
        let my_labels = self.ot.extend(channel, &choices)?;

        let n_eval = circuit.evaluator_inputs.len();
        let all_outputs: Vec<Vec<Label>> = parsed
            .into_iter()
            .enumerate()
            .map(|(round, (tables, mut input_labels))| {
                for (&wire, label) in circuit
                    .evaluator_inputs
                    .iter()
                    .zip(&my_labels[round * n_eval..(round + 1) * n_eval])
                {
                    input_labels.push((wire, *label));
                }
                evaluate(circuit, &tables, &input_labels)
            })
            .collect();

        let mut results = vec![None; rounds];
        if matches!(mode, OutputMode::EvaluatorOnly | OutputMode::Both) {
            let decode_raw = channel.recv()?;
            if decode_raw.len() != rounds * circuit.outputs.len() {
                return Err(GcError::Protocol("bad decode-bit message".into()));
            }
            for (round, chunk) in decode_raw.chunks_exact(circuit.outputs.len()).enumerate() {
                // The bytes are the peer's: anything but 0 or 1 fails the
                // round instead of being read as a 0 and flipping an output.
                let decode_bits = chunk
                    .iter()
                    .map(|&b| match b {
                        0 => Ok(false),
                        1 => Ok(true),
                        other => Err(GcError::Protocol(format!(
                            "decode-bit byte {other} is neither 0 nor 1"
                        ))),
                    })
                    .collect::<Result<Vec<bool>, _>>()?;
                results[round] = Some(decode_outputs(&all_outputs[round], &decode_bits));
            }
        }
        if matches!(mode, OutputMode::GarblerOnly | OutputMode::Both) {
            let mut raw = Vec::with_capacity(rounds * circuit.outputs.len() * 16);
            for output_labels in &all_outputs {
                for l in output_labels {
                    raw.extend_from_slice(l);
                }
            }
            channel.send(&raw)?;
        }
        Ok(results)
    }
}

/// Validates one evaluator round's choice-bit count.
fn check_evaluator_inputs(circuit: &Circuit, my_inputs: &[bool]) -> Result<(), GcError> {
    if my_inputs.len() != circuit.evaluator_inputs.len() {
        return Err(GcError::Protocol(format!(
            "evaluator supplied {} input bits, circuit expects {}",
            my_inputs.len(),
            circuit.evaluator_inputs.len()
        )));
    }
    Ok(())
}

/// Parses one round's first message (already length-checked) into garbled
/// tables and the garbler-provided input labels.
fn parse_garbler_message(circuit: &Circuit, msg: &[u8]) -> (Vec<[Label; 2]>, Vec<(usize, Label)>) {
    let label_at = |off: usize| -> Label { msg[off..off + 16].try_into().expect("16-byte label") };
    let n_tables = circuit.and_count();
    let tables = (0..n_tables)
        .map(|t| [label_at(t * TABLE_LEN), label_at(t * TABLE_LEN + 16)])
        .collect();
    let wires = circuit
        .garbler_inputs
        .iter()
        .chain(&circuit.const_zero)
        .chain(&circuit.const_one);
    let input_labels = wires
        .enumerate()
        .map(|(i, &wire)| (wire, label_at(n_tables * TABLE_LEN + i * 16)))
        .collect();
    (tables, input_labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{from_bits, spam_compare_circuit, to_bits, topic_argmax_circuit};
    use pretzel_transport::run_two_party;

    fn test_group() -> OtGroup {
        OtGroup::insecure_test_group(64, &mut rand::thread_rng())
    }

    #[test]
    fn interactive_spam_comparison_gives_output_to_evaluator_only() {
        let width = 32;
        let circuit = spam_compare_circuit(width);
        let circuit_b = circuit.clone();
        let group = test_group();
        let group_b = group.clone();
        let mask = (1u64 << width) - 1;

        let d_spam = 90_000u64;
        let d_ham = 70_000u64;
        let n_spam = 123_456_789u64 & mask;
        let n_ham = 987_654_321u64 & mask;

        let mut garbler_bits = to_bits((d_spam + n_spam) & mask, width);
        garbler_bits.extend(to_bits((d_ham + n_ham) & mask, width));
        let mut evaluator_bits = to_bits(n_spam, width);
        evaluator_bits.extend(to_bits(n_ham, width));

        let (g_out, e_out) = run_two_party(
            move |chan| {
                let mut rng = rand::thread_rng();
                let mut garbler = YaoGarbler::setup(chan, &group, &mut rng).unwrap();
                garbler
                    .run(
                        chan,
                        &circuit,
                        &garbler_bits,
                        OutputMode::EvaluatorOnly,
                        &mut rng,
                    )
                    .unwrap()
            },
            move |chan| {
                let mut rng = rand::thread_rng();
                let mut evaluator = YaoEvaluator::setup(chan, &group_b, &mut rng).unwrap();
                evaluator
                    .run(chan, &circuit_b, &evaluator_bits, OutputMode::EvaluatorOnly)
                    .unwrap()
            },
        );
        assert_eq!(g_out, None, "garbler must not learn the spam bit");
        assert_eq!(e_out, Some(vec![true]), "client learns d_spam > d_ham");
    }

    #[test]
    fn interactive_topic_argmax_gives_index_to_garbler() {
        // In the Figure 5 protocol the *client* garbles and the *provider*
        // evaluates; the provider then returns output labels so the garbler
        // (client) can... no: the provider must learn the topic. We model the
        // provider as the evaluator and use Both to check agreement, plus
        // GarblerOnly to check the reverse direction works.
        let width = 24;
        let index_width = 12;
        let candidates = 4;
        let circuit = topic_argmax_circuit(candidates, width, index_width);
        let circuit_b = circuit.clone();
        let group = test_group();
        let group_b = group.clone();
        let mask = (1u64 << width) - 1;

        let values = [40u64, 900, 850, 77];
        let indices = [17u64, 1042, 3, 999];
        let noises = [1111u64, 2222, 3333, 4444];

        let mut garbler_bits = Vec::new();
        for &idx in &indices {
            garbler_bits.extend(to_bits(idx, index_width));
        }
        for &n in &noises {
            garbler_bits.extend(to_bits(n, width));
        }
        let mut evaluator_bits = Vec::new();
        for (v, n) in values.iter().zip(noises.iter()) {
            evaluator_bits.extend(to_bits((v + n) & mask, width));
        }

        let (g_out, e_out) = run_two_party(
            move |chan| {
                let mut rng = rand::thread_rng();
                let mut garbler = YaoGarbler::setup(chan, &group, &mut rng).unwrap();
                garbler
                    .run(chan, &circuit, &garbler_bits, OutputMode::Both, &mut rng)
                    .unwrap()
            },
            move |chan| {
                let mut rng = rand::thread_rng();
                let mut evaluator = YaoEvaluator::setup(chan, &group_b, &mut rng).unwrap();
                evaluator
                    .run(chan, &circuit_b, &evaluator_bits, OutputMode::Both)
                    .unwrap()
            },
        );
        let g_bits = g_out.expect("garbler learns in Both mode");
        let e_bits = e_out.expect("evaluator learns in Both mode");
        assert_eq!(from_bits(&g_bits), 1042);
        assert_eq!(from_bits(&e_bits), 1042);
    }

    #[test]
    fn session_reuse_across_multiple_circuits() {
        // One setup, three emails: the per-email path must not redo base OTs.
        let width = 16;
        let circuit = spam_compare_circuit(width);
        let circuit_b = circuit.clone();
        let group = test_group();
        let group_b = group.clone();
        let mask = (1u64 << width) - 1;
        let cases = [(500u64, 100u64), (100, 500), (300, 300)];

        let (_, e_outs) = run_two_party(
            move |chan| {
                let mut rng = rand::thread_rng();
                let mut garbler = YaoGarbler::setup(chan, &group, &mut rng).unwrap();
                for (d_spam, d_ham) in cases {
                    let n0 = 999u64 & mask;
                    let n1 = 444u64 & mask;
                    let mut bits = to_bits((d_spam + n0) & mask, width);
                    bits.extend(to_bits((d_ham + n1) & mask, width));
                    garbler
                        .run(chan, &circuit, &bits, OutputMode::EvaluatorOnly, &mut rng)
                        .unwrap();
                }
            },
            move |chan| {
                let mut rng = rand::thread_rng();
                let mut evaluator = YaoEvaluator::setup(chan, &group_b, &mut rng).unwrap();
                let mut outs = Vec::new();
                for _ in cases {
                    let n0 = 999u64 & mask;
                    let n1 = 444u64 & mask;
                    let mut bits = to_bits(n0, width);
                    bits.extend(to_bits(n1, width));
                    let out = evaluator
                        .run(chan, &circuit_b, &bits, OutputMode::EvaluatorOnly)
                        .unwrap();
                    outs.push(out.unwrap()[0]);
                }
                outs
            },
        );
        assert_eq!(e_outs, vec![true, false, false]);
    }

    #[test]
    fn batched_rounds_match_sequential_verdicts() {
        // Three comparisons in one coalesced batch: the decoded outputs must
        // equal what three sequential rounds produce for the same inputs.
        let width = 16;
        let circuit = spam_compare_circuit(width);
        let circuit_b = circuit.clone();
        let group = test_group();
        let group_b = group.clone();
        let mask = (1u64 << width) - 1;
        let cases = [(500u64, 100u64), (100, 500), (300, 300)];

        let (g_out, e_outs) = run_two_party(
            move |chan| {
                let mut rng = rand::thread_rng();
                let mut garbler = YaoGarbler::setup(chan, &group, &mut rng).unwrap();
                let inputs: Vec<Vec<bool>> = cases
                    .iter()
                    .map(|(d_spam, d_ham)| {
                        let mut bits = to_bits((d_spam + 999) & mask, width);
                        bits.extend(to_bits((d_ham + 444) & mask, width));
                        bits
                    })
                    .collect();
                garbler
                    .run_batch(chan, &circuit, &inputs, OutputMode::EvaluatorOnly, &mut rng)
                    .unwrap()
            },
            move |chan| {
                let mut rng = rand::thread_rng();
                let mut evaluator = YaoEvaluator::setup(chan, &group_b, &mut rng).unwrap();
                let inputs: Vec<Vec<bool>> = cases
                    .iter()
                    .map(|_| {
                        let mut bits = to_bits(999 & mask, width);
                        bits.extend(to_bits(444 & mask, width));
                        bits
                    })
                    .collect();
                evaluator
                    .run_batch(chan, &circuit_b, &inputs, OutputMode::EvaluatorOnly)
                    .unwrap()
            },
        );
        assert_eq!(g_out, vec![None, None, None], "garbler learns nothing");
        let bits: Vec<bool> = e_outs.into_iter().map(|o| o.unwrap()[0]).collect();
        assert_eq!(bits, vec![true, false, false]);
    }

    #[test]
    fn batched_garbler_only_mode_returns_outputs_to_the_garbler() {
        let width = 16;
        let circuit = spam_compare_circuit(width);
        let circuit_b = circuit.clone();
        let group = test_group();
        let group_b = group.clone();
        let mask = (1u64 << width) - 1;
        let cases = [(9u64, 5u64), (5, 9)];

        let (g_out, _) = run_two_party(
            move |chan| {
                let mut rng = rand::thread_rng();
                let mut garbler = YaoGarbler::setup(chan, &group, &mut rng).unwrap();
                let inputs: Vec<Vec<bool>> = cases
                    .iter()
                    .map(|(a, b)| {
                        let mut bits = to_bits(a & mask, width);
                        bits.extend(to_bits(b & mask, width));
                        bits
                    })
                    .collect();
                garbler
                    .run_batch(chan, &circuit, &inputs, OutputMode::GarblerOnly, &mut rng)
                    .unwrap()
            },
            move |chan| {
                let mut rng = rand::thread_rng();
                let mut evaluator = YaoEvaluator::setup(chan, &group_b, &mut rng).unwrap();
                let inputs: Vec<Vec<bool>> = cases.iter().map(|_| vec![false; 2 * width]).collect();
                evaluator
                    .run_batch(chan, &circuit_b, &inputs, OutputMode::GarblerOnly)
                    .unwrap()
            },
        );
        let bits: Vec<bool> = g_out.into_iter().map(|o| o.unwrap()[0]).collect();
        assert_eq!(bits, vec![true, false]);
    }

    #[test]
    fn a_malformed_input_set_fails_the_batch_before_any_garbling() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};

        let circuit = spam_compare_circuit(8);
        let group = test_group();
        let group_b = group.clone();
        let (g_res, _) = run_two_party(
            move |chan| {
                let mut rng = StdRng::seed_from_u64(5);
                let mut garbler = YaoGarbler::setup(chan, &group, &mut rng).unwrap();
                let mut untouched = rng.clone();
                // The second input set is short: the whole batch fails, and
                // the first round's circuit was never garbled.
                let res = garbler.run_batch(
                    chan,
                    &circuit,
                    &[vec![false; 16], vec![false; 3]],
                    OutputMode::EvaluatorOnly,
                    &mut rng,
                );
                assert_eq!(rng.next_u64(), untouched.next_u64(), "no RNG word drawn");
                res
            },
            move |chan| {
                let mut rng = rand::thread_rng();
                let _ = YaoEvaluator::setup(chan, &group_b, &mut rng).unwrap();
            },
        );
        assert!(matches!(g_res, Err(GcError::Protocol(_))), "{g_res:?}");
    }

    /// The first message's length as the layout defines it: two 16-byte
    /// rows per AND gate, one label per garbler input and constant wire.
    fn layout_len(circuit: &Circuit) -> usize {
        let consts = circuit.const_zero.iter().chain(&circuit.const_one).count();
        32 * circuit.and_count() + 16 * (circuit.garbler_inputs.len() + consts)
    }

    #[test]
    fn first_message_is_two_rows_per_and_gate_plus_garbler_labels() {
        let circuit = spam_compare_circuit(16);
        let expected = layout_len(&circuit);
        let group = test_group();
        let group_b = group.clone();
        let (_, frame) = run_two_party(
            move |chan| {
                let mut rng = rand::thread_rng();
                let mut garbler = YaoGarbler::setup(chan, &group, &mut rng).unwrap();
                let bits = vec![true; circuit.garbler_inputs.len()];
                // The evaluator hangs up after the first message, so the OT
                // extension that follows fails; only the frame matters here.
                let _ = garbler.run(chan, &circuit, &bits, OutputMode::EvaluatorOnly, &mut rng);
            },
            move |chan| {
                let mut rng = rand::thread_rng();
                let _ = YaoEvaluator::setup(chan, &group_b, &mut rng).unwrap();
                chan.recv().unwrap()
            },
        );
        assert_eq!(frame.len(), expected);
    }

    #[test]
    fn a_first_message_one_row_short_is_a_protocol_error() {
        let circuit = spam_compare_circuit(16);
        let circuit_b = circuit.clone();
        let group = test_group();
        let group_b = group.clone();
        let (_, e_res) = run_two_party(
            move |chan| {
                let mut rng = rand::thread_rng();
                let _ = YaoGarbler::setup(chan, &group, &mut rng).unwrap();
                chan.send(&vec![0u8; layout_len(&circuit) - 16]).unwrap();
            },
            move |chan| {
                let mut rng = rand::thread_rng();
                let mut evaluator = YaoEvaluator::setup(chan, &group_b, &mut rng).unwrap();
                let bits = vec![false; circuit_b.evaluator_inputs.len()];
                evaluator.run(chan, &circuit_b, &bits, OutputMode::EvaluatorOnly)
            },
        );
        assert!(matches!(e_res, Err(GcError::Protocol(_))), "{e_res:?}");
    }

    #[test]
    fn wrong_input_length_is_rejected() {
        let circuit = spam_compare_circuit(8);
        let group = test_group();
        let group_b = group.clone();
        let circuit_b = circuit.clone();
        let (g_res, _e_res) = run_two_party(
            move |chan| {
                let mut rng = rand::thread_rng();
                let mut garbler = YaoGarbler::setup(chan, &group, &mut rng).unwrap();
                garbler.run(
                    chan,
                    &circuit,
                    &[true; 3],
                    OutputMode::EvaluatorOnly,
                    &mut rng,
                )
            },
            move |chan| {
                let mut rng = rand::thread_rng();
                // Setup must still run so the garbler's setup doesn't block.
                let _ = YaoEvaluator::setup(chan, &group_b, &mut rng).unwrap();
                let _ = circuit_b;
            },
        );
        assert!(g_res.is_err());
    }
}
