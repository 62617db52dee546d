//! Garbling and evaluation of boolean circuits (Yao's protocol, paper §3.2).
//!
//! The construction is Zahur–Rosulek–Evans half-gates ("Two Halves Make a
//! Whole", Eurocrypt 2015) on top of free-XOR and point-and-permute:
//!
//! * Every wire `w` has two 128-bit labels `W⁰_w` and `W¹_w = W⁰_w ⊕ Δ`,
//!   where `Δ` is a global secret with its least-significant bit set to 1 so
//!   the two labels of a wire always have different "color" bits.
//! * XOR gates are free (`W⁰_out = W⁰_a ⊕ W⁰_b`), INV gates are free
//!   (`W⁰_out = W⁰_a ⊕ Δ`).
//! * An AND gate `c = a ∧ b` is two half gates — `a ∧ p_b`, where the
//!   garbler knows `p_b`, and `a ∧ (b ⊕ p_b)`, where the evaluator knows
//!   `b ⊕ p_b` as `b`'s color — each one 16-byte row, so a gate's table is
//!   two rows. The garbler hashes all four input labels, the evaluator the
//!   two it holds; the output zero-label is derived, not sampled.
//!
//! Every hash is [`pretzel_primitives::gate_hash`], tweaked per half gate
//! with `gate_tweaks`; the tweaks of OT extension live in a disjoint domain.
//!
//! The paper's Yao microbenchmarks (Figure 6: 71 µs / 2.5 KB for a 32-bit
//! comparison) are regenerated against this implementation by
//! `fig06_microbench`.

use rand::Rng;

use pretzel_primitives::gate_hash;

use crate::circuit::{Circuit, Gate, WireId};

/// A 128-bit wire label.
pub type Label = [u8; 16];

fn xor_label(a: &Label, b: &Label) -> Label {
    let mut out = [0u8; 16];
    for i in 0..16 {
        out[i] = a[i] ^ b[i];
    }
    out
}

/// `l` when `bit` is set, zero otherwise, selected with a mask.
fn and_label(bit: bool, l: &Label) -> Label {
    let mask = 0u8.wrapping_sub(bit as u8);
    l.map(|x| x & mask)
}

fn color(l: &Label) -> bool {
    l[0] & 1 == 1
}

/// The gate-hash tweaks of the AND gate whose output wire is `out`: one per
/// half gate. They are below 2⁶⁴, the domain OT extension stays out of.
fn gate_tweaks(out: WireId) -> (u128, u128) {
    let j = 2 * out as u128;
    (j, j + 1)
}

/// The garbler's secret garbling state for one circuit.
pub struct Garbling {
    /// Global free-XOR offset (lsb = 1).
    pub delta: Label,
    /// Zero-label of every wire.
    pub zero_labels: Vec<Label>,
    /// Garbled tables, one per AND gate, in gate order: the garbler's half
    /// gate row `T_G`, then the evaluator's half gate row `T_E`.
    pub tables: Vec<[Label; 2]>,
}

impl Garbling {
    /// The label encoding bit `value` on `wire`.
    pub fn label_for(&self, wire: WireId, value: bool) -> Label {
        if value {
            xor_label(&self.zero_labels[wire], &self.delta)
        } else {
            self.zero_labels[wire]
        }
    }

    /// Output decoding information: the color bit of each output wire's
    /// zero-label. Sending this to the evaluator lets it decode outputs.
    pub fn output_decode_bits(&self, circuit: &Circuit) -> Vec<bool> {
        circuit
            .outputs
            .iter()
            .map(|&w| color(&self.zero_labels[w]))
            .collect()
    }

    /// Decodes output labels returned by the evaluator (garbler-learns mode).
    /// Returns `None` if a label matches neither of the wire's labels, which
    /// indicates a protocol violation.
    pub fn decode_output_labels(&self, circuit: &Circuit, labels: &[Label]) -> Option<Vec<bool>> {
        if labels.len() != circuit.outputs.len() {
            return None;
        }
        let mut bits = Vec::with_capacity(labels.len());
        for (&wire, label) in circuit.outputs.iter().zip(labels.iter()) {
            if *label == self.zero_labels[wire] {
                bits.push(false);
            } else if *label == xor_label(&self.zero_labels[wire], &self.delta) {
                bits.push(true);
            } else {
                return None;
            }
        }
        Some(bits)
    }
}

/// Garbles `circuit` using randomness from `rng`.
pub fn garble<R: Rng + ?Sized>(circuit: &Circuit, rng: &mut R) -> Garbling {
    let mut delta: Label = rng.gen();
    delta[0] |= 1; // ensure distinct color bits

    let mut zero_labels: Vec<Label> = vec![[0u8; 16]; circuit.num_wires];
    // Fresh labels for all input and constant wires.
    for &w in circuit
        .garbler_inputs
        .iter()
        .chain(circuit.evaluator_inputs.iter())
    {
        zero_labels[w] = rng.gen();
    }
    if let Some(w) = circuit.const_zero {
        zero_labels[w] = rng.gen();
    }
    if let Some(w) = circuit.const_one {
        zero_labels[w] = rng.gen();
    }

    let mut tables = Vec::with_capacity(circuit.and_count());
    for gate in &circuit.gates {
        match *gate {
            Gate::Xor { a, b, out } => {
                zero_labels[out] = xor_label(&zero_labels[a], &zero_labels[b]);
            }
            Gate::Inv { a, out } => {
                zero_labels[out] = xor_label(&zero_labels[a], &delta);
            }
            Gate::And { a, b, out } => {
                let a0 = zero_labels[a];
                let b0 = zero_labels[b];
                let (a1, b1) = (xor_label(&a0, &delta), xor_label(&b0, &delta));
                let (j, k) = gate_tweaks(out);
                let [ha0, ha1, hb0, hb1] = gate_hash([(a0, j), (a1, j), (b0, k), (b1, k)]);
                let (p_a, p_b) = (color(&a0), color(&b0));
                // Garbler half gate: a ∧ p_b.
                let t_g = xor_label(&xor_label(&ha0, &ha1), &and_label(p_b, &delta));
                let w_g = xor_label(&ha0, &and_label(p_a, &t_g));
                // Evaluator half gate: a ∧ (b ⊕ p_b).
                let t_e = xor_label(&xor_label(&hb0, &hb1), &a0);
                let w_e = xor_label(&hb0, &and_label(p_b, &xor_label(&t_e, &a0)));
                zero_labels[out] = xor_label(&w_g, &w_e);
                tables.push([t_g, t_e]);
            }
        }
    }

    Garbling {
        delta,
        zero_labels,
        tables,
    }
}

/// Evaluates a garbled circuit given active labels for every input and
/// constant wire. Returns the active labels of the output wires.
pub fn evaluate(
    circuit: &Circuit,
    tables: &[[Label; 2]],
    input_labels: &[(WireId, Label)],
) -> Vec<Label> {
    let mut labels: Vec<Option<Label>> = vec![None; circuit.num_wires];
    for (wire, label) in input_labels {
        labels[*wire] = Some(*label);
    }
    let mut table_idx = 0;
    for gate in &circuit.gates {
        match *gate {
            Gate::Xor { a, b, out } => {
                let la = labels[a].expect("missing label for XOR input");
                let lb = labels[b].expect("missing label for XOR input");
                labels[out] = Some(xor_label(&la, &lb));
            }
            Gate::Inv { a, out } => {
                labels[out] = labels[a];
            }
            Gate::And { a, b, out } => {
                let la = labels[a].expect("missing label for AND input");
                let lb = labels[b].expect("missing label for AND input");
                let [t_g, t_e] = tables[table_idx];
                let (j, k) = gate_tweaks(out);
                let [ha, hb] = gate_hash([(la, j), (lb, k)]);
                let w_g = xor_label(&ha, &and_label(color(&la), &t_g));
                let w_e = xor_label(&hb, &and_label(color(&lb), &xor_label(&t_e, &la)));
                labels[out] = Some(xor_label(&w_g, &w_e));
                table_idx += 1;
            }
        }
    }
    circuit
        .outputs
        .iter()
        .map(|&w| labels[w].expect("missing output label"))
        .collect()
}

/// Decodes output labels using the garbler-provided decode bits
/// (evaluator-learns mode).
pub fn decode_outputs(output_labels: &[Label], decode_bits: &[bool]) -> Vec<bool> {
    output_labels
        .iter()
        .zip(decode_bits.iter())
        .map(|(label, &p)| color(label) ^ p)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{from_bits, spam_compare_circuit, to_bits, CircuitBuilder, InputOwner};

    /// Garbles and evaluates a circuit entirely locally (no OT / channel),
    /// returning the decoded output bits. This is the reference harness the
    /// interactive protocol is checked against.
    fn garble_and_eval(circuit: &Circuit, g_bits: &[bool], e_bits: &[bool]) -> Vec<bool> {
        let mut rng = rand::thread_rng();
        let garbling = garble(circuit, &mut rng);
        let mut input_labels = Vec::new();
        for (wire, &bit) in circuit.garbler_inputs.iter().zip(g_bits) {
            input_labels.push((*wire, garbling.label_for(*wire, bit)));
        }
        for (wire, &bit) in circuit.evaluator_inputs.iter().zip(e_bits) {
            input_labels.push((*wire, garbling.label_for(*wire, bit)));
        }
        if let Some(w) = circuit.const_zero {
            input_labels.push((w, garbling.label_for(w, false)));
        }
        if let Some(w) = circuit.const_one {
            input_labels.push((w, garbling.label_for(w, true)));
        }
        let out_labels = evaluate(circuit, &garbling.tables, &input_labels);
        decode_outputs(&out_labels, &garbling.output_decode_bits(circuit))
    }

    #[test]
    fn garbled_and_gate_matches_truth_table() {
        let mut b = CircuitBuilder::new();
        let x = b.input(InputOwner::Garbler, 1);
        let y = b.input(InputOwner::Evaluator, 1);
        let out = b.and(x.bits[0], y.bits[0]);
        b.output(out);
        let circuit = b.build();
        for (a, bb) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(garble_and_eval(&circuit, &[a], &[bb]), vec![a & bb]);
        }
    }

    #[test]
    fn garbled_xor_inv_or_match_truth_tables() {
        let mut b = CircuitBuilder::new();
        let x = b.input(InputOwner::Garbler, 1);
        let y = b.input(InputOwner::Evaluator, 1);
        let xor = b.xor(x.bits[0], y.bits[0]);
        let inv = b.not(x.bits[0]);
        let or = b.or(x.bits[0], y.bits[0]);
        b.output(xor);
        b.output(inv);
        b.output(or);
        let circuit = b.build();
        for (a, bb) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(
                garble_and_eval(&circuit, &[a], &[bb]),
                vec![a ^ bb, !a, a | bb]
            );
        }
    }

    #[test]
    fn garbled_adder_matches_plain_evaluation() {
        let mut b = CircuitBuilder::new();
        let x = b.input(InputOwner::Garbler, 16);
        let y = b.input(InputOwner::Evaluator, 16);
        let sum = b.add(&x, &y);
        b.output_bundle(&sum);
        let circuit = b.build();
        let mut rng = rand::thread_rng();
        for _ in 0..10 {
            let a: u64 = rng.gen_range(0..1 << 16);
            let c: u64 = rng.gen_range(0..1 << 16);
            let got = from_bits(&garble_and_eval(&circuit, &to_bits(a, 16), &to_bits(c, 16)));
            assert_eq!(got, (a + c) & 0xFFFF);
        }
    }

    #[test]
    fn garbled_spam_circuit_matches_plain_evaluation() {
        let width = 32;
        let circuit = spam_compare_circuit(width);
        let mut rng = rand::thread_rng();
        for _ in 0..5 {
            let d_spam: u64 = rng.gen_range(0..1 << 20);
            let d_ham: u64 = rng.gen_range(0..1 << 20);
            let n_spam: u64 = rng.gen_range(0..1 << 30);
            let n_ham: u64 = rng.gen_range(0..1 << 30);
            let mask = (1u64 << width) - 1;
            let mut g_bits = to_bits((d_spam + n_spam) & mask, width);
            g_bits.extend(to_bits((d_ham + n_ham) & mask, width));
            let mut e_bits = to_bits(n_spam, width);
            e_bits.extend(to_bits(n_ham, width));
            let plain = circuit.eval_plain(&g_bits, &e_bits);
            let garbled = garble_and_eval(&circuit, &g_bits, &e_bits);
            assert_eq!(plain, garbled);
            assert_eq!(garbled, vec![d_spam > d_ham]);
        }
    }

    #[test]
    fn garbler_can_decode_returned_labels_and_detect_forgeries() {
        let mut b = CircuitBuilder::new();
        let x = b.input(InputOwner::Garbler, 4);
        let y = b.input(InputOwner::Evaluator, 4);
        let gt = b.gt(&x, &y);
        b.output(gt);
        let circuit = b.build();
        let mut rng = rand::thread_rng();
        let garbling = garble(&circuit, &mut rng);

        let mut input_labels = Vec::new();
        for (wire, &bit) in circuit.garbler_inputs.iter().zip(&to_bits(9, 4)) {
            input_labels.push((*wire, garbling.label_for(*wire, bit)));
        }
        for (wire, &bit) in circuit.evaluator_inputs.iter().zip(&to_bits(4, 4)) {
            input_labels.push((*wire, garbling.label_for(*wire, bit)));
        }
        if let Some(w) = circuit.const_zero {
            input_labels.push((w, garbling.label_for(w, false)));
        }
        if let Some(w) = circuit.const_one {
            input_labels.push((w, garbling.label_for(w, true)));
        }
        let out_labels = evaluate(&circuit, &garbling.tables, &input_labels);
        assert_eq!(
            garbling.decode_output_labels(&circuit, &out_labels),
            Some(vec![true])
        );
        // A forged label is rejected.
        let forged = vec![[0xFFu8; 16]];
        assert_eq!(garbling.decode_output_labels(&circuit, &forged), None);
    }

    #[test]
    fn table_count_equals_and_count() {
        let circuit = spam_compare_circuit(32);
        let garbling = garble(&circuit, &mut rand::thread_rng());
        assert_eq!(garbling.tables.len(), circuit.and_count());
    }

    #[test]
    fn labels_of_a_wire_differ_in_color() {
        let circuit = spam_compare_circuit(8);
        let garbling = garble(&circuit, &mut rand::thread_rng());
        for &w in circuit.outputs.iter().chain(circuit.garbler_inputs.iter()) {
            let l0 = garbling.label_for(w, false);
            let l1 = garbling.label_for(w, true);
            assert_ne!(color(&l0), color(&l1));
        }
    }
}
