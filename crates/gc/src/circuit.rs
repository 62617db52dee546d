//! Boolean circuit representation and builder.
//!
//! Pretzel evaluates only a handful of functions inside Yao (paper §3.2):
//! b-bit integer comparison after removing blinding (spam filtering) and
//! argmax over B′ blinded values with index selection (topic extraction,
//! Figure 5 step 5). The builder below provides the adders, subtractors,
//! comparators and multiplexers those functions are assembled from, plus a
//! plaintext evaluator used by tests to cross-check the garbled evaluation.

/// Identifier of a wire in a circuit.
pub type WireId = usize;

/// A boolean gate. `Xor` and `Inv` are "free" under free-XOR garbling; only
/// `And` gates produce garbled tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// out = a XOR b
    Xor { a: WireId, b: WireId, out: WireId },
    /// out = a AND b
    And { a: WireId, b: WireId, out: WireId },
    /// out = NOT a
    Inv { a: WireId, out: WireId },
}

/// Which party supplies a given input wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputOwner {
    /// The garbler (circuit constructor).
    Garbler,
    /// The evaluator (obtains labels through OT).
    Evaluator,
}

/// A boolean circuit over two-party inputs.
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    /// Total number of wires (inputs + constants + gate outputs).
    pub num_wires: usize,
    /// Input wires owned by the garbler, in argument order.
    pub garbler_inputs: Vec<WireId>,
    /// Input wires owned by the evaluator, in argument order.
    pub evaluator_inputs: Vec<WireId>,
    /// Wire that is constant zero (always wire 0 if used).
    pub const_zero: Option<WireId>,
    /// Wire that is constant one.
    pub const_one: Option<WireId>,
    /// Gates in topological order.
    pub gates: Vec<Gate>,
    /// Output wires, in order.
    pub outputs: Vec<WireId>,
}

impl Circuit {
    /// Number of AND gates (the cost driver for garbling: each produces a
    /// two-row half-gates table; XOR and INV are free).
    pub fn and_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::And { .. }))
            .count()
    }

    /// FNV-1a fingerprint of the full circuit structure — wire counts,
    /// input/output assignments, constants, and every gate's kind and
    /// wiring. Two circuits with equal fingerprints are (up to hash
    /// collision) the same function, so a precomputed garbling tagged with
    /// this value can be validated against the circuit it is consumed with,
    /// not just against matching wire/gate counts.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.num_wires as u64);
        mix(self.garbler_inputs.len() as u64);
        for &w in &self.garbler_inputs {
            mix(w as u64);
        }
        mix(self.evaluator_inputs.len() as u64);
        for &w in &self.evaluator_inputs {
            mix(w as u64);
        }
        mix(self.const_zero.map_or(u64::MAX, |w| w as u64));
        mix(self.const_one.map_or(u64::MAX, |w| w as u64));
        mix(self.gates.len() as u64);
        for g in &self.gates {
            match *g {
                Gate::Xor { a, b, out } => {
                    mix(0);
                    mix(a as u64);
                    mix(b as u64);
                    mix(out as u64);
                }
                Gate::And { a, b, out } => {
                    mix(1);
                    mix(a as u64);
                    mix(b as u64);
                    mix(out as u64);
                }
                Gate::Inv { a, out } => {
                    mix(2);
                    mix(a as u64);
                    mix(out as u64);
                }
            }
        }
        mix(self.outputs.len() as u64);
        for &w in &self.outputs {
            mix(w as u64);
        }
        h
    }

    /// Evaluates the circuit on plaintext bits (test oracle).
    pub fn eval_plain(&self, garbler_bits: &[bool], evaluator_bits: &[bool]) -> Vec<bool> {
        assert_eq!(garbler_bits.len(), self.garbler_inputs.len());
        assert_eq!(evaluator_bits.len(), self.evaluator_inputs.len());
        let mut values = vec![false; self.num_wires];
        if let Some(w) = self.const_zero {
            values[w] = false;
        }
        if let Some(w) = self.const_one {
            values[w] = true;
        }
        for (wire, &bit) in self.garbler_inputs.iter().zip(garbler_bits) {
            values[*wire] = bit;
        }
        for (wire, &bit) in self.evaluator_inputs.iter().zip(evaluator_bits) {
            values[*wire] = bit;
        }
        for gate in &self.gates {
            match *gate {
                Gate::Xor { a, b, out } => values[out] = values[a] ^ values[b],
                Gate::And { a, b, out } => values[out] = values[a] & values[b],
                Gate::Inv { a, out } => values[out] = !values[a],
            }
        }
        self.outputs.iter().map(|&w| values[w]).collect()
    }
}

/// A little-endian group of wires representing an unsigned integer.
#[derive(Clone, Debug)]
pub struct WireBundle {
    /// Bit wires, least significant first.
    pub bits: Vec<WireId>,
}

impl WireBundle {
    /// Bit width.
    pub fn width(&self) -> usize {
        self.bits.len()
    }
}

/// Incremental circuit builder.
#[derive(Default)]
pub struct CircuitBuilder {
    circuit: Circuit,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn fresh_wire(&mut self) -> WireId {
        let id = self.circuit.num_wires;
        self.circuit.num_wires += 1;
        id
    }

    /// Adds an input bundle of `width` bits owned by `owner`.
    pub fn input(&mut self, owner: InputOwner, width: usize) -> WireBundle {
        let bits: Vec<WireId> = (0..width).map(|_| self.fresh_wire()).collect();
        match owner {
            InputOwner::Garbler => self.circuit.garbler_inputs.extend(&bits),
            InputOwner::Evaluator => self.circuit.evaluator_inputs.extend(&bits),
        }
        WireBundle { bits }
    }

    /// Returns the constant-zero wire (created on first use).
    pub fn zero(&mut self) -> WireId {
        if let Some(w) = self.circuit.const_zero {
            return w;
        }
        let w = self.fresh_wire();
        self.circuit.const_zero = Some(w);
        w
    }

    /// Returns the constant-one wire (created on first use).
    pub fn one(&mut self) -> WireId {
        if let Some(w) = self.circuit.const_one {
            return w;
        }
        let w = self.fresh_wire();
        self.circuit.const_one = Some(w);
        w
    }

    /// out = a XOR b
    pub fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        let out = self.fresh_wire();
        self.circuit.gates.push(Gate::Xor { a, b, out });
        out
    }

    /// out = a AND b
    pub fn and(&mut self, a: WireId, b: WireId) -> WireId {
        let out = self.fresh_wire();
        self.circuit.gates.push(Gate::And { a, b, out });
        out
    }

    /// out = NOT a
    pub fn not(&mut self, a: WireId) -> WireId {
        let out = self.fresh_wire();
        self.circuit.gates.push(Gate::Inv { a, out });
        out
    }

    /// out = a OR b  (De Morgan: NOT(NOT a AND NOT b))
    pub fn or(&mut self, a: WireId, b: WireId) -> WireId {
        let na = self.not(a);
        let nb = self.not(b);
        let both = self.and(na, nb);
        self.not(both)
    }

    /// out = selector ? b : a (2-to-1 multiplexer on single bits).
    pub fn mux(&mut self, selector: WireId, a: WireId, b: WireId) -> WireId {
        // a XOR (selector AND (a XOR b))
        let diff = self.xor(a, b);
        let gated = self.and(selector, diff);
        self.xor(a, gated)
    }

    /// Bundle-wide multiplexer: selector ? b : a.
    pub fn mux_bundle(&mut self, selector: WireId, a: &WireBundle, b: &WireBundle) -> WireBundle {
        assert_eq!(a.width(), b.width(), "mux operands must have equal width");
        let bits = a
            .bits
            .iter()
            .zip(b.bits.iter())
            .map(|(&x, &y)| self.mux(selector, x, y))
            .collect();
        WireBundle { bits }
    }

    /// Ripple-carry addition modulo 2^width.
    pub fn add(&mut self, a: &WireBundle, b: &WireBundle) -> WireBundle {
        assert_eq!(a.width(), b.width(), "add operands must have equal width");
        let mut carry = self.zero();
        let mut bits = Vec::with_capacity(a.width());
        for (&x, &y) in a.bits.iter().zip(b.bits.iter()) {
            let xy = self.xor(x, y);
            let sum = self.xor(xy, carry);
            // carry' = (x AND y) XOR (carry AND (x XOR y))
            let xand = self.and(x, y);
            let cand = self.and(carry, xy);
            carry = self.xor(xand, cand);
            bits.push(sum);
        }
        WireBundle { bits }
    }

    /// Subtraction modulo 2^width (a - b).
    pub fn sub(&mut self, a: &WireBundle, b: &WireBundle) -> WireBundle {
        assert_eq!(a.width(), b.width(), "sub operands must have equal width");
        // a - b = a + NOT(b) + 1, via a ripple borrow with initial carry 1.
        let mut carry = self.one();
        let mut bits = Vec::with_capacity(a.width());
        for (&x, &y) in a.bits.iter().zip(b.bits.iter()) {
            let ny = self.not(y);
            let xy = self.xor(x, ny);
            let sum = self.xor(xy, carry);
            let xand = self.and(x, ny);
            let cand = self.and(carry, xy);
            carry = self.xor(xand, cand);
            bits.push(sum);
        }
        WireBundle { bits }
    }

    /// Unsigned greater-than: returns a single wire = (a > b).
    pub fn gt(&mut self, a: &WireBundle, b: &WireBundle) -> WireId {
        assert_eq!(a.width(), b.width(), "gt operands must have equal width");
        // Scan from least to most significant: gt = (a_i AND NOT b_i) OR (eq_i AND gt_prev)
        let mut gt = self.zero();
        for (&x, &y) in a.bits.iter().zip(b.bits.iter()) {
            let ny = self.not(y);
            let x_gt_y = self.and(x, ny);
            let x_eq_y = {
                let x_xor_y = self.xor(x, y);
                self.not(x_xor_y)
            };
            let carry_gt = self.and(x_eq_y, gt);
            gt = self.or(x_gt_y, carry_gt);
        }
        gt
    }

    /// Unsigned greater-or-equal: (a >= b).
    pub fn ge(&mut self, a: &WireBundle, b: &WireBundle) -> WireId {
        let lt = self.gt(b, a);
        self.not(lt)
    }

    /// Equality over bundles.
    pub fn eq(&mut self, a: &WireBundle, b: &WireBundle) -> WireId {
        assert_eq!(a.width(), b.width(), "eq operands must have equal width");
        let mut acc = self.one();
        for (&x, &y) in a.bits.iter().zip(b.bits.iter()) {
            let x_xor_y = self.xor(x, y);
            let bit_eq = self.not(x_xor_y);
            acc = self.and(acc, bit_eq);
        }
        acc
    }

    /// Marks a single wire as a circuit output.
    pub fn output(&mut self, wire: WireId) {
        self.circuit.outputs.push(wire);
    }

    /// Marks a bundle as circuit outputs (LSB first).
    pub fn output_bundle(&mut self, bundle: &WireBundle) {
        self.circuit.outputs.extend(&bundle.bits);
    }

    /// Finalizes the circuit.
    pub fn build(self) -> Circuit {
        self.circuit
    }
}

/// Converts an integer to `width` little-endian bits.
pub fn to_bits(value: u64, width: usize) -> Vec<bool> {
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

/// Converts little-endian bits back to an integer.
pub fn from_bits(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

/// Pretzel's spam-filtering circuit (paper §3.3 with §4.2 blinding):
///
/// * Garbler (provider) inputs: blinded per-class dot products
///   `d_spam + n_spam` and `d_ham + n_ham`, each `width` bits.
/// * Evaluator (client) inputs: the blinding values `n_spam`, `n_ham`.
/// * Output (revealed to the client only): 1 bit — `d_spam > d_ham`.
pub fn spam_compare_circuit(width: usize) -> Circuit {
    let mut b = CircuitBuilder::new();
    let blinded_spam = b.input(InputOwner::Garbler, width);
    let blinded_ham = b.input(InputOwner::Garbler, width);
    let noise_spam = b.input(InputOwner::Evaluator, width);
    let noise_ham = b.input(InputOwner::Evaluator, width);
    let d_spam = b.sub(&blinded_spam, &noise_spam);
    let d_ham = b.sub(&blinded_ham, &noise_ham);
    let is_spam = b.gt(&d_spam, &d_ham);
    b.output(is_spam);
    b.build()
}

/// Pretzel's candidate-topic argmax circuit (paper Figure 5, step 5):
///
/// * Garbler (client) inputs: the B′ candidate indices `S'[j]`
///   (`index_width` bits each) and the B′ blinding values (`width` bits each).
/// * Evaluator (provider) inputs: the B′ blinded dot products.
/// * Output (revealed to the provider): the index `S'[argmax_j d_j]`,
///   `index_width` bits.
///
/// Note the role reversal versus spam: here the *client* garbles, which is
/// what gives the client the paper's "plausible deniability" opt-out (§4.4).
pub fn topic_argmax_circuit(candidates: usize, width: usize, index_width: usize) -> Circuit {
    assert!(candidates >= 1);
    let mut b = CircuitBuilder::new();
    let indices: Vec<WireBundle> = (0..candidates)
        .map(|_| b.input(InputOwner::Garbler, index_width))
        .collect();
    let noises: Vec<WireBundle> = (0..candidates)
        .map(|_| b.input(InputOwner::Garbler, width))
        .collect();
    let blinded: Vec<WireBundle> = (0..candidates)
        .map(|_| b.input(InputOwner::Evaluator, width))
        .collect();

    // Unblind each candidate, then fold an argmax.
    let mut best_value = b.sub(&blinded[0], &noises[0]);
    let mut best_index = indices[0].clone();
    for j in 1..candidates {
        let value = b.sub(&blinded[j], &noises[j]);
        let better = b.gt(&value, &best_value);
        best_value = b.mux_bundle(better, &best_value, &value);
        best_index = b.mux_bundle(better, &best_index, &indices[j]);
    }
    b.output_bundle(&best_index);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_u64(circuit: &Circuit, g: &[(u64, usize)], e: &[(u64, usize)]) -> u64 {
        let g_bits: Vec<bool> = g.iter().flat_map(|&(v, w)| to_bits(v, w)).collect();
        let e_bits: Vec<bool> = e.iter().flat_map(|&(v, w)| to_bits(v, w)).collect();
        from_bits(&circuit.eval_plain(&g_bits, &e_bits))
    }

    #[test]
    fn adder_matches_integer_addition() {
        let mut b = CircuitBuilder::new();
        let x = b.input(InputOwner::Garbler, 16);
        let y = b.input(InputOwner::Evaluator, 16);
        let sum = b.add(&x, &y);
        b.output_bundle(&sum);
        let circuit = b.build();
        for (a_val, b_val) in [
            (0u64, 0u64),
            (1, 1),
            (12345, 54321),
            (65535, 1),
            (40000, 40000),
        ] {
            let got = eval_u64(&circuit, &[(a_val, 16)], &[(b_val, 16)]);
            assert_eq!(got, (a_val + b_val) & 0xFFFF);
        }
    }

    #[test]
    fn subtractor_matches_wrapping_subtraction() {
        let mut b = CircuitBuilder::new();
        let x = b.input(InputOwner::Garbler, 16);
        let y = b.input(InputOwner::Evaluator, 16);
        let diff = b.sub(&x, &y);
        b.output_bundle(&diff);
        let circuit = b.build();
        for (a_val, b_val) in [
            (10u64, 3u64),
            (3, 10),
            (65535, 65535),
            (0, 1),
            (50000, 1234),
        ] {
            let got = eval_u64(&circuit, &[(a_val, 16)], &[(b_val, 16)]);
            assert_eq!(got, (a_val.wrapping_sub(b_val)) & 0xFFFF);
        }
    }

    #[test]
    fn comparator_and_equality() {
        let mut b = CircuitBuilder::new();
        let x = b.input(InputOwner::Garbler, 12);
        let y = b.input(InputOwner::Evaluator, 12);
        let gt = b.gt(&x, &y);
        let ge = b.ge(&x, &y);
        let eq = b.eq(&x, &y);
        b.output(gt);
        b.output(ge);
        b.output(eq);
        let circuit = b.build();
        for (a_val, b_val) in [(5u64, 3u64), (3, 5), (7, 7), (0, 4095), (4095, 0)] {
            let bits = circuit.eval_plain(&to_bits(a_val, 12), &to_bits(b_val, 12));
            assert_eq!(bits[0], a_val > b_val, "gt({a_val},{b_val})");
            assert_eq!(bits[1], a_val >= b_val, "ge({a_val},{b_val})");
            assert_eq!(bits[2], a_val == b_val, "eq({a_val},{b_val})");
        }
    }

    #[test]
    fn mux_selects_correctly() {
        let mut b = CircuitBuilder::new();
        let sel = b.input(InputOwner::Garbler, 1);
        let x = b.input(InputOwner::Evaluator, 8);
        let y = b.input(InputOwner::Evaluator, 8);
        let out = b.mux_bundle(sel.bits[0], &x, &y);
        b.output_bundle(&out);
        let circuit = b.build();
        let mut e_bits = to_bits(0xAB, 8);
        e_bits.extend(to_bits(0xCD, 8));
        assert_eq!(from_bits(&circuit.eval_plain(&[false], &e_bits)), 0xAB);
        assert_eq!(from_bits(&circuit.eval_plain(&[true], &e_bits)), 0xCD);
    }

    #[test]
    fn spam_circuit_compares_unblinded_values() {
        let width = 24;
        let circuit = spam_compare_circuit(width);
        let cases = [
            (1000u64, 900u64, true),
            (900, 1000, false),
            (500, 500, false),
        ];
        for (d_spam, d_ham, expect) in cases {
            let n_spam = 123456u64 % (1 << width);
            let n_ham = 987654u64 % (1 << width);
            let blinded_spam = (d_spam + n_spam) & ((1 << width) - 1);
            let blinded_ham = (d_ham + n_ham) & ((1 << width) - 1);
            let mut g_bits = to_bits(blinded_spam, width);
            g_bits.extend(to_bits(blinded_ham, width));
            let mut e_bits = to_bits(n_spam, width);
            e_bits.extend(to_bits(n_ham, width));
            let out = circuit.eval_plain(&g_bits, &e_bits);
            assert_eq!(out, vec![expect], "d_spam={d_spam} d_ham={d_ham}");
        }
    }

    #[test]
    fn topic_circuit_returns_index_of_maximum() {
        let width = 20;
        let index_width = 12;
        let candidates = 5;
        let circuit = topic_argmax_circuit(candidates, width, index_width);
        let values = [400u64, 900, 150, 899, 650];
        let indices = [17u64, 1042, 3, 999, 512];
        let noises = [11u64, 22, 33, 44, 55];
        let mask = (1u64 << width) - 1;

        let mut g_bits = Vec::new();
        for &idx in &indices {
            g_bits.extend(to_bits(idx, index_width));
        }
        for &n in &noises {
            g_bits.extend(to_bits(n, width));
        }
        let mut e_bits = Vec::new();
        for (v, n) in values.iter().zip(noises.iter()) {
            e_bits.extend(to_bits((v + n) & mask, width));
        }
        let out = from_bits(&circuit.eval_plain(&g_bits, &e_bits));
        assert_eq!(
            out, 1042,
            "argmax of {values:?} is position 1 -> index 1042"
        );
    }

    #[test]
    fn and_count_reflects_only_and_gates() {
        let mut b = CircuitBuilder::new();
        let x = b.input(InputOwner::Garbler, 8);
        let y = b.input(InputOwner::Evaluator, 8);
        let _ = b.add(&x, &y);
        let circuit_adder = b.build();
        // A ripple-carry adder uses 2 AND gates per bit.
        assert_eq!(circuit_adder.and_count(), 16);
    }

    #[test]
    fn bit_conversion_roundtrip() {
        for v in [0u64, 1, 255, 256, 0xFFFF_FFFF, 0xDEAD_BEEF] {
            assert_eq!(from_bits(&to_bits(v, 64)), v);
        }
        assert_eq!(from_bits(&to_bits(0x1FF, 8)), 0xFF, "truncates to width");
    }
}
