//! The gate hash of the garbled-circuit stack: one tweakable
//! correlation-robust hash on fixed-key AES.
//!
//! The construction is Guo–Katz–Wang–Yu's TMMO ("Efficient and Secure
//! Multiparty Computation from Fixed-Key Block Ciphers", IEEE S&P 2020),
//!
//! ```text
//! H(x, i) = π(π(x) ⊕ i) ⊕ π(x)
//! ```
//!
//! where π is AES-128 under a fixed, public key and `i` a 128-bit tweak.
//! They prove it tweakable circular correlation-robust (TCCR) with π modelled
//! as a random permutation, which is the notion half-gates garbling needs
//! for its row pads and IKNP OT extension needs for its message pads. The
//! key is public, so π is expanded once per process and never re-keyed.
//!
//! Both protocols call the one function, [`gate_hash`], with tweaks from
//! disjoint domains (`pretzel_gc` assigns them): a garbled AND gate hashes
//! four inputs on the garbler's side and two on the evaluator's, an extended
//! OT two on the sender's and one on the receiver's. Inputs passed together
//! go through each AES pass together, so on AES-NI their rounds overlap.

use std::sync::LazyLock;

use crate::aes::{encrypt_blocks, Block, RoundKeys};

/// π's key: the first 128 bits of the fractional part of π
/// (`0x243F6A88…`), a nothing-up-my-sleeve constant.
pub const PI_KEY: Block = [
    0x24, 0x3f, 0x6a, 0x88, 0x85, 0xa3, 0x08, 0xd3, 0x13, 0x19, 0x8a, 0x2e, 0x03, 0x70, 0x73, 0x44,
];

static PI: LazyLock<RoundKeys> = LazyLock::new(|| RoundKeys::expand(&PI_KEY));

/// `H(x, i)` for every `(x, i)` of `inputs`, the tweak encoded
/// little-endian into a block.
pub fn gate_hash<const N: usize>(inputs: [(Block, u128); N]) -> [Block; N] {
    tmmo(inputs, |blocks| encrypt_blocks(&PI, blocks))
}

/// TMMO over a given implementation of π.
fn tmmo<const N: usize>(inputs: [(Block, u128); N], pi: impl Fn(&mut [Block; N])) -> [Block; N] {
    let mut px = inputs.map(|(x, _)| x);
    pi(&mut px);
    let mut out: [Block; N] = std::array::from_fn(|k| {
        let tweak = inputs[k].1.to_le_bytes();
        std::array::from_fn(|b| px[k][b] ^ tweak[b])
    });
    pi(&mut out);
    for (o, p) in out.iter_mut().zip(&px) {
        for (ob, pb) in o.iter_mut().zip(p) {
            *ob ^= pb;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::{encrypt_blocks_ni, encrypt_blocks_soft};
    use crate::{sha256, Prg};

    fn hex(b: &Block) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn pi_key_is_the_fractional_part_of_pi() {
        // π = 3.243F6A8885A308D313198A2E03707344A4093822… in hexadecimal.
        assert_eq!(hex(&PI_KEY), "243f6a8885a308d313198a2e03707344");
    }

    #[test]
    fn pinned_outputs_catch_a_change_of_key_or_construction() {
        let [h0, h1] = gate_hash([([0u8; 16], 0), ([0xA5; 16], (1 << 64) | 7)]);
        assert_eq!(hex(&h0), "d258df24fa7ba8bf8fdb9179e1dec566");
        assert_eq!(hex(&h1), "f8b99f6beafc1fc238141cf9f55a2991");
    }

    #[test]
    fn batched_and_single_calls_agree() {
        let x = [7u8; 16];
        let y = [9u8; 16];
        let [a, b, c, d] = gate_hash([(x, 1), (y, 1), (x, 2), (y, 3)]);
        assert_eq!([a], gate_hash([(x, 1)]));
        assert_eq!([b], gate_hash([(y, 1)]));
        assert_eq!([c, d], gate_hash([(x, 2), (y, 3)]));
        // Tweak and input both matter.
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn aes_ni_and_software_bodies_hash_identically() {
        let soft = |blocks: &mut [Block; 4]| encrypt_blocks_soft(&PI, blocks);
        let ni = |blocks: &mut [Block; 4]| assert!(encrypt_blocks_ni(&PI, blocks));
        let mut probe = [[0u8; 16]; 4];
        if !encrypt_blocks_ni(&PI, &mut probe) {
            return; // no AES-NI here: the dispatcher runs the software body
        }
        let mut prg = Prg::new(&sha256(b"gate-hash cross-check"));
        for _ in 0..2_500 {
            // 4 pairs per call: 10 000 (x, tweak) pairs in all.
            let inputs: [(Block, u128); 4] = std::array::from_fn(|_| {
                let x = prg.next_block();
                let tweak = u128::from_le_bytes(prg.next_block());
                (x, tweak)
            });
            assert_eq!(tmmo(inputs, soft), tmmo(inputs, ni));
        }
    }
}
