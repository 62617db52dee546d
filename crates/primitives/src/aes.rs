//! AES-128 encryption (FIPS-197): the block cipher under the garbled-circuit
//! gate hash ([`crate::gchash`]).
//!
//! Two bodies compute the same function. On x86-64 CPUs with AES-NI (checked
//! at run time with `is_x86_feature_detected!`) the rounds run on
//! `aesenc`/`aesenclast` through `core::arch`, with up to `N` blocks in
//! flight so their latencies overlap. Everywhere else a constant-time
//! software body runs: SubBytes is the Boyar–Peralta S-box circuit evaluated
//! bitsliced over the 16 state bytes, and MixColumns doubles with masks, so
//! no memory address and no branch depends on the data. The software body is
//! also the reference the AES-NI body is tested against.
//!
//! Only encryption is implemented: the gate hash uses AES as a fixed-key
//! permutation and never inverts it.

/// One 128-bit AES block.
pub type Block = [u8; 16];

/// The eleven round keys of an expanded AES-128 key.
#[derive(Clone, Copy, Debug)]
pub struct RoundKeys([Block; 11]);

impl RoundKeys {
    /// Expands a 128-bit key (FIPS-197 §5.2).
    pub fn expand(key: &Block) -> RoundKeys {
        const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];
        let mut keys = [[0u8; 16]; 11];
        keys[0] = *key;
        for round in 1..11 {
            let prev = keys[round - 1];
            // SubWord(RotWord(last word of the previous key)) ⊕ Rcon.
            let mut rotated = [0u8; 16];
            rotated[..4].copy_from_slice(&[prev[13], prev[14], prev[15], prev[12]]);
            let sub = sub_bytes(rotated);
            let mut word = [sub[0] ^ RCON[round - 1], sub[1], sub[2], sub[3]];
            for col in 0..4 {
                for (i, w) in word.iter_mut().enumerate() {
                    *w ^= prev[4 * col + i];
                    keys[round][4 * col + i] = *w;
                }
            }
        }
        RoundKeys(keys)
    }
}

/// Encrypts every block of `blocks` in place under `keys`, on AES-NI when the
/// CPU has it and on the constant-time software body otherwise.
pub fn encrypt_blocks<const N: usize>(keys: &RoundKeys, blocks: &mut [Block; N]) {
    if !encrypt_blocks_ni(keys, blocks) {
        encrypt_blocks_soft(keys, blocks);
    }
}

/// The software body of [`encrypt_blocks`]: constant time, table-free.
pub(crate) fn encrypt_blocks_soft<const N: usize>(keys: &RoundKeys, blocks: &mut [Block; N]) {
    for block in blocks.iter_mut() {
        let mut state = xor(*block, keys.0[0]);
        for key in &keys.0[1..10] {
            state = xor(mix_columns(shift_rows(sub_bytes(state))), *key);
        }
        *block = xor(shift_rows(sub_bytes(state)), keys.0[10]);
    }
}

/// The AES-NI body of [`encrypt_blocks`]. Returns `false`, leaving `blocks`
/// untouched, when the CPU has no AES-NI.
#[cfg(target_arch = "x86_64")]
pub(crate) fn encrypt_blocks_ni<const N: usize>(keys: &RoundKeys, blocks: &mut [Block; N]) -> bool {
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_setzero_si128,
        _mm_storeu_si128, _mm_xor_si128,
    };

    /// The ten AES rounds on AES-NI.
    ///
    /// # Safety
    ///
    /// Enables the `aes` target feature, so a caller outside it (which
    /// must use `unsafe`) must first have detected AES-NI on this CPU.
    #[target_feature(enable = "aes")]
    fn rounds<const N: usize>(keys: &RoundKeys, blocks: &mut [Block; N]) {
        let mut k = [_mm_setzero_si128(); 11];
        let mut s = [_mm_setzero_si128(); N];
        // SAFETY: every pointer is to a live 16-byte array, and the
        // `loadu`/`storeu` forms have no alignment requirement.
        unsafe {
            for (reg, key) in k.iter_mut().zip(&keys.0) {
                *reg = _mm_loadu_si128(key.as_ptr().cast::<__m128i>());
            }
            for (reg, block) in s.iter_mut().zip(blocks.iter()) {
                *reg = _mm_loadu_si128(block.as_ptr().cast::<__m128i>());
            }
        }
        for reg in s.iter_mut() {
            *reg = _mm_xor_si128(*reg, k[0]);
        }
        // Round-major order: the N independent blocks fill the aesenc
        // pipeline instead of each waiting out its own latency.
        for key in &k[1..10] {
            for reg in s.iter_mut() {
                *reg = _mm_aesenc_si128(*reg, *key);
            }
        }
        for (reg, block) in s.iter().zip(blocks.iter_mut()) {
            // SAFETY: as for the loads above.
            unsafe {
                _mm_storeu_si128(
                    block.as_mut_ptr().cast::<__m128i>(),
                    _mm_aesenclast_si128(*reg, k[10]),
                );
            }
        }
    }

    if !std::arch::is_x86_feature_detected!("aes") {
        return false;
    }
    // SAFETY: `rounds` enables exactly the `aes` target feature, which the
    // CPU was just detected to have (SSE2 is part of the x86-64 baseline).
    unsafe { rounds(keys, blocks) };
    true
}

/// The AES-NI body of [`encrypt_blocks`]: unavailable off x86-64.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn encrypt_blocks_ni<const N: usize>(
    _keys: &RoundKeys,
    _blocks: &mut [Block; N],
) -> bool {
    false
}

fn xor(a: Block, b: Block) -> Block {
    std::array::from_fn(|i| a[i] ^ b[i])
}

/// ShiftRows: row `r` of the column-major state rotates left by `r`.
fn shift_rows(s: Block) -> Block {
    std::array::from_fn(|i| {
        let (row, col) = (i % 4, i / 4);
        s[row + 4 * ((col + row) % 4)]
    })
}

/// Multiplication by `x` in GF(2⁸) of each byte of `w`, reducing by the
/// AES polynomial through a mask rather than a branch.
fn xtime4(w: u32) -> u32 {
    ((w & 0x7f7f_7f7f) << 1) ^ (((w >> 7) & 0x0101_0101) * 0x1b)
}

/// MixColumns, one column (four bytes, row 0 lowest) per `u32`: row `r`
/// becomes `a_r ⊕ (a_0 ⊕ a_1 ⊕ a_2 ⊕ a_3) ⊕ 2·(a_r ⊕ a_{r+1})`.
fn mix_columns(s: Block) -> Block {
    let mut out = [0u8; 16];
    for (col, o) in s.chunks_exact(4).zip(out.chunks_exact_mut(4)) {
        let w = u32::from_le_bytes(col.try_into().expect("4-byte column"));
        let next = w.rotate_right(8);
        let all = w ^ next ^ w.rotate_right(16) ^ w.rotate_right(24);
        o.copy_from_slice(&(w ^ all ^ xtime4(w ^ next)).to_le_bytes());
    }
    out
}

/// SubBytes on all 16 bytes at once: the bytes are transposed into eight
/// 16-lane bit planes (plane `k` holds bit `k` of every byte), pushed
/// through the Boyar–Peralta S-box circuit (113 XOR/AND/XNOR gates), and
/// transposed back.
fn sub_bytes(s: Block) -> Block {
    let lo = transpose_8x8(u64::from_le_bytes(s[..8].try_into().expect("8 bytes")));
    let hi = transpose_8x8(u64::from_le_bytes(s[8..].try_into().expect("8 bytes")));
    let (lo, hi) = (lo.to_le_bytes(), hi.to_le_bytes());
    let out = sbox_circuit(std::array::from_fn(|k| {
        u16::from(lo[k]) | u16::from(hi[k]) << 8
    }));
    let lo = transpose_8x8(u64::from_le_bytes(out.map(|p| p as u8)));
    let hi = transpose_8x8(u64::from_le_bytes(out.map(|p| (p >> 8) as u8)));
    let mut block = [0u8; 16];
    block[..8].copy_from_slice(&lo.to_le_bytes());
    block[8..].copy_from_slice(&hi.to_le_bytes());
    block
}

/// Transposes the 8×8 bit matrix whose row `i` is byte `i` of `x` (column
/// `j` is bit `j`): bit `j` of byte `i` becomes bit `i` of byte `j`. Three
/// masked delta swaps — 1×1, 2×2 and 4×4 blocks across the diagonal.
/// Bitslicing here and the IKNP matrix transpose of OT extension share it.
pub fn transpose_8x8(mut x: u64) -> u64 {
    for (shift, mask) in [
        (7, 0x00AA_00AA_00AA_00AA),
        (14, 0x0000_CCCC_0000_CCCC),
        (28, 0x0000_0000_F0F0_F0F0),
    ] {
        let t = (x ^ (x >> shift)) & mask;
        x ^= t ^ (t << shift);
    }
    x
}

/// The Boyar–Peralta AES S-box circuit over bit planes (`x[k]` = bit `k`).
fn sbox_circuit(x: [u16; 8]) -> [u16; 8] {
    let (x0, x1, x2, x3, x4, x5, x6, x7) = (x[7], x[6], x[5], x[4], x[3], x[2], x[1], x[0]);

    // Top linear transformation.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    // Non-linear section: inversion in GF(2⁸) via GF(2⁴).
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;

    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;

    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear transformation.
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    [s7, s6, s5, s4, s3, s2, s1, s0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prg;

    fn unhex(s: &str) -> Block {
        std::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
    }

    /// The S-box from its definition: inversion in GF(2⁸) (0 ↦ 0), then the
    /// FIPS-197 affine map.
    fn sbox_reference(x: u8) -> u8 {
        let mul = |mut a: u8, mut b: u8| {
            let mut p = 0u8;
            while b != 0 {
                if b & 1 == 1 {
                    p ^= a;
                }
                a = (a << 1) ^ if a & 0x80 != 0 { 0x1b } else { 0 };
                b >>= 1;
            }
            p
        };
        let inv = (1..=255u8).find(|&y| mul(x, y) == 1).unwrap_or(0);
        inv ^ inv.rotate_left(1)
            ^ inv.rotate_left(2)
            ^ inv.rotate_left(3)
            ^ inv.rotate_left(4)
            ^ 0x63
    }

    #[test]
    fn bitsliced_sbox_matches_its_definition_on_every_byte() {
        for chunk in 0..16u8 {
            let input: Block = std::array::from_fn(|i| chunk * 16 + i as u8);
            let out = sub_bytes(input);
            for (x, y) in input.iter().zip(out) {
                assert_eq!(y, sbox_reference(*x), "S({x:#04x})");
            }
        }
        assert_eq!(sbox_reference(0x00), 0x63);
        assert_eq!(sbox_reference(0x53), 0xed);
    }

    #[test]
    fn key_expansion_matches_fips_197_appendix_a1() {
        let keys = RoundKeys::expand(&unhex("2b7e151628aed2a6abf7158809cf4f3c"));
        assert_eq!(keys.0[1], unhex("a0fafe1788542cb123a339392a6c7605"));
        assert_eq!(keys.0[10], unhex("d014f9a8c9ee2589e13f0cc8b6630ca6"));
    }

    /// FIPS-197 Appendix C.1: AES-128 known answer.
    fn fips_197_c1() -> (RoundKeys, Block, Block) {
        (
            RoundKeys::expand(&unhex("000102030405060708090a0b0c0d0e0f")),
            unhex("00112233445566778899aabbccddeeff"),
            unhex("69c4e0d86a7b0430d8cdb78070b4c55a"),
        )
    }

    #[test]
    fn software_body_passes_the_fips_197_known_answer() {
        let (keys, plain, cipher) = fips_197_c1();
        let mut blocks = [plain];
        encrypt_blocks_soft(&keys, &mut blocks);
        assert_eq!(blocks, [cipher]);
    }

    #[test]
    fn aes_ni_body_passes_the_fips_197_known_answer_when_present() {
        let (keys, plain, cipher) = fips_197_c1();
        let mut blocks = [plain, plain, plain];
        if encrypt_blocks_ni(&keys, &mut blocks) {
            assert_eq!(blocks, [cipher; 3]);
        } else {
            assert_eq!(
                blocks, [plain; 3],
                "an unavailable body leaves blocks alone"
            );
        }
    }

    #[test]
    fn both_bodies_agree_on_random_keys_and_blocks() {
        let mut prg = Prg::new(&[0xAE; 32]);
        for _ in 0..64 {
            let keys = RoundKeys::expand(&prg.next_block());
            let blocks: [Block; 4] = std::array::from_fn(|_| prg.next_block());
            let mut soft = blocks;
            encrypt_blocks_soft(&keys, &mut soft);
            let mut dispatched = blocks;
            encrypt_blocks(&keys, &mut dispatched);
            assert_eq!(soft, dispatched);
        }
    }
}
