//! Base oblivious transfer (1-out-of-2) over a prime-order subgroup.
//!
//! This is the Chou–Orlandi "simplest OT" construction over a multiplicative
//! group modulo a safe prime:
//!
//! * Sender: secret `a`, publishes `A = g^a`.
//! * Receiver with choice bit `c`: secret `b`, publishes `B = g^b` (c = 0) or
//!   `B = A·g^b` (c = 1); derives `k_c = H(A^b)`.
//! * Sender derives `k_0 = H(B^a)` and `k_1 = H((B/A)^a)` and sends both
//!   messages encrypted under the respective keys; the receiver can decrypt
//!   only the chosen one.
//!
//! Base OTs run only during the setup phase of the Yao session (the IKNP
//! extension in [`crate::otext`] turns 128 of them into any number of fast
//! per-email OTs), which is exactly how the paper amortizes the expensive
//! public-key machinery into setup (§3.3).
//!
//! # Exponents
//!
//! Secret exponents are drawn below `min(q, 2²⁵⁶ − 1)`, not below `q`: in
//! the 1536-bit group a 256-bit exponent already puts the discrete log at
//! 2¹²⁸ generic-group work, above the ~2⁹⁰–2¹²⁰ the modulus itself offers
//! (RFC 3526 §8 sizes the exponent for this group at 180–240 bits), and it
//! makes every exponentiation six times shorter. `p` is a safe prime, so
//! the only small subgroup is `{1, p − 1}`: an element outside the order-`q`
//! subgroup can confine a short exponent to at most one bit, and
//! [`OtGroup`] refuses the two elements (`1`, `p − 1`) that would leak even
//! that much for free — everything received must lie in `[2, p − 2]`. Test
//! groups narrower than 256 bits keep sampling below `q`.
//!
//! Two of the three exponentiations per OT have a fixed base — `g` for the
//! life of the group and `A` for the life of the session — and run off a
//! [`pretzel_bignum::AutoFixedBase`] table (one product per 4-bit window, no
//! squarings); the third, the sender's `B_i^a`, shares one exponent across
//! every `B_i` ([`AutoMontgomery::pow_each`]). Both read their tables by
//! masked full scan, so no secret exponent steers a memory address here.
//!
//! # Frames
//!
//! Three, whatever the number of OTs `n`:
//!
//! | # | direction | bytes | content |
//! |---|-----------|-------|---------|
//! | 1 | S → R | `w` | `A` |
//! | 2 | R → S | `n·w` | `B_0 ‖ … ‖ B_{n−1}` |
//! | 3 | S → R | `n·64` | `m⁰_i ⊕ k⁰_i ‖ m¹_i ⊕ k¹_i` for each `i` |
//!
//! where `w` is the byte length of `p` and every element is big-endian,
//! zero-padded to `w`. Frame 2 is length-checked against the sender's own
//! `n` before anything is parsed. The receiver computes its `g^b` before `A`
//! arrives and its `A^b` while the sender works through frame 2; the sender
//! computes `A^{-a}` while it waits for that frame.

use std::sync::{Arc, OnceLock};

use rand::Rng;

use pretzel_bignum::{gen_safe_prime, mod_inv, AutoFixedBase, AutoMontgomery, BigUint};
use pretzel_primitives::{sha256, xor_in_place};
use pretzel_transport::Channel;

use crate::GcError;

/// Fixed-size payload carried by one base OT (a PRG seed).
pub const OT_MSG_LEN: usize = 32;

/// Width cap on secret exponents (see the module docs).
const EXPONENT_BITS: usize = 256;

/// Generator of the order-q subgroup of every safe-prime group: 4 = 2² is a
/// quadratic residue other than 1.
const GENERATOR: u64 = 4;

/// The group used for base OT.
#[derive(Clone, Debug)]
pub struct OtGroup {
    /// Safe prime modulus; the subgroup order is q = (p - 1) / 2.
    p: BigUint,
    /// Exclusive bound on secret exponents: `min(q, 2²⁵⁶ − 1)`.
    exponent_bound: BigUint,
    mont: AutoMontgomery,
    /// Fixed-base table for the generator, shared by every clone of the
    /// group.
    g_table: Arc<AutoFixedBase>,
}

impl OtGroup {
    /// The 1536-bit MODP group from RFC 3526 (§2); `g = 4` generates the
    /// prime-order subgroup of a safe prime. Built once per process and
    /// cloned from there (the clone shares the generator's table).
    pub fn rfc3526_1536() -> Self {
        static GROUP: OnceLock<OtGroup> = OnceLock::new();
        GROUP
            .get_or_init(|| {
                let p_hex = concat!(
                    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1",
                    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD",
                    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245",
                    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED",
                    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D",
                    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F",
                    "83655D23DCA3AD961C62F356208552BB9ED529077096966D",
                    "670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"
                );
                Self::from_safe_prime(BigUint::from_hex(p_hex).expect("valid hex constant"))
            })
            .clone()
    }

    /// Builds a group from a safe prime `p` with generator `g = 4`.
    pub fn from_safe_prime(p: BigUint) -> Self {
        let q = (p.clone() - BigUint::one()) >> 1;
        let cap = (BigUint::one() << EXPONENT_BITS) - BigUint::one();
        let exponent_bound = q.min(cap);
        let mont = AutoMontgomery::new(&p);
        let g = BigUint::from(GENERATOR);
        let g_table = Arc::new(mont.fixed_base(&g, exponent_bound.bits()));
        OtGroup {
            p,
            exponent_bound,
            mont,
            g_table,
        }
    }

    /// Generates a small group for unit tests (NOT secure — documented as
    /// such; production paths use [`OtGroup::rfc3526_1536`]).
    pub fn insecure_test_group<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        Self::from_safe_prime(gen_safe_prime(bits, rng))
    }

    /// Deterministically derives a small test group from a 32-byte seed.
    ///
    /// Both protocol parties call this with the seed produced by the joint
    /// commit–reveal exchange, so they agree on the same group without either
    /// party choosing it unilaterally. Like [`OtGroup::insecure_test_group`],
    /// the result is NOT cryptographically secure at small bit widths;
    /// production configurations use [`OtGroup::rfc3526_1536`].
    pub fn derive_test_group(bits: usize, seed: &[u8; 32]) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::from_seed(*seed);
        Self::from_safe_prime(gen_safe_prime(bits, &mut rng))
    }

    /// The group's prime modulus (a public parameter).
    pub fn prime(&self) -> &BigUint {
        &self.p
    }

    /// A secret exponent, uniform in `[1, min(q, 2²⁵⁶ − 1))`.
    fn random_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let e = BigUint::random_below(rng, &self.exponent_bound);
            if !e.is_zero() {
                return e;
            }
        }
    }

    fn element_bytes(&self) -> usize {
        self.p.bits().div_ceil(8)
    }

    fn encode(&self, x: &BigUint) -> Vec<u8> {
        x.to_bytes_be_padded(self.element_bytes())
    }

    /// Parses a received group element: exactly [`OtGroup::element_bytes`]
    /// long and within `[2, p − 2]` — `0` and anything `≥ p` are not
    /// elements, and `1` and `p − 1` are the small subgroup.
    fn decode(&self, bytes: &[u8]) -> Result<BigUint, GcError> {
        if bytes.len() != self.element_bytes() {
            return Err(GcError::Protocol("bad group element length".into()));
        }
        let v = BigUint::from_bytes_be(bytes);
        if v.is_zero() || v.is_one() || v.add_ref(&BigUint::one()) >= self.p {
            return Err(GcError::Protocol("group element out of range".into()));
        }
        Ok(v)
    }
}

fn key_from_element(group: &OtGroup, shared: &BigUint, index: u64) -> [u8; 32] {
    let mut data = group.encode(shared);
    data.extend_from_slice(&index.to_le_bytes());
    sha256(&data)
}

/// Sender side of `n` base OTs. `messages[i]` is the pair `(m0, m1)`; the
/// receiver learns exactly one of each pair.
pub fn base_ot_send<C: Channel>(
    channel: &mut C,
    group: &OtGroup,
    messages: &[([u8; OT_MSG_LEN], [u8; OT_MSG_LEN])],
    rng: &mut (impl Rng + ?Sized),
) -> Result<(), GcError> {
    let a = group.random_exponent(rng);
    let big_a = group.g_table.pow(&a);
    channel.send(&group.encode(&big_a))?;
    // A^{-a} turns (B / A)^a into B^a · A^{-a}; computed while the receiver
    // prepares its elements.
    let a_inv = mod_inv(&big_a, &group.p).map_err(|_| GcError::Protocol("bad group".into()))?;
    let a_inv_pow_a = group.mont.pow(&a_inv, &a);

    let frame = channel.recv()?;
    let width = group.element_bytes();
    if frame.len() != messages.len() * width {
        return Err(GcError::Protocol("bad base-OT element frame length".into()));
    }
    let big_bs = frame
        .chunks_exact(width)
        .map(|bytes| group.decode(bytes))
        .collect::<Result<Vec<_>, _>>()?;

    let shared = group.mont.pow_each(&big_bs, &a);
    let mut response = Vec::with_capacity(messages.len() * 2 * OT_MSG_LEN);
    for (i, ((m0, m1), b_pow_a)) in messages.iter().zip(&shared).enumerate() {
        let k0 = key_from_element(group, b_pow_a, i as u64);
        let k1 = key_from_element(group, &group.mont.mul(b_pow_a, &a_inv_pow_a), i as u64);

        let mut e0 = *m0;
        xor_in_place(&mut e0, &k0);
        let mut e1 = *m1;
        xor_in_place(&mut e1, &k1);
        response.extend_from_slice(&e0);
        response.extend_from_slice(&e1);
    }
    channel.send_owned(response)?;
    Ok(())
}

/// Receiver side of `n` base OTs; returns the chosen message of each pair.
pub fn base_ot_receive<C: Channel>(
    channel: &mut C,
    group: &OtGroup,
    choices: &[bool],
    rng: &mut (impl Rng + ?Sized),
) -> Result<Vec<[u8; OT_MSG_LEN]>, GcError> {
    // g^b needs nothing from the sender, so that pass does not wait for A.
    let exponents: Vec<BigUint> = choices.iter().map(|_| group.random_exponent(rng)).collect();
    let powers: Vec<BigUint> = exponents.iter().map(|b| group.g_table.pow(b)).collect();

    let big_a = group.decode(&channel.recv()?)?;
    let mut frame = Vec::with_capacity(choices.len() * group.element_bytes());
    for (g_b, &c) in powers.into_iter().zip(choices) {
        let big_b = if c { group.mont.mul(&big_a, &g_b) } else { g_b };
        frame.extend_from_slice(&group.encode(&big_b));
    }
    channel.send_owned(frame)?;

    // The sender now has one exponentiation per element to do; A^b needs
    // nothing from it.
    let a_table = group.mont.fixed_base(&big_a, group.exponent_bound.bits());
    let keys: Vec<[u8; 32]> = exponents
        .iter()
        .enumerate()
        .map(|(i, b)| key_from_element(group, &a_table.pow(b), i as u64))
        .collect();

    let response = channel.recv()?;
    if response.len() != choices.len() * 2 * OT_MSG_LEN {
        return Err(GcError::Protocol("bad base-OT response length".into()));
    }
    let mut out = Vec::with_capacity(choices.len());
    for (i, &c) in choices.iter().enumerate() {
        let offset = i * 2 * OT_MSG_LEN + if c { OT_MSG_LEN } else { 0 };
        let mut m = [0u8; OT_MSG_LEN];
        m.copy_from_slice(&response[offset..offset + OT_MSG_LEN]);
        xor_in_place(&mut m, &keys[i]);
        out.push(m);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_transport::{run_two_party, MemoryChannel, TransportError};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Pair = ([u8; OT_MSG_LEN], [u8; OT_MSG_LEN]);
    type Seeds = Vec<[u8; OT_MSG_LEN]>;

    fn test_group() -> OtGroup {
        OtGroup::insecure_test_group(64, &mut rand::thread_rng())
    }

    fn chosen(pair: &Pair, choice: bool) -> [u8; OT_MSG_LEN] {
        if choice {
            pair.1
        } else {
            pair.0
        }
    }

    #[test]
    fn receiver_gets_exactly_the_chosen_messages() {
        let group = test_group();
        let group_b = group.clone();
        let mut rng = rand::thread_rng();
        let n = 8;
        let messages: Vec<Pair> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
        let choices: Vec<bool> = (0..n).map(|_| rng.gen()).collect();

        let msgs_for_sender = messages.clone();
        let choices_for_recv = choices.clone();
        let (send_res, recv_res) = run_two_party(
            move |chan| base_ot_send(chan, &group, &msgs_for_sender, &mut rand::thread_rng()),
            move |chan| base_ot_receive(chan, &group_b, &choices_for_recv, &mut rand::thread_rng()),
        );
        send_res.unwrap();
        let received = recv_res.unwrap();
        for i in 0..n {
            assert_eq!(received[i], chosen(&messages[i], choices[i]), "OT #{i}");
        }
    }

    /// Reference sender: the protocol of the module docs, every power by
    /// the generic ladder, drawing from `rng` exactly as [`base_ot_send`].
    fn reference_send(
        channel: &mut impl Channel,
        group: &OtGroup,
        messages: &[Pair],
        rng: &mut StdRng,
    ) -> Result<(), GcError> {
        let g = BigUint::from(GENERATOR);
        let a = group.random_exponent(rng);
        let big_a = group.mont.pow(&g, &a);
        channel.send(&group.encode(&big_a))?;
        let frame = channel.recv()?;
        let mut response = Vec::new();
        for (i, (bytes, (m0, m1))) in frame
            .chunks(group.element_bytes())
            .zip(messages)
            .enumerate()
        {
            let big_b = group.decode(bytes)?;
            let over_a = group.mont.mul(&big_b, &mod_inv(&big_a, &group.p).unwrap());
            for (m, base) in [(m0, big_b), (m1, over_a)] {
                let mut e = *m;
                let key = key_from_element(group, &group.mont.pow(&base, &a), i as u64);
                xor_in_place(&mut e, &key);
                response.extend_from_slice(&e);
            }
        }
        channel.send(&response)?;
        Ok(())
    }

    /// Reference receiver, likewise; also returns its keys `H(A^b)`.
    fn reference_receive(
        channel: &mut impl Channel,
        group: &OtGroup,
        choices: &[bool],
        rng: &mut StdRng,
    ) -> Result<(Seeds, Seeds), GcError> {
        let g = BigUint::from(GENERATOR);
        let big_a = group.decode(&channel.recv()?)?;
        let exponents: Vec<BigUint> = choices.iter().map(|_| group.random_exponent(rng)).collect();
        let mut frame = Vec::new();
        for (b, &c) in exponents.iter().zip(choices) {
            let g_b = group.mont.pow(&g, b);
            let big_b = if c { group.mont.mul(&big_a, &g_b) } else { g_b };
            frame.extend_from_slice(&group.encode(&big_b));
        }
        channel.send(&frame)?;
        let response = channel.recv()?;
        let mut out = Vec::new();
        let mut keys = Vec::new();
        for (i, (b, &c)) in exponents.iter().zip(choices).enumerate() {
            let key = key_from_element(group, &group.mont.pow(&big_a, b), i as u64);
            let offset = (2 * i + usize::from(c)) * OT_MSG_LEN;
            let mut m = [0u8; OT_MSG_LEN];
            m.copy_from_slice(&response[offset..offset + OT_MSG_LEN]);
            xor_in_place(&mut m, &key);
            out.push(m);
            keys.push(key);
        }
        Ok((out, keys))
    }

    /// Keeps a copy of every frame crossing one end of a channel.
    struct Recorder<'a> {
        inner: &'a mut MemoryChannel,
        frames: Vec<Vec<u8>>,
    }

    impl Channel for Recorder<'_> {
        fn send(&mut self, msg: &[u8]) -> Result<(), TransportError> {
            self.frames.push(msg.to_vec());
            self.inner.send(msg)
        }

        fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
            let msg = self.inner.recv()?;
            self.frames.push(msg.clone());
            Ok(msg)
        }
    }

    /// Runs `receiver` on this thread against `sender`, returning the
    /// receiver's output and every frame that crossed its end.
    fn run_recorded<T: Send>(
        sender: impl FnOnce(&mut MemoryChannel) -> Result<(), GcError> + Send + 'static,
        receiver: impl FnOnce(&mut Recorder<'_>) -> Result<T, GcError> + Send,
    ) -> (T, Vec<Vec<u8>>) {
        let (received, sent) = run_two_party(
            |chan| {
                let mut chan = Recorder {
                    inner: chan,
                    frames: Vec::new(),
                };
                receiver(&mut chan).map(|out| (out, chan.frames))
            },
            sender,
        );
        sent.unwrap();
        received.unwrap()
    }

    /// The 128 base OTs of a production set-up, on the production group:
    /// the table-driven parties deliver the chosen seeds, the receiver's
    /// keys do not open the other seed, and each table-driven party is
    /// byte-for-byte interchangeable with the generic-ladder reference
    /// under the same RNG seeds.
    #[test]
    fn production_group_interoperates_with_the_generic_ladder_reference() {
        const N: usize = 128;
        let group = OtGroup::rfc3526_1536();
        let mut rng = StdRng::seed_from_u64(20);
        let messages: Vec<Pair> = (0..N).map(|_| (rng.gen(), rng.gen())).collect();
        let choices: Vec<bool> = (0..N).map(|_| rng.gen()).collect();
        let sender_rng = || StdRng::seed_from_u64(21);
        let receiver_rng = || StdRng::seed_from_u64(22);

        let (sender_group, sender_messages) = (group.clone(), messages.clone());
        let ((reference_out, keys), reference_frames) = run_recorded(
            move |chan| base_ot_send(chan, &sender_group, &sender_messages, &mut sender_rng()),
            |chan| reference_receive(chan, &group, &choices, &mut receiver_rng()),
        );
        let (sender_group, sender_messages) = (group.clone(), messages.clone());
        let (table_out, table_frames) = run_recorded(
            move |chan| reference_send(chan, &sender_group, &sender_messages, &mut sender_rng()),
            |chan| base_ot_receive(chan, &group, &choices, &mut receiver_rng()),
        );

        assert_eq!(table_frames, reference_frames, "transcripts differ");
        assert_eq!(table_out, reference_out);
        let width = group.element_bytes();
        let lengths: Vec<usize> = table_frames.iter().map(Vec::len).collect();
        assert_eq!(lengths, [width, N * width, N * 2 * OT_MSG_LEN]);
        for i in 0..N {
            assert_eq!(table_out[i], chosen(&messages[i], choices[i]), "OT #{i}");
            // What the receiver holds does not open the other ciphertext.
            let offset = (2 * i + usize::from(!choices[i])) * OT_MSG_LEN;
            let mut other = [0u8; OT_MSG_LEN];
            other.copy_from_slice(&table_frames[2][offset..offset + OT_MSG_LEN]);
            xor_in_place(&mut other, &keys[i]);
            assert_ne!(other, chosen(&messages[i], !choices[i]), "OT #{i}");
        }
    }

    #[test]
    fn exponents_are_short_on_the_production_group_and_below_q_on_test_groups() {
        let mut rng = StdRng::seed_from_u64(7);
        let group = OtGroup::rfc3526_1536();
        let widest = (0..200)
            .map(|_| group.random_exponent(&mut rng).bits())
            .max()
            .unwrap();
        assert!((EXPONENT_BITS - 8..=EXPONENT_BITS).contains(&widest));

        let small = OtGroup::derive_test_group(64, &[3u8; 32]);
        let q = (small.p.clone() - BigUint::one()) >> 1;
        assert_eq!(small.exponent_bound, q);
        for _ in 0..200 {
            let e = small.random_exponent(&mut rng);
            assert!(!e.is_zero() && e < q);
        }
    }

    #[test]
    fn group_element_encoding_roundtrip() {
        let group = test_group();
        let x = BigUint::from(123456789u64) % group.p.clone();
        let bytes = group.encode(&x);
        assert_eq!(bytes.len(), group.element_bytes());
        assert_eq!(group.decode(&bytes).unwrap(), x);
    }

    /// Partial public-key validation: only `[2, p − 2]`, at exactly the
    /// element width, is accepted.
    #[test]
    fn decode_accepts_exactly_two_to_p_minus_two() {
        for group in [test_group(), OtGroup::rfc3526_1536()] {
            let one = BigUint::one();
            let two = BigUint::from(2u64);
            let p = group.p.clone();
            let width = group.element_bytes();
            for bad in [
                BigUint::zero(),
                one.clone(),
                p.clone() - one.clone(),
                p.clone(),
                p.clone() + one.clone(),
            ] {
                let bytes = bad.to_bytes_be_padded(width);
                assert!(
                    matches!(group.decode(&bytes), Err(GcError::Protocol(_))),
                    "{} must be rejected",
                    bad.to_hex()
                );
            }
            for good in [two.clone(), p - two.clone()] {
                assert_eq!(group.decode(&group.encode(&good)).unwrap(), good);
            }
            // A valid value at the wrong width is not an element either.
            let mut long = vec![0u8];
            long.extend_from_slice(&group.encode(&two));
            assert!(group.decode(&long).is_err());
            assert!(group.decode(&group.encode(&two)[1..]).is_err());
        }
    }

    #[test]
    fn rfc3526_group_parses() {
        let group = OtGroup::rfc3526_1536();
        assert_eq!(group.p.bits(), 1536);
        assert_eq!(group.element_bytes(), 192);
        assert_eq!(group.exponent_bound.bits(), EXPONENT_BITS);
    }
}
