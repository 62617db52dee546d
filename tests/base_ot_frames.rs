//! Hostile-peer coverage for the base-OT set-up frames
//! ([`pretzel::gc::ot`]): the sender's `A`, the receiver's one batched frame
//! of `B_i`, and the sender's response.
//!
//! The batched frame is sized by the peer, so its length is checked against
//! the sender's own OT count before anything is parsed, and every element in
//! it must lie in `[2, p − 2]`. Each malformed frame must surface as a typed
//! [`GcError::Protocol`] — never a panic, never an allocation or an
//! exponentiation sized by the peer — and must fail only the session it
//! arrived on: the group (and its shared generator table) serves the next
//! session unharmed.

use pretzel::bignum::BigUint;
use pretzel::gc::ot::{base_ot_receive, base_ot_send, OT_MSG_LEN};
use pretzel::gc::{GcError, OtGroup};
use pretzel::transport::{memory_pair, run_two_party, Channel};

mod common;
use common::test_rng;

/// OTs per session, as in a production set-up.
const N: usize = 128;

/// Byte width of one group element.
fn width(group: &OtGroup) -> usize {
    group.prime().bits().div_ceil(8)
}

fn element(group: &OtGroup, value: &BigUint) -> Vec<u8> {
    value.to_bytes_be_padded(width(group))
}

/// `count` valid elements (2, 3, 4, …), concatenated.
fn valid_elements(group: &OtGroup, count: usize) -> Vec<u8> {
    (0..count)
        .flat_map(|i| element(group, &BigUint::from(2 + i as u64)))
        .collect()
}

/// A frame of [`N`] elements, all valid except `bad` at position `at`.
fn frame_with(group: &OtGroup, at: usize, bad: &BigUint) -> Vec<u8> {
    let w = width(group);
    let mut frame = valid_elements(group, N);
    frame[at * w..(at + 1) * w].copy_from_slice(&element(group, bad));
    frame
}

fn pairs() -> Vec<([u8; OT_MSG_LEN], [u8; OT_MSG_LEN])> {
    (0..N)
        .map(|i| ([i as u8; OT_MSG_LEN], [!(i as u8); OT_MSG_LEN]))
        .collect()
}

/// Runs an honest sender of [`N`] OTs against a receiver that answers `A`
/// with `frame`, and returns the sender's result. The memory channel is
/// unbounded, so the hostile end queues its frame up front and the honest
/// party runs on this thread.
fn send_against(group: &OtGroup, frame: Vec<u8>) -> Result<(), GcError> {
    let (mut honest, mut hostile) = memory_pair();
    hostile.send(&frame).unwrap();
    base_ot_send(&mut honest, group, &pairs(), &mut test_rng(1))
}

/// Runs an honest receiver of [`N`] OTs against a sender whose frames are
/// `big_a` and then `response`, and returns the receiver's result.
fn receive_against(
    group: &OtGroup,
    big_a: Vec<u8>,
    response: Vec<u8>,
) -> Result<Vec<[u8; OT_MSG_LEN]>, GcError> {
    let (mut honest, mut hostile) = memory_pair();
    hostile.send(&big_a).unwrap();
    hostile.send(&response).unwrap();
    base_ot_receive(&mut honest, group, &[true; N], &mut test_rng(2))
}

fn assert_protocol_error<T: std::fmt::Debug>(result: Result<T, GcError>, case: &str) {
    assert!(
        matches!(result, Err(GcError::Protocol(_))),
        "{case}: expected a protocol error, got {result:?}"
    );
}

#[test]
fn malformed_element_frames_fail_their_session_and_no_other() {
    let group = OtGroup::rfc3526_1536();
    let p = group.prime().clone();
    let one = BigUint::one();
    let w = width(&group);
    let full = valid_elements(&group, N);

    // Wrong lengths: rejected on the length alone.
    let mut long = full.clone();
    long.push(2);
    for (case, frame) in [
        ("empty", Vec::new()),
        ("one byte short", full[..N * w - 1].to_vec()),
        ("one byte long", long),
        ("127 elements", valid_elements(&group, N - 1)),
        ("129 elements", valid_elements(&group, N + 1)),
    ] {
        assert_protocol_error(send_against(&group, frame), case);
    }

    // Right length, one element out of range, at either end and inside.
    for (case, bad) in [
        ("zero element", BigUint::zero()),
        ("element 1", one.clone()),
        ("element p - 1", p.clone() - one.clone()),
        ("element p", p.clone()),
        ("element p + 1", p.clone() + one.clone()),
        ("element 2^1536 - 1", (one.clone() << (8 * w)) - one.clone()),
    ] {
        for at in [0, 77, N - 1] {
            let frame = frame_with(&group, at, &bad);
            assert_protocol_error(send_against(&group, frame), &format!("{case} at {at}"));
        }
    }

    // The receiver holds the sender's frames to the same rules.
    let response = vec![0u8; N * 2 * OT_MSG_LEN];
    let mut wide_a = vec![0u8];
    wide_a.extend_from_slice(&element(&group, &BigUint::from(2u64)));
    for (case, big_a) in [
        ("A = 0", element(&group, &BigUint::zero())),
        ("A = 1", element(&group, &one)),
        ("A = p - 1", element(&group, &(p.clone() - one.clone()))),
        ("A = p", element(&group, &p)),
        ("A one byte wide", wide_a),
        ("A empty", Vec::new()),
    ] {
        assert_protocol_error(receive_against(&group, big_a, response.clone()), case);
    }
    for (case, len) in [
        ("short", N * 2 * OT_MSG_LEN - 1),
        ("long", N * 2 * OT_MSG_LEN + 1),
    ] {
        let big_a = element(&group, &BigUint::from(4u64));
        assert_protocol_error(
            receive_against(&group, big_a, vec![0u8; len]),
            &format!("{case} response"),
        );
    }

    // The same group object then serves an honest session.
    let choices: Vec<bool> = (0..N).map(|i| i % 3 == 0).collect();
    let (sender_group, receiver_choices) = (group.clone(), choices.clone());
    let (received, sent) = run_two_party(
        |chan| base_ot_receive(chan, &group, &receiver_choices, &mut test_rng(3)),
        move |chan| base_ot_send(chan, &sender_group, &pairs(), &mut test_rng(4)),
    );
    sent.unwrap();
    for (i, (got, (m0, m1))) in received.unwrap().iter().zip(pairs()).enumerate() {
        assert_eq!(*got, if choices[i] { m1 } else { m0 }, "OT #{i}");
    }
}
