//! Batch framing: coalescing several payload frames into one wire frame.
//!
//! Batched rounds (see `pretzel_core`'s `process_batch` entry points) send
//! the per-round payloads of N rounds as **one** channel message instead of
//! N. On a [`crate::MemoryChannel`] that saves N−1 cross-thread hand-offs,
//! on a [`crate::TcpChannel`] N−1 length-prefixed frames and syscalls —
//! batching trades latency of the first round for aggregate throughput.
//!
//! The encoding is deliberately minimal: a `u32` sub-frame count followed by
//! each sub-frame as a `u32` byte length and its payload, all little-endian.
//! [`unpack_frames`] validates every length against the remaining buffer, so
//! a truncated or corrupt batch surfaces as a clean
//! [`crate::TransportError::MalformedBatch`] instead of a misparse.
//!
//! A round is a batch of one, and a batch of one needs no envelope:
//! [`send_rounds`] / [`recv_rounds`] are the single place that decides
//! between the bare and the packed form, from the round count both ends
//! already hold.

use crate::{Channel, Result, TransportError};

/// Coalesces `frames` into one batch frame for a single `send`.
///
/// The inverse of [`unpack_frames`].
pub fn pack_frames<F: AsRef<[u8]>>(frames: &[F]) -> Vec<u8> {
    let total: usize = frames.iter().map(|f| f.as_ref().len() + 4).sum();
    let mut out = Vec::with_capacity(4 + total);
    out.extend_from_slice(&(frames.len() as u32).to_le_bytes());
    for frame in frames {
        let frame = frame.as_ref();
        out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        out.extend_from_slice(frame);
    }
    out
}

/// Splits a batch frame produced by [`pack_frames`] back into its
/// sub-frames, validating every length prefix against the buffer.
pub fn unpack_frames(blob: &[u8]) -> Result<Vec<Vec<u8>>> {
    let malformed = |why: &str| TransportError::MalformedBatch(why.to_string());
    let header = |b: &[u8], at: usize| -> Result<u32> {
        b.get(at..at + 4)
            .map(|s| u32::from_le_bytes(s.try_into().expect("4-byte slice")))
            .ok_or_else(|| malformed("truncated length prefix"))
    };
    let count = header(blob, 0)? as usize;
    // A count the buffer cannot possibly hold (each sub-frame costs at least
    // its 4-byte prefix) is rejected before any allocation sized by it.
    if count > blob.len() / 4 {
        return Err(malformed("sub-frame count exceeds buffer capacity"));
    }
    let mut frames = Vec::with_capacity(count);
    let mut at = 4usize;
    for _ in 0..count {
        let len = header(blob, at)? as usize;
        at += 4;
        let frame = blob
            .get(at..at + len)
            .ok_or_else(|| malformed("sub-frame overruns buffer"))?;
        frames.push(frame.to_vec());
        at += len;
    }
    if at != blob.len() {
        return Err(malformed("trailing bytes after final sub-frame"));
    }
    Ok(frames)
}

/// Sends the per-round messages of one exchange as a single frame: one
/// round's message travels bare (exactly what an unbatched round sends),
/// several travel coalesced by [`pack_frames`]. Nothing on the wire says
/// which — the receiver knows the round count and mirrors the rule in
/// [`recv_rounds`].
pub fn send_rounds<C: Channel + ?Sized, F: AsRef<[u8]>>(
    channel: &mut C,
    rounds: &[F],
) -> Result<()> {
    match rounds {
        [only] => channel.send(only.as_ref()),
        many => channel.send(&pack_frames(many)),
    }
}

/// Receives the frame [`send_rounds`] sent for `count` rounds and returns
/// the `count` per-round messages: the frame itself when `count` is 1, its
/// sub-frames otherwise (a batch carrying any other number is rejected).
pub fn recv_rounds<C: Channel + ?Sized>(channel: &mut C, count: usize) -> Result<Vec<Vec<u8>>> {
    let frame = channel.recv()?;
    if count == 1 {
        return Ok(vec![frame]);
    }
    let rounds = unpack_frames(&frame)?;
    if rounds.len() != count {
        return Err(TransportError::MalformedBatch(format!(
            "batch announced {count} rounds but carried {}",
            rounds.len()
        )));
    }
    Ok(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory_pair;

    #[test]
    fn one_round_travels_bare_and_several_travel_packed() {
        let (mut a, mut b) = memory_pair();
        send_rounds(&mut a, &[vec![7u8, 8, 9]]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![7, 8, 9], "no envelope for n = 1");
        send_rounds(&mut a, &[vec![7u8, 8, 9]]).unwrap();
        assert_eq!(recv_rounds(&mut b, 1).unwrap(), vec![vec![7, 8, 9]]);

        let three = [vec![1u8], vec![], vec![2, 3]];
        send_rounds(&mut a, &three).unwrap();
        assert_eq!(b.recv().unwrap(), pack_frames(&three));
        send_rounds(&mut a, &three).unwrap();
        assert_eq!(recv_rounds(&mut b, 3).unwrap(), three);

        // A batch that carries a different count than announced is refused.
        send_rounds(&mut a, &three).unwrap();
        assert!(matches!(
            recv_rounds(&mut b, 2),
            Err(TransportError::MalformedBatch(_))
        ));
    }

    #[test]
    fn round_trips_including_empty_frames() {
        let frames: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![0xFF; 1000]];
        let packed = pack_frames(&frames);
        assert_eq!(unpack_frames(&packed).unwrap(), frames);
        let empty: Vec<Vec<u8>> = Vec::new();
        assert_eq!(unpack_frames(&pack_frames(&empty)).unwrap(), empty);
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        let packed = pack_frames(&[vec![1u8, 2, 3], vec![4, 5]]);
        for cut in 0..packed.len() {
            assert!(
                unpack_frames(&packed[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        let mut extended = packed.clone();
        extended.push(0);
        assert!(matches!(
            unpack_frames(&extended),
            Err(TransportError::MalformedBatch(_))
        ));
    }

    #[test]
    fn rejects_absurd_counts_without_allocating() {
        let mut blob = Vec::new();
        blob.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            unpack_frames(&blob),
            Err(TransportError::MalformedBatch(_))
        ));
    }
}
