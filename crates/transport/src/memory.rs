//! In-memory duplex channel built on crossbeam's unbounded MPMC channels.

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::{Channel, Result, TransportError};

/// One endpoint of an in-memory duplex channel.
pub struct MemoryChannel {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// Creates a connected pair of in-memory channel endpoints.
pub fn memory_pair() -> (MemoryChannel, MemoryChannel) {
    let (tx_ab, rx_ab) = unbounded();
    let (tx_ba, rx_ba) = unbounded();
    (
        MemoryChannel {
            tx: tx_ab,
            rx: rx_ba,
        },
        MemoryChannel {
            tx: tx_ba,
            rx: rx_ab,
        },
    )
}

impl Channel for MemoryChannel {
    fn send(&mut self, msg: &[u8]) -> Result<()> {
        self.send_owned(msg.to_vec())
    }

    fn send_owned(&mut self, msg: Vec<u8>) -> Result<()> {
        self.tx.send(msg).map_err(|_| TransportError::Closed)
    }

    fn recv(&mut self) -> Result<Vec<u8>> {
        self.rx.recv().map_err(|_| TransportError::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_preserve_order_and_content() {
        let (mut a, mut b) = memory_pair();
        for i in 0..10u8 {
            a.send(&[i, i + 1]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(b.recv().unwrap(), vec![i, i + 1]);
        }
    }

    #[test]
    fn duplex_directions_are_independent() {
        let (mut a, mut b) = memory_pair();
        a.send(b"from a").unwrap();
        b.send(b"from b").unwrap();
        assert_eq!(a.recv().unwrap(), b"from b");
        assert_eq!(b.recv().unwrap(), b"from a");
    }

    #[test]
    fn recv_after_peer_drop_reports_closed() {
        let (a, mut b) = memory_pair();
        drop(a);
        assert!(matches!(b.recv(), Err(TransportError::Closed)));
    }

    #[test]
    fn empty_messages_are_allowed() {
        let (mut a, mut b) = memory_pair();
        a.send(b"").unwrap();
        assert_eq!(b.recv().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn large_messages_roundtrip() {
        let (mut a, mut b) = memory_pair();
        let big = vec![0xABu8; 1 << 20];
        a.send(&big).unwrap();
        assert_eq!(b.recv().unwrap(), big);
    }

    #[test]
    fn owned_sends_hand_the_buffer_over_without_copying() {
        let (mut a, mut b) = memory_pair();
        let big = vec![0xCDu8; 1 << 20];
        let (ptr, copy) = (big.as_ptr(), big.clone());
        a.send_owned(big).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.as_ptr(), ptr);
        assert_eq!(got, copy);
    }
}
