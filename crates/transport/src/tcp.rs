//! Length-prefixed framing over `std::net::TcpStream`.
//!
//! Frames are `u32` big-endian length followed by the payload. The maximum
//! frame size defaults to 256 MiB, comfortably above the largest message in
//! the Pretzel protocols (an encrypted topic-extraction model shard).
//!
//! A frame costs one vectored write on send (length and payload leave in
//! one syscall, so one segment under `TCP_NODELAY` for small frames). On
//! receive, headers and small frames go through a small read-ahead buffer;
//! a larger body is read straight into the `Vec` that `recv` returns, with
//! no staging copy. That `Vec` grows only as bytes arrive, so a peer that
//! declares a huge frame and sends little of it cannot make the receiver
//! reserve the declared size.

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};

use crate::{Channel, Result, TransportError};

/// Default maximum accepted frame size (256 MiB).
pub const DEFAULT_MAX_FRAME: usize = 256 * 1024 * 1024;

/// Size of the per-channel read-ahead buffer. A frame whose length prefix
/// and body fit in it is received through it (one read may carry several
/// such frames); a larger body is read into its own allocation, which
/// starts at this size and at most doubles per step as bytes arrive.
const READ_AHEAD: usize = 16 * 1024;

/// Byte length of the frame length prefix.
const LEN_PREFIX: usize = 4;

/// A framed TCP channel.
pub struct TcpChannel {
    stream: TcpStream,
    /// Read-ahead bytes not yet consumed are `read_buf[start..end]`.
    read_buf: Box<[u8]>,
    start: usize,
    end: usize,
    max_frame: usize,
}

impl TcpChannel {
    /// Wraps an already-connected stream.
    pub fn new(stream: TcpStream) -> Self {
        stream.set_nodelay(true).ok();
        TcpChannel {
            stream,
            read_buf: vec![0u8; READ_AHEAD].into_boxed_slice(),
            start: 0,
            end: 0,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }

    /// Connects to a listening peer.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self> {
        Ok(Self::new(TcpStream::connect(addr)?))
    }

    /// Accepts a single connection on `addr` (convenience for examples/tests).
    pub fn accept_one<A: ToSocketAddrs>(addr: A) -> Result<(Self, std::net::SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        let (stream, peer) = listener.accept()?;
        Ok((Self::new(stream), peer))
    }

    /// Address of the remote peer.
    pub fn peer_addr(&self) -> Result<std::net::SocketAddr> {
        Ok(self.stream.peer_addr()?)
    }

    /// Overrides the maximum frame size.
    pub fn set_max_frame(&mut self, max: usize) {
        self.max_frame = max;
    }

    /// Local socket address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr> {
        Ok(self.stream.local_addr()?)
    }

    /// Reads until at least `needed` (≤ [`READ_AHEAD`]) unconsumed bytes
    /// are buffered, moving the unconsumed tail to the front first if the
    /// buffer has no room left behind it.
    fn fill_read_ahead(&mut self, needed: usize) -> Result<()> {
        if self.end - self.start >= needed {
            return Ok(());
        }
        if self.start + needed > self.read_buf.len() {
            self.read_buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        while self.end - self.start < needed {
            self.end += read_some(&mut self.stream, &mut self.read_buf[self.end..])?;
        }
        Ok(())
    }

    /// Takes the next `len` bytes of the stream as one frame body: the
    /// buffered bytes first, the rest read straight into the body.
    fn read_body(&mut self, len: usize) -> Result<Vec<u8>> {
        let grown = |filled: usize| len.min((2 * filled).max(READ_AHEAD));
        let buffered = (self.end - self.start).min(len);
        let mut body = Vec::with_capacity(grown(buffered));
        body.extend_from_slice(&self.read_buf[self.start..self.start + buffered]);
        self.start += buffered;
        let mut filled = buffered;
        while filled < len {
            if filled == body.len() {
                body.resize(grown(filled), 0);
            }
            filled += read_some(&mut self.stream, &mut body[filled..])?;
        }
        Ok(body)
    }
}

/// One `read` into `buf`, retried on `Interrupted`; end of stream is
/// [`TransportError::Closed`].
fn read_some(stream: &mut TcpStream, buf: &mut [u8]) -> Result<usize> {
    loop {
        match stream.read(buf) {
            Ok(0) => return Err(TransportError::Closed),
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
}

/// A listening socket that yields framed [`TcpChannel`]s, one per inbound
/// connection — the transport half of a serving loop (the `pretzel_server`
/// mailroom submits each accepted channel to its worker pool).
pub struct TcpAcceptor {
    listener: TcpListener,
}

impl TcpAcceptor {
    /// Binds a listening socket on `addr` (use port 0 for an ephemeral port,
    /// then read it back with [`TcpAcceptor::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Self> {
        Ok(TcpAcceptor {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Blocks until the next connection arrives and wraps it in a framed
    /// channel.
    pub fn accept(&self) -> Result<(TcpChannel, std::net::SocketAddr)> {
        let (stream, peer) = self.listener.accept()?;
        Ok((TcpChannel::new(stream), peer))
    }

    /// An iterator over inbound connections. Per-connection accept errors
    /// (ECONNABORTED, fd exhaustion, …) should not kill a serving loop, so
    /// they are dropped after a short backoff — the backoff keeps a
    /// persistent error (e.g. EMFILE) from busy-spinning the acceptor.
    pub fn incoming(&self) -> impl Iterator<Item = TcpChannel> + '_ {
        self.listener.incoming().filter_map(|stream| match stream {
            Ok(stream) => Some(TcpChannel::new(stream)),
            Err(_) => {
                std::thread::sleep(std::time::Duration::from_millis(10));
                None
            }
        })
    }
}

impl Channel for TcpChannel {
    fn send(&mut self, msg: &[u8]) -> Result<()> {
        if msg.len() > self.max_frame {
            return Err(TransportError::FrameTooLarge {
                size: msg.len(),
                max: self.max_frame,
            });
        }
        let len = (msg.len() as u32).to_be_bytes();
        let mut parts = [IoSlice::new(&len), IoSlice::new(msg)];
        let mut parts = &mut parts[..];
        while !parts.is_empty() {
            match self.stream.write_vectored(parts) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>> {
        self.fill_read_ahead(LEN_PREFIX)?;
        let prefix = &self.read_buf[self.start..self.start + LEN_PREFIX];
        let len = u32::from_be_bytes(prefix.try_into().expect("4-byte slice")) as usize;
        if len > self.max_frame {
            return Err(TransportError::FrameTooLarge {
                size: len,
                max: self.max_frame,
            });
        }
        if LEN_PREFIX + len <= READ_AHEAD {
            self.fill_read_ahead(LEN_PREFIX + len)?;
        }
        self.start += LEN_PREFIX;
        self.read_body(len)
    }

    fn flush(&mut self) -> Result<()> {
        self.stream.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_pair() -> (TcpChannel, TcpChannel) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client_thread = std::thread::spawn(move || TcpChannel::connect(addr).unwrap());
        let (server_stream, _) = listener.accept().unwrap();
        let server = TcpChannel::new(server_stream);
        let client = client_thread.join().unwrap();
        (server, client)
    }

    #[test]
    fn roundtrip_small_and_large_frames() {
        let (mut server, mut client) = tcp_pair();
        client.send(b"hello provider").unwrap();
        assert_eq!(server.recv().unwrap(), b"hello provider");

        let big = vec![0x5Au8; 3 * 1024 * 1024 + 17];
        server.send(&big).unwrap();
        assert_eq!(client.recv().unwrap(), big);
    }

    #[test]
    fn multiple_frames_preserve_boundaries() {
        let (mut server, mut client) = tcp_pair();
        client.send(b"one").unwrap();
        client.send(b"").unwrap();
        client.send(b"three").unwrap();
        assert_eq!(server.recv().unwrap(), b"one");
        assert_eq!(server.recv().unwrap(), b"");
        assert_eq!(server.recv().unwrap(), b"three");
    }

    /// A framed receiver and a raw stream to write its bytes by hand.
    fn raw_pair() -> (TcpChannel, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        raw.set_nodelay(true).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (TcpChannel::new(stream), raw)
    }

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(body);
        out
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn frames_delivered_one_byte_per_write_reassemble() {
        let (mut server, mut raw) = raw_pair();
        let small = patterned(300);
        let large = patterned(READ_AHEAD + 100);
        let (s, l) = (small.clone(), large.clone());
        let writer = std::thread::spawn(move || {
            for byte in frame(&s).iter().chain(&frame(&l)) {
                raw.write_all(std::slice::from_ref(byte)).unwrap();
            }
        });
        assert_eq!(server.recv().unwrap(), small);
        assert_eq!(server.recv().unwrap(), large);
        writer.join().unwrap();
    }

    #[test]
    fn several_frames_in_one_write_keep_their_boundaries() {
        let (mut server, mut raw) = raw_pair();
        // Small frames of many lengths straddle the read-ahead buffer's
        // end (forcing compaction), a body larger than the buffer is
        // followed by frames that must stay in the stream, and the last
        // two sit exactly at and one past the buffer's capacity.
        let mut bodies: Vec<Vec<u8>> = (0..200).step_by(7).map(patterned).collect();
        bodies.push(Vec::new());
        bodies.push(patterned(3 * READ_AHEAD + 5));
        bodies.push(patterned(1));
        bodies.push(patterned(READ_AHEAD - LEN_PREFIX));
        bodies.push(patterned(READ_AHEAD - LEN_PREFIX + 1));
        let wire: Vec<u8> = bodies.iter().flat_map(|b| frame(b)).collect();
        let writer = std::thread::spawn(move || raw.write_all(&wire).unwrap());
        for body in &bodies {
            assert_eq!(&server.recv().unwrap(), body);
        }
        writer.join().unwrap();
    }

    #[test]
    fn empty_frame_and_frame_at_max_frame_are_accepted() {
        let (mut server, mut client) = tcp_pair();
        server.set_max_frame(64);
        client.set_max_frame(64);
        client.send(b"").unwrap();
        client.send(&[7u8; 64]).unwrap();
        assert_eq!(server.recv().unwrap(), b"");
        assert_eq!(server.recv().unwrap(), vec![7u8; 64]);
    }

    #[test]
    fn oversized_frame_rejected_on_send() {
        let (mut server, _client) = tcp_pair();
        server.set_max_frame(8);
        let err = server.send(&[0u8; 9]).unwrap_err();
        assert!(matches!(
            err,
            TransportError::FrameTooLarge { size: 9, max: 8 }
        ));
    }

    #[test]
    fn acceptor_yields_a_channel_per_connection() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let clients = std::thread::spawn(move || {
            for i in 0..3u8 {
                let mut chan = TcpChannel::connect(addr).unwrap();
                chan.send(&[i]).unwrap();
                assert_eq!(chan.recv().unwrap(), vec![i + 100]);
            }
        });
        for _ in 0..3 {
            let (mut chan, peer) = acceptor.accept().unwrap();
            assert_eq!(chan.peer_addr().unwrap(), peer);
            let id = chan.recv().unwrap()[0];
            chan.send(&[id + 100]).unwrap();
        }
        clients.join().unwrap();
    }

    #[test]
    fn incoming_iterator_serves_connections() {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut chan = TcpChannel::connect(addr).unwrap();
            chan.send(b"hi").unwrap();
        });
        let mut first = acceptor.incoming().next().unwrap();
        assert_eq!(first.recv().unwrap(), b"hi");
        client.join().unwrap();
    }

    #[test]
    fn peer_close_is_reported() {
        let (server, mut client) = tcp_pair();
        drop(server);
        assert!(client.recv().is_err());
    }
}
