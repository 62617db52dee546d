//! Versioned wire protocol: explicit protocol versions, the negotiation
//! handshake, and the codec that frames every post-handshake message.
//!
//! * [`ProtocolVersion`] enumerates the wire protocol generations this build
//!   speaks. There is exactly one, **v4**: an explicit handshake, a framed,
//!   checksummed codec, half-gates garbled tables in the Yao bodies, and
//!   fixed-size search replies of client-tagged sealed postings.
//! * [`HandshakeOffer`] / [`HandshakeAck`] are the negotiation exchange: the
//!   client offers a version range, its wire tag/variant, and a
//!   [`Capabilities`] bit set; the provider picks one version
//!   ([`negotiate`]) and acks it together with the granted capabilities, or
//!   refuses with a structured [`HandshakeError`].
//! * [`WireCodec`] frames every post-handshake message. [`V2Codec`] (the
//!   header layout introduced at v2) prefixes each payload with a header
//!   carrying the current version byte, a flags byte, the
//!   payload length, and a CRC-32 frame checksum, so corruption surfaces as
//!   a clean [`TransportError::Codec`] instead of a protocol misparse.
//!   [`CodecChannel`] applies it to any [`Channel`].
//!
//! Upgrade rules: a change to any frame body is a version step, and the
//! step deletes its predecessor — a peer offering only the retired version
//! gets [`HandshakeError::VersionMismatch`] naming the range this build
//! serves. Within a version, unknown capability bits in an offer are
//! **ignored, never rejected**; offers longer than the fields this version
//! knows are accepted (trailing bytes ignored); unknown codec header flags are
//! carried, not refused. Only structurally broken frames (truncation, bad
//! magic, checksum mismatch, inverted version spans) are errors. The full
//! layout of every frame is specified in `docs/WIRE.md`.

use std::fmt;

use crate::{Channel, Result, TransportError};

// ---------------------------------------------------------------------------
// Protocol versions
// ---------------------------------------------------------------------------

/// One generation of the wire protocol.
///
/// Ordered: a higher variant is a newer protocol. [`negotiate`] picks the
/// highest version inside both peers' ranges. Retired version bytes are
/// reserved and never reused: `1` (bare 2-byte handshake, unframed
/// payloads), `2` (four-row point-and-permute garbled tables) and `3`
/// (search replies wrapped in one RLWE ciphertext).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ProtocolVersion {
    /// Explicit handshake ([`HandshakeOffer`]/[`HandshakeAck`]), framed
    /// [`V2Codec`] payloads with a per-frame checksum, Yao messages
    /// carrying two-row half-gates tables, and search sessions with no
    /// set-up frames whose query replies are fixed-size lists of tagged
    /// sealed postings.
    V4 = 4,
}

impl ProtocolVersion {
    /// Oldest version this build speaks.
    pub const MIN: ProtocolVersion = ProtocolVersion::V4;
    /// Newest version this build speaks.
    pub const MAX: ProtocolVersion = ProtocolVersion::V4;

    /// The version's wire byte.
    pub fn as_byte(self) -> u8 {
        self as u8
    }

    /// Decodes a version byte; `None` for versions this build does not know.
    pub fn from_byte(b: u8) -> Option<ProtocolVersion> {
        match b {
            4 => Some(ProtocolVersion::V4),
            _ => None,
        }
    }
}

impl fmt::Display for ProtocolVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", *self as u8)
    }
}

// ---------------------------------------------------------------------------
// Capabilities
// ---------------------------------------------------------------------------

/// A set of optional protocol features, encoded as a 64-bit little-endian
/// mask in [`HandshakeOffer`] / [`HandshakeAck`] frames.
///
/// Unknown bits are preserved by [`Capabilities::from_bits`] so a frame
/// round-trips byte-for-byte, but negotiation masks both sides to
/// [`Capabilities::KNOWN`] — a newer peer's future bits are ignored, never
/// rejected. The bit assignments are a registry, documented in
/// `docs/WIRE.md`; bits are append-only and never reused. No bit is
/// assigned today: bit 0 (round batching) is retired — batching has been
/// part of the baseline since v2 — and reserved.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Capabilities(u64);

impl Capabilities {
    /// The empty set.
    pub const NONE: Capabilities = Capabilities(0);
    /// Every bit this build understands.
    pub const KNOWN: Capabilities = Capabilities::NONE;

    /// Builds a set from a raw mask, preserving unknown bits.
    pub fn from_bits(bits: u64) -> Capabilities {
        Capabilities(bits)
    }

    /// The raw mask.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// This set restricted to the bits this build understands.
    pub fn known(self) -> Capabilities {
        Capabilities(self.0 & Capabilities::KNOWN.0)
    }

    /// Whether no bit is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitAnd for Capabilities {
    type Output = Capabilities;
    fn bitand(self, rhs: Capabilities) -> Capabilities {
        Capabilities(self.0 & rhs.0)
    }
}

impl fmt::Debug for Capabilities {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "Capabilities(NONE)")
        } else {
            write!(f, "Capabilities(unknown:{:#x})", self.0)
        }
    }
}

// ---------------------------------------------------------------------------
// Handshake frames
// ---------------------------------------------------------------------------

/// Leading bytes of every handshake frame: the reserved wire tag `0` (which
/// function-module registries never assign) followed by the ASCII letters
/// `PZ`. A first frame without it is refused as malformed.
pub const HANDSHAKE_MAGIC: [u8; 3] = [0x00, b'P', b'Z'];

/// Encoded length of a [`HandshakeOffer`] this build emits. Decoders accept
/// longer frames and ignore the trailing bytes (forward compatibility).
pub const OFFER_LEN: usize = 15;

/// Encoded length of a [`HandshakeAck`] this build emits. Decoders accept
/// longer frames and ignore the trailing bytes.
pub const ACK_LEN: usize = 14;

/// The client's opening frame of a session: "I speak versions
/// `min..=max`, I want module `wire_tag` with AHE variant `variant`, and I
/// can use these optional features."
///
/// Layout (`docs/WIRE.md`): `magic[3] ‖ min ‖ max ‖ wire_tag ‖ variant ‖
/// capabilities:u64le`. Version bounds travel as raw bytes — a client may
/// legitimately offer a maximum newer than this build knows, and the
/// provider clamps during [`negotiate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandshakeOffer {
    /// Oldest protocol version the client accepts (raw wire byte).
    pub min_version: u8,
    /// Newest protocol version the client accepts (raw wire byte).
    pub max_version: u8,
    /// The function module's handshake byte.
    pub wire_tag: u8,
    /// The AHE variant byte.
    pub variant: u8,
    /// Optional features the client is prepared to use.
    pub capabilities: Capabilities,
}

impl HandshakeOffer {
    /// Serializes the offer to its wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(OFFER_LEN);
        out.extend_from_slice(&HANDSHAKE_MAGIC);
        out.push(self.min_version);
        out.push(self.max_version);
        out.push(self.wire_tag);
        out.push(self.variant);
        out.extend_from_slice(&self.capabilities.bits().to_le_bytes());
        out
    }

    /// Parses an offer frame. Trailing bytes beyond the fields this build
    /// knows are ignored; truncation and a bad magic are
    /// [`HandshakeError::Malformed`].
    pub fn decode(frame: &[u8]) -> std::result::Result<HandshakeOffer, HandshakeError> {
        if frame.len() < HANDSHAKE_MAGIC.len() || frame[..3] != HANDSHAKE_MAGIC {
            return Err(HandshakeError::Malformed(format!(
                "offer does not start with the handshake magic (got {:?})",
                &frame[..frame.len().min(3)]
            )));
        }
        if frame.len() < OFFER_LEN {
            return Err(HandshakeError::Malformed(format!(
                "truncated offer: {} bytes, need {OFFER_LEN}",
                frame.len()
            )));
        }
        let caps = u64::from_le_bytes(frame[7..15].try_into().expect("8-byte slice"));
        Ok(HandshakeOffer {
            min_version: frame[3],
            max_version: frame[4],
            wire_tag: frame[5],
            variant: frame[6],
            capabilities: Capabilities::from_bits(caps),
        })
    }
}

/// Ack status byte: the offer was accepted.
const ACK_OK: u8 = 0;
/// Ack status byte: no version overlap; payload carries the provider range.
const ACK_VERSION_MISMATCH: u8 = 1;
// Status byte 2 ("required capability refused") is retired and reserved.
/// Ack status byte: the offered wire tag is not registered at the provider.
const ACK_UNKNOWN_TAG: u8 = 3;
/// Ack status byte: the offer was structurally invalid.
const ACK_MALFORMED: u8 = 4;

/// The provider's reply to a [`HandshakeOffer`]: the picked version and
/// granted capabilities, or a structured refusal.
///
/// Layout: `magic[3] ‖ status ‖ a ‖ b ‖ capabilities:u64le`, where the
/// meaning of `a`/`b`/`capabilities` depends on `status` — see
/// `docs/WIRE.md`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HandshakeAck {
    /// Offer accepted: every following frame uses `version`'s codec and the
    /// session may use exactly `capabilities`.
    Accept {
        /// The negotiated protocol version.
        version: ProtocolVersion,
        /// The granted capability set (already masked to known bits).
        capabilities: Capabilities,
    },
    /// Offer refused; the payload is the mirrored [`HandshakeError`].
    Refuse(HandshakeError),
}

impl HandshakeAck {
    /// Serializes the ack to its wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ACK_LEN);
        out.extend_from_slice(&HANDSHAKE_MAGIC);
        match self {
            HandshakeAck::Accept {
                version,
                capabilities,
            } => {
                out.push(ACK_OK);
                out.push(version.as_byte());
                out.push(0);
                out.extend_from_slice(&capabilities.bits().to_le_bytes());
            }
            HandshakeAck::Refuse(err) => match err {
                HandshakeError::VersionMismatch {
                    supported_min,
                    supported_max,
                    ..
                } => {
                    out.push(ACK_VERSION_MISMATCH);
                    out.push(*supported_min);
                    out.push(*supported_max);
                    out.extend_from_slice(&0u64.to_le_bytes());
                }
                HandshakeError::UnknownTag { tag } => {
                    out.push(ACK_UNKNOWN_TAG);
                    out.push(*tag);
                    out.push(0);
                    out.extend_from_slice(&0u64.to_le_bytes());
                }
                HandshakeError::Malformed(_) => {
                    out.push(ACK_MALFORMED);
                    out.push(0);
                    out.push(0);
                    out.extend_from_slice(&0u64.to_le_bytes());
                }
            },
        }
        out
    }

    /// Parses an ack frame (the client side of the exchange). Trailing bytes
    /// are ignored; unknown status bytes are [`HandshakeError::Malformed`]
    /// so a *future* refusal reason still fails cleanly.
    pub fn decode(frame: &[u8]) -> std::result::Result<HandshakeAck, HandshakeError> {
        if frame.len() < ACK_LEN || frame[..3] != HANDSHAKE_MAGIC {
            return Err(HandshakeError::Malformed(format!(
                "handshake ack is not a {ACK_LEN}-byte magic-prefixed frame ({} bytes)",
                frame.len()
            )));
        }
        let caps = Capabilities::from_bits(u64::from_le_bytes(
            frame[6..14].try_into().expect("8-byte slice"),
        ));
        match frame[3] {
            ACK_OK => {
                let version = ProtocolVersion::from_byte(frame[4]).ok_or_else(|| {
                    HandshakeError::Malformed(format!(
                        "provider acked unknown protocol version byte {}",
                        frame[4]
                    ))
                })?;
                Ok(HandshakeAck::Accept {
                    version,
                    capabilities: caps.known(),
                })
            }
            ACK_VERSION_MISMATCH => Ok(HandshakeAck::Refuse(HandshakeError::VersionMismatch {
                offered_min: 0,
                offered_max: 0,
                supported_min: frame[4],
                supported_max: frame[5],
            })),
            ACK_UNKNOWN_TAG => Ok(HandshakeAck::Refuse(HandshakeError::UnknownTag {
                tag: frame[4],
            })),
            ACK_MALFORMED => Ok(HandshakeAck::Refuse(HandshakeError::Malformed(
                "provider judged the offer malformed".into(),
            ))),
            other => Err(HandshakeError::Malformed(format!(
                "unknown handshake ack status byte {other}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Handshake errors
// ---------------------------------------------------------------------------

/// Structured handshake failure — the one error family for everything that
/// can go wrong between a session's first frame and its negotiated profile
/// (previously smeared across `TransportError` and stringly protocol
/// errors). A provider fails only the offending session on these; the
/// serving loop is untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HandshakeError {
    /// The offered wire tag is not registered at the provider.
    UnknownTag {
        /// The tag nobody registered.
        tag: u8,
    },
    /// The peers' version ranges do not overlap.
    VersionMismatch {
        /// Oldest version the client offered (0 when unknown client-side).
        offered_min: u8,
        /// Newest version the client offered (0 when unknown client-side).
        offered_max: u8,
        /// Oldest version the provider speaks.
        supported_min: u8,
        /// Newest version the provider speaks.
        supported_max: u8,
    },
    /// A structurally invalid handshake frame (truncated offer, bad magic,
    /// inverted version span, …).
    Malformed(String),
}

impl fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandshakeError::UnknownTag { tag } => {
                write!(f, "unknown function-module wire tag {tag}")
            }
            HandshakeError::VersionMismatch {
                offered_min,
                offered_max,
                supported_min,
                supported_max,
            } => write!(
                f,
                "no protocol version overlap: offered {offered_min}..={offered_max}, \
                 supported {supported_min}..={supported_max}"
            ),
            HandshakeError::Malformed(why) => write!(f, "malformed handshake: {why}"),
        }
    }
}

impl std::error::Error for HandshakeError {}

// ---------------------------------------------------------------------------
// Negotiation
// ---------------------------------------------------------------------------

/// The provider side's negotiation inputs: which versions it speaks and
/// which capabilities it can grant.
#[derive(Clone, Copy, Debug)]
pub struct NegotiationPolicy {
    /// Oldest version the provider serves.
    pub min_version: ProtocolVersion,
    /// Newest version the provider serves.
    pub max_version: ProtocolVersion,
    /// Capabilities the provider is willing to grant.
    pub capabilities: Capabilities,
}

impl Default for NegotiationPolicy {
    fn default() -> Self {
        NegotiationPolicy {
            min_version: ProtocolVersion::MIN,
            max_version: ProtocolVersion::MAX,
            capabilities: Capabilities::KNOWN,
        }
    }
}

/// The outcome of a successful handshake: the version framing every later
/// message and the feature set both sides agreed on, as surfaced in the
/// serving layer's per-session stats.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NegotiatedProfile {
    /// The protocol version both peers speak for this session.
    pub version: ProtocolVersion,
    /// The optional features both peers agreed to use.
    pub capabilities: Capabilities,
}

/// Provider-side version/capability selection.
///
/// Picks the newest version inside both ranges; capability bits are the
/// intersection of the offer and the policy, masked to [`Capabilities::KNOWN`]
/// (unknown bits from a newer peer are ignored, not rejected). Fails with a
/// structured [`HandshakeError`] when the spans are inverted or disjoint.
pub fn negotiate(
    offer: &HandshakeOffer,
    policy: &NegotiationPolicy,
) -> std::result::Result<NegotiatedProfile, HandshakeError> {
    if offer.min_version == 0 || offer.min_version > offer.max_version {
        return Err(HandshakeError::Malformed(format!(
            "invalid offered version span {}..={}",
            offer.min_version, offer.max_version
        )));
    }
    let pick = offer.max_version.min(policy.max_version.as_byte());
    if pick < offer.min_version || pick < policy.min_version.as_byte() {
        return Err(HandshakeError::VersionMismatch {
            offered_min: offer.min_version,
            offered_max: offer.max_version,
            supported_min: policy.min_version.as_byte(),
            supported_max: policy.max_version.as_byte(),
        });
    }
    let version = ProtocolVersion::from_byte(pick).expect("pick is clamped to a known version");
    Ok(NegotiatedProfile {
        version,
        capabilities: offer.capabilities.known() & policy.capabilities.known(),
    })
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

/// Frames one protocol version's post-handshake messages.
///
/// A codec is pure framing: it must be deterministic, byte-preserving
/// (`decode(encode(p)) == p`) and stateless, so both directions of a channel
/// share one instance. Protocol semantics (round structure, batching) live
/// above; transport integrity (checksums, length framing) lives here.
pub trait WireCodec: Send + Sync {
    /// Wraps one payload into its wire frame.
    fn encode(&self, payload: &[u8]) -> Vec<u8>;

    /// Unwraps one wire frame back into its payload, validating framing and
    /// checksum. Structural failures are [`TransportError::Codec`].
    fn decode(&self, frame: &[u8]) -> Result<Vec<u8>>;
}

/// Byte length of the [`V2Codec`] frame header. The name is the layout's:
/// the header introduced at v2 is unchanged at v4.
pub const V2_HEADER_LEN: usize = 10;

/// The frame codec: `version:u8 ‖ flags:u8 ‖ len:u32le ‖ crc32:u32le ‖
/// payload`. It keeps the name of v2, which introduced this header layout;
/// the layout has not changed since, only the version byte it stamps.
///
/// * `version` is the current version ([`ProtocolVersion::MAX`]) — a frame
///   of any other generation (or garbage) fails loudly instead of
///   misparsing.
/// * `flags` is reserved; this build emits 0 and **ignores** unknown bits on
///   receive (forward compatibility).
/// * `len` must equal the payload length remaining in the frame.
/// * `crc32` (IEEE, reflected) covers the payload only.
#[derive(Clone, Copy, Debug, Default)]
pub struct V2Codec;

impl WireCodec for V2Codec {
    fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(V2_HEADER_LEN + payload.len());
        out.push(ProtocolVersion::MAX.as_byte());
        out.push(0); // flags: none defined yet
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    fn decode(&self, frame: &[u8]) -> Result<Vec<u8>> {
        let corrupt = |why: String| TransportError::Codec(why);
        if frame.len() < V2_HEADER_LEN {
            return Err(corrupt(format!(
                "v2 frame of {} bytes is shorter than its {V2_HEADER_LEN}-byte header",
                frame.len()
            )));
        }
        if frame[0] != ProtocolVersion::MAX.as_byte() {
            return Err(corrupt(format!(
                "frame version byte {} on a {} session",
                frame[0],
                ProtocolVersion::MAX
            )));
        }
        // frame[1] is the flags byte: unknown flags are ignored by design.
        let len = u32::from_le_bytes(frame[2..6].try_into().expect("4-byte slice")) as usize;
        let payload = &frame[V2_HEADER_LEN..];
        if len != payload.len() {
            return Err(corrupt(format!(
                "frame header declares {len} payload bytes, frame carries {}",
                payload.len()
            )));
        }
        let declared = u32::from_le_bytes(frame[6..10].try_into().expect("4-byte slice"));
        let actual = crc32(payload);
        if declared != actual {
            return Err(corrupt(format!(
                "frame checksum mismatch: header {declared:#010x}, payload {actual:#010x}"
            )));
        }
        Ok(payload.to_vec())
    }
}

/// A [`Channel`] decorator applying the [`V2Codec`] to every message:
/// encode on send, decode (with framing/checksum validation) on receive.
pub struct CodecChannel<C: Channel> {
    inner: C,
}

impl<C: Channel> CodecChannel<C> {
    /// Wraps `inner` in the [`V2Codec`] framing.
    pub fn new(inner: C) -> Self {
        CodecChannel { inner }
    }

    /// Unwraps back to the underlying channel.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Borrows the underlying channel.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Channel> Channel for CodecChannel<C> {
    fn send(&mut self, msg: &[u8]) -> Result<()> {
        self.inner.send_owned(V2Codec.encode(msg))
    }

    fn recv(&mut self) -> Result<Vec<u8>> {
        let frame = self.inner.recv()?;
        V2Codec.decode(&frame)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// 256-entry lookup table for the IEEE 802.3 reflected CRC-32 polynomial.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 (the zlib/PNG polynomial) over `data` — the [`V2Codec`]
/// frame checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard test vectors for the IEEE polynomial.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn offer_round_trips_and_ignores_trailing_bytes() {
        let offer = HandshakeOffer {
            min_version: 1,
            max_version: 2,
            wire_tag: 4,
            variant: 1,
            capabilities: Capabilities::from_bits(1),
        };
        let mut frame = offer.encode();
        assert_eq!(frame.len(), OFFER_LEN);
        assert_eq!(HandshakeOffer::decode(&frame).unwrap(), offer);
        // A future, longer offer still parses (extra fields ignored).
        frame.extend_from_slice(&[0xAA; 7]);
        assert_eq!(HandshakeOffer::decode(&frame).unwrap(), offer);
    }

    #[test]
    fn truncated_and_unmagical_offers_are_malformed() {
        let offer = HandshakeOffer {
            min_version: 2,
            max_version: 2,
            wire_tag: 1,
            variant: 1,
            capabilities: Capabilities::NONE,
        }
        .encode();
        for cut in 0..OFFER_LEN {
            assert!(
                matches!(
                    HandshakeOffer::decode(&offer[..cut]),
                    Err(HandshakeError::Malformed(_))
                ),
                "truncation at {cut} must be malformed"
            );
        }
        assert!(
            matches!(
                HandshakeOffer::decode(&[1, 1]),
                Err(HandshakeError::Malformed(_))
            ),
            "a bare [wire_tag, variant] pair is not an offer"
        );
    }

    #[test]
    fn ack_round_trips_accept_and_refusals() {
        let accept = HandshakeAck::Accept {
            version: ProtocolVersion::V4,
            capabilities: Capabilities::NONE,
        };
        assert_eq!(HandshakeAck::decode(&accept.encode()).unwrap(), accept);

        for refusal in [
            HandshakeError::VersionMismatch {
                offered_min: 0,
                offered_max: 0,
                supported_min: 4,
                supported_max: 4,
            },
            HandshakeError::UnknownTag { tag: 0xEE },
        ] {
            let decoded = HandshakeAck::decode(&HandshakeAck::Refuse(refusal.clone()).encode());
            assert_eq!(decoded.unwrap(), HandshakeAck::Refuse(refusal));
        }
    }

    #[test]
    fn negotiation_picks_the_newest_common_version() {
        let policy = NegotiationPolicy::default();
        let offer = |min, max| HandshakeOffer {
            min_version: min,
            max_version: max,
            wire_tag: 1,
            variant: 1,
            capabilities: Capabilities::NONE,
        };
        assert_eq!(
            negotiate(&offer(3, 4), &policy).unwrap().version,
            ProtocolVersion::V4
        );
        // Client from the future: clamped to our max, not refused.
        assert_eq!(
            negotiate(&offer(1, 9), &policy).unwrap().version,
            ProtocolVersion::V4
        );
        // A client of retired generations only: a clean mismatch.
        for (min, max) in [(1, 1), (2, 2), (1, 2), (3, 3), (1, 3)] {
            assert_eq!(
                negotiate(&offer(min, max), &policy),
                Err(HandshakeError::VersionMismatch {
                    offered_min: min,
                    offered_max: max,
                    supported_min: 4,
                    supported_max: 4,
                })
            );
        }
    }

    #[test]
    fn negotiation_rejects_bad_spans_and_masks_unknown_capabilities() {
        let policy = NegotiationPolicy::default();
        let offer = |min, max, caps| HandshakeOffer {
            min_version: min,
            max_version: max,
            wire_tag: 1,
            variant: 1,
            capabilities: Capabilities::from_bits(caps),
        };
        // Inverted and zero spans are malformed, not mismatches.
        assert!(matches!(
            negotiate(&offer(2, 1, 0), &policy),
            Err(HandshakeError::Malformed(_))
        ));
        assert!(matches!(
            negotiate(&offer(0, 2, 0), &policy),
            Err(HandshakeError::Malformed(_))
        ));
        // A future-only client is a clean mismatch carrying both ranges.
        assert!(matches!(
            negotiate(&offer(7, 9, 0), &policy),
            Err(HandshakeError::VersionMismatch {
                supported_max: 4,
                ..
            })
        ));
        // Unknown capability bits — the retired bit 0 included — are
        // ignored, not rejected.
        let profile = negotiate(&offer(1, 4, (1 << 40) | 1), &policy).unwrap();
        assert_eq!(profile.capabilities, Capabilities::NONE);
    }

    #[test]
    fn v2_codec_round_trips_and_rejects_corruption() {
        let payload = b"per-email round payload".to_vec();
        let frame = V2Codec.encode(&payload);
        assert_eq!(frame.len(), V2_HEADER_LEN + payload.len());
        assert_eq!(V2Codec.decode(&frame).unwrap(), payload);

        // Any single-bit flip in header or payload is caught — except the
        // flags byte (index 1), which is reserved and ignored by design.
        for byte in (0..frame.len()).filter(|&b| b != 1) {
            let mut bad = frame.clone();
            bad[byte] ^= 0x01;
            assert!(
                V2Codec.decode(&bad).is_err(),
                "bit flip at byte {byte} must be rejected"
            );
        }
        // Truncation is caught.
        for cut in 0..frame.len() {
            assert!(V2Codec.decode(&frame[..cut]).is_err());
        }
        // Unknown flags are ignored (forward compatibility), not rejected.
        let mut flagged = V2Codec.encode(&payload);
        flagged[1] = 0x80;
        assert_eq!(V2Codec.decode(&flagged).unwrap(), payload);
        // The current version is stamped; a frame of a retired generation,
        // otherwise intact, fails loudly.
        assert_eq!(frame[0], ProtocolVersion::V4.as_byte());
        for retired in [1, 2, 3] {
            let mut stale = frame.clone();
            stale[0] = retired;
            assert!(matches!(
                V2Codec.decode(&stale),
                Err(TransportError::Codec(_))
            ));
        }
    }

    #[test]
    fn codec_channel_applies_the_v2_framing() {
        let (a, b) = crate::memory_pair();
        let mut a = CodecChannel::new(a);
        let mut b = CodecChannel::new(b);
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap(), b"ping");
        // A raw (uncoded) frame fails loudly.
        b.inner.send(b"raw").unwrap();
        assert!(matches!(a.recv(), Err(TransportError::Codec(_))));
    }
}
