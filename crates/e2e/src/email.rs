//! Email message types and their wire formats.
//!
//! The plaintext [`Email`] is what the function modules (spam filtering,
//! topic extraction, search) operate on after decryption; the
//! [`EncryptedEmail`] is what travels through the legacy delivery
//! infrastructure (SMTP/IMAP in the paper; the `transport` crate's framed
//! channels in this repository's examples).

use pretzel_bignum::BigUint;

use crate::schnorr::SchnorrSignature;

/// A plaintext email.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Email {
    /// Sender address.
    pub from: String,
    /// Recipient address.
    pub to: String,
    /// Subject line.
    pub subject: String,
    /// Body text.
    pub body: String,
}

impl Email {
    /// The text the classification function modules consume (subject + body,
    /// mirroring how spam filters treat header and body words alike).
    pub fn classification_text(&self) -> String {
        format!("{} {}", self.subject, self.body)
    }

    /// Serializes to a simple length-prefixed wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for field in [&self.from, &self.to, &self.subject, &self.body] {
            let bytes = field.as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            out.extend_from_slice(bytes);
        }
        out
    }

    /// Parses the wire format; `None` on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut fields = Vec::with_capacity(4);
        let mut rest = bytes;
        for _ in 0..4 {
            if rest.len() < 4 {
                return None;
            }
            let len = u32::from_be_bytes(rest[..4].try_into().ok()?) as usize;
            rest = &rest[4..];
            if rest.len() < len {
                return None;
            }
            fields.push(String::from_utf8(rest[..len].to_vec()).ok()?);
            rest = &rest[len..];
        }
        if !rest.is_empty() {
            return None;
        }
        let mut it = fields.into_iter();
        Some(Email {
            from: it.next()?,
            to: it.next()?,
            subject: it.next()?,
            body: it.next()?,
        })
    }

    /// Total size in bytes of the serialized email (the paper's `sz_email`).
    pub fn size_bytes(&self) -> usize {
        self.to_bytes().len()
    }
}

/// An end-to-end encrypted, signed email.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncryptedEmail {
    /// Claimed sender address (authenticated by the signature).
    pub sender: String,
    /// Recipient address (routing metadata; Pretzel does not hide metadata,
    /// §7).
    pub recipient: String,
    /// Ephemeral DH public key for this email.
    pub ephemeral_public: BigUint,
    /// ChaCha20 nonce.
    pub nonce: [u8; 12],
    /// Encrypted payload.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA-256 over (ephemeral key, nonce, ciphertext).
    pub mac: [u8; 32],
    /// Sender's Schnorr signature over (ciphertext, mac).
    pub signature: SchnorrSignature,
}

fn put_field(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

fn take_field<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    if rest.len() < 4 {
        return None;
    }
    let len = u32::from_be_bytes(rest[..4].try_into().ok()?) as usize;
    *rest = &rest[4..];
    if rest.len() < len {
        return None;
    }
    let (field, tail) = rest.split_at(len);
    *rest = tail;
    Some(field)
}

impl EncryptedEmail {
    /// Serializes to a length-prefixed wire format (what an SMTP relay or the
    /// provider's mailbox would store).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_field(&mut out, self.sender.as_bytes());
        put_field(&mut out, self.recipient.as_bytes());
        put_field(&mut out, &self.ephemeral_public.to_bytes_be());
        put_field(&mut out, &self.nonce);
        put_field(&mut out, &self.ciphertext);
        put_field(&mut out, &self.mac);
        put_field(&mut out, &self.signature.challenge.to_bytes_be());
        put_field(&mut out, &self.signature.response.to_bytes_be());
        out
    }

    /// Parses the wire format; `None` on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut rest = bytes;
        let sender = String::from_utf8(take_field(&mut rest)?.to_vec()).ok()?;
        let recipient = String::from_utf8(take_field(&mut rest)?.to_vec()).ok()?;
        let ephemeral_public = BigUint::from_bytes_be(take_field(&mut rest)?);
        let nonce_bytes = take_field(&mut rest)?;
        if nonce_bytes.len() != 12 {
            return None;
        }
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(nonce_bytes);
        let ciphertext = take_field(&mut rest)?.to_vec();
        let mac_bytes = take_field(&mut rest)?;
        if mac_bytes.len() != 32 {
            return None;
        }
        let mut mac = [0u8; 32];
        mac.copy_from_slice(mac_bytes);
        let challenge = BigUint::from_bytes_be(take_field(&mut rest)?);
        let response = BigUint::from_bytes_be(take_field(&mut rest)?);
        if !rest.is_empty() {
            return None;
        }
        Some(EncryptedEmail {
            sender,
            recipient,
            ephemeral_public,
            nonce,
            ciphertext,
            mac,
            signature: SchnorrSignature {
                challenge,
                response,
            },
        })
    }

    /// Size of the serialized encrypted email in bytes.
    pub fn size_bytes(&self) -> usize {
        self.to_bytes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Email {
        Email {
            from: "alice@example.com".into(),
            to: "bob@example.com".into(),
            subject: "hello".into(),
            body: "a fairly short body with some words".into(),
        }
    }

    #[test]
    fn email_wire_roundtrip() {
        let e = demo();
        let bytes = e.to_bytes();
        assert_eq!(Email::from_bytes(&bytes), Some(e.clone()));
        assert_eq!(e.size_bytes(), bytes.len());
    }

    #[test]
    fn email_parse_rejects_truncation_and_trailing_garbage() {
        let bytes = demo().to_bytes();
        assert!(Email::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(Email::from_bytes(&extended).is_none());
        assert!(Email::from_bytes(&[]).is_none());
    }

    #[test]
    fn classification_text_joins_subject_and_body() {
        let e = demo();
        let text = e.classification_text();
        assert!(text.contains("hello"));
        assert!(text.contains("short body"));
    }

    #[test]
    fn encrypted_email_wire_roundtrip_standalone() {
        let enc = EncryptedEmail {
            sender: "a@x".into(),
            recipient: "b@y".into(),
            ephemeral_public: BigUint::from(123456789u64),
            nonce: [7u8; 12],
            ciphertext: vec![1, 2, 3, 4, 5],
            mac: [9u8; 32],
            signature: SchnorrSignature {
                challenge: BigUint::from(42u64),
                response: BigUint::from(77u64),
            },
        };
        let bytes = enc.to_bytes();
        assert_eq!(EncryptedEmail::from_bytes(&bytes), Some(enc.clone()));
        assert_eq!(enc.size_bytes(), bytes.len());
        assert!(EncryptedEmail::from_bytes(&bytes[..10]).is_none());
    }
}
