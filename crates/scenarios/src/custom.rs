//! A minimal custom [`FunctionModule`] so mixed-fleet scenarios exercise
//! the registry's extension path, not just the four built-ins.
//!
//! The module is a keyless FNV-1a digest service: the client sends opaque
//! bytes, the provider replies with their 64-bit FNV-1a digest, and the
//! verdict is [`Verdict::Custom`] carrying that digest. It is deliberately
//! trivial — the point is that the mailroom dispatches an out-of-tree wire
//! tag through the same handshake, metering, and reporting machinery as the
//! paper's functions, under load and interleaved with the built-ins.

use std::sync::Arc;

use pretzel_core::bank::PrecomputeSource;
use pretzel_core::registry::{
    ClientContext, ClientModule, FunctionModule, ProviderModule, WireTag,
};
use pretzel_core::session::{EmailPayload, ProviderModelSuite, Verdict};
use pretzel_core::spam::AheVariant;
use pretzel_core::PretzelError;
use pretzel_transport::Channel;
use rand::RngCore;

/// Wire tag of the digest module (built-ins use 1–4; examples use 7 and 9).
pub const DIGEST_WIRE_TAG: WireTag = 11;

/// 64-bit FNV-1a over `data` — also the digest used to fingerprint verdict
/// transcripts in [`ScenarioOutcome`](crate::ScenarioOutcome).
pub fn fnv64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The registrable digest function (see [`DIGEST_WIRE_TAG`]).
pub struct DigestFunction;

impl FunctionModule for DigestFunction {
    fn wire_tag(&self) -> WireTag {
        DIGEST_WIRE_TAG
    }
    fn display_name(&self) -> &'static str {
        "fnv-digest"
    }
    fn provider_setup(
        &self,
        _channel: &mut dyn Channel,
        _suite: &ProviderModelSuite,
        _variant: AheVariant,
        _source: &Arc<dyn PrecomputeSource>,
        _rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ProviderModule>, PretzelError> {
        Ok(Box::new(DigestProvider))
    }
    fn client_setup(
        &self,
        _channel: &mut dyn Channel,
        _ctx: &ClientContext,
        _rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ClientModule>, PretzelError> {
        Ok(Box::new(DigestClient))
    }
}

struct DigestProvider;

impl ProviderModule for DigestProvider {
    fn wire_tag(&self) -> WireTag {
        DIGEST_WIRE_TAG
    }
    fn display_name(&self) -> &'static str {
        "fnv-digest"
    }
    fn process_batch(
        &mut self,
        channel: &mut dyn Channel,
        count: usize,
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<Option<usize>>, PretzelError> {
        for _ in 0..count {
            let msg = channel.recv()?;
            channel.send(&fnv64(&msg).to_le_bytes())?;
        }
        Ok(vec![None; count])
    }
}

struct DigestClient;

impl DigestClient {
    /// One round: the bytes out, their digest back.
    fn round(channel: &mut dyn Channel, payload: &EmailPayload) -> Result<Verdict, PretzelError> {
        let EmailPayload::Opaque(bytes) = payload else {
            return Err(PretzelError::Protocol(
                "fnv-digest takes opaque bytes".into(),
            ));
        };
        channel.send(bytes)?;
        let reply = channel.recv()?;
        let value = u64::from_le_bytes(
            reply
                .get(..8)
                .and_then(|b| b.try_into().ok())
                .ok_or_else(|| PretzelError::Protocol("bad digest reply".into()))?,
        );
        Ok(Verdict::Custom {
            tag: DIGEST_WIRE_TAG,
            value,
        })
    }
}

impl ClientModule for DigestClient {
    fn wire_tag(&self) -> WireTag {
        DIGEST_WIRE_TAG
    }
    fn display_name(&self) -> &'static str {
        "fnv-digest"
    }
    fn model_storage_bytes(&self) -> usize {
        0
    }
    fn process_batch(
        &mut self,
        channel: &mut dyn Channel,
        payloads: &[EmailPayload],
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<Verdict>, PretzelError> {
        payloads
            .iter()
            .map(|payload| Self::round(channel, payload))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Canonical FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digest_round_trips_over_a_channel() {
        use pretzel_transport::memory_pair;
        use rand::SeedableRng;
        let (mut provider_end, mut client_end) = memory_pair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let handle = std::thread::spawn(move || {
            let mut provider = DigestProvider;
            let mut prng = rand::rngs::StdRng::seed_from_u64(2);
            provider
                .process_batch(&mut provider_end, 1, &mut prng)
                .unwrap();
        });
        let mut client = DigestClient;
        let verdicts = client
            .process_batch(
                &mut client_end,
                &[EmailPayload::Opaque(b"foobar".to_vec())],
                &mut rng,
            )
            .unwrap();
        handle.join().unwrap();
        assert_eq!(
            verdicts,
            [Verdict::Custom {
                tag: DIGEST_WIRE_TAG,
                value: 0x85944171f73967e8,
            }]
        );
    }
}
