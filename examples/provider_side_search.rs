//! Provider-side keyword search over encrypted mail via SSE (paper §5).
//!
//! Pretzel's own keyword-search module is client-side only; the paper notes
//! that a provider-side index — useful when logging in from a new device —
//! "could be built on searchable symmetric encryption" and leaves it as
//! future work. This example runs that extension through the served search
//! module, `pretzel_core::search`: device A uploads encrypted postings as it
//! reads mail, and later device B, a fresh device that holds only the
//! 32-byte master key, searches the same provider-side index. Every answer
//! is checked against the plaintext `pretzel_search::SearchIndex` over the
//! same mailbox; the example exits 1 on any difference.
//!
//! Both devices talk to one `SearchProvider` over one channel rather than
//! through a `Mailroom`: a mailroom's search index lives for one session, and
//! a per-user index that outlives a session is out of scope.
//!
//! Run with: `cargo run --release --example provider_side_search`

use pretzel_core::search::{SearchClient, SearchProvider};
use pretzel_core::ProviderModule;
use pretzel_search::SearchIndex;
use pretzel_transport::memory_pair;
use rand::rngs::StdRng;
use rand::SeedableRng;

const QUERIES: [&str; 4] = ["lisbon", "earnings", "boarding", "payroll"];

fn mailbox() -> Vec<(u64, &'static str)> {
    vec![
        (
            1,
            "Flight itinerary for the Lisbon conference, boarding pass attached",
        ),
        (
            2,
            "Team offsite logistics: hotel block and travel reimbursement",
        ),
        (3, "Re: quarterly earnings draft, numbers need another pass"),
        (4, "Lisbon restaurant recommendations from Ana"),
        (5, "Your boarding pass for flight TP 342"),
        (6, "Earnings call rescheduled to Thursday"),
    ]
}

fn main() {
    let master_key = [7u8; 32]; // in practice derived from the user's e2e keys via HKDF
    let rounds = mailbox().len() + QUERIES.len();

    let (mut provider_chan, mut client_chan) = memory_pair();
    let provider = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(1);
        let mut provider = SearchProvider::new();
        for _ in 0..rounds {
            provider
                .process_batch(&mut provider_chan, 1, &mut rng)
                .expect("provider round");
        }
        (provider.index().len(), provider.index().size_bytes())
    });
    let mut rng = StdRng::seed_from_u64(2);

    // --- Device A: index the mailbox as emails are decrypted. --------------
    let mut device_a = SearchClient::from_master_key(master_key);
    for (id, body) in mailbox() {
        let postings = device_a
            .index_email(&mut client_chan, id, body, &mut rng)
            .expect("upload");
        println!("[device A] indexed email {id}: {postings} encrypted postings uploaded");
    }
    println!(
        "[device A] client state: {} distinct keywords",
        device_a.distinct_keywords()
    );

    // --- Device B: fresh device, only the master key, searches remotely. ----
    let mut reference = SearchIndex::new();
    for (id, body) in mailbox() {
        reference.add_document_with_id(id, body);
    }
    let mut device_b = SearchClient::from_master_key(master_key);
    let mut mismatches = 0;
    for query in QUERIES {
        let mut hits = device_b
            .query(&mut client_chan, query, &mut rng)
            .expect("search")
            .ids;
        hits.sort_unstable();
        let expected = reference.query(query);
        let verdict = if hits == expected {
            "matches the plaintext index"
        } else {
            mismatches += 1;
            "DIFFERS from the plaintext index"
        };
        println!("[device B] search {query:?} -> emails {hits:?} ({verdict}: {expected:?})");
    }

    let (postings, bytes) = provider.join().unwrap();
    println!();
    println!(
        "[provider] served {rounds} rounds; stores {postings} opaque postings ({bytes} bytes) \
         and never saw a keyword or an email id in the clear."
    );
    if mismatches > 0 {
        eprintln!("{mismatches} searches differ from the plaintext index");
        std::process::exit(1);
    }
}
