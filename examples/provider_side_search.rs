//! Provider-side keyword search over encrypted mail via SSE (paper §5).
//!
//! Pretzel's own keyword-search module is client-side only; the paper notes
//! that a provider-side index — useful when logging in from a new device —
//! "could be built on searchable symmetric encryption" and leaves it as
//! future work. This example runs that extension: the client uploads
//! encrypted postings as it reads mail, and later searches the provider-side
//! index from a fresh device that holds only the 32-byte master key. Every
//! answer is checked against the plaintext `pretzel_search::SearchIndex`
//! over the same mailbox; the example exits 1 on any difference.
//!
//! Run with: `cargo run --release --example provider_side_search`

use pretzel_search::SearchIndex;
use pretzel_sse::{SseClient, SseClientEndpoint, SseProviderEndpoint};
use pretzel_transport::memory_pair;

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

    let (mut provider_chan, mut client_chan) = memory_pair();
    let provider = std::thread::spawn(move || {
        let mut endpoint = SseProviderEndpoint::new();
        let handled = endpoint.serve(&mut provider_chan).expect("provider serve");
        (
            handled,
            endpoint.index().len(),
            endpoint.index().size_bytes(),
        )
    });

    // --- Device A: index the mailbox as emails are decrypted. --------------
    let mut device_a = SseClientEndpoint::new(SseClient::from_master_key(master_key));
    for (id, body) in mailbox() {
        let postings = device_a
            .index_and_upload(&mut client_chan, id, body)
            .expect("upload");
        println!("[device A] indexed email {id}: {postings} encrypted postings uploaded");
    }
    println!(
        "[device A] client state: {} distinct keywords, {} postings total",
        device_a.state().distinct_keywords(),
        device_a.state().total_postings()
    );

    // --- Device B: fresh device, only the master key, searches remotely. ----
    let mut reference = SearchIndex::new();
    for (id, body) in mailbox() {
        reference.add_document_with_id(id, body);
    }
    let device_b = SseClientEndpoint::new(SseClient::from_master_key(master_key));
    let mut mismatches = 0;
    for query in ["lisbon", "earnings", "boarding", "payroll"] {
        let mut hits = device_b.search(&mut client_chan, query).expect("search");
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
    device_b.close(&mut client_chan).expect("close");

    let (handled, postings, bytes) = provider.join().unwrap();
    println!();
    println!(
        "[provider] served {handled} requests; stores {postings} opaque postings ({bytes} bytes) \
         and never saw a keyword or an email id in the clear."
    );
    if mismatches > 0 {
        eprintln!("{mismatches} searches differ from the plaintext index");
        std::process::exit(1);
    }
}
