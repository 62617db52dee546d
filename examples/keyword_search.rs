//! Keyword search both ways: the paper's client-side index (§5) and the
//! provider-served encrypted variant, where a mailroom answers single-keyword
//! queries over an SSE index without ever seeing keywords or document ids.
//! Every served answer is checked against the client-side index over the
//! same emails; the example exits 1 on any difference.
//!
//! Run with: `cargo run --release --example keyword_search`

use std::time::Instant;

use pretzel_datasets::{gmail_like, Corpus};
use pretzel_search::SearchIndex;

fn main() {
    let corpus: Corpus = gmail_like(0.3).generate();
    println!("Indexing a mailbox of {} emails…", corpus.examples.len());

    let mut index = SearchIndex::new();
    let start = Instant::now();
    let mut texts = Vec::new();
    for example in &corpus.examples {
        let text = corpus.render_text(example);
        index.add_document(&text);
        texts.push(text);
    }
    let indexing = start.elapsed();
    let stats = index.stats();
    println!(
        "Indexed {} documents, {} distinct terms, {} postings, ~{} KB, {:.2} ms total ({:.3} ms/email).",
        stats.documents,
        stats.terms,
        stats.postings,
        stats.size_bytes / 1024,
        indexing.as_secs_f64() * 1e3,
        indexing.as_secs_f64() * 1e3 / corpus.examples.len() as f64
    );

    // Query a few words of varying frequency.
    let probes: Vec<&str> = texts[0].split(' ').take(3).collect();
    for probe in probes {
        let start = Instant::now();
        let hits = index.query(probe);
        let elapsed = start.elapsed();
        println!(
            "query {:?}: {} matching emails in {:.1} µs",
            probe,
            hits.len(),
            elapsed.as_secs_f64() * 1e6
        );
    }

    // Conjunctive query.
    let words: Vec<&str> = texts[1].split(' ').take(2).collect();
    let start = Instant::now();
    let hits = index.query_all(&words);
    println!(
        "conjunctive query {:?}: {} matching emails in {:.1} µs",
        words,
        hits.len(),
        start.elapsed().as_secs_f64() * 1e6
    );

    // Incremental update (a newly arrived email).
    let start = Instant::now();
    index.add_document("urgent quarterly budget review tomorrow with the auditors");
    println!(
        "indexing one new email took {:.1} µs; \"auditors\" now returns {} hit(s)",
        start.elapsed().as_secs_f64() * 1e6,
        index.query("auditors").len()
    );
    println!("\nAll of this ran on the client; the provider only ever stored ciphertext.");

    served_search(&texts);
}

/// The provider-served variant: the same mailbox indexed *at the provider*
/// under searchable symmetric encryption, queried through a mailroom session
/// (the registered `search` function module), with every answer compared to
/// a client-side index of the same emails.
fn served_search(texts: &[String]) {
    use pretzel_classifiers::NGramExtractor;
    use pretzel_core::topic::CandidateMode;
    use pretzel_core::{PretzelConfig, ProviderModelSuite};
    use pretzel_server::{ClientSpec, Mailroom, MailroomClient, MailroomConfig};
    use pretzel_transport::memory_pair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    println!("\n— provider-served encrypted search —");
    let config = PretzelConfig::test();
    // Search sessions only use the parameter preset; the models are for the
    // classification sessions this mailroom could serve concurrently.
    let placeholder = pretzel_classifiers::LinearModel {
        weights: vec![vec![0.0; 4]; 2],
        bias: vec![0.0; 2],
    };
    let suite = ProviderModelSuite {
        spam: placeholder.clone(),
        topic: placeholder.clone(),
        topic_mode: CandidateMode::Full,
        virus: placeholder,
        virus_extractor: NGramExtractor::new(3, 64),
        config: config.clone(),
    };
    let mailroom = Mailroom::start(suite, MailroomConfig::default());

    let (provider_end, client_end) = memory_pair();
    mailroom.submit(provider_end).expect("intake has room");
    let mut rng = StdRng::seed_from_u64(5);
    let spec = ClientSpec::search(config);
    let mut client = MailroomClient::connect(client_end, &spec, &mut rng).expect("connect");

    let upload_count = texts.len().min(50);
    let mut reference = SearchIndex::new();
    let start = Instant::now();
    let mut postings = 0usize;
    for (id, text) in texts.iter().take(upload_count).enumerate() {
        postings += client
            .index_email(id as u64, text, &mut rng)
            .expect("index round");
        reference.add_document_with_id(id as u64, text);
    }
    println!(
        "uploaded {} emails as {} encrypted postings in {:.2} ms \
         (the provider sees only opaque labels and sealed ids)",
        upload_count,
        postings,
        start.elapsed().as_secs_f64() * 1e3
    );

    // Words of varying frequency — distinct words of the first email,
    // spread over its vocabulary — and one that no email contains.
    let mut words: Vec<&str> = texts[0].split(' ').collect();
    words.sort_unstable();
    words.dedup();
    let mut probes: Vec<&str> = words.iter().step_by(words.len() / 6 + 1).copied().collect();
    probes.push("absentkeyword");
    let mut mismatches = 0;
    for probe in probes {
        let start = Instant::now();
        let mut hits = client.search_keyword(probe, &mut rng).expect("query round");
        let elapsed = start.elapsed();
        hits.sort_unstable();
        let expected = reference.query(probe);
        let verdict = if hits == expected {
            "matches the client-side index"
        } else {
            mismatches += 1;
            "DIFFERS from the client-side index"
        };
        println!(
            "query {:?}: {} matching emails in {:.1} µs — answered from the \
             provider's encrypted index in one fixed-size reply ({verdict})",
            probe,
            hits.len(),
            elapsed.as_secs_f64() * 1e6
        );
    }
    client.finish().expect("teardown");

    let report = mailroom.shutdown();
    let stats = &report.sessions[0];
    println!(
        "session served {} rounds ({:.1} KB up, {:.1} KB down); the provider \
         learned result counts and access patterns, never keywords or ids",
        stats.emails,
        stats.bytes_received as f64 / 1024.0,
        stats.bytes_sent as f64 / 1024.0,
    );
    if mismatches > 0 {
        eprintln!("{mismatches} served queries differ from the client-side index");
        std::process::exit(1);
    }
}
