//! Workspace wiring smoke test (satellite of the CI bootstrap): every
//! umbrella re-export must resolve to a live crate, the advertised version
//! must be the workspace version, and every target CI or the verify notes
//! name must exist.

use rand::SeedableRng;

#[test]
fn umbrella_reexports_resolve() {
    // Touch one real item per re-exported crate so a broken dependency edge
    // or a dropped `pub use` fails this test rather than only downstream
    // users' builds.
    let _ = pretzel::bignum::BigUint::from(1u64);
    let _ = pretzel::classifiers::SparseVector::from_pairs(vec![(0, 1)]);
    let _ = pretzel::core::PretzelConfig::test();
    let _ = pretzel::datasets::ling_spam_like(0.01);
    let _ = pretzel::e2e::Email {
        from: String::new(),
        to: String::new(),
        subject: String::new(),
        body: String::new(),
    };
    let _ = pretzel::gc::spam_compare_circuit(8);
    let _ = pretzel::paillier::keygen(64, &mut rand::rngs::StdRng::seed_from_u64(1));
    let _ = pretzel::primitives::sha256(b"smoke");
    let _ = pretzel::rlwe::Params::new(16, 12);
    let _ = pretzel::sdp::ModelMatrix::from_rows(1, 1, vec![0]);
    let _ = pretzel::search::SearchIndex::new();
    let _ = pretzel::server::MailroomConfig::default();
    let _ = pretzel::sse::SseClient::from_master_key([0u8; 32]);
    let _ = pretzel::transport::memory_pair();
}

#[test]
fn version_matches_workspace_version() {
    // The umbrella crate inherits `version.workspace = true`; if the
    // workspace version moves without the constant following (or vice versa)
    // this catches it.
    assert_eq!(pretzel::VERSION, env!("CARGO_PKG_VERSION"));
    assert!(!pretzel::VERSION.is_empty());
}

/// CI and the verify notes may only name cargo targets that exist: a deleted
/// binary must take its `--bin` step with it, not leave a job that fails (or
/// a note that misleads) after the fact.
#[test]
fn ci_and_verify_notes_name_only_existing_targets() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let target_dirs = [
        ("--bin", "crates/bench/src/bin"),
        ("--example", "examples"),
        ("--test", "tests"),
        ("--bench", "crates/bench/benches"),
    ];
    let mut checked = 0;
    for file in [".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"] {
        let text = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("{file} must be readable: {e}"));
        // Whitespace tokens, so a name wrapped onto the next line still
        // follows its flag.
        let tokens: Vec<&str> = text.split_whitespace().collect();
        for pair in tokens.windows(2) {
            let Some((_, dir)) = target_dirs.iter().find(|(flag, _)| pair[0] == *flag) else {
                continue;
            };
            let name: String = pair[1]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
                .collect();
            assert!(!name.is_empty(), "{file}: `{}` names no target", pair[0]);
            let source = root.join(dir).join(format!("{name}.rs"));
            assert!(
                source.is_file(),
                "{file} names `{} {name}`, but {} does not exist",
                pair[0],
                source.display()
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "the scan must find the targets CI runs");
}
