//! Below the channel boundary the split of one email's CPU is **modelled**,
//! not traced: operation counts per email × the probes' unit costs. The gap
//! between the model and the busy time the trace measured on each side is
//! reported as `trace.unattributed_pct_*` — large where a layer has no probe
//! of its own (SSE hashing in search, feature extraction inside the dot
//! product, allocation and copying everywhere). In-program spans (ROADMAP
//! item 1) will replace this file without renaming any metric.

use pretzel_core::spam::AheVariant;

use crate::workloads::{churn_batches, Flow, Kind, Workload, CHURN_KINDS};
use crate::Metric;

/// `count` calls per email of the operation the probe `probe` times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Term {
    /// Probe metric name.
    pub probe: &'static str,
    /// Calls per email.
    pub count: f64,
}

fn term(probe: &'static str, count: f64) -> Term {
    Term { probe, count }
}

/// Modelled operations of one email of `kind`, `(client, provider)`.
fn kind_terms(kind: Kind, w: &Workload) -> (Vec<Term>, Vec<Term>) {
    let garble_or_draw = if w.bank {
        term("core.bank.draw_ns", 1.0)
    } else {
        // Bank-less workers garble between rounds (the legacy inline top-up).
        term("gc.garble_spam_us", 1.0)
    };
    match (kind, w.variant) {
        (Kind::Spam, AheVariant::Baseline) => (
            vec![
                term("sdp.paillier_client_dot_us_l32", 1.0),
                term("paillier.add_us", 1.0), // blinding
                term("gc.eval_spam_us", 1.0),
                term("gc.otext_us_per_ot", 64.0),
            ],
            vec![
                term("sdp.paillier_provider_decrypt_us", 1.0),
                garble_or_draw,
                term("gc.otext_us_per_ot", 64.0),
            ],
        ),
        (Kind::Spam | Kind::Virus, _) => {
            let mut client = if kind == Kind::Virus {
                // A 2 KiB attachment hashes to ~2000 distinct 3-grams.
                vec![
                    term("classifiers.ngram_extract_us", 1.0),
                    term("sdp.rlwe_client_dot_us_l692", 2000.0 / 692.0),
                ]
            } else if w.email_features > 100 {
                vec![term("sdp.rlwe_client_dot_us_l692", 1.0)]
            } else {
                vec![term("sdp.rlwe_client_dot_us_l32", 1.0)]
            };
            client.extend([
                term("rlwe.add_us", 1.0),           // blinding
                term("rlwe.ct_from_bytes_us", 1.0), // serialization
                term("gc.eval_spam_us", 1.0),
                term("gc.otext_us_per_ot", 60.0),
            ]);
            (
                client,
                vec![
                    term("rlwe.ct_from_bytes_us", 1.0),
                    term("sdp.rlwe_provider_decrypt_us", 1.0),
                    garble_or_draw,
                    term("gc.otext_us_per_ot", 60.0),
                ],
            )
        }
        (Kind::Topic, _) => (
            vec![
                term("sdp.rlwe_client_dot_us_l32", 1.0),
                term("rlwe.add_us", 40.0), // candidate extraction + blinding
                term("rlwe.ct_from_bytes_us", 20.0),
                term("gc.garble_topic_us", 1.0), // the client garbles
                term("gc.otext_us_per_ot", 600.0),
            ],
            vec![
                term("rlwe.ct_from_bytes_us", 20.0),
                term("rlwe.decrypt_us", 20.0),
                term("gc.eval_topic_us", 1.0),
                term("gc.otext_us_per_ot", 600.0),
            ],
        ),
        // Half the ops are queries; index rounds are SSE work with no probe.
        (Kind::Search, _) => (
            vec![term("rlwe.decrypt_us", 0.5)],
            vec![term("rlwe.add_us", 0.5)],
        ),
    }
}

/// Modelled operations of one email of workload `w`, `(client, provider)`;
/// churn workloads weigh each kind by its share of a cycle's emails.
pub fn terms(w: &Workload) -> (Vec<Term>, Vec<Term>) {
    match w.flow {
        Flow::Steady { kind, .. } => kind_terms(kind, w),
        Flow::Churn { .. } => {
            let total: usize = CHURN_KINDS.iter().map(|&k| churn_batches(k)).sum();
            let (mut client, mut provider) = (Vec::new(), Vec::new());
            for kind in CHURN_KINDS {
                let share = churn_batches(kind) as f64 / total as f64;
                let (c, p) = kind_terms(kind, w);
                client.extend(c.into_iter().map(|t| term(t.probe, t.count * share)));
                provider.extend(p.into_iter().map(|t| term(t.probe, t.count * share)));
            }
            (client, provider)
        }
    }
}

/// Microseconds per email the model predicts from the probes' unit costs,
/// plus the codec's share for `kib_per_email` of frames (every byte is
/// encoded once and decoded once; each side is charged half of both).
pub fn modelled_us(terms: &[Term], probes: &[Metric], kib_per_email: f64) -> f64 {
    let unit_us = |name: &str| -> f64 {
        probes.iter().find(|m| m.name == name).map_or(0.0, |m| {
            m.value
                * match m.unit {
                    "ns" => 1e-3,
                    "ms" => 1e3,
                    _ => 1.0,
                }
        })
    };
    let ops: f64 = terms.iter().map(|t| t.count * unit_us(t.probe)).sum();
    let codec = kib_per_email
        * (unit_us("transport.v2_encode_ns_per_kib") + unit_us("transport.v2_decode_ns_per_kib"))
        / 2.0;
    ops + codec
}

/// Share of `measured_us` the model does not explain, in percent (negative
/// when the model over-predicts).
pub fn unattributed_pct(measured_us: f64, modelled_us: f64) -> f64 {
    if measured_us <= 0.0 {
        0.0
    } else {
        100.0 * (measured_us - modelled_us) / measured_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metric, workloads};

    #[test]
    fn only_the_baseline_workload_models_paillier_work() {
        for w in workloads::all() {
            let (client, provider) = terms(&w);
            let paillier = client
                .iter()
                .chain(&provider)
                .any(|t| t.probe.contains("paillier") || t.probe == "bignum.pow_crt_us");
            assert_eq!(paillier, w.name == "baseline_short", "{}", w.name);
            let bank = provider.iter().any(|t| t.probe.starts_with("core.bank"));
            let classifies = !matches!(
                w.flow,
                Flow::Steady {
                    kind: Kind::Search | Kind::Topic,
                    ..
                }
            );
            assert_eq!(bank, w.bank && classifies, "{}", w.name);
        }
    }

    #[test]
    fn the_model_converts_units_and_charges_the_codec() {
        let probes = [
            metric("a_us", 10.0, "us"),
            metric("b_ns", 500.0, "ns"),
            metric("c_ms", 0.002, "ms"),
            metric("transport.v2_encode_ns_per_kib", 300.0, "ns"),
            metric("transport.v2_decode_ns_per_kib", 100.0, "ns"),
        ];
        let terms = [term("a_us", 2.0), term("b_ns", 4.0), term("c_ms", 1.0)];
        // 20 + 2 + 2 us of operations, 10 KiB x 0.2 us of codec.
        let us = modelled_us(&terms, &probes, 10.0);
        assert!((us - 26.0).abs() < 1e-9, "{us}");
        assert!((unattributed_pct(52.0, us) - 50.0).abs() < 1e-9);
        assert_eq!(unattributed_pct(0.0, us), 0.0);
        // A probe the model names but the run lacks contributes nothing.
        assert_eq!(modelled_us(&[term("missing", 3.0)], &probes, 0.0), 0.0);
    }

    #[test]
    fn churn_terms_weigh_kinds_by_their_email_share() {
        let w = workloads::by_name("mixed_churn").unwrap();
        let (client, _) = terms(&w);
        let garble_topic = client
            .iter()
            .find(|t| t.probe == "gc.garble_topic_us")
            .unwrap();
        assert!((garble_topic.count - 2.0 / 10.0).abs() < 1e-12);
    }
}
