//! Every metric the benchmark reports, by name: unit, direction and — for
//! the end-to-end ones — the bound by which a median may worsen before a
//! change counts as a regression. `BENCHMARK.json` lists the same names; a
//! unit test holds the two together.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, the same on every workload. A bound is
/// max(the floor ISSUE 11 set, 2 × the widest quartile spread any workload
/// showed over the calibration runs), rounded up to a step of 5 % and capped
/// at the contract's 25 %; see README.md, "Bounds", for the spreads.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("emails_per_s", "1/s", Better::Higher, 0.20),
    e2e("round_ms_p50", "ms", Better::Lower, 0.20),
    e2e("round_ms_p90", "ms", Better::Lower, 0.25),
    e2e("provider_cpu_us_per_email", "us", Better::Lower, 0.20),
    e2e("client_cpu_us_per_email", "us", Better::Lower, 0.25),
    e2e("net_bytes_per_email", "B", Better::Lower, 0.005),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("setup_bytes_per_session", "B", Better::Lower, 0.005),
    e2e("client_storage_bytes", "B", Better::Lower, 0.005),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// One per-layer metric (no bound: it locates a change, it does not gate it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layer {
    /// Metric name, `<layer>.<what>`; the layer is a crate name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, in reporting order: probes first (layers bottom
/// up), then what a run observes from outside, then the trace.
pub const PER_LAYER: [Layer; 88] = [
    // bignum (probe)
    lower("bignum.pow_1536_us", "us"),
    lower("bignum.pow_n2_us", "us"),
    lower("bignum.mulmod_n2_ns", "ns"),
    lower("bignum.pow_crt_us", "us"),
    // paillier (probe)
    lower("paillier.encrypt_us", "us"),
    lower("paillier.decrypt_us", "us"),
    lower("paillier.mul_plain_u64_us", "us"),
    lower("paillier.add_us", "us"),
    // rlwe (probe)
    lower("rlwe.encrypt_us", "us"),
    lower("rlwe.decrypt_us", "us"),
    lower("rlwe.mul_scalar_accumulate_us", "us"),
    lower("rlwe.add_us", "us"),
    lower("rlwe.ntt_forward_us", "us"),
    lower("rlwe.ct_from_bytes_us", "us"),
    // gc (probe)
    lower("gc.and_gates_spam", "count"),
    lower("gc.and_gates_topic", "count"),
    lower("gc.garble_spam_us", "us"),
    lower("gc.eval_spam_us", "us"),
    lower("gc.garble_topic_us", "us"),
    lower("gc.eval_topic_us", "us"),
    lower("gc.base_ot_ms", "ms"),
    lower("gc.otext_us_per_ot", "us"),
    lower("gc.yao_round_spam_us", "us"),
    // sdp (probe)
    lower("sdp.rlwe_encrypt_model_ms", "ms"),
    lower("sdp.model_bytes_rlwe", "count"),
    lower("sdp.rlwe_client_dot_us_l692", "us"),
    lower("sdp.rlwe_client_dot_us_l32", "us"),
    lower("sdp.rlwe_provider_decrypt_us", "us"),
    lower("sdp.paillier_encrypt_model_ms", "ms"),
    lower("sdp.model_bytes_paillier", "count"),
    lower("sdp.paillier_client_dot_us_l32", "us"),
    lower("sdp.paillier_provider_decrypt_us", "us"),
    // transport (probe)
    lower("transport.v2_encode_ns_per_kib", "ns"),
    lower("transport.v2_decode_ns_per_kib", "ns"),
    higher("transport.crc32_mb_s", "MB/s"),
    lower("transport.pack_frames_us_b8", "us"),
    lower("transport.memory_rtt_us", "us"),
    lower("transport.tcp_rtt_us", "us"),
    higher("transport.tcp_mb_s", "MB/s"),
    lower("transport.handshake_us", "us"),
    // classifiers (probe)
    lower("classifiers.ngram_extract_us", "us"),
    // core (probe: direct sessions over a memory pair, no mailroom)
    lower("core.spam.client_round_us", "us"),
    lower("core.spam.provider_round_us", "us"),
    lower("core.spam.setup_ms", "ms"),
    lower("core.topic.client_round_us", "us"),
    lower("core.topic.provider_round_us", "us"),
    lower("core.topic.setup_ms", "ms"),
    lower("core.virus.client_round_us", "us"),
    lower("core.virus.provider_round_us", "us"),
    lower("core.search.index_us", "us"),
    lower("core.search.query_us", "us"),
    lower("core.search.setup_ms", "ms"),
    lower("core.nopriv_classify_us_l692", "us"),
    // core.bank (probe + observed)
    lower("core.bank.produce_garbling_us", "us"),
    lower("core.bank.draw_ns", "ns"),
    lower("core.bank.fallback_share", "ratio"),
    lower("core.bank.producer_cpu_share", "ratio"),
    higher("core.bank.depth_at_end", "count"),
    // transport (observed)
    lower("transport.messages_per_email", "count"),
    lower("transport.frame_overhead_bytes_per_email", "B"),
    // server (observed)
    lower("server.queue_wait_ms_p50", "ms"),
    lower("server.connect_ms_p50", "ms"),
    lower("server.mailroom_overhead_pct", "%"),
    lower("server.worker_busy_share", "ratio"),
    lower("server.worker_recv_wait_share", "ratio"),
    lower("server.round_ms_p99", "ms"),
    lower("server.shutdown_ms", "ms"),
    higher("server.sessions_completed", "count"),
    lower("server.sessions_failed", "count"),
    lower("server.rss_growth_mb", "MiB"),
    // trace (traced run; shares of round time along the blocking path)
    lower("trace.round_ms_mean", "ms"),
    lower("trace.client_compute_pct", "%"),
    lower("trace.client_send_pct", "%"),
    lower("trace.provider_compute_pct", "%"),
    lower("trace.provider_send_pct", "%"),
    lower("trace.channel_wait_pct", "%"),
    higher("trace.attributed_pct", "%"),
    higher("trace.provider_overlap_pct", "%"),
    lower("trace.messages_per_round", "count"),
    lower("trace.bytes_per_round", "B"),
    lower("trace.client_busy_us_per_email", "us"),
    lower("trace.provider_busy_us_per_email", "us"),
    lower("trace.modelled_client_us_per_email", "us"),
    lower("trace.modelled_provider_us_per_email", "us"),
    lower("trace.unattributed_pct_client", "%"),
    lower("trace.unattributed_pct_provider", "%"),
    lower("trace.overhead_pct", "%"),
    higher("trace.untraced_emails_per_s", "1/s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_bench::JsonValue;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is listed twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` at the repo root is what the driver reads; it must
    /// list exactly the names, units, directions and bounds the code reports.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let field = |row: &JsonValue, key: &str| -> String {
            row.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("{key} missing in {}", row.to_json()))
                .to_string()
        };

        let rows = json.get("end_to_end").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        for (row, m) in rows.iter().zip(END_TO_END) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(row, "better"), m.better.as_str(), "{}", m.name);
            let bound = row.get("bound").and_then(JsonValue::as_f64).unwrap();
            assert!((bound - m.bound).abs() < 1e-12, "{}", m.name);
        }

        let rows = json.get("per_layer").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(rows.len(), PER_LAYER.len());
        for (row, m) in rows.iter().zip(PER_LAYER) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(row, "better"), m.better.as_str(), "{}", m.name);
        }

        let rows = json.get("workloads").and_then(JsonValue::as_arr).unwrap();
        let workloads = crate::workloads::all();
        assert_eq!(rows.len(), workloads.len());
        for (row, w) in rows.iter().zip(workloads) {
            assert_eq!(field(row, "name"), w.name);
            assert_eq!(field(row, "why"), w.why);
        }
        assert_eq!(
            json.get("run_seconds").and_then(JsonValue::as_u64),
            Some(crate::RUN_SECONDS)
        );
    }
}
