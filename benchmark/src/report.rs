//! Turns what a run measured into the named metrics, and renders / parses
//! the result records (`name value unit` lines, the one-line JSON result the
//! driver reads, and the results file `--out` writes).

use pretzel_bench::JsonValue;
use pretzel_transport::wire::V2_HEADER_LEN;

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::model;
use crate::procfs;
use crate::runner::{RunResult, SetupSample};
use crate::stats::{median, percentile_nearest_rank};
use crate::trace::{self, TraceTotals};
use crate::workloads::{Flow, Kind, Transport, Workload};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mean_of(samples: &[SetupSample], f: fn(&SetupSample) -> f64) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().map(f).sum::<f64>() / samples.len() as f64)
}

/// The end-to-end metrics of an untraced run, in catalogue order.
pub fn end_to_end(run: &RunResult) -> Vec<Metric> {
    let win = &run.window;
    let emails = win.emails.max(1) as f64;
    let percentile = |p: f64| {
        if win.round_ns.is_empty() {
            0.0
        } else {
            ms(percentile_nearest_rank(&win.round_ns, p))
        }
    };
    // Churn sessions are set up inside the window, steady ones before it.
    let sessions: &[SetupSample] = if win.churn_setups.is_empty() {
        &run.setups[run.setups.len().saturating_sub(1)..]
    } else {
        &win.churn_setups
    };
    let values = [
        win.emails_per_s,
        percentile(50.0),
        percentile(90.0),
        win.provider_cpu.total_ns() as f64 / 1e3 / emails,
        win.client_cpu_ns as f64 / 1e3 / emails,
        win.net_bytes as f64 / emails,
        run.setup_s(),
        mean_of(sessions, |s| s.setup_bytes_per_session).unwrap_or(0.0),
        mean_of(sessions, |s| s.client_storage_bytes).unwrap_or(0.0),
        procfs::peak_rss_mib(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, value)| metric(spec.name, value, spec.unit))
        .collect()
}

/// The per-layer metrics of a `--trace 1` run, in catalogue order: the
/// probes, what the untraced window showed from outside, and the traced
/// window's blocking-path split. Metrics that do not apply to the workload
/// (bank counters without a bank, RSS growth outside churn) read 0.
pub fn per_layer(
    w: &Workload,
    untraced: &RunResult,
    traced: &RunResult,
    probes: &[Metric],
) -> Vec<Metric> {
    let win = &untraced.window;
    let emails = win.emails.max(1) as f64;
    let mut observed: Vec<(&'static str, f64)> = Vec::new();

    if let Some(bank) = &win.bank {
        let attempts = (bank.draws + bank.fallbacks).max(1) as f64;
        observed.push(("core.bank.fallback_share", bank.fallbacks as f64 / attempts));
        observed.push((
            "core.bank.producer_cpu_share",
            win.provider_cpu.producers_ns as f64 / win.provider_cpu.total_ns().max(1) as f64,
        ));
        observed.push(("core.bank.depth_at_end", bank.depth_at_end as f64));
    }

    let messages_per_email = win.messages as f64 / emails;
    let per_frame = V2_HEADER_LEN
        + match w.transport {
            Transport::Tcp => 4, // the length prefix
            Transport::Memory => 0,
        };
    observed.push(("transport.messages_per_email", messages_per_email));
    observed.push((
        "transport.frame_overhead_bytes_per_email",
        messages_per_email * per_frame as f64,
    ));

    let connects: Vec<f64> = untraced
        .setups
        .iter()
        .chain(&win.churn_setups)
        .flat_map(|s| s.connect_ms.iter().copied())
        .collect();
    if !connects.is_empty() {
        observed.push(("server.connect_ms_p50", median(&connects)));
    }
    let queue_waits: Vec<f64> = traced
        .window
        .traces
        .iter()
        .filter_map(|t| t.queue_wait_ns())
        .map(ms)
        .collect();
    if !queue_waits.is_empty() {
        observed.push(("server.queue_wait_ms_p50", median(&queue_waits)));
    }
    let p50_us = if win.round_ns.is_empty() {
        0.0
    } else {
        percentile_nearest_rank(&win.round_ns, 50.0) as f64 / 1e3
    };
    if let Flow::Steady { kind, .. } = w.flow {
        let probe = |name: String| {
            probes
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        // The same call made directly (no mailroom): search rounds alternate
        // index and query ops.
        let direct = match kind {
            Kind::Search => {
                (probe("core.search.index_us".into()) + probe("core.search.query_us".into())) / 2.0
            }
            kind => probe(format!("core.{}.client_round_us", kind.name())),
        };
        if direct > 0.0 {
            observed.push((
                "server.mailroom_overhead_pct",
                100.0 * (p50_us - direct) / direct,
            ));
        }
    }
    let window_ns = win.window_s * 1e9;
    observed.push((
        "server.worker_busy_share",
        win.provider_cpu.workers_ns as f64 / (window_ns * w.workers as f64).max(1.0),
    ));
    if !win.round_ns.is_empty() {
        observed.push((
            "server.round_ms_p99",
            ms(percentile_nearest_rank(&win.round_ns, 99.0)),
        ));
    }
    observed.push(("server.shutdown_ms", win.shutdown_ms));
    observed.push(("server.sessions_completed", win.sessions_completed as f64));
    observed.push(("server.sessions_failed", win.sessions_failed as f64));
    observed.push(("server.rss_growth_mb", win.rss_growth_mib));

    // The traced window.
    let t: TraceTotals = trace::totals(&traced.window.traces);
    let traced_emails = traced.window.emails.max(1) as f64;
    let round = t.round_ns.max(1) as f64;
    let share = |name: &str| 100.0 * t.self_of(name) as f64 / round;
    observed.push((
        "server.worker_recv_wait_share",
        t.provider_recv_wait_ns as f64 / t.window_ns.max(1) as f64,
    ));
    observed.push(("trace.round_ms_mean", round / 1e6 / t.rounds.max(1) as f64));
    observed.push(("trace.client_compute_pct", share("client.compute")));
    observed.push(("trace.client_send_pct", share("client.send")));
    observed.push(("trace.provider_compute_pct", share("provider.compute")));
    observed.push(("trace.provider_send_pct", share("provider.send")));
    observed.push(("trace.channel_wait_pct", share("provider.recv_wait")));
    observed.push((
        "trace.attributed_pct",
        100.0 * t.attributed_ns() as f64 / round,
    ));
    observed.push((
        "trace.provider_overlap_pct",
        100.0 * t.provider_overlap_ns as f64 / round,
    ));
    let rounds = t.rounds.max(1) as f64;
    observed.push(("trace.messages_per_round", t.messages as f64 / rounds));
    observed.push(("trace.bytes_per_round", t.bytes as f64 / rounds));

    let client_busy_us =
        (t.self_of("client.compute") + t.self_of("client.send")) as f64 / 1e3 / traced_emails;
    let provider_busy_us =
        (t.self_of("provider.compute") + t.self_of("provider.send") + t.provider_overlap_ns) as f64
            / 1e3
            / traced_emails;
    let kib_per_email = t.bytes as f64 / 1024.0 / traced_emails;
    let (client_terms, provider_terms) = model::terms(w);
    let client_model = model::modelled_us(&client_terms, probes, kib_per_email);
    let provider_model = model::modelled_us(&provider_terms, probes, kib_per_email);
    observed.push(("trace.client_busy_us_per_email", client_busy_us));
    observed.push(("trace.provider_busy_us_per_email", provider_busy_us));
    observed.push(("trace.modelled_client_us_per_email", client_model));
    observed.push(("trace.modelled_provider_us_per_email", provider_model));
    observed.push((
        "trace.unattributed_pct_client",
        model::unattributed_pct(client_busy_us, client_model),
    ));
    observed.push((
        "trace.unattributed_pct_provider",
        model::unattributed_pct(provider_busy_us, provider_model),
    ));
    let rate = |run: &RunResult| run.window.emails_per_s;
    observed.push((
        "trace.overhead_pct",
        100.0 * (rate(untraced) - rate(traced)) / rate(untraced).max(1e-9),
    ));
    observed.push(("trace.untraced_emails_per_s", rate(untraced)));

    PER_LAYER
        .iter()
        .map(|spec| {
            let value = probes
                .iter()
                .find(|m| m.name == spec.name)
                .map(|m| m.value)
                .or_else(|| {
                    observed
                        .iter()
                        .find(|(name, _)| *name == spec.name)
                        .map(|(_, v)| *v)
                })
                .unwrap_or(0.0);
            metric(spec.name, value, spec.unit)
        })
        .collect()
}

/// One run's record: what the driver's last stdout line carries, plus which
/// run it was.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs came from.
    pub seed: u64,
    /// Whether this was a `--trace 1` run (per-layer metrics).
    pub traced: bool,
    /// No op failed and every output was right.
    pub correct: bool,
    /// Emails submitted.
    pub attempted: u64,
    /// Emails failed (see `WindowResult::failed`).
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
}

impl Record {
    /// Builds the record of a finished run.
    pub fn new(w: &Workload, seed: u64, traced: bool, run: &RunResult, metrics: &[Metric]) -> Self {
        let win = &run.window;
        Record {
            workload: w.name.into(),
            seed,
            traced,
            correct: win.failed == 0 && win.attempted > 0,
            attempted: win.attempted.max(1),
            failed: win.failed,
            metrics: metrics
                .iter()
                .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
                .collect(),
        }
    }

    /// The driver's result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_json(&self) -> JsonValue {
        JsonValue::obj([
            ("correct", JsonValue::Bool(self.correct)),
            ("attempted", JsonValue::Int(self.attempted)),
            ("failed", JsonValue::Int(self.failed)),
            (
                "metrics",
                JsonValue::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.clone(),
                                JsonValue::obj([
                                    ("value", JsonValue::Num(*value)),
                                    ("unit", JsonValue::Str(unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The results-file form: the result object plus workload, seed, trace.
    pub fn to_json(&self) -> JsonValue {
        let JsonValue::Obj(mut fields) = self.result_json() else {
            unreachable!("result_json builds an object");
        };
        fields.insert(
            0,
            ("workload".into(), JsonValue::Str(self.workload.clone())),
        );
        fields.insert(1, ("seed".into(), JsonValue::Int(self.seed)));
        fields.insert(2, ("trace".into(), JsonValue::Bool(self.traced)));
        JsonValue::Obj(fields)
    }

    /// Parses either form; `workload`, `seed` and `trace` default to the
    /// given values when the object is a bare driver result.
    pub fn from_json(json: &JsonValue, workload: &str, seed: u64, traced: bool) -> Option<Record> {
        let JsonValue::Obj(metrics) = json.get("metrics")? else {
            return None;
        };
        let as_bool = |v: &JsonValue| match v {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        };
        Some(Record {
            workload: json
                .get("workload")
                .and_then(JsonValue::as_str)
                .unwrap_or(workload)
                .to_string(),
            seed: json.get("seed").and_then(JsonValue::as_u64).unwrap_or(seed),
            traced: json.get("trace").and_then(as_bool).unwrap_or(traced),
            correct: as_bool(json.get("correct")?)?,
            attempted: json.get("attempted")?.as_u64()?,
            failed: json.get("failed")?.as_u64()?,
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    Some((
                        name.clone(),
                        m.get("value")?.as_f64()?,
                        m.get("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect::<Option<_>>()?,
        })
    }

    /// `name value unit` lines, one per metric.
    pub fn lines(&self) -> String {
        self.metrics
            .iter()
            .map(|(name, value, unit)| format!("{name} {value} {unit}\n"))
            .collect()
    }
}

/// Renders a results file: host fingerprint, run parameters, every record.
pub fn results_file(host: JsonValue, seconds: f64, smoke: bool, records: &[Record]) -> JsonValue {
    JsonValue::obj([
        ("schema", JsonValue::Int(1)),
        ("host", host),
        ("seconds", JsonValue::Num(seconds)),
        (
            "scale",
            JsonValue::Str(if smoke { "smoke" } else { "paper" }.into()),
        ),
        (
            "runs",
            JsonValue::Arr(records.iter().map(Record::to_json).collect()),
        ),
    ])
}

/// Reads the records back out of a results file.
pub fn parse_results_file(text: &str) -> Result<Vec<Record>, String> {
    let json = JsonValue::parse(text)?;
    let runs = json
        .get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or("results file has no `runs` array")?;
    runs.iter()
        .map(|run| {
            Record::from_json(run, "", 0, false)
                .filter(|r| !r.workload.is_empty())
                .ok_or_else(|| format!("malformed run record: {}", run.to_json()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> Record {
        Record {
            workload: "spam_long".into(),
            seed: 7,
            traced: false,
            correct: true,
            attempted: 1054,
            failed: 0,
            metrics: vec![
                ("emails_per_s".into(), 210.517_638_543_811_53, "1/s".into()),
                ("setup_s".into(), 0.600_596_833, "s".into()),
            ],
        }
    }

    #[test]
    fn results_file_render_parse_round_trip() {
        let records = vec![
            record(),
            Record {
                workload: "search_rw".into(),
                seed: 8,
                traced: true,
                correct: false,
                failed: 3,
                ..record()
            },
        ];
        let host = JsonValue::obj([("nproc", JsonValue::Int(2))]);
        let text = results_file(host, 10.0, false, &records).to_json();
        assert_eq!(parse_results_file(&text).unwrap(), records);
        // Every digit survives: values are rendered with Rust's shortest
        // round-trip formatting.
        assert!(text.contains("210.51763854381153"));
        assert!(parse_results_file("{\"runs\":[{\"metrics\":{}}]}").is_err());
        assert!(parse_results_file("{}").is_err());
    }

    #[test]
    fn the_driver_line_has_exactly_the_contract_keys() {
        let json = record().result_json();
        let JsonValue::Obj(fields) = &json else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(!json.to_json().contains('\n'));
        let back = Record::from_json(&json, "spam_long", 7, false).unwrap();
        assert_eq!(back, record());
        assert_eq!(
            record().lines(),
            "emails_per_s 210.51763854381153 1/s\nsetup_s 0.600596833 s\n"
        );
    }
}
