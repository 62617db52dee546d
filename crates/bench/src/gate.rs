//! The perf-regression gate over `BENCH_scenarios.json` records.
//!
//! The gate compares a *candidate* record (a fresh `bench_scenarios` run)
//! against a *baseline* (the committed record in the repo) and fails when a
//! scenario's **median throughput** dropped by more than an allowed
//! percentage. Two deliberate design points:
//!
//! * **Medians gate, tails inform.** p95/p99 are recorded for humans but
//!   never gate — with nearest-rank percentiles over small K, the tail *is*
//!   the noisiest sample, and gating on it flaps.
//! * **A noise floor from the records themselves.** Each record carries its
//!   min–max spread as a percentage of the median; the allowed drop for a
//!   scenario is `max(policy threshold, half the larger spread)`. A quiet
//!   scenario is held to the policy threshold; a noisy one is not failed
//!   for being noisy.
//!
//! Scenarios are matched by name **and** params: records produced at
//! different sizes (CI's tiny smoke runs vs a full committed baseline) are
//! skipped with a warning instead of producing nonsense ratios. A scenario
//! present in the baseline but absent from the candidate is a hard failure
//! — losing coverage is a regression too.
//!
//! Consumed by the `bench_gate` bin; policy and schema are documented in
//! `docs/BENCHMARKS.md`.

use crate::JsonValue;

/// Version stamped into (and required of) every scenarios record.
pub const SCHEMA_VERSION: u64 = 1;

/// The seven summary fields every statistics object must carry.
pub const SUMMARY_FIELDS: [&str; 7] = ["median", "p95", "p99", "min", "max", "mean", "spread_pct"];

/// Gate tuning.
#[derive(Clone, Copy, Debug)]
pub struct GatePolicy {
    /// Maximum tolerated drop of a scenario's median throughput, in
    /// percent, before the noise floor widens it.
    pub max_regression_pct: f64,
}

impl Default for GatePolicy {
    fn default() -> Self {
        GatePolicy {
            max_regression_pct: 15.0,
        }
    }
}

/// What the gate decided about one scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateStatus {
    /// Within the allowed envelope (including improvements).
    Pass,
    /// Median throughput dropped more than allowed.
    Regression,
    /// Same name, different params (e.g. tiny CI run vs full baseline) —
    /// not comparable, not counted against the gate.
    SkippedParamsMismatch,
    /// In the baseline but not the candidate — coverage loss, fails.
    MissingFromCandidate,
    /// In the candidate but not the baseline — informational.
    NewInCandidate,
}

/// One scenario's comparison.
#[derive(Clone, Debug)]
pub struct GateRow {
    /// Scenario name.
    pub name: String,
    /// Baseline median throughput (emails/s); 0 when missing.
    pub baseline_median: f64,
    /// Candidate median throughput (emails/s); 0 when missing.
    pub candidate_median: f64,
    /// Relative change in percent; positive is faster.
    pub delta_pct: f64,
    /// The drop this scenario was allowed before failing.
    pub allowed_drop_pct: f64,
    /// Verdict.
    pub status: GateStatus,
}

/// The gate's full output.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// One row per scenario seen in either record.
    pub rows: Vec<GateRow>,
}

impl GateReport {
    /// Scenarios that failed the gate (regressions + lost coverage).
    pub fn failures(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    GateStatus::Regression | GateStatus::MissingFromCandidate
                )
            })
            .count()
    }

    /// Scenarios skipped as not comparable.
    pub fn skipped(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.status == GateStatus::SkippedParamsMismatch)
            .count()
    }

    /// True when nothing failed.
    pub fn passed(&self) -> bool {
        self.failures() == 0
    }
}

fn field_errors(obj: &JsonValue, path: &str, errors: &mut Vec<String>) -> bool {
    if !matches!(obj, JsonValue::Obj(_)) {
        errors.push(format!("{path}: expected an object"));
        return false;
    }
    true
}

fn require_summary(scenario: &JsonValue, name: &str, field: &str, errors: &mut Vec<String>) {
    let path = format!("scenarios[{name}].{field}");
    match scenario.get(field) {
        None => errors.push(format!("{path}: missing")),
        Some(summary) => {
            if !field_errors(summary, &path, errors) {
                return;
            }
            for stat in SUMMARY_FIELDS {
                match summary.get(stat).and_then(JsonValue::as_f64) {
                    Some(x) if x.is_finite() => {}
                    Some(_) => errors.push(format!("{path}.{stat}: not finite")),
                    None => errors.push(format!("{path}.{stat}: missing or non-numeric")),
                }
            }
        }
    }
}

/// Validates a scenarios record against the documented schema
/// (`docs/BENCHMARKS.md`). Returns every problem found, not just the first.
pub fn validate_schema(record: &JsonValue) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    if !field_errors(record, "<root>", &mut errors) {
        return Err(errors);
    }
    match record.get("bench").and_then(JsonValue::as_str) {
        Some("scenarios") => {}
        other => errors.push(format!("bench: expected \"scenarios\", got {other:?}")),
    }
    match record.get("schema_version").and_then(JsonValue::as_u64) {
        Some(SCHEMA_VERSION) => {}
        other => errors.push(format!(
            "schema_version: expected {SCHEMA_VERSION}, got {other:?}"
        )),
    }
    for key in ["repeat", "seed"] {
        if record.get(key).and_then(JsonValue::as_u64).is_none() {
            errors.push(format!("{key}: missing or non-integer"));
        }
    }
    if record
        .get("transport")
        .and_then(JsonValue::as_str)
        .is_none()
    {
        errors.push("transport: missing or non-string".into());
    }
    let scenarios = match record.get("scenarios").and_then(JsonValue::as_arr) {
        Some(arr) if !arr.is_empty() => arr,
        Some(_) => {
            errors.push("scenarios: empty".into());
            &[]
        }
        None => {
            errors.push("scenarios: missing or not an array".into());
            &[]
        }
    };
    for (i, scenario) in scenarios.iter().enumerate() {
        let name = scenario
            .get("name")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| {
                errors.push(format!("scenarios[{i}].name: missing or non-string"));
                format!("#{i}")
            });
        if !matches!(scenario.get("params"), Some(JsonValue::Obj(_))) {
            errors.push(format!(
                "scenarios[{name}].params: missing or not an object"
            ));
        }
        for key in ["emails", "completed", "failed"] {
            if scenario.get(key).and_then(JsonValue::as_u64).is_none() {
                errors.push(format!("scenarios[{name}].{key}: missing or non-integer"));
            }
        }
        require_summary(scenario, &name, "emails_per_sec", &mut errors);
        require_summary(scenario, &name, "wall_ms", &mut errors);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Validates a `BENCH_bignum.json` record (emitted by `bench_bignum`) and —
/// when `min_speedup > 0` — gates the fixed-limb engine's advantage: every
/// width row's `mulmod_speedup` and `pow_speedup` must be at least
/// `min_speedup`, so a regression that erases the fixed path's win fails CI
/// even though absolute timings vary across machines.
pub fn validate_bignum(record: &JsonValue, min_speedup: f64) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    if !field_errors(record, "<root>", &mut errors) {
        return Err(errors);
    }
    match record.get("bench").and_then(JsonValue::as_str) {
        Some("bignum") => {}
        other => errors.push(format!("bench: expected \"bignum\", got {other:?}")),
    }
    match record.get("schema_version").and_then(JsonValue::as_u64) {
        Some(SCHEMA_VERSION) => {}
        other => errors.push(format!(
            "schema_version: expected {SCHEMA_VERSION}, got {other:?}"
        )),
    }
    for key in ["paillier_bits", "iters"] {
        if record.get(key).and_then(JsonValue::as_u64).is_none() {
            errors.push(format!("{key}: missing or non-integer"));
        }
    }
    let widths = match record.get("widths").and_then(JsonValue::as_arr) {
        Some(arr) if !arr.is_empty() => arr,
        Some(_) => {
            errors.push("widths: empty".into());
            &[]
        }
        None => {
            errors.push("widths: missing or not an array".into());
            &[]
        }
    };
    for (i, row) in widths.iter().enumerate() {
        let label = row
            .get("label")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| {
                errors.push(format!("widths[{i}].label: missing or non-string"));
                format!("#{i}")
            });
        for key in ["bits", "limbs"] {
            if row.get(key).and_then(JsonValue::as_u64).is_none() {
                errors.push(format!("widths[{label}].{key}: missing or non-integer"));
            }
        }
        if row.get("backend").and_then(JsonValue::as_str).is_none() {
            errors.push(format!("widths[{label}].backend: missing or non-string"));
        }
        for key in [
            "mulmod_dyn_ns",
            "mulmod_fixed_ns",
            "mulmod_speedup",
            "pow_dyn_us",
            "pow_fixed_us",
            "pow_speedup",
        ] {
            match row.get(key).and_then(JsonValue::as_f64) {
                Some(x) if x.is_finite() && x > 0.0 => {}
                Some(_) => errors.push(format!("widths[{label}].{key}: not finite/positive")),
                None => errors.push(format!("widths[{label}].{key}: missing or non-numeric")),
            }
        }
        if min_speedup > 0.0 {
            for key in ["mulmod_speedup", "pow_speedup"] {
                if let Some(s) = row.get(key).and_then(JsonValue::as_f64) {
                    if s.is_finite() && s < min_speedup {
                        errors.push(format!(
                            "widths[{label}].{key}: {s:.2}x is below the required \
                             {min_speedup:.2}x — fixed-limb advantage regressed"
                        ));
                    }
                }
            }
        }
    }
    if let Some(decrypt) = record.get("decrypt") {
        for key in ["dyn_us", "fixed_us", "speedup"] {
            match decrypt.get(key).and_then(JsonValue::as_f64) {
                Some(x) if x.is_finite() && x > 0.0 => {}
                _ => errors.push(format!("decrypt.{key}: missing or non-positive")),
            }
        }
    } else {
        errors.push("decrypt: missing".into());
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Validates a `BENCH_phase_split.json` record: identifying fields, the
/// Paillier micro block, and the per-fleet-size `online` / `search_online`
/// rows including the precompute-bank columns. With `min_bank_speedup > 0`,
/// the `online` table must additionally contain a row at exactly
/// `at_sessions` sessions whose `bank_speedup` (cold over bank-served
/// latency) is at least the floor — the CI defence for the fleet bank's
/// high-concurrency win. The `search_online` table is schema-checked but
/// carries no speedup floor: a banked zero encryption saves only ~15% of a
/// query at bench parameters, below the run-to-run spread of an
/// oversubscribed fleet's wall-clock, so a floor there would gate on
/// scheduler noise.
pub fn validate_phase_split(
    record: &JsonValue,
    min_bank_speedup: f64,
    at_sessions: u64,
) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    if !field_errors(record, "<root>", &mut errors) {
        return Err(errors);
    }
    match record.get("bench").and_then(JsonValue::as_str) {
        Some("phase_split") => {}
        other => errors.push(format!("bench: expected \"phase_split\", got {other:?}")),
    }
    for key in ["paillier_bits", "emails_per_session"] {
        if record.get(key).and_then(JsonValue::as_u64).is_none() {
            errors.push(format!("{key}: missing or non-integer"));
        }
    }
    if let Some(paillier) = record.get("paillier") {
        for key in [
            "decrypt_inline_us",
            "decrypt_crt_us",
            "decrypt_speedup",
            "encrypt_inline_us",
            "encrypt_online_us",
            "encrypt_speedup",
        ] {
            match paillier.get(key).and_then(JsonValue::as_f64) {
                Some(x) if x.is_finite() && x > 0.0 => {}
                _ => errors.push(format!("paillier.{key}: missing or non-positive")),
            }
        }
    } else {
        errors.push("paillier: missing".into());
    }
    for (table, unit) in [("online", "email"), ("search_online", "query")] {
        let rows = match record.get(table).and_then(JsonValue::as_arr) {
            Some(arr) if !arr.is_empty() => arr,
            Some(_) => {
                errors.push(format!("{table}: empty"));
                continue;
            }
            None => {
                errors.push(format!("{table}: missing or not an array"));
                continue;
            }
        };
        for (i, row) in rows.iter().enumerate() {
            if row.get("sessions").and_then(JsonValue::as_u64).is_none() {
                errors.push(format!("{table}[{i}].sessions: missing or non-integer"));
            }
            for key in [
                format!("cold_us_per_{unit}"),
                format!("bank_us_per_{unit}"),
                "bank_speedup".to_string(),
            ] {
                match row.get(&key).and_then(JsonValue::as_f64) {
                    Some(x) if x.is_finite() && x > 0.0 => {}
                    _ => errors.push(format!("{table}[{i}].{key}: missing or non-positive")),
                }
            }
        }
        if min_bank_speedup > 0.0 && table == "online" {
            let gated = rows
                .iter()
                .find(|row| row.get("sessions").and_then(JsonValue::as_u64) == Some(at_sessions));
            match gated {
                None => errors.push(format!(
                    "{table}: no row at {at_sessions} sessions — regenerate the record with \
                     --sessions including {at_sessions}"
                )),
                Some(row) => {
                    if let Some(s) = row.get("bank_speedup").and_then(JsonValue::as_f64) {
                        if s.is_finite() && s < min_bank_speedup {
                            errors.push(format!(
                                "{table}[sessions={at_sessions}].bank_speedup: {s:.2}x is below \
                                 the required {min_bank_speedup:.2}x — the precompute bank's \
                                 high-concurrency advantage regressed"
                            ));
                        }
                    }
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn scenario_entries(record: &JsonValue) -> Vec<(&str, &JsonValue)> {
    record
        .get("scenarios")
        .and_then(JsonValue::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|s| s.get("name").and_then(JsonValue::as_str).map(|n| (n, s)))
                .collect()
        })
        .unwrap_or_default()
}

fn stat(scenario: &JsonValue, summary: &str, field: &str) -> f64 {
    scenario
        .get(summary)
        .and_then(|s| s.get(field))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// Compares two **schema-valid** records (run [`validate_schema`] first)
/// under `policy`. See the module docs for the decision rules.
pub fn compare(baseline: &JsonValue, candidate: &JsonValue, policy: &GatePolicy) -> GateReport {
    let baseline_scenarios = scenario_entries(baseline);
    let candidate_scenarios = scenario_entries(candidate);
    let mut rows = Vec::new();

    for (name, base) in &baseline_scenarios {
        let row = match candidate_scenarios.iter().find(|(n, _)| n == name) {
            None => GateRow {
                name: name.to_string(),
                baseline_median: stat(base, "emails_per_sec", "median"),
                candidate_median: 0.0,
                delta_pct: -100.0,
                allowed_drop_pct: policy.max_regression_pct,
                status: GateStatus::MissingFromCandidate,
            },
            Some((_, cand)) => {
                let base_params = base.get("params").map(JsonValue::to_json);
                let cand_params = cand.get("params").map(JsonValue::to_json);
                let base_median = stat(base, "emails_per_sec", "median");
                let cand_median = stat(cand, "emails_per_sec", "median");
                let delta_pct = if base_median > 0.0 {
                    100.0 * (cand_median - base_median) / base_median
                } else {
                    0.0
                };
                let noise_floor = 0.5
                    * stat(base, "emails_per_sec", "spread_pct").max(stat(
                        cand,
                        "emails_per_sec",
                        "spread_pct",
                    ));
                let allowed_drop_pct = policy.max_regression_pct.max(noise_floor);
                let status = if base_params != cand_params {
                    GateStatus::SkippedParamsMismatch
                } else if -delta_pct > allowed_drop_pct {
                    GateStatus::Regression
                } else {
                    GateStatus::Pass
                };
                GateRow {
                    name: name.to_string(),
                    baseline_median: base_median,
                    candidate_median: cand_median,
                    delta_pct,
                    allowed_drop_pct,
                    status,
                }
            }
        };
        rows.push(row);
    }
    for (name, cand) in &candidate_scenarios {
        if !baseline_scenarios.iter().any(|(n, _)| n == name) {
            rows.push(GateRow {
                name: name.to_string(),
                baseline_median: 0.0,
                candidate_median: stat(cand, "emails_per_sec", "median"),
                delta_pct: 0.0,
                allowed_drop_pct: policy.max_regression_pct,
                status: GateStatus::NewInCandidate,
            });
        }
    }
    GateReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a schema-valid record with one scenario at the given median
    /// and spread.
    fn record(median: f64, spread_pct: f64, sessions: u64) -> JsonValue {
        let summary = |m: f64| {
            JsonValue::obj([
                ("median", JsonValue::Num(m)),
                ("p95", JsonValue::Num(m * 1.1)),
                ("p99", JsonValue::Num(m * 1.2)),
                ("min", JsonValue::Num(m * 0.9)),
                ("max", JsonValue::Num(m * 1.2)),
                ("mean", JsonValue::Num(m)),
                ("spread_pct", JsonValue::Num(spread_pct)),
            ])
        };
        JsonValue::obj([
            ("bench", JsonValue::Str("scenarios".into())),
            ("schema_version", JsonValue::Int(SCHEMA_VERSION)),
            ("transport", JsonValue::Str("memory".into())),
            ("repeat", JsonValue::Int(5)),
            ("seed", JsonValue::Int(7)),
            (
                "scenarios",
                JsonValue::Arr(vec![JsonValue::obj([
                    ("name", JsonValue::Str("steady".into())),
                    (
                        "params",
                        JsonValue::obj([("sessions", JsonValue::Int(sessions))]),
                    ),
                    ("emails", JsonValue::Int(48)),
                    ("completed", JsonValue::Int(8)),
                    ("failed", JsonValue::Int(0)),
                    ("emails_per_sec", summary(median)),
                    ("wall_ms", summary(10.0)),
                ])]),
            ),
        ])
    }

    #[test]
    fn identical_records_pass() {
        let rec = record(1000.0, 5.0, 8);
        let report = compare(&rec, &rec, &GatePolicy::default());
        assert!(report.passed());
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].status, GateStatus::Pass);
        assert_eq!(report.rows[0].delta_pct, 0.0);
    }

    #[test]
    fn injected_median_regression_fails_the_gate() {
        // 30% median drop against a quiet baseline: well past the 15%
        // policy threshold — the gate must fail.
        let baseline = record(1000.0, 4.0, 8);
        let candidate = record(700.0, 4.0, 8);
        let report = compare(&baseline, &candidate, &GatePolicy::default());
        assert!(!report.passed());
        assert_eq!(report.failures(), 1);
        assert_eq!(report.rows[0].status, GateStatus::Regression);
        assert!((report.rows[0].delta_pct - -30.0).abs() < 1e-9);
    }

    #[test]
    fn improvements_and_small_drops_pass() {
        let baseline = record(1000.0, 4.0, 8);
        assert!(compare(&baseline, &record(1400.0, 4.0, 8), &GatePolicy::default()).passed());
        assert!(compare(&baseline, &record(900.0, 4.0, 8), &GatePolicy::default()).passed());
    }

    #[test]
    fn noisy_records_widen_the_allowance() {
        // A 20% drop fails at the default 15% threshold on a quiet record…
        let baseline = record(1000.0, 4.0, 8);
        let candidate = record(800.0, 4.0, 8);
        assert!(!compare(&baseline, &candidate, &GatePolicy::default()).passed());
        // …but passes when the records themselves swing 50% run-to-run
        // (noise floor = 25% > threshold).
        let noisy_base = record(1000.0, 50.0, 8);
        let noisy_cand = record(800.0, 50.0, 8);
        let report = compare(&noisy_base, &noisy_cand, &GatePolicy::default());
        assert!(report.passed());
        assert_eq!(report.rows[0].allowed_drop_pct, 25.0);
    }

    #[test]
    fn mismatched_params_are_skipped_not_failed() {
        // Tiny CI smoke record vs full committed baseline: different
        // sessions param ⇒ not comparable.
        let baseline = record(1000.0, 4.0, 8);
        let tiny = record(10.0, 4.0, 5);
        let report = compare(&baseline, &tiny, &GatePolicy::default());
        assert!(report.passed());
        assert_eq!(report.skipped(), 1);
        assert_eq!(report.rows[0].status, GateStatus::SkippedParamsMismatch);
    }

    #[test]
    fn lost_scenario_coverage_fails() {
        let baseline = record(1000.0, 4.0, 8);
        let mut empty = record(1000.0, 4.0, 8);
        if let JsonValue::Obj(pairs) = &mut empty {
            for (k, v) in pairs.iter_mut() {
                if k == "scenarios" {
                    *v = JsonValue::Arr(vec![]);
                }
            }
        }
        let report = compare(&baseline, &empty, &GatePolicy::default());
        assert!(!report.passed());
        assert_eq!(report.rows[0].status, GateStatus::MissingFromCandidate);
    }

    /// Builds a schema-valid bignum record with the given speedups.
    fn bignum_record(mulmod_speedup: f64, pow_speedup: f64) -> JsonValue {
        JsonValue::obj([
            ("bench", JsonValue::Str("bignum".into())),
            ("schema_version", JsonValue::Int(SCHEMA_VERSION)),
            ("paillier_bits", JsonValue::Int(512)),
            ("iters", JsonValue::Int(200)),
            (
                "widths",
                JsonValue::Arr(vec![JsonValue::obj([
                    ("label", JsonValue::Str("n_squared".into())),
                    ("bits", JsonValue::Int(1024)),
                    ("limbs", JsonValue::Int(16)),
                    ("backend", JsonValue::Str("fixed:16".into())),
                    ("mulmod_dyn_ns", JsonValue::Num(900.0)),
                    ("mulmod_fixed_ns", JsonValue::Num(900.0 / mulmod_speedup)),
                    ("mulmod_speedup", JsonValue::Num(mulmod_speedup)),
                    ("pow_dyn_us", JsonValue::Num(800.0)),
                    ("pow_fixed_us", JsonValue::Num(800.0 / pow_speedup)),
                    ("pow_speedup", JsonValue::Num(pow_speedup)),
                ])]),
            ),
            (
                "decrypt",
                JsonValue::obj([
                    ("dyn_us", JsonValue::Num(150.0)),
                    ("fixed_us", JsonValue::Num(60.0)),
                    ("speedup", JsonValue::Num(2.5)),
                ]),
            ),
        ])
    }

    #[test]
    fn bignum_validation_accepts_emitted_shape() {
        let rec = bignum_record(3.0, 2.8);
        assert!(validate_bignum(&rec, 0.0).is_ok());
        let reparsed = JsonValue::parse(&rec.to_json()).unwrap();
        assert!(validate_bignum(&reparsed, 0.0).is_ok());
    }

    #[test]
    fn bignum_validation_names_missing_fields() {
        let mut bad = bignum_record(3.0, 2.8);
        if let JsonValue::Obj(pairs) = &mut bad {
            pairs.retain(|(k, _)| k != "decrypt");
        }
        let errors = validate_bignum(&bad, 0.0).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("decrypt")));
        // A scenarios record is not a bignum record.
        let errors = validate_bignum(&record(1000.0, 4.0, 8), 0.0).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("bench")));
    }

    #[test]
    fn bignum_min_speedup_gates_the_fixed_advantage() {
        // Comfortably above the bar: passes.
        assert!(validate_bignum(&bignum_record(3.0, 2.8), 2.0).is_ok());
        // mulmod speedup eroded below the bar: fails and says why.
        let errors = validate_bignum(&bignum_record(1.4, 2.8), 2.0).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("mulmod_speedup")));
        // pow speedup eroded: also fails.
        let errors = validate_bignum(&bignum_record(3.0, 1.1), 2.0).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("pow_speedup")));
        // With the gate disabled (0), the same record is schema-valid.
        assert!(validate_bignum(&bignum_record(1.4, 1.1), 0.0).is_ok());
    }

    #[test]
    fn schema_validation_accepts_the_emitted_shape_and_names_problems() {
        let good = record(1000.0, 4.0, 8);
        assert!(validate_schema(&good).is_ok());
        // Round-trips through the renderer/parser unchanged.
        let reparsed = JsonValue::parse(&good.to_json()).unwrap();
        assert!(validate_schema(&reparsed).is_ok());

        let mut bad = record(1000.0, 4.0, 8);
        if let JsonValue::Obj(pairs) = &mut bad {
            pairs.retain(|(k, _)| k != "schema_version");
        }
        let errors = validate_schema(&bad).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("schema_version")));
    }
}
