//! `--compare A.json B.json`: did B get worse than A?
//!
//! For every workload × end-to-end metric the two sides' medians are held
//! against the metric's bound (from the catalogue, which a unit test keeps
//! equal to `BENCHMARK.json`):
//!
//! * `unresolved` — a side's own quartile spread exceeds the bound, so the
//!   runs cannot tell (needs at least two runs on that side);
//! * `worse` / `better` — B's median is worse / better than A's by more than
//!   the bound;
//! * `same` — otherwise.
//!
//! One row per workload; every ratio is printed with its base (A's median).

use std::collections::BTreeMap;

use crate::catalogue::{Better, EndToEnd, END_TO_END};
use crate::report::Record;
use crate::stats::{median, quartile_spread};
use crate::workloads;

/// Outcome of one workload × metric comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B improved by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// B regressed by more than the bound.
    Worse,
    /// Run-to-run spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Metric compared.
    pub metric: &'static str,
    /// A's median (the base of the ratio).
    pub base: f64,
    /// B's median.
    pub other: f64,
    /// The call.
    pub verdict: Verdict,
}

/// Compares one metric's samples.
pub fn judge(spec: &EndToEnd, a: &[f64], b: &[f64]) -> Cell {
    let (base, other) = (median(a), median(b));
    let spread = |v: &[f64]| {
        if v.len() >= 2 {
            quartile_spread(v)
        } else {
            0.0
        }
    };
    // How much worse B is than A, as a share of A (negative = better).
    let worsening = if base == 0.0 {
        0.0
    } else {
        match spec.better {
            Better::Lower => (other - base) / base.abs(),
            Better::Higher => (base - other) / base.abs(),
        }
    };
    let verdict = if spread(a) > spec.bound || spread(b) > spec.bound {
        Verdict::Unresolved
    } else if worsening > spec.bound {
        Verdict::Worse
    } else if worsening < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Cell {
        metric: spec.name,
        base,
        other,
        verdict,
    }
}

fn samples(records: &[Record]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut by_key: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in records.iter().filter(|r| !r.traced) {
        for (name, value, _) in &r.metrics {
            by_key
                .entry((r.workload.clone(), name.clone()))
                .or_default()
                .push(*value);
        }
    }
    by_key
}

/// Compares two result sets: `(workload, cells)` rows in workload order, for
/// the workloads both sides ran.
pub fn compare(a: &[Record], b: &[Record]) -> Vec<(&'static str, Vec<Cell>)> {
    let (sa, sb) = (samples(a), samples(b));
    workloads::all()
        .iter()
        .filter_map(|w| {
            let cells: Vec<Cell> = END_TO_END
                .iter()
                .filter_map(|spec| {
                    let key = (w.name.to_string(), spec.name.to_string());
                    let mut cell = judge(spec, sa.get(&key)?, sb.get(&key)?);
                    // setup_s is exempt from the spread rule, as in the
                    // driver: only its medians are compared.
                    if spec.name == "setup_s" && cell.verdict == Verdict::Unresolved {
                        cell.verdict = judge(spec, &[cell.base], &[cell.other]).verdict;
                    }
                    Some(cell)
                })
                .collect();
            (!cells.is_empty()).then_some((w.name, cells))
        })
        .collect()
}

/// Renders the comparison, one row per workload, and says whether any cell
/// is `worse`.
pub fn render(rows: &[(&'static str, Vec<Cell>)]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    for (workload, cells) in rows {
        out.push_str(workload);
        for cell in cells {
            any_worse |= cell.verdict == Verdict::Worse;
            let ratio = if cell.base == 0.0 {
                1.0
            } else {
                cell.other / cell.base
            };
            out.push_str(&format!(
                "  {}={} ({:.3}x of {:.6})",
                cell.metric,
                cell.verdict.as_str(),
                ratio,
                cell.base
            ));
        }
        out.push('\n');
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let eps = spec("emails_per_s"); // higher is better
        let bound = eps.bound;
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        let scaled = |k: f64| steady.map(|v| v * k);
        assert_eq!(judge(eps, &steady, &scaled(1.0)).verdict, Verdict::Same);
        assert_eq!(
            judge(eps, &steady, &scaled(1.0 - bound * 0.9)).verdict,
            Verdict::Same
        );
        assert_eq!(
            judge(eps, &steady, &scaled(1.0 - bound * 1.2)).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(eps, &steady, &scaled(1.0 + bound * 1.2)).verdict,
            Verdict::Better
        );
        // Lower-is-better flips the direction.
        let p50 = spec("round_ms_p50");
        assert_eq!(
            judge(p50, &steady, &scaled(1.0 + p50.bound * 1.2)).verdict,
            Verdict::Worse
        );
        // A side whose own quartiles are further apart than the bound cannot
        // resolve the question, whatever the medians say.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(eps, &steady, &noisy).verdict, Verdict::Unresolved);
        // A single run has no spread to object to.
        let cell = judge(eps, &[100.0], &[50.0]);
        assert_eq!(cell.verdict, Verdict::Worse);
        assert_eq!((cell.base, cell.other), (100.0, 50.0));
    }

    #[test]
    fn rows_cover_shared_workloads_and_flag_regressions() {
        let record = |workload: &str, eps: f64| Record {
            workload: workload.into(),
            seed: 1,
            traced: false,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("emails_per_s".into(), eps, "1/s".into())],
        };
        let a = vec![record("spam_long", 200.0), record("search_rw", 9000.0)];
        let b = vec![record("spam_long", 100.0), record("topic_batch", 1.0)];
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "spam_long");
        let (text, any_worse) = render(&rows);
        assert!(any_worse);
        assert!(
            text.contains("emails_per_s=worse (0.500x of 200.000000)"),
            "{text}"
        );
        let (_, any_worse) = render(&compare(&a, &a));
        assert!(!any_worse);
    }
}
