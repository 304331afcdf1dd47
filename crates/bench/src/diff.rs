//! Bench-regression gate: compares two `BENCH_<name>.json` summaries
//! under per-kind noise policies.
//!
//! The comparison rules encode what each kind of value promises:
//!
//! * **Counters** are deterministic solver facts (node counts, prune
//!   counts, window outcomes) — they must match **exactly**. Any drift,
//!   added key, or removed key is a regression; an intentional change
//!   ships with a refreshed baseline.
//! * **Metrics** are real-valued measurements, usually timings — they are
//!   compared within a relative **tolerance band**
//!   ([`DiffPolicy::metric_rel_tol`]), or skipped entirely under
//!   [`DiffPolicy::counters_only`] (the right mode on shared CI runners).
//! * Keys tagged `_deadline_dependent` (produced under wall-clock
//!   deadlines, so machine-speed dependent) or containing `_suppressed_`
//!   (environment markers such as single-CPU suppression) are **skipped**
//!   on both sides.
//!
//! The `rtr-bench-diff` binary wraps [`diff_runs`] with exit codes:
//! `0` clean, `1` regression, `2` usage or I/O error.

use rtr_trace::JsonValue;
use std::collections::BTreeMap;

/// One parsed `BENCH_<name>.json` document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedRun {
    /// The run's `name` field.
    pub name: String,
    /// Integer counters (deterministic solver facts).
    pub counters: BTreeMap<String, u64>,
    /// Real-valued metrics (timings and derived rates).
    pub metrics: BTreeMap<String, f64>,
}

/// Comparison policy of [`diff_runs`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffPolicy {
    /// Relative tolerance for metric drift: `|new - old|` may reach
    /// `metric_rel_tol * max(|old|, |new|)` before it counts as a
    /// regression.
    pub metric_rel_tol: f64,
    /// Compare only the counters (skip every metric). The right mode
    /// wherever timings are untrustworthy — shared CI runners, laptops
    /// on battery.
    pub counters_only: bool,
}

impl Default for DiffPolicy {
    fn default() -> Self {
        DiffPolicy { metric_rel_tol: 0.25, counters_only: false }
    }
}

/// `true` for keys the gate must not compare: values tagged as
/// wall-clock-deadline dependent, and environment suppression markers.
pub fn is_skipped_key(key: &str) -> bool {
    key.contains("_deadline_dependent") || key.contains("_suppressed_")
}

/// One detected regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The counter or metric key.
    pub key: String,
    /// Human-readable old-vs-new detail.
    pub detail: String,
}

/// The outcome of one comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Detected regressions, in key order (counters first).
    pub regressions: Vec<Regression>,
    /// Values compared.
    pub compared: usize,
    /// Keys skipped by the noise policy.
    pub skipped: usize,
}

impl DiffReport {
    /// `true` when no regression was detected.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Parses one `BENCH_<name>.json` document.
///
/// # Errors
///
/// Returns a message when the text is not JSON or does not follow the
/// `{"name", "counters", "metrics"}` shape [`crate::BenchRun`] writes.
pub fn parse_bench_json(text: &str) -> Result<ParsedRun, String> {
    let root = rtr_trace::parse_value(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let name = match root.get("name") {
        Some(v) => v.as_str().ok_or("\"name\" is not a string")?.to_owned(),
        None => return Err("missing \"name\" field".to_owned()),
    };
    let mut run = ParsedRun { name, ..ParsedRun::default() };
    match root.get("counters") {
        Some(JsonValue::Obj(entries)) => {
            for (key, value) in entries {
                let v = value
                    .as_u64()
                    .ok_or_else(|| format!("counter \"{key}\" is not a non-negative integer"))?;
                run.counters.insert(key.clone(), v);
            }
        }
        Some(_) => return Err("\"counters\" is not an object".to_owned()),
        None => return Err("missing \"counters\" field".to_owned()),
    }
    match root.get("metrics") {
        Some(JsonValue::Obj(entries)) => {
            for (key, value) in entries {
                let v =
                    value.as_f64().ok_or_else(|| format!("metric \"{key}\" is not a number"))?;
                run.metrics.insert(key.clone(), v);
            }
        }
        Some(_) => return Err("\"metrics\" is not an object".to_owned()),
        None => return Err("missing \"metrics\" field".to_owned()),
    }
    Ok(run)
}

/// Compares `new` against the `old` baseline under `policy`.
pub fn diff_runs(old: &ParsedRun, new: &ParsedRun, policy: &DiffPolicy) -> DiffReport {
    let mut report = DiffReport::default();

    // Counters: exact, over the union of keys.
    let counter_keys: std::collections::BTreeSet<&String> =
        old.counters.keys().chain(new.counters.keys()).collect();
    for key in counter_keys {
        if is_skipped_key(key) {
            report.skipped += 1;
            continue;
        }
        report.compared += 1;
        match (old.counters.get(key), new.counters.get(key)) {
            (Some(a), Some(b)) if a == b => {}
            (Some(a), Some(b)) => report.regressions.push(Regression {
                key: key.clone(),
                detail: format!("counter changed: {a} -> {b}"),
            }),
            (Some(a), None) => report.regressions.push(Regression {
                key: key.clone(),
                detail: format!("counter disappeared (baseline had {a})"),
            }),
            (None, Some(b)) => report.regressions.push(Regression {
                key: key.clone(),
                detail: format!("counter appeared ({b}) — refresh the baseline if intended"),
            }),
            (None, None) => {}
        }
    }

    if policy.counters_only {
        report.skipped += old
            .metrics
            .keys()
            .chain(new.metrics.keys())
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        return report;
    }

    // Metrics: relative tolerance band, over the union of keys.
    let metric_keys: std::collections::BTreeSet<&String> =
        old.metrics.keys().chain(new.metrics.keys()).collect();
    for key in metric_keys {
        if is_skipped_key(key) {
            report.skipped += 1;
            continue;
        }
        report.compared += 1;
        match (old.metrics.get(key), new.metrics.get(key)) {
            (Some(&a), Some(&b)) => {
                let scale = a.abs().max(b.abs());
                if (a - b).abs() > policy.metric_rel_tol * scale {
                    report.regressions.push(Regression {
                        key: key.clone(),
                        detail: format!(
                            "metric drifted beyond {:.0}%: {a} -> {b}",
                            policy.metric_rel_tol * 100.0
                        ),
                    });
                }
            }
            (Some(&a), None) => report.regressions.push(Regression {
                key: key.clone(),
                detail: format!("metric disappeared (baseline had {a})"),
            }),
            (None, Some(&b)) => report.regressions.push(Regression {
                key: key.clone(),
                detail: format!("metric appeared ({b}) — refresh the baseline if intended"),
            }),
            (None, None) => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchRun;

    fn sample() -> ParsedRun {
        let mut run = BenchRun::new("gate");
        run.counter("x.structured.nodes", 123_456);
        run.counter("x.solves", 9);
        run.counter("x.parallel4_speedup_suppressed_1cpu", 1);
        run.counter("y.solves_deadline_dependent", 4);
        run.metric("x.elapsed_ms", 100.0);
        run.metric("y.best_latency_ns_deadline_dependent", 5e6);
        parse_bench_json(&run.to_json()).expect("round-trips")
    }

    #[test]
    fn identical_runs_are_clean() {
        let run = sample();
        let report = diff_runs(&run, &run, &DiffPolicy::default());
        assert!(report.is_clean(), "{:?}", report.regressions);
        assert!(report.compared > 0);
        assert!(report.skipped >= 3, "skip-listed keys must not be compared");
    }

    #[test]
    fn perturbed_counter_is_a_regression() {
        let old = sample();
        let mut new = old.clone();
        new.counters.insert("x.structured.nodes".into(), 123_457);
        let report = diff_runs(&old, &new, &DiffPolicy::default());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].key, "x.structured.nodes");
    }

    #[test]
    fn added_and_removed_counters_are_regressions() {
        let old = sample();
        let mut new = old.clone();
        new.counters.remove("x.solves");
        new.counters.insert("x.brand_new".into(), 1);
        let report = diff_runs(&old, &new, &DiffPolicy::default());
        let keys: Vec<&str> = report.regressions.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["x.brand_new", "x.solves"]);
    }

    #[test]
    fn skip_listed_drift_is_ignored() {
        let old = sample();
        let mut new = old.clone();
        new.counters.insert("y.solves_deadline_dependent".into(), 99);
        new.counters.insert("x.parallel4_speedup_suppressed_1cpu".into(), 0);
        new.metrics.insert("y.best_latency_ns_deadline_dependent".into(), 1.0);
        let report = diff_runs(&old, &new, &DiffPolicy::default());
        assert!(report.is_clean(), "{:?}", report.regressions);
    }

    #[test]
    fn metric_band_and_counters_only() {
        let old = sample();
        let mut new = old.clone();
        new.metrics.insert("x.elapsed_ms".into(), 110.0); // +10% — within band
        let policy = DiffPolicy::default();
        assert!(diff_runs(&old, &new, &policy).is_clean());
        new.metrics.insert("x.elapsed_ms".into(), 200.0); // +100% — outside
        assert_eq!(diff_runs(&old, &new, &policy).regressions.len(), 1);
        // …but counters-only mode never looks at metrics.
        let counters_only = DiffPolicy { counters_only: true, ..policy };
        let report = diff_runs(&old, &new, &counters_only);
        assert!(report.is_clean());
        assert!(report.skipped >= 2);
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        assert!(parse_bench_json("not json").is_err());
        assert!(parse_bench_json("{}").unwrap_err().contains("name"));
        assert!(parse_bench_json("{\"name\": \"x\"}").unwrap_err().contains("counters"));
        let bad = "{\"name\": \"x\", \"counters\": {\"k\": -1}, \"metrics\": {}}";
        assert!(parse_bench_json(bad).unwrap_err().contains("non-negative"));
    }
}
