//! `rtrbench compare`: the paired comparison of a parent commit's runs
//! with a change's runs.
//!
//! Runs pair up in the order given, per workload: the i-th parent run of a
//! workload with its i-th change run. For every end-to-end metric and
//! workload the comparison reports each side's median and quartiles, the
//! share of pairs the change won (ties count for neither side), and a
//! verdict:
//!
//! * **improved** — the change won at least nine tenths of the pairs and
//!   its median beats the parent's by more than the parent's own spread
//!   (the distance between its quartiles);
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the metric's bound in `BENCHMARK.json`;
//! * **unresolved** — not regressed, but the parent's spread is wider than
//!   the bound, and not every change run reads better than every parent
//!   run;
//! * **unchanged** — otherwise.

use crate::spec::{Better, MetricSpec, Spec};
use crate::stats::quartiles;
use rtr_trace::{parse_value, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One result file's end-to-end values.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl RunResult {
    /// Parses a result file written by `rtrbench run`.
    ///
    /// # Errors
    ///
    /// A file that is not a result of an untraced run.
    pub fn parse(text: &str) -> Result<RunResult, String> {
        let value = parse_value(text).map_err(|e| format!("not JSON: {e}"))?;
        if matches!(value.get("traced"), Some(JsonValue::Bool(true))) {
            return Err("a traced run; compare end-to-end results".to_owned());
        }
        let workload = value.get("workload").and_then(JsonValue::as_str).ok_or("no workload")?;
        let Some(JsonValue::Obj(entries)) = value.get("metrics") else {
            return Err("no metrics".to_owned());
        };
        let metrics = entries
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(RunResult { workload: workload.to_owned(), metrics })
    }
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the paired rule.
    Improved,
    /// Within the bound, and the parent's spread resolves it.
    Unchanged,
    /// Within the bound, but the parent's spread is wider than the bound.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

impl Verdict {
    /// The verdict's name in the report.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Parent first quartile, median, third quartile.
    pub parent: [f64; 3],
    /// Change first quartile, median, third quartile.
    pub change: [f64; 3],
    /// Pairs compared.
    pub pairs: usize,
    /// Pairs the change won.
    pub won: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// How much worse `value` is than `base` as a share of `base`, in the
/// metric's direction (negative when better).
fn worse_by(spec: &MetricSpec, base: f64, value: f64) -> f64 {
    let change = (value - base) / base.abs().max(f64::MIN_POSITIVE);
    match spec.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

fn better(spec: &MetricSpec, a: f64, b: f64) -> bool {
    match spec.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Judges one metric from the paired runs.
pub fn judge(spec: &MetricSpec, parent: &[f64], change: &[f64]) -> (usize, usize, Verdict) {
    let bound = spec.bound.unwrap_or(0.0);
    let pairs = parent.len().min(change.len());
    let won = parent.iter().zip(change).filter(|(p, c)| better(spec, **c, **p)).count();
    let [p1, pm, p3] = quartiles(parent);
    let [_, cm, _] = quartiles(change);
    let spread = p3 - p1;
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(spec, *c, *p)));
    let verdict =
        if pairs > 0 && won * 10 >= pairs * 9 && better(spec, cm, pm) && (cm - pm).abs() > spread {
            Verdict::Improved
        } else if worse_by(spec, pm, cm) > bound {
            Verdict::Regressed
        } else if spread / pm.abs().max(f64::MIN_POSITIVE) > bound && !all_better {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        };
    (pairs, won, verdict)
}

/// Compares parent runs with change runs, one row per workload and
/// end-to-end metric, workloads in the order `spec` lists them.
pub fn compare(spec: &Spec, parent: &[RunResult], change: &[RunResult]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        let of = |runs: &[RunResult], metric: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| &r.workload == workload)
                .filter_map(|r| r.metrics.get(metric).copied())
                .collect()
        };
        for metric in &spec.end_to_end {
            let (p, c) = (of(parent, &metric.name), of(change, &metric.name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (pairs, won, verdict) = judge(metric, &p, &c);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                parent: quartiles(&p),
                change: quartiles(&c),
                pairs,
                won,
                verdict,
            });
        }
    }
    rows
}

/// The comparison as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<14} {:>28} {:>28} {:>8} {:>7}  verdict\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "won"
    );
    let cell = |[q1, m, q3]: [f64; 3]| format!("{m:.5} [{q1:.5}, {q3:.5}]");
    for r in rows {
        let delta = (r.change[1] - r.parent[1]) / r.parent[1].abs().max(f64::MIN_POSITIVE) * 100.0;
        let _ = writeln!(
            out,
            "{:<12} {:<14} {:>28} {:>28} {:>7.2}% {:>3}/{:<3}  {}",
            r.workload,
            r.metric,
            cell(r.parent),
            cell(r.change),
            delta,
            r.won,
            r.pairs,
            r.verdict.name()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "job_p50_ms".into(),
            unit: "ms".into(),
            better: Better::Lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_paired_rule() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(judge(&latency(0.1), &parent, &faster).2, Verdict::Improved);
        assert_eq!(judge(&latency(0.1), &parent, &slower).2, Verdict::Regressed);
        assert_eq!(judge(&latency(0.1), &parent, &same).2, Verdict::Unchanged);
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(judge(&latency(0.1), &noisy, &same).2, Verdict::Unresolved);
    }
}
