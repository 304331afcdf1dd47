//! Committed reference results: the best D_a and a digest of the
//! `Exploration::to_csv()` trajectory of every job a seed can submit.
//!
//! `quality_ratio` is measured against these, and a CSV digest that no
//! longer matches counts as trajectory drift (`check.csv_drift`): expected
//! after a change that alters the search, a red flag after one that
//! should not.

use crate::workload::Workload;
use rtr_core::checkpoint::fnv1a;
use rtr_core::Exploration;
use std::collections::BTreeMap;

/// What the reference run of one job produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Best total latency in ns, `None` when no solution was found.
    pub latency_ns: Option<f64>,
    /// FNV-1a of the job's `to_csv()` output.
    pub csv_digest: u64,
    /// Windows solved.
    pub windows: usize,
    /// Windows that ended on their budget.
    pub limit_windows: usize,
    /// Deterministic work done: structured nodes plus simplex pivots.
    /// Seeded workloads stratify their samples by it.
    pub work: u64,
}

impl Reference {
    /// The reference entry an exploration would produce.
    pub fn of(exploration: &Exploration) -> Reference {
        Reference {
            latency_ns: exploration.best_latency.map(|l| l.as_ns()),
            csv_digest: csv_digest(exploration),
            windows: exploration.records.len(),
            limit_windows: exploration
                .records
                .iter()
                .filter(|r| matches!(r.result, rtr_core::IterationResult::LimitReached))
                .count(),
            work: exploration.structured_totals().nodes
                + exploration.milp_totals().simplex_iterations as u64,
        }
    }
}

/// The reference results of a workload, by job key.
pub type References = BTreeMap<String, Reference>;

/// FNV-1a of an exploration's deterministic CSV log.
pub fn csv_digest(exploration: &Exploration) -> u64 {
    fnv1a(exploration.to_csv().as_bytes())
}

/// The committed reference table of `workload`.
pub fn committed(workload: Workload) -> &'static str {
    match workload {
        Workload::DctPaper => include_str!("../references/dct_paper.tsv"),
        Workload::SuitePool2 => include_str!("../references/suite_pool2.tsv"),
        Workload::MilpExact => include_str!("../references/milp_exact.tsv"),
        Workload::RtrdMix => include_str!("../references/rtrd_mix.tsv"),
    }
}

/// Parses a reference table: `#` comment lines, then one tab-separated
/// `key  latency_ns|-  csv_digest_hex  windows  limit_windows  work` row per
/// job.
///
/// # Errors
///
/// The first malformed row, by line number.
pub fn parse(text: &str) -> Result<References, String> {
    let mut table = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("reference line {}: `{line}`", i + 1);
        let fields: Vec<&str> = line.split('\t').collect();
        let [key, latency, digest, windows, limit, work] = fields[..] else { return Err(bad()) };
        let latency_ns = match latency {
            "-" => None,
            v => Some(v.parse::<f64>().map_err(|_| bad())?),
        };
        let reference = Reference {
            latency_ns,
            csv_digest: u64::from_str_radix(digest, 16).map_err(|_| bad())?,
            windows: windows.parse().map_err(|_| bad())?,
            limit_windows: limit.parse().map_err(|_| bad())?,
            work: work.parse().map_err(|_| bad())?,
        };
        table.insert(key.to_owned(), reference);
    }
    Ok(table)
}

/// The committed references of `workload`.
///
/// # Errors
///
/// A malformed committed table.
pub fn load(workload: Workload) -> Result<References, String> {
    parse(committed(workload)).map_err(|e| format!("{} {e}", workload.name()))
}

/// Renders a reference table in the format [`parse`] reads.
pub fn render(workload: Workload, rows: &[(String, Reference)]) -> String {
    let mut out = format!(
        "# rtrbench reference results for {}: key, best D_a (ns), to_csv() FNV-1a, windows, \
         budget-limited windows, work (nodes + pivots)\n",
        workload.name()
    );
    for (key, r) in rows {
        let latency = r.latency_ns.map_or_else(|| "-".to_owned(), |v| v.to_string());
        out.push_str(&format!(
            "{key}\t{latency}\t{:016x}\t{}\t{}\t{}\n",
            r.csv_digest, r.windows, r.limit_windows, r.work
        ));
    }
    out
}
