//! A run's outcome: what it measured, what failed, and the environment it
//! ran in, rendered as a self-describing result file and as the one-line
//! summary the last line of standard output carries.

use crate::spec::{MetricSpec, Spec};
use crate::stats::quantile;
use crate::trace::{Ledger, Span};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured value, its unit, and how many samples it summarizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The value, in `unit`.
    pub value: f64,
    /// The unit, e.g. `ms`.
    pub unit: String,
    /// Samples behind the value (`0` for a layer the workload does not
    /// exercise, `1` for a single total).
    pub samples: usize,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Jobs attempted.
    pub attempted: u64,
    /// One line per failed job.
    pub failures: Vec<String>,
    /// Declared metrics of this run's mode, by name.
    pub metrics: BTreeMap<String, Measured>,
    /// Further values the result file keeps (the `rtrd_mix` hit/miss
    /// split, pass counts, tail percentiles), by name.
    pub extra: BTreeMap<String, Measured>,
    /// The traced run's ledger.
    pub ledger: Option<Ledger>,
    /// The traced run's spans.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a declared metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.metrics.insert(name.to_owned(), Measured { value, unit: unit.to_owned(), samples });
    }

    /// Records a value for the result file only.
    pub fn set_extra(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.extra.insert(name.to_owned(), Measured { value, unit: unit.to_owned(), samples });
    }

    /// Records a timing sample set in `unit` (`scale` converts seconds to
    /// it) as a declared median `<name>_p50_<unit>` and, when `tail`, a
    /// declared `<name>_p90_<unit>`; the highest percentile with at least
    /// ten samples beyond it goes to the result file.
    pub fn set_timing(&mut self, name: &str, seconds: &[f64], unit: &str, scale: f64, tail: bool) {
        let values: Vec<f64> = seconds.iter().map(|s| s * scale).collect();
        let n = values.len();
        self.set(&format!("{name}_p50_{unit}"), quantile(&values, 1, 2), unit, n);
        if tail {
            self.set(&format!("{name}_p90_{unit}"), quantile(&values, 9, 10), unit, n);
        }
        if let Some(pct) = [99.9, 99.0, 95.0, 90.0, 75.0]
            .into_iter()
            .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        {
            let value = quantile(&values, (pct * 10.0) as usize, 1000);
            self.set_extra(&format!("{name}_p{pct}_{unit}"), value, unit, n);
        }
    }

    /// Counts a failed job.
    pub fn fail(&mut self, job: &str, why: impl std::fmt::Display) {
        self.failures.push(format!("{job}: {why}"));
    }

    /// `true` when every attempted job passed its check.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// Sets every declared metric this run did not measure to `0` with no
    /// samples: the layer is not on this workload's path.
    pub fn fill_unmeasured(&mut self, declared: &[MetricSpec]) {
        for m in declared {
            self.metrics.entry(m.name.clone()).or_insert_with(|| Measured {
                value: 0.0,
                unit: m.unit.clone(),
                samples: 0,
            });
        }
    }

    /// Every way the measured metrics disagree with the declaration: a
    /// declared metric not measured, a measured one not declared, a unit
    /// that differs, or a value that is not a finite number.
    pub fn mismatches(&self, declared: &[MetricSpec]) -> Vec<String> {
        let mut problems: Vec<String> = declared
            .iter()
            .filter(|m| !self.metrics.contains_key(&m.name))
            .map(|m| format!("missing metric `{}`", m.name))
            .collect();
        for (name, m) in &self.metrics {
            match declared.iter().find(|d| &d.name == name) {
                None => problems.push(format!("undeclared metric `{name}`")),
                Some(d) if d.unit != m.unit => {
                    problems.push(format!("metric `{name}` in `{}`, declared `{}`", m.unit, d.unit))
                }
                Some(_) if !m.value.is_finite() => {
                    problems.push(format!("metric `{name}` is {}", m.value))
                }
                Some(_) => {}
            }
        }
        problems
    }
}

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Environment {
    /// CPUs available to the process.
    pub host_cpus: usize,
    /// The compiler that built this binary.
    pub rustc: &'static str,
    /// Git revision of the measured tree, `unknown` outside a git checkout.
    pub git_revision: String,
    /// `release` or `debug`.
    pub profile: &'static str,
}

impl Environment {
    /// Probes the current process. The revision is read only when the
    /// working directory is itself a git checkout, so an exported tree
    /// inside some other repository does not borrow that repository's
    /// revision.
    pub fn probe() -> Environment {
        let git_revision = std::path::Path::new(".git")
            .exists()
            .then(|| {
                std::process::Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .stderr(std::process::Stdio::null())
                    .output()
                    .ok()
            })
            .flatten()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".to_owned(), |rev| rev.trim().to_owned());
        Environment {
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("RTRBENCH_RUSTC"),
            git_revision,
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn escape(s: &str) -> String {
    rtrd::jobs::escape_json(s)
}

fn metric_map(values: &BTreeMap<String, Measured>, samples: bool) -> String {
    let entries: Vec<String> = values
        .iter()
        .map(|(name, m)| {
            let mut entry = format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                escape(name),
                number(m.value),
                escape(&m.unit)
            );
            if samples {
                let _ = write!(entry, ", \"samples\": {}", m.samples);
            }
            entry.push('}');
            entry
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// The one-line summary: `correct`, `attempted`, `failed`, and the
/// declared metrics of this mode with their units.
pub fn summary_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failures.len(),
        metric_map(&outcome.metrics, false)
    )
}

/// What a result file records about the run itself.
#[derive(Debug, Clone)]
pub struct RunInfo<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Seconds the run was asked to measure.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Threads the workload keeps busy.
    pub threads: usize,
    /// The environment.
    pub env: &'a Environment,
}

/// The self-describing result file.
pub fn result_json(info: &RunInfo<'_>, outcome: &Outcome) -> String {
    let env = info.env;
    let failures: Vec<String> =
        outcome.failures.iter().map(|f| format!("\"{}\"", escape(f))).collect();
    let mut out = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \
         \"threads\": {},\n  \"host_cpus\": {},\n  \"rustc\": \"{}\",\n  \"git_revision\": \"{}\",\n  \
         \"profile\": \"{}\",\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"failures\": [{}],\n  \"metrics\": {},\n  \"extra\": {}",
        escape(info.workload),
        info.seed,
        number(info.seconds),
        info.traced,
        info.threads,
        env.host_cpus,
        escape(env.rustc),
        escape(&env.git_revision),
        env.profile,
        outcome.correct(),
        outcome.attempted,
        outcome.failures.len(),
        failures.join(", "),
        metric_map(&outcome.metrics, true),
        metric_map(&outcome.extra, true),
    );
    if let Some(ledger) = &outcome.ledger {
        let layers: Vec<String> = ledger
            .layers
            .iter()
            .map(|(name, s)| format!("\"{}\": {}", escape(name), number(*s)))
            .collect();
        let _ = write!(
            out,
            ",\n  \"ledger\": {{\"wall_s\": {}, \"residual_s\": {}, \"layers_s\": {{{}}}}}",
            number(ledger.wall_s),
            number(ledger.residual_s),
            layers.join(", ")
        );
    }
    out.push_str("\n}\n");
    out
}

/// A human-readable table of every value the run measured.
pub fn render_table(outcome: &Outcome, spec: &Spec) -> String {
    let mut out = String::new();
    let rows = outcome.metrics.iter().chain(&outcome.extra);
    for (name, m) in rows {
        let kind = if spec.end_to_end.iter().any(|d| &d.name == name) {
            "e2e"
        } else if outcome.extra.contains_key(name) {
            "   "
        } else {
            "lyr"
        };
        let _ = writeln!(
            out,
            "  {kind} {name:<30} {:>16.6} {:<6} (n = {})",
            m.value, m.unit, m.samples
        );
    }
    for failure in &outcome.failures {
        let _ = writeln!(out, "  FAILED {failure}");
    }
    out
}
