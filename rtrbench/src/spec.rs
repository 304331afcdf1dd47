//! The declared metrics: `BENCHMARK.json` at the repository root is the
//! single source of every metric's name, unit, direction and bound. It is
//! compiled into the binary so a result never disagrees with the
//! declaration it was measured under.

use rtr_trace::{parse_value, JsonValue};

/// `BENCHMARK.json`, as built into this binary.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// The metric's name.
    pub name: String,
    /// Its unit, e.g. `ms`.
    pub unit: String,
    /// Which direction is better.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for per-layer
    /// metrics.
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics a user of the system sees.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers, reported by the traced run.
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(value: &'a JsonValue, key: &str, context: &str) -> Result<&'a JsonValue, String> {
    value.get(key).ok_or_else(|| format!("{context}: missing `{key}`"))
}

fn string(value: &JsonValue, key: &str, context: &str) -> Result<String, String> {
    field(value, key, context)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("{context}: `{key}` is not a string"))
}

fn array<'a>(value: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    match field(value, key, "BENCHMARK.json")? {
        JsonValue::Arr(items) => Ok(items),
        _ => Err(format!("BENCHMARK.json: `{key}` is not an array")),
    }
}

fn metrics(value: &JsonValue, key: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    array(value, key)?
        .iter()
        .map(|m| {
            let name = string(m, "name", key)?;
            let context = format!("{key} metric `{name}`");
            let better = match string(m, "better", &context)?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("{context}: unknown direction `{other}`")),
            };
            let bound = if bounded {
                let b = field(m, "bound", &context)?.as_f64();
                Some(b.ok_or_else(|| format!("{context}: `bound` is not a number"))?)
            } else {
                None
            };
            Ok(MetricSpec { unit: string(m, "unit", &context)?, name, better, bound })
        })
        .collect()
}

impl Spec {
    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// The first missing or mistyped field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let value = parse_value(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let run_seconds = field(&value, "run_seconds", "BENCHMARK.json")?
            .as_f64()
            .filter(|s| s.fract() == 0.0 && *s >= 1.0)
            .ok_or("BENCHMARK.json: `run_seconds` is not a positive whole number")?
            as u64;
        let workloads = array(&value, "workloads")?
            .iter()
            .map(|w| string(w, "name", "workloads"))
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metrics(&value, "end_to_end", true)?,
            per_layer: metrics(&value, "per_layer", false)?,
        })
    }

    /// The declaration built into this binary.
    ///
    /// # Panics
    ///
    /// Panics if the built-in `BENCHMARK.json` is malformed; the contract
    /// test rules that out.
    pub fn builtin() -> Spec {
        Spec::parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("built-in spec: {e}"))
    }
}
