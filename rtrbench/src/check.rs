//! The correctness checker. Every job a run attempts is checked here,
//! outside the timed region, against the repository's independent
//! validator and simulator rather than against the solver's own claims.
//!
//! A job fails on any of:
//! * an error, a non-2xx HTTP response, or a `failed` job state;
//! * a solution `validate_solution` rejects;
//! * an `rtr_sim::simulate` latency that differs from the reported D_a;
//! * an unexpectedly non-clean degradation account;
//! * a cache-hit result whose bytes differ from the miss that produced it.

use rtr_core::{validate_solution, Architecture, Degradation, Exploration, Solution};
use rtr_graph::TaskGraph;
use rtr_trace::{parse_value, JsonValue};
use std::time::{Duration, Instant};

/// What checking one solution cost, per checker layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckCost {
    /// Time in `validate_solution`.
    pub validate: Duration,
    /// Time in `rtr_sim::simulate`.
    pub simulate: Duration,
    /// Solutions checked.
    pub checked: usize,
}

/// Checks `solution` against the validator and the simulator, and the
/// simulated latency against the `reported_ns` D_a.
///
/// # Errors
///
/// Why the solution is not a correct answer.
pub fn check_solution(
    graph: &TaskGraph,
    arch: &Architecture,
    solution: &Solution,
    reported_ns: f64,
    cost: &mut CheckCost,
) -> Result<(), String> {
    cost.checked += 1;
    let t = Instant::now();
    let violations = validate_solution(graph, arch, solution);
    cost.validate += t.elapsed();
    if !violations.is_empty() {
        return Err(format!("invalid solution: {violations:?}"));
    }
    let t = Instant::now();
    let report = rtr_sim::simulate(graph, arch, solution);
    cost.simulate += t.elapsed();
    let simulated = report.map_err(|e| format!("simulation rejects the solution: {e}"))?;
    let simulated_ns = simulated.total_latency.as_ns();
    if (simulated_ns - reported_ns).abs() > 1e-9 * reported_ns.abs().max(1.0) {
        return Err(format!("reported D_a {reported_ns} ns, simulated {simulated_ns} ns"));
    }
    Ok(())
}

/// The degradation line of a run that was cancelled and nothing else.
const CANCELLED_ONLY: &str =
    "degraded: panics_caught=0 jobs_retried=0 subtrees_lost=0 checkpoint_failures=0 cancelled=true\n";

/// Checks a degradation account: clean, or — where the job has a
/// deadline — cancelled and nothing else.
///
/// # Errors
///
/// The account, when it is not what the job allows.
pub fn check_degradation(rendered: &str, clean: bool, may_cancel: bool) -> Result<(), String> {
    if clean || (may_cancel && rendered == CANCELLED_ONLY) {
        Ok(())
    } else {
        Err(format!("unexpected degradation: {}", rendered.trim_end()))
    }
}

/// Checks an in-process exploration: clean, and its best solution correct.
///
/// # Errors
///
/// The first problem found.
pub fn check_exploration(
    graph: &TaskGraph,
    arch: &Architecture,
    exploration: &Exploration,
    may_cancel: bool,
    cost: &mut CheckCost,
) -> Result<(), String> {
    let d: &Degradation = &exploration.degradation;
    check_degradation(&d.render(), d.is_clean(), may_cancel)?;
    match (&exploration.best, exploration.best_latency) {
        (Some(best), Some(latency)) => check_solution(graph, arch, best, latency.as_ns(), cost),
        (None, None) => Ok(()),
        _ => Err("best solution and best latency disagree".to_owned()),
    }
}

/// The deterministic result object `rtrd` serves for a finished job.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Best total latency, when a solution was found.
    pub latency_ns: Option<f64>,
    /// The solution in `Solution::to_text` form.
    pub solution: Option<String>,
    /// `Exploration::to_csv()` of the job.
    pub csv: String,
    /// Whether the degradation account is clean.
    pub clean: bool,
    /// The rendered degradation account.
    pub degradation: String,
    /// The exact bytes of the result object, compared across cache hits.
    pub bytes: String,
    /// Whether the server answered from its solve cache.
    pub cached: bool,
}

/// Parses a `GET /v1/jobs/<id>/result` response body.
///
/// # Errors
///
/// A failed job, or a body that is not a well-formed result.
pub fn parse_served(body: &str) -> Result<Served, String> {
    let value = parse_value(body).map_err(|e| format!("result is not JSON: {e}"))?;
    if value.get("state").and_then(JsonValue::as_str) != Some("done") {
        return Err(format!("job did not finish: {body}"));
    }
    let at = body.find("\"result\":").ok_or("no result object")?;
    let result = value.get("result").ok_or("no result object")?;
    let text = |key: &str| result.get(key).and_then(JsonValue::as_str).map(str::to_owned);
    Ok(Served {
        latency_ns: result.get("best_latency_ns").and_then(JsonValue::as_f64),
        solution: text("solution"),
        csv: text("csv").ok_or("result without csv")?,
        clean: matches!(result.get("clean"), Some(JsonValue::Bool(true))),
        degradation: text("degradation").ok_or("result without degradation")?,
        bytes: body[at..].to_owned(),
        cached: matches!(value.get("cached"), Some(JsonValue::Bool(true))),
    })
}

/// Checks a served result against the instance it answers.
///
/// # Errors
///
/// The first problem found.
pub fn check_served(
    graph: &TaskGraph,
    arch: &Architecture,
    served: &Served,
    may_cancel: bool,
    cost: &mut CheckCost,
) -> Result<(), String> {
    check_degradation(&served.degradation, served.clean, may_cancel)?;
    match (&served.solution, served.latency_ns) {
        (Some(text), Some(latency)) => {
            let solution = Solution::from_text(graph, text)
                .map_err(|e| format!("served solution does not parse: {e}"))?;
            check_solution(graph, arch, &solution, latency, cost)
        }
        (None, None) => Ok(()),
        _ => Err("served solution and latency disagree".to_owned()),
    }
}

/// Checks that a cache hit served exactly the bytes of the miss that
/// produced the entry.
///
/// # Errors
///
/// When the bytes differ.
pub fn check_hit(miss: &Served, hit: &Served) -> Result<(), String> {
    if miss.bytes == hit.bytes {
        Ok(())
    } else {
        Err("cache hit served different bytes than the miss that produced it".to_owned())
    }
}
