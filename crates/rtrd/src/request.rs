//! The JSON job-request parser.
//!
//! A submit body describes one solve job: the task graph (in the `.tg`
//! text format of `rtr_graph::TaskGraph`), the device parameters, and the
//! exploration knobs. Parsing is strictly typed — every malformed input
//! maps to a [`RequestError`] variant, never a panic — because the body
//! arrives from the network and is the service's primary untrusted input
//! (the byte-mutation property suite in `tests/request_robustness.rs`
//! hammers exactly this entry point).
//!
//! ```json
//! {
//!   "graph": "<.tg text>",
//!   "arch": { "rmax": 576, "mmax": 512, "ct_ns": 1000.0,
//!             "env_policy": "resident", "dsp": [4, 2] },
//!   "params": { "delta_ns": 100.0, "alpha": 0, "gamma": 1,
//!               "backend": "structured", "strategy": "bisection",
//!               "solve_nodes": 200000, "solve_seconds": 5,
//!               "threads": 1, "deadline_ms": 5000 }
//! }
//! ```
//!
//! `arch.rmax`, `arch.ct_ns`, and `graph` are required; everything else
//! has the CLI's defaults. `gamma` may not exceed the graph's task count,
//! nor `threads` 64. `solve_nodes` swaps the per-window wall-clock
//! budget for a node budget (machine-independent, byte-reproducible — the
//! mode the solve cache wants). `deadline_ms` arms the per-job deadline
//! watchdog; expiry cancels the job cooperatively and the response carries
//! the best-so-far result with `degradation.cancelled = true`.

use rtr_core::{
    Architecture, Backend, EnvMemoryPolicy, ExploreParams, RefinementStrategy, SearchLimits,
    MAX_THREADS,
};
use rtr_graph::{Area, Latency, TaskGraph};
use rtr_trace::{parse_value, JsonValue};
use std::fmt;
use std::time::Duration;

/// Checks a thread count against [`MAX_THREADS`], the solver's ceiling:
/// a pool starts all of its threads up front. The `Err` says why the
/// count is refused. Shared by the daemon's `--workers`, a job's
/// `threads` and the CLI's `--threads`, so all of them refuse the same
/// counts.
pub fn check_threads(threads: u64) -> Result<usize, String> {
    match usize::try_from(threads) {
        Ok(threads) if threads <= MAX_THREADS => Ok(threads),
        _ => Err(format!("exceeds the ceiling of {MAX_THREADS}")),
    }
}

/// Checks the ending partition relaxation γ against the graph's task
/// count. The exploration allocates one entry per partition bound up to
/// `N_min^u + γ`; η never exceeds the task count, so a larger γ adds no
/// bound worth exploring, only memory. The `Err` says why γ is refused.
/// Shared by both front ends, like [`check_threads`].
pub fn check_gamma(gamma: u64, tasks: usize) -> Result<u32, String> {
    if gamma > tasks as u64 {
        return Err(format!("exceeds the graph's {tasks} tasks"));
    }
    u32::try_from(gamma).map_err(|_| "out of range".to_owned())
}

/// One parsed, validated solve job.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The task graph to partition.
    pub graph: TaskGraph,
    /// The target device.
    pub arch: Architecture,
    /// Exploration parameters (cancel latch installed by the job table).
    pub params: ExploreParams,
    /// Worker threads inside the solve (`1` = sequential, the
    /// byte-reproducible default).
    pub threads: usize,
    /// Wall-clock deadline; expiry cancels the job cooperatively.
    pub deadline: Option<Duration>,
}

/// Why a submit body was rejected. Every variant is a client error (HTTP
/// 400); the service never panics on request bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The body is not valid JSON.
    Json(String),
    /// The top-level value is not an object.
    NotAnObject,
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but has the wrong type or an invalid value.
    BadField {
        /// Dotted path of the offending field.
        field: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// The `.tg` graph text did not parse.
    Graph(String),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Json(e) => write!(f, "body is not valid JSON: {e}"),
            RequestError::NotAnObject => write!(f, "body must be a JSON object"),
            RequestError::MissingField(name) => write!(f, "missing required field `{name}`"),
            RequestError::BadField { field, detail } => {
                write!(f, "invalid field `{field}`: {detail}")
            }
            RequestError::Graph(e) => write!(f, "invalid task graph: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

fn bad(field: &'static str, detail: impl Into<String>) -> RequestError {
    RequestError::BadField { field, detail: detail.into() }
}

/// A number [`JsonValue::as_u64`] accepts.
fn get_u64(obj: &JsonValue, field: &'static str) -> Result<Option<u64>, RequestError> {
    match obj.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(value @ JsonValue::Num(v, _)) => match value.as_u64() {
            Some(n) => Ok(Some(n)),
            None => Err(bad(field, format!("expected a non-negative integer, got {v}"))),
        },
        Some(other) => Err(bad(field, format!("expected a number, got {}", kind(other)))),
    }
}

/// A non-negative float (the parser admits finite numbers only).
fn get_f64(obj: &JsonValue, field: &'static str) -> Result<Option<f64>, RequestError> {
    match obj.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Num(v, _)) => {
            if *v < 0.0 {
                return Err(bad(field, format!("expected a finite non-negative number, got {v}")));
            }
            Ok(Some(*v))
        }
        Some(other) => Err(bad(field, format!("expected a number, got {}", kind(other)))),
    }
}

fn get_str<'a>(obj: &'a JsonValue, field: &'static str) -> Result<Option<&'a str>, RequestError> {
    match obj.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Str(s)) => Ok(Some(s)),
        Some(other) => Err(bad(field, format!("expected a string, got {}", kind(other)))),
    }
}

fn kind(v: &JsonValue) -> &'static str {
    match v {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "a boolean",
        JsonValue::Num(..) => "a number",
        JsonValue::Str(_) => "a string",
        JsonValue::Arr(_) => "an array",
        JsonValue::Obj(_) => "an object",
    }
}

impl JobRequest {
    /// Parses and validates a submit body.
    ///
    /// # Errors
    ///
    /// A [`RequestError`] describing the first problem found; never panics
    /// on any input bytes.
    pub fn from_json(body: &str) -> Result<JobRequest, RequestError> {
        let value = parse_value(body).map_err(|e| RequestError::Json(e.to_string()))?;
        if !matches!(value, JsonValue::Obj(_)) {
            return Err(RequestError::NotAnObject);
        }

        let graph_text = get_str(&value, "graph")?.ok_or(RequestError::MissingField("graph"))?;
        let graph =
            TaskGraph::from_text(graph_text).map_err(|e| RequestError::Graph(e.to_string()))?;

        let arch_val = value.get("arch").ok_or(RequestError::MissingField("arch"))?;
        if !matches!(arch_val, JsonValue::Obj(_)) {
            return Err(bad("arch", format!("expected an object, got {}", kind(arch_val))));
        }
        let rmax = get_u64(arch_val, "rmax")?.ok_or(RequestError::MissingField("arch.rmax"))?;
        if rmax == 0 {
            return Err(bad("rmax", "a zero-area device admits no tasks"));
        }
        let mmax = get_u64(arch_val, "mmax")?.unwrap_or(512);
        let ct_ns = get_f64(arch_val, "ct_ns")?.ok_or(RequestError::MissingField("arch.ct_ns"))?;
        let env = match get_str(arch_val, "env_policy")?.unwrap_or("resident") {
            "resident" => EnvMemoryPolicy::Resident,
            "streamed" => EnvMemoryPolicy::Streamed,
            other => return Err(bad("env_policy", format!("unknown policy `{other}`"))),
        };
        let mut arch =
            Architecture::new(Area::new(rmax), mmax, Latency::from_ns(ct_ns)).with_env_policy(env);
        match arch_val.get("dsp") {
            None | Some(JsonValue::Null) => {}
            Some(JsonValue::Arr(items)) => {
                let caps = items.iter().map(|item| {
                    item.as_u64().ok_or_else(|| {
                        bad("dsp", format!("expected non-negative integers, got {}", kind(item)))
                    })
                });
                arch = arch.with_secondary_capacities(caps.collect::<Result<_, _>>()?);
            }
            Some(other) => {
                return Err(bad("dsp", format!("expected an array, got {}", kind(other))))
            }
        }

        // Exploration knobs, all optional with the CLI's defaults.
        let params_val = value.get("params").unwrap_or(&JsonValue::Null);
        if !matches!(params_val, JsonValue::Null | JsonValue::Obj(_)) {
            return Err(bad("params", format!("expected an object, got {}", kind(params_val))));
        }
        let delta = Latency::from_ns(get_f64(params_val, "delta_ns")?.unwrap_or(100.0));
        let alpha32 = get_u64(params_val, "alpha")?.unwrap_or(0);
        let alpha = u32::try_from(alpha32).map_err(|_| bad("alpha", "out of range"))?;
        let gamma = check_gamma(get_u64(params_val, "gamma")?.unwrap_or(1), graph.task_count())
            .map_err(|e| bad("gamma", e))?;
        let backend = match get_str(params_val, "backend")?.unwrap_or("structured") {
            "structured" => Backend::Structured,
            "milp" => Backend::Milp,
            other => return Err(bad("backend", format!("unknown backend `{other}`"))),
        };
        let strategy = match get_str(params_val, "strategy")?.unwrap_or("bisection") {
            "bisection" => RefinementStrategy::Bisection,
            "aggressive" => RefinementStrategy::AggressiveDescent,
            other => return Err(bad("strategy", format!("unknown strategy `{other}`"))),
        };
        let limits = match get_u64(params_val, "solve_nodes")? {
            Some(node_limit) => SearchLimits { node_limit, time_limit: None },
            None => SearchLimits {
                node_limit: 40_000_000,
                time_limit: Some(Duration::from_secs(
                    get_u64(params_val, "solve_seconds")?.unwrap_or(5),
                )),
            },
        };
        let threads = check_threads(get_u64(params_val, "threads")?.unwrap_or(1).max(1))
            .map_err(|e| bad("threads", e))?;
        let deadline = get_u64(params_val, "deadline_ms")?.map(Duration::from_millis);

        let params = ExploreParams {
            delta,
            alpha,
            gamma,
            backend,
            strategy,
            limits,
            ..ExploreParams::default()
        };
        Ok(JobRequest { graph, arch, params, threads, deadline })
    }
}
