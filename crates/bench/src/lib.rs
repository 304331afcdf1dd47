//! Shared experiment harness for the evaluation binaries.
//!
//! `reproduce <artifact>` regenerates each committed `results/` table, the
//! `smoke` counter fixtures included; `runtime_comparison` writes
//! `BENCH_solver.json`. The paper's DCT configurations and the per-window
//! budgets live here so both binaries run the same setups. See
//! `DESIGN.md` (per-experiment index) and `EXPERIMENTS.md`
//! (paper-vs-measured record) at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rtr_core::{Architecture, Exploration, ExploreParams, IterationResult, SearchLimits};
use rtr_graph::{Area, Latency};
use rtr_trace::{write_value, Escaped, Instrument, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Configuration of one DCT experiment (one paper table).
#[derive(Debug, Clone, Copy)]
pub struct DctExperiment {
    /// Table number in the paper.
    pub table: u32,
    /// Device capacity `R_max`.
    pub r_max: u64,
    /// Reconfiguration time `C_T`.
    pub ct: Latency,
    /// Latency tolerance `δ` in ns.
    pub delta_ns: f64,
    /// Starting partition relaxation `α`.
    pub alpha: u32,
    /// Ending partition relaxation `γ`.
    pub gamma: u32,
}

impl DctExperiment {
    /// The configuration of paper Table `table`, one of the DCT Tables 3–8:
    /// two device sizes, a small (1 µs) and a large (10 ms) reconfiguration
    /// time, and δ = 200 ns on the small device, 800 or 100 ns on the
    /// large one.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not one of the paper's DCT tables.
    pub fn paper(table: u32) -> Self {
        let (small, large) = (Latency::from_us(1.0), Latency::from_ms(10.0));
        let (r_max, ct, delta_ns, alpha) = match table {
            3 => (576, small, 200.0, 0),
            4 => (576, large, 200.0, 0),
            5 => (1024, small, 800.0, 1),
            6 => (1024, large, 800.0, 0),
            7 => (1024, small, 100.0, 1),
            8 => (1024, large, 100.0, 0),
            _ => panic!("the paper's DCT tables are 3 to 8, not {table}"),
        };
        DctExperiment { table, r_max, ct, delta_ns, alpha, gamma: 1 }
    }

    /// The architecture of this experiment (`M_max` = 512 words throughout,
    /// comfortably above the DCT's peak demand so the memory constraint is
    /// present but non-binding, as in the paper).
    pub fn architecture(&self) -> Architecture {
        Architecture::new(Area::new(self.r_max), 512, self.ct)
    }

    /// The exploration parameters of this experiment: pure node budgets
    /// and no wall-clock cut-offs, so a committed table reproduces the
    /// same solve trace on any machine.
    pub fn params(&self) -> ExploreParams {
        ExploreParams {
            alpha: self.alpha,
            ..node_budget_params(self.delta_ns, self.gamma, TABLE_NODE_LIMIT)
        }
    }

    /// [`params`](Self::params) under the historical wall-clock deadlines
    /// (5 s per solve, 120 s per exploration). Faster on slow hosts but
    /// machine-dependent; selected by `runtime_comparison --deadline`.
    pub fn params_deadline(&self) -> ExploreParams {
        ExploreParams {
            limits: per_solve_limits_deadline(),
            time_budget: Some(Duration::from_secs(120)),
            ..self.params()
        }
    }
}

/// Exploration parameters under node budgets only: `node_limit` nodes per
/// `SolveModel()` call, no per-solve deadline and no exploration time
/// budget, so the solve trace is the same on every host.
pub fn node_budget_params(delta_ns: f64, gamma: u32, node_limit: u64) -> ExploreParams {
    ExploreParams {
        delta: Latency::from_ns(delta_ns),
        gamma,
        limits: SearchLimits { node_limit, time_limit: None },
        time_budget: None,
        ..Default::default()
    }
}

/// Per-`SolveModel()` node budget of the paper tables: enough to decide
/// the paper-scale windows, deterministic on any host. (40 M nodes
/// corresponds to roughly the historical 5 s deadline at the ~10 M
/// nodes/s the structured solver sustains on one core.)
pub const TABLE_NODE_LIMIT: u64 = 40_000_000;

/// [`TABLE_NODE_LIMIT`] as per-solve limits, with no deadline.
pub fn per_solve_limits() -> SearchLimits {
    SearchLimits { node_limit: TABLE_NODE_LIMIT, time_limit: None }
}

/// The wall-clock variant of [`per_solve_limits`]: the same node budget
/// plus the historical 5 s per-solve deadline. Opt-in (`--deadline`) for
/// hosts where 40 M nodes takes too long; the resulting tables depend on
/// machine speed.
pub fn per_solve_limits_deadline() -> SearchLimits {
    SearchLimits { node_limit: TABLE_NODE_LIMIT, time_limit: Some(Duration::from_secs(5)) }
}

/// An exploration's `SolveModel()` calls by outcome: `solves`, then
/// `feasible_windows`, `infeasible_windows` and `limit_windows`.
pub fn window_counts(ex: &Exploration) -> [(&'static str, u64); 4] {
    let count = |outcome: fn(&IterationResult) -> bool| {
        ex.records.iter().filter(|r| outcome(&r.result)).count() as u64
    };
    [
        ("solves", ex.records.len() as u64),
        ("feasible_windows", count(|r| matches!(r, IterationResult::Feasible { .. }))),
        ("infeasible_windows", count(|r| matches!(r, IterationResult::Infeasible))),
        ("limit_windows", count(|r| matches!(r, IterationResult::LimitReached))),
    ]
}

/// A machine-readable summary of a `runtime_comparison` run, written as
/// `BENCH_<name>.json` next to where the binary was invoked. Keys are kept
/// in sorted order so re-runs diff cleanly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchRun {
    name: String,
    metrics: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
}

impl BenchRun {
    /// An empty run summary named `name` (the `<name>` of
    /// `BENCH_<name>.json`).
    pub fn new(name: impl Into<String>) -> Self {
        BenchRun { name: name.into(), ..BenchRun::default() }
    }

    /// Records a real-valued measurement. Non-finite values are dropped
    /// (JSON has no representation for them).
    pub fn metric(&mut self, key: impl Into<String>, value: f64) {
        if value.is_finite() {
            self.metrics.insert(key.into(), value);
        }
    }

    /// Records an integer-valued measurement.
    pub fn counter(&mut self, key: impl Into<String>, value: u64) {
        self.counters.insert(key.into(), value);
    }

    /// Records the standard summary of an exploration under `prefix`
    /// (e.g. `prefix = "table3."`): solve counts by outcome, the best
    /// latency, and the backend solver totals.
    pub fn record_exploration(&mut self, prefix: &str, ex: &Exploration) {
        for (name, value) in window_counts(ex) {
            self.counter(format!("{prefix}{name}"), value);
        }
        if let Some(latency) = ex.best_latency {
            self.metric(format!("{prefix}best_latency_ns"), latency.as_ns());
        }
        let st = ex.structured_totals();
        if st.nodes > 0 {
            self.record_counters(&format!("{prefix}structured."), &st);
            // Search throughput: nodes over the wall-clock of the windows
            // that actually ran the structured solver.
            let solve_secs: f64 = ex
                .records
                .iter()
                .filter(|r| r.stats.structured.is_some())
                .map(|r| r.elapsed.as_secs_f64())
                .sum();
            if solve_secs > 0.0 {
                self.metric(
                    format!("{prefix}structured.nodes_per_sec"),
                    st.nodes as f64 / solve_secs,
                );
            }
        }
        let mt = ex.milp_totals();
        if mt.nodes > 0 {
            self.record_counters(&format!("{prefix}milp."), &mt);
            self.metric(format!("{prefix}milp.lp_time_us"), mt.lp_time.as_micros() as f64);
        }
    }

    /// Records every exact counter of `stats` (see [`Instrument`]) as
    /// `{prefix}{name}`.
    pub fn record_counters(&mut self, prefix: &str, stats: &impl Instrument) {
        for (name, value) in stats.counters() {
            self.counter(format!("{prefix}{name}"), value);
        }
    }

    /// The JSON document: `{"name": ..., "counters": {...}, "metrics": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"name\": \"{}\",\n", Escaped(&self.name));
        out.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {v}", Escaped(k)));
        }
        out.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": ", Escaped(k)));
            write_value(&mut out, &Value::F64(*v));
        }
        out.push_str(if self.metrics.is_empty() { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Writes `BENCH_<name>.json` into the current directory and returns
    /// its path.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = PathBuf::from(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// [`write`](Self::write), reporting the outcome on standard output /
    /// error instead of returning it.
    pub fn write_and_report(&self) {
        match self.write() {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("\ncannot write BENCH_{}.json: {e}", self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::{Backend, TemporalPartitioner};

    #[test]
    fn bench_run_json_shape() {
        let mut run = BenchRun::new("shape");
        run.counter("b.count", 3);
        run.counter("a.count", 1);
        run.metric("elapsed_ms", 12.5);
        run.metric("round", 7.0);
        run.metric("dropped", f64::NAN); // non-finite values are discarded
        let json = run.to_json();
        assert_eq!(
            json,
            "{\n  \"name\": \"shape\",\n  \"counters\": {\n    \"a.count\": 1,\n    \
             \"b.count\": 3\n  },\n  \"metrics\": {\n    \"elapsed_ms\": 12.5,\n    \
             \"round\": 7.0\n  }\n}\n"
        );
    }

    #[test]
    fn bench_run_json_escapes_and_empty_maps() {
        let run = BenchRun::new("quo\"te");
        let json = run.to_json();
        assert!(json.contains("\"quo\\\"te\""), "{json}");
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"metrics\": {}"), "{json}");
    }

    #[test]
    fn bench_run_records_exploration_counters() {
        let g = rtr_workloads::ar::ar_filter().expect("static construction");
        let arch =
            Architecture::new(Area::new(g.total_min_area().units() / 2), 64, Latency::from_us(1.0));
        let params = ExploreParams {
            delta: Latency::from_ns(50.0),
            gamma: 1,
            limits: per_solve_limits(),
            ..Default::default()
        };
        let part = TemporalPartitioner::new(&g, &arch, params).expect("tasks fit");
        let ex = part.explore().expect("exploration runs");
        let mut run = BenchRun::new("probe");
        run.record_exploration("x.", &ex);
        let json = run.to_json();
        assert!(json.contains("\"x.solves\""), "{json}");
        assert!(json.contains("\"x.structured.nodes\""), "{json}");
        assert!(json.contains("\"x.best_latency_ns\""), "{json}");
    }

    #[test]
    fn bench_run_files_milp_wall_time_as_a_metric() {
        let g = rtr_workloads::ar::ar_filter().expect("static construction");
        let arch =
            Architecture::new(Area::new(g.total_min_area().units() / 2), 64, Latency::from_us(1.0));
        let params = ExploreParams {
            delta: Latency::from_ns(20.0),
            gamma: 2,
            backend: Backend::Milp,
            ..Default::default()
        };
        let part = TemporalPartitioner::new(&g, &arch, params).expect("tasks fit");
        let ex = part.explore().expect("exploration runs");
        let mut run = BenchRun::new("probe");
        run.record_exploration("x.", &ex);
        assert!(run.metrics.contains_key("x.milp.lp_time_us"), "{}", run.to_json());
        assert!(!run.counters.contains_key("x.milp.lp_time_us"), "{}", run.to_json());
        // Every exact `SolveStats` counter is a BENCH counter, by its trace name.
        for (name, value) in ex.milp_totals().counters() {
            assert_eq!(run.counters.get(&format!("x.milp.{name}")), Some(&value), "{name}");
        }
    }

    #[test]
    fn experiment_configs_match_paper_parameters() {
        assert!((3..=8).all(|table| DctExperiment::paper(table).table == table));
        assert_eq!(DctExperiment::paper(3).r_max, 576);
        assert_eq!(DctExperiment::paper(4).ct, Latency::from_ms(10.0));
        assert_eq!(DctExperiment::paper(5).alpha, 1);
        assert_eq!(DctExperiment::paper(7).delta_ns, 100.0);
        assert_eq!(DctExperiment::paper(8).r_max, 1024);
        let params = DctExperiment::paper(3).params();
        assert_eq!((params.limits.time_limit, params.time_budget), (None, None));
    }
}
