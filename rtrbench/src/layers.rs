//! Per-layer metrics shared by the traced runs: what the search,
//! structured, milp, model, sched and checkpoint layers did, read from
//! public results and status-board deltas, plus re-timed calls into the
//! layers' public functions.

use crate::report::Outcome;
use crate::stats::{median, share};
use crate::trace::Ledger;
use rtr_core::checkpoint::atomic_durable_write;
use rtr_core::model::IlpModel;
use rtr_core::{Architecture, Checkpoint, Exploration, ExploreParams, IterationResult};
use rtr_graph::TaskGraph;
use rtr_trace::StatusSnapshot;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One exploration of a traced pass and what the benchmark measured
/// around it.
#[derive(Debug)]
pub struct Explored<'a> {
    /// The instance.
    pub graph: &'a TaskGraph,
    /// The device.
    pub arch: &'a Architecture,
    /// The parameters it was explored under.
    pub params: &'a ExploreParams,
    /// The result.
    pub exploration: &'a Exploration,
    /// Seconds in the explore call.
    pub explore_s: f64,
    /// Seconds of window time seen through the observer callback, or
    /// `None` on the pool path, which does not call the observer.
    pub observed_window_s: Option<f64>,
}

/// Records the `search.*`, `structured.*` and `milp.*` counters and rates
/// of one traced pass run on `threads` pool threads.
pub fn search_metrics(outcome: &mut Outcome, runs: &[Explored<'_>], threads: usize) {
    let records = || runs.iter().flat_map(|r| &r.exploration.records);
    let count = |pred: fn(&IterationResult) -> bool| records().filter(|r| pred(&r.result)).count();
    let windows = records().count();
    let limit = count(|r| matches!(r, IterationResult::LimitReached));
    let mut set = |name: &str, value: f64, unit: &str| outcome.set(name, value, unit, windows);
    set("search.windows", windows as f64, "count");
    set(
        "search.feasible_windows",
        count(|r| matches!(r, IterationResult::Feasible { .. })) as f64,
        "count",
    );
    set(
        "search.infeasible_windows",
        count(|r| matches!(r, IterationResult::Infeasible)) as f64,
        "count",
    );
    set("search.limit_windows", limit as f64, "count");
    set("search.undecided_frac", share(limit as f64, windows as f64), "frac");

    // Where the program honours the observer, window time is what the
    // callback timestamps cover; on the pool path it is the program's own
    // `IterationRecord::elapsed`, summed over the pool's thread-seconds.
    let explore_s: f64 = runs.iter().map(|r| r.explore_s).sum();
    let reported_s: f64 = records().map(|r| r.elapsed.as_secs_f64()).sum();
    let window_frac = match runs.iter().map(|r| r.observed_window_s).sum::<Option<f64>>() {
        Some(observed) => share(observed, explore_s),
        None => share(reported_s, explore_s * threads as f64),
    };
    set("search.window_time_frac", window_frac, "frac");
    let window_s: Vec<f64> = records().map(|r| r.elapsed.as_secs_f64()).collect();
    outcome.set_timing("search.window", &window_s, "ms", 1e3, true);

    let backend_window_s = |structured: bool| -> f64 {
        records()
            .filter(|r| r.stats.structured.is_some() == structured)
            .map(|r| r.elapsed.as_secs_f64())
            .sum()
    };
    let mut st = rtr_core::SearchStats::default();
    let mut mt = rtr_milp::SolveStats::default();
    for r in runs {
        st.absorb(&r.exploration.structured_totals());
        mt.absorb(&r.exploration.milp_totals());
    }
    let mut set = |name: &str, value: f64, unit: &str| outcome.set(name, value, unit, windows);
    let nodes = st.nodes as f64;
    set("structured.nodes", nodes, "count");
    set("structured.nodes_per_s", share(nodes, backend_window_s(true)), "1/s");
    set("structured.latency_prunes", st.latency_prunes as f64, "count");
    set("structured.area_prunes", st.area_prunes as f64, "count");
    set("structured.dominance_prunes", st.dominance_prunes as f64, "count");
    set("structured.memory_rejects", st.memory_rejects as f64, "count");
    set("structured.incumbent_updates", st.incumbent_updates as f64, "count");
    let prunes = st.latency_prunes + st.area_prunes + st.dominance_prunes + st.memory_rejects;
    set("structured.prune_ratio", share(prunes as f64, nodes), "frac");
    let deep = st.nodes_by_depth[6] + st.nodes_by_depth[7];
    set("structured.deep_node_frac", share(deep as f64, nodes), "frac");

    let milp_s = backend_window_s(false);
    set("milp.nodes", mt.nodes as f64, "count");
    set("milp.nodes_pruned", mt.nodes_pruned as f64, "count");
    set("milp.pivots", mt.simplex_iterations as f64, "count");
    set("milp.pivots_per_s", share(mt.simplex_iterations as f64, milp_s), "1/s");
    set("milp.lp_time_frac", share(mt.lp_time.as_secs_f64(), milp_s), "frac");
    set("milp.cuts_generated", mt.cuts_generated as f64, "count");
    set("milp.warm_starts", mt.warm_starts as f64, "count");
    set("milp.cold_starts", mt.cold_starts as f64, "count");
    set("milp.refactorizations", mt.refactorizations as f64, "count");
    set("milp.pivots_saved", mt.pivots_saved as f64, "count");
}

/// Records `model.build_us` and `milp.presolve_us`: `IlpModel::build`
/// (once per partition bound, as the search builds it) and
/// `rtr_milp::presolve` (once per window), re-timed on every milp window of
/// the pass.
pub fn model_metrics(outcome: &mut Outcome, runs: &[Explored<'_>]) {
    let (mut build_us, mut presolve_us) = (Vec::new(), Vec::new());
    for run in runs {
        let mut models: BTreeMap<u32, Option<IlpModel>> = BTreeMap::new();
        for r in run.exploration.records.iter().filter(|r| r.stats.milp.is_some()) {
            let model = models.entry(r.n).or_insert_with(|| {
                let t = Instant::now();
                let options = &run.params.model_options;
                let built = IlpModel::build(run.graph, run.arch, r.n, r.d_max, r.d_min, options);
                build_us.push(t.elapsed().as_secs_f64() * 1e6);
                built.ok()
            });
            if let Some(ilp) = model {
                ilp.set_latency_window(r.d_max, r.d_min);
                let t = Instant::now();
                std::hint::black_box(rtr_milp::presolve(ilp.model()));
                presolve_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    outcome.set("model.build_us", median(&build_us), "us", build_us.len());
    outcome.set("milp.presolve_us", median(&presolve_us), "us", presolve_us.len());
}

/// Records the `checkpoint.*` metrics: encoding, decoding and durably
/// writing each checkpoint through the public functions. Returns the keys
/// of checkpoints that did not round-trip or could not be written.
pub fn checkpoint_metrics(
    outcome: &mut Outcome,
    checkpoints: &[(String, Checkpoint)],
    dir: &Path,
) -> Vec<(String, String)> {
    let path = dir.join("checkpoint-probe.json");
    let (mut bytes, mut encode, mut decode, mut write) = (vec![], vec![], vec![], vec![]);
    let mut failures = Vec::new();
    for (key, checkpoint) in checkpoints {
        let t = Instant::now();
        let text = checkpoint.to_json();
        encode.push(t.elapsed().as_secs_f64());
        bytes.push(text.len() as f64);
        let t = Instant::now();
        let decoded = Checkpoint::from_json(&text);
        decode.push(t.elapsed().as_secs_f64());
        if decoded.as_ref() != Ok(checkpoint) {
            failures.push((key.clone(), "checkpoint does not round-trip".to_owned()));
        }
        let t = Instant::now();
        if let Err(e) = atomic_durable_write(&path, text.as_bytes()) {
            failures.push((key.clone(), format!("checkpoint write failed: {e}")));
        }
        write.push(t.elapsed().as_secs_f64());
    }
    let n = checkpoints.len();
    let micros = |v: &[f64]| median(&v.iter().map(|s| s * 1e6).collect::<Vec<_>>());
    outcome.set("checkpoint.bytes", median(&bytes), "bytes", n);
    outcome.set("checkpoint.encode_us", micros(&encode), "us", n);
    outcome.set("checkpoint.decode_us", micros(&decode), "us", n);
    if n > 0 {
        outcome.set_timing("checkpoint.write", &write, "us", 1e6, true);
    }
    failures
}

/// Records the `sched.*` status-board deltas of a traced pass and the
/// measured speed-up of its pool over one thread.
pub fn sched_metrics(
    outcome: &mut Outcome,
    before: &StatusSnapshot,
    after: &StatusSnapshot,
    speedup: f64,
) {
    let delta = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let mut set = |name: &str, value: f64| outcome.set(name, value, "count", 1);
    set("sched.jobs", delta(after.sched_jobs, before.sched_jobs));
    set("sched.batches", delta(after.sched_batches, before.sched_batches));
    set("sched.nested_batches", delta(after.sched_nested_batches, before.sched_nested_batches));
    set("sched.steals", delta(after.sched_steals, before.sched_steals));
    set("sched.idle_parks", delta(after.sched_idle_parks, before.sched_idle_parks));
    set("sched.lost_jobs", delta(after.sched_lost_jobs, before.sched_lost_jobs));
    outcome.set("sched.speedup", speedup, "ratio", 1);
}

/// Records the tracing metrics: the traced wall time, the share the
/// ledger's residual takes, how far the ledger is from adding up, the
/// overhead of the traced passes over the untraced ones, and the span
/// count.
pub fn trace_metrics(outcome: &mut Outcome, ledger: &Ledger, overhead_frac: f64, spans: usize) {
    outcome.set("trace.wall_s", ledger.wall_s, "s", 1);
    outcome.set("trace.residual_frac", share(ledger.residual_s, ledger.wall_s), "frac", 1);
    outcome.set("trace.gap_frac", ledger.gap(), "frac", 1);
    outcome.set("trace.overhead_frac", overhead_frac, "frac", 1);
    outcome.set("trace.spans", spans as f64, "count", spans);
}

/// The check layer's cost per checked solution.
pub fn check_metrics(outcome: &mut Outcome, cost: &crate::check::CheckCost) {
    let n = cost.checked.max(1) as f64;
    outcome.set("check.validate_us", cost.validate.as_secs_f64() * 1e6 / n, "us", cost.checked);
    outcome.set("check.sim_us", cost.simulate.as_secs_f64() * 1e6 / n, "us", cost.checked);
}
