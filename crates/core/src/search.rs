//! The iterative latency-refinement and partition-space searches
//! (paper §3.2, Figures 1 and 2).

use crate::arch::Architecture;
use crate::bounds::{max_area_partitions, max_latency, min_area_partitions, min_latency};
use crate::checkpoint::{
    fnv1a, Checkpoint, CheckpointPolicy, CheckpointRecord, CheckpointResult, CheckpointSink,
};
use crate::error::PartitionError;
use crate::model::{IlpModel, ModelOptions};
use crate::solution::Solution;
use crate::structured::{SearchGoal, SearchLimits, SearchOutcome, StructuredSolver};
use rtr_graph::{Latency, TaskGraph};
use rtr_milp::SolveOptions;
use rtr_trace::Instrument as _;
use rtr_trace::{CancelFlag, Metric};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// `sched.job` failpoint namespace for phase-2 candidate batches, disjoint
/// from the intra-window subtree batches (which use key namespace `0`) so
/// seeded faults draw independent decisions per batch kind.
const CANDIDATE_FAIL_KEY: u64 = 1 << 62;

/// The most threads one search runs on: a pool starts all of its threads
/// up front, so every thread count is capped here (see [`resolve_threads`]).
pub const MAX_THREADS: usize = 64;

/// The thread count a search asked for `threads` runs on, for both
/// parallel layers ([`TemporalPartitioner::explore_parallel`] and
/// [`StructuredSolver::run_parallel`]): `0` means auto — the `RTR_THREADS`
/// environment variable if it parses to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 if that is unknown) — and
/// every count is capped at [`MAX_THREADS`].
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => auto_threads(
            std::env::var("RTR_THREADS").ok().as_deref(),
            std::thread::available_parallelism().ok().map(std::num::NonZeroUsize::get),
        ),
        threads => threads.min(MAX_THREADS),
    }
}

/// The auto thread count from an `RTR_THREADS` value and the CPU count.
fn auto_threads(env: Option<&str>, cpus: Option<usize>) -> usize {
    let from_env = env.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n >= 1);
    from_env.or(cpus).unwrap_or(1).min(MAX_THREADS)
}

/// One evaluated phase-2 candidate bound of `Refine_Partitions_Bound`: its
/// record stream, captured trace events (none when evaluated inline), and
/// degradation account, replayed by the merge in ascending-`N` order. A
/// bound nobody evaluated — the time budget expired first, or a smaller
/// bound already dominated it — has no run, and the merge stops there,
/// exactly where the paper's loop stops.
struct CandidateRun {
    records: Vec<IterationRecord>,
    found: Option<(Solution, Latency)>,
    events: Vec<rtr_trace::Event>,
    error: Option<PartitionError>,
    degradation: Degradation,
}

/// One piece of the search the resilience layer abandoned after its panic
/// retries ran out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LostSubtree {
    /// The failpoint site that isolated the lost unit: `explore.window`
    /// for a window solve, `sched.job` for a pooled candidate bound or a
    /// window's subtree job.
    pub site: &'static str,
    /// Partition bound of the lost work.
    pub n: u32,
    /// Iteration within the bound; `0` when a whole candidate bound was
    /// lost rather than a single window.
    pub iteration: u32,
}

/// Honest account of what an exploration skipped while surviving worker
/// panics and checkpoint failures. With fault injection off and no bugs
/// triggered, every field is zero ([`is_clean`](Self::is_clean)) and the
/// exploration's outputs are bit-identical to a build without the
/// resilience layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Worker panics caught and contained (never propagated to callers).
    pub panics_caught: u64,
    /// Panicked jobs retried with the shared incumbent intact.
    pub jobs_retried: u64,
    /// Jobs abandoned after their retries ran out; their subtrees went
    /// unexplored, so the result is best-so-far, not exhaustive.
    pub subtrees_lost: u64,
    /// Checkpoint writes that failed (and were deferred to the next
    /// interval) — see [`CheckpointPolicy`].
    pub checkpoint_failures: u64,
    /// One entry per abandoned subtree, in the deterministic merge order.
    pub lost: Vec<LostSubtree>,
    /// The exploration was cooperatively cancelled (user request or
    /// service deadline) before the search ran to completion; the result
    /// is the best-so-far incumbent, not an exhaustive answer.
    pub cancelled: bool,
}

impl Degradation {
    /// `true` when nothing was caught, retried, lost, or deferred — the
    /// exploration behaved exactly as if the resilience layer were absent.
    pub fn is_clean(&self) -> bool {
        self.panics_caught == 0
            && self.jobs_retried == 0
            && self.subtrees_lost == 0
            && self.checkpoint_failures == 0
            && self.lost.is_empty()
            && !self.cancelled
    }

    /// Records one unit abandoned at `site` after its retries ran out.
    fn lose(&mut self, site: &'static str, n: u32, iteration: u32) {
        self.subtrees_lost += 1;
        self.lost.push(LostSubtree { site, n, iteration });
    }

    /// Accumulates another account into this one (counters add, lost
    /// subtrees append in order).
    fn absorb(&mut self, other: Degradation) {
        self.panics_caught += other.panics_caught;
        self.jobs_retried += other.jobs_retried;
        self.subtrees_lost += other.subtrees_lost;
        self.checkpoint_failures += other.checkpoint_failures;
        self.lost.extend(other.lost);
        self.cancelled |= other.cancelled;
    }

    /// Renders the account as a short, deterministic human-readable block
    /// (one header plus one line per lost subtree).
    pub fn render(&self) -> String {
        let mut out = format!(
            "degraded: panics_caught={} jobs_retried={} subtrees_lost={} checkpoint_failures={} cancelled={}",
            self.panics_caught,
            self.jobs_retried,
            self.subtrees_lost,
            self.checkpoint_failures,
            self.cancelled
        );
        for lost in &self.lost {
            out.push_str(&format!(
                "\n  lost {} at N={} iteration={}",
                lost.site, lost.n, lost.iteration
            ));
        }
        out.push('\n');
        out
    }
}

/// Per-exploration resilience context threaded through the solve loops: a
/// read-only cache of checkpointed window solves to replay, and a sink to
/// stream completed windows into. Both absent on the plain
/// [`TemporalPartitioner::explore`] paths.
#[derive(Clone, Copy, Default)]
struct RunCtx<'a> {
    resume: Option<&'a BTreeMap<(u32, u32), CheckpointRecord>>,
    sink: Option<&'a CheckpointSink>,
}

/// Per-partition-bound warm-start state of the milp backend inside
/// `Reduce_Latency`: the ILP built once for the bound plus the root basis
/// of the latest solve, carried into the next (RHS-only-different) window.
struct MilpSession {
    ilp: IlpModel,
    basis: Option<rtr_milp::Basis>,
}

/// Which constraint-satisfaction engine `SolveModel()` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The specialized branch-and-bound of [`crate::structured`] — the
    /// scalable default (handles the paper's 32-task DCT).
    #[default]
    Structured,
    /// The faithful ILP formulation of [`crate::model`] solved by
    /// `rtr-milp` — the paper's CPLEX path; practical for small task graphs.
    Milp,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Structured => "structured",
            Backend::Milp => "milp",
        })
    }
}

/// How `Reduce_Latency` tightens the window after a feasible solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefinementStrategy {
    /// Binary subdivision between the proven lower bound and the achieved
    /// latency — the paper's Figure 1 (default).
    #[default]
    Bisection,
    /// Aggressive descent: each round demands an improvement of at least
    /// `δ` (`D_max ← D_a − δ`) and stops at the first failure. Fewer
    /// solves, but a single hard window ends the refinement; measured by
    /// the `ablation_strategy` bench.
    AggressiveDescent,
}

impl fmt::Display for RefinementStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RefinementStrategy::Bisection => "bisection",
            RefinementStrategy::AggressiveDescent => "aggressive-descent",
        })
    }
}

/// Parameters of the exploration, mirroring the paper's user knobs.
#[derive(Debug, Clone)]
pub struct ExploreParams {
    /// Latency tolerance `δ`: the binary subdivision stops when the window
    /// shrinks below this.
    pub delta: Latency,
    /// Starting partition relaxation `α`: exploration starts at
    /// `N_min^l + α`.
    pub alpha: u32,
    /// Ending partition relaxation `γ`: exploration stops at `N_min^u + γ`.
    pub gamma: u32,
    /// Constraint-satisfaction backend.
    pub backend: Backend,
    /// Per-solve limits (structured backend).
    pub limits: SearchLimits,
    /// ILP model options (milp backend).
    pub model_options: ModelOptions,
    /// Per-solve limits (milp backend).
    pub milp_options: SolveOptions,
    /// Overall wall-clock budget — the paper's `TimeExpired()`.
    pub time_budget: Option<Duration>,
    /// Window-tightening strategy of `Reduce_Latency`.
    pub strategy: RefinementStrategy,
    /// Worker threads *inside* each structured window solve
    /// ([`StructuredSolver::run_parallel`]): `1` runs each window's whole
    /// tree as one job on the calling thread, and other counts resolve via
    /// [`resolve_threads`] (`0` = `RTR_THREADS` / available parallelism).
    /// Results are bit-identical at any value (limit-fired solves are
    /// best-effort, as with wall-clock limits at one thread), so this
    /// composes freely with [`TemporalPartitioner::explore_parallel`].
    /// Nesting the two never multiplies thread counts: window subtree jobs
    /// join the exploration's work-stealing pool instead of starting their
    /// own.
    pub solver_threads: usize,
    /// Dominance-memoization table bound for the structured backend
    /// (`0` disables; [`crate::structured::DEFAULT_MEMO_LIMIT`] by
    /// default). A window that finishes within its budget decides the
    /// same way at any bound, only its node count changes; a window that
    /// ends on its budget can end differently, because the memo moves
    /// where the budget falls.
    pub memo_limit: usize,
    /// Cooperative cancellation latch, polled wherever the time budget is
    /// (phase loops, the structured solver's node cadence, the milp
    /// branch-and-bound head). Cancelling returns the best-so-far result
    /// through the normal limit paths and marks
    /// [`Degradation::cancelled`]. Run-state, not configuration: excluded
    /// from the checkpoint/cache fingerprint.
    pub cancel: CancelFlag,
}

impl Default for ExploreParams {
    fn default() -> Self {
        ExploreParams {
            delta: Latency::from_ns(100.0),
            alpha: 0,
            gamma: 1,
            backend: Backend::default(),
            limits: SearchLimits::default(),
            model_options: ModelOptions::default(),
            milp_options: SolveOptions::feasibility(),
            time_budget: Some(Duration::from_secs(600)),
            strategy: RefinementStrategy::default(),
            solver_threads: 1,
            memo_limit: crate::structured::DEFAULT_MEMO_LIMIT,
            cancel: CancelFlag::new(),
        }
    }
}

/// Outcome of one `SolveModel()` call.
#[derive(Debug, Clone, PartialEq)]
pub enum IterationResult {
    /// A constraint-satisfying solution with its recomputed latency.
    Feasible {
        /// `CalculateSolnLatency()` of the solution found.
        latency: Latency,
        /// Partitions actually used by that solution (`η ≤ N`).
        eta: u32,
    },
    /// The window was proven empty.
    Infeasible,
    /// A node/time limit fired before the window was decided; the search
    /// treats it like an infeasible window (it can only forgo improvements,
    /// never produce invalid output).
    LimitReached,
}

/// Backend solver statistics of one `SolveModel()` window. Exactly one of
/// the two options is populated, matching [`ExploreParams::backend`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowStats {
    /// Branch-and-bound statistics (milp backend).
    pub milp: Option<rtr_milp::SolveStats>,
    /// Structured-search statistics, summed over the (up to two) ordering
    /// attempts spent on this window (structured backend).
    pub structured: Option<crate::structured::SearchStats>,
}

/// One row of the paper's result tables: the window solved, the iteration
/// index, and what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Partition bound `N` of this solve.
    pub n: u32,
    /// Iteration index `I` within this `N` (1-based).
    pub iteration: u32,
    /// Window upper bound `D_max` (absolute, including `N·C_T`).
    pub d_max: Latency,
    /// Window lower bound `D_min` (absolute, including `N·C_T`).
    pub d_min: Latency,
    /// What `SolveModel()` returned.
    pub result: IterationResult,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
    /// Backend solver statistics of this window.
    pub stats: WindowStats,
}

impl IterationRecord {
    /// `D_max` with the `N·C_T` reconfiguration overhead subtracted — the
    /// "Bound (without N×C_T)" column of the paper's tables.
    pub fn d_max_execution(&self, arch: &Architecture) -> Latency {
        self.d_max.saturating_sub(arch.reconfig_time() * self.n)
    }

    /// `D_min` with the `N·C_T` overhead subtracted.
    pub fn d_min_execution(&self, arch: &Architecture) -> Latency {
        self.d_min.saturating_sub(arch.reconfig_time() * self.n)
    }
}

/// Result of a full partition-space exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The best solution found, if any.
    pub best: Option<Solution>,
    /// Its total latency.
    pub best_latency: Option<Latency>,
    /// Every `SolveModel()` call, in order — the rows of the paper's tables.
    pub records: Vec<IterationRecord>,
    /// `N_min^l` for this instance.
    pub n_min_lower: u32,
    /// `N_min^u` for this instance.
    pub n_min_upper: u32,
    /// What the resilience layer caught, retried, or gave up on — all-zero
    /// ([`Degradation::is_clean`]) unless workers panicked or checkpoint
    /// writes failed.
    pub degradation: Degradation,
}

impl Exploration {
    /// Records grouped by partition bound, preserving order.
    pub fn records_for(&self, n: u32) -> impl Iterator<Item = &IterationRecord> {
        self.records.iter().filter(move |r| r.n == n)
    }

    /// Sum of the MILP branch-and-bound statistics over every recorded
    /// `SolveModel()` call (all-zero under the structured backend). These
    /// totals are what a trace report's `milp.*` counters aggregate to.
    pub fn milp_totals(&self) -> rtr_milp::SolveStats {
        let mut total = rtr_milp::SolveStats::default();
        for r in &self.records {
            if let Some(s) = &r.stats.milp {
                total.absorb(s);
            }
        }
        total
    }

    /// Sum of the structured-search statistics over every recorded
    /// `SolveModel()` call (all-zero under the milp backend).
    pub fn structured_totals(&self) -> crate::structured::SearchStats {
        // Neutral element for `absorb`, whose `exhausted` is an AND.
        let mut total = crate::structured::SearchStats { exhausted: true, ..Default::default() };
        for r in &self.records {
            if let Some(s) = &r.stats.structured {
                total.absorb(s);
            }
        }
        total
    }

    /// Serializes the refinement log as CSV (one row per `SolveModel()`
    /// call), convenient for plotting the paper-style tables.
    ///
    /// Columns: `n, iteration, d_min_ns, d_max_ns, result, latency_ns,
    /// eta`. `latency_ns` and `eta` are empty for infeasible rows.
    ///
    /// The output is deterministic: it carries no timing, so two
    /// explorations that made the same decisions serialize byte-identically
    /// regardless of machine load or thread count — the contract
    /// `tests/parallel_determinism.rs` locks in for
    /// [`TemporalPartitioner::explore_parallel`]. Use
    /// [`to_csv_timed`](Self::to_csv_timed) when per-solve wall-clock
    /// matters more than reproducibility.
    pub fn to_csv(&self) -> String {
        self.csv(false)
    }

    /// [`to_csv`](Self::to_csv) with a trailing `elapsed_us` column holding
    /// each solve's wall-clock time (not deterministic across runs).
    pub fn to_csv_timed(&self) -> String {
        self.csv(true)
    }

    fn csv(&self, timed: bool) -> String {
        let mut out = String::from("n,iteration,d_min_ns,d_max_ns,result,latency_ns,eta");
        if timed {
            out.push_str(",elapsed_us");
        }
        out.push('\n');
        for r in &self.records {
            let (result, latency, eta) = match &r.result {
                IterationResult::Feasible { latency, eta } => {
                    ("feasible", format!("{}", latency.as_ns()), eta.to_string())
                }
                IterationResult::Infeasible => ("infeasible", String::new(), String::new()),
                IterationResult::LimitReached => ("limit", String::new(), String::new()),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{}",
                r.n,
                r.iteration,
                r.d_min.as_ns(),
                r.d_max.as_ns(),
                result,
                latency,
                eta,
            ));
            if timed {
                out.push_str(&format!(",{}", r.elapsed.as_micros()));
            }
            out.push('\n');
        }
        out
    }
}

/// Emits one structured `search.iteration` trace event for `record` — the
/// streaming twin of the CSV row produced by [`Exploration::to_csv`]. The
/// `n` and `result` fields feed the run report's iterations-per-`N` and
/// window-outcome rollups.
fn emit_iteration_event(record: &IterationRecord) {
    // Publish the window outcome (and any improved latency) on the live
    // status board. This is a relaxed-atomic side effect, invisible to the
    // trace stream, so it runs even while events are being captured.
    let board = rtr_trace::status::board();
    match &record.result {
        IterationResult::Feasible { latency, .. } => {
            board.add(Metric::WindowsFeasible, 1);
            board.record_incumbent(latency.as_ns());
        }
        IterationResult::Infeasible => board.add(Metric::WindowsInfeasible, 1),
        IterationResult::LimitReached => board.add(Metric::WindowsLimit, 1),
    }
    rtr_trace::event("search.iteration", || {
        let mut fields: Vec<(String, rtr_trace::Value)> = vec![
            ("n".to_owned(), u64::from(record.n).into()),
            ("iteration".to_owned(), u64::from(record.iteration).into()),
            ("d_min_ns".to_owned(), record.d_min.as_ns().into()),
            ("d_max_ns".to_owned(), record.d_max.as_ns().into()),
            ("elapsed_us".to_owned(), record.elapsed.into()),
        ];
        match &record.result {
            IterationResult::Feasible { latency, eta } => {
                fields.push(("result".to_owned(), "feasible".into()));
                fields.push(("latency_ns".to_owned(), latency.as_ns().into()));
                fields.push(("eta".to_owned(), u64::from(*eta).into()));
            }
            IterationResult::Infeasible => {
                fields.push(("result".to_owned(), "infeasible".into()));
            }
            IterationResult::LimitReached => {
                fields.push(("result".to_owned(), "limit".into()));
            }
        }
        fields
    });
}

/// The temporal partitioning and design-space-exploration system.
///
/// # Examples
///
/// ```
/// use rtr_core::{TemporalPartitioner, Architecture, ExploreParams};
/// use rtr_graph::{TaskGraphBuilder, DesignPoint, Area, Latency};
///
/// # fn main() -> Result<(), rtr_core::PartitionError> {
/// let mut b = TaskGraphBuilder::new();
/// let a = b.add_task("a")
///     .design_point(DesignPoint::new("s", Area::new(50), Latency::from_ns(300.0)))
///     .design_point(DesignPoint::new("f", Area::new(90), Latency::from_ns(150.0)))
///     .finish();
/// let c = b.add_task("c")
///     .design_point(DesignPoint::new("s", Area::new(60), Latency::from_ns(250.0)))
///     .finish();
/// b.add_edge(a, c, 2).expect("fresh edge");
/// let graph = b.build().expect("valid graph");
///
/// let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(50.0));
/// let partitioner = TemporalPartitioner::new(&graph, &arch, ExploreParams::default())?;
/// let exploration = partitioner.explore()?;
/// let best = exploration.best.expect("this instance is feasible");
/// assert!(exploration.best_latency.unwrap() <= Latency::from_ns(600.0));
/// assert_eq!(best.partitions_used(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TemporalPartitioner<'g> {
    graph: &'g TaskGraph,
    arch: &'g Architecture,
    params: ExploreParams,
}

impl<'g> TemporalPartitioner<'g> {
    /// Creates a partitioner after checking that every task can fit the
    /// device at all and that every window it would explore has a finite
    /// latency bound.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::TaskTooLarge`] if some task's smallest
    /// design point exceeds `R_max`, and
    /// [`PartitionError::LatencyOverflow`] if `MaxLatency(N)` at the
    /// largest bound `N` the exploration would try is not finite.
    pub fn new(
        graph: &'g TaskGraph,
        arch: &'g Architecture,
        mut params: ExploreParams,
    ) -> Result<Self, PartitionError> {
        for task in graph.tasks() {
            if !task.design_points().iter().any(|dp| arch.admits(dp)) {
                return Err(PartitionError::TaskTooLarge {
                    task: task.name().to_owned(),
                    min_area: task.min_area_point().area().units(),
                    capacity: arch.resource_capacity().units(),
                });
            }
        }
        // One latch for the whole exploration: milp window solves poll the
        // same flag as the phase loops, so a single `cancel()` reaches
        // every layer.
        params.milp_options.cancel = params.cancel.clone();
        let partitioner = TemporalPartitioner { graph, arch, params };
        let n_cap = partitioner.n_cap();
        if !max_latency(graph, arch, n_cap).as_ns().is_finite() {
            return Err(PartitionError::LatencyOverflow { n: n_cap });
        }
        Ok(partitioner)
    }

    /// The largest partition bound the exploration tries:
    /// `max(N_min^u, N_min^l) + γ`.
    fn n_cap(&self) -> u32 {
        let n_min_lower = min_area_partitions(self.graph, self.arch);
        let n_min_upper = max_area_partitions(self.graph, self.arch);
        n_min_upper.max(n_min_lower).saturating_add(self.params.gamma)
    }

    /// The task graph being partitioned.
    pub fn graph(&self) -> &TaskGraph {
        self.graph
    }

    /// The target architecture.
    pub fn arch(&self) -> &Architecture {
        self.arch
    }

    /// The exploration parameters.
    pub fn params(&self) -> &ExploreParams {
        &self.params
    }

    /// One `SolveModel()` call: find any solution with total latency in
    /// `[d_min, d_max]` under partition bound `n`.
    ///
    /// # Errors
    ///
    /// Propagates model-building or MILP failures (milp backend only).
    pub fn solve_window(
        &self,
        n: u32,
        d_max: Latency,
        d_min: Latency,
    ) -> Result<(IterationResult, Option<Solution>), PartitionError> {
        self.solve_window_hinted(n, d_max, d_min, None)
    }

    /// [`solve_window`](Self::solve_window) with a warm-start hint: the
    /// structured backend tries the hint's placements first at every search
    /// node (local search around an incumbent).
    ///
    /// # Errors
    ///
    /// Propagates model-building or MILP failures (milp backend only).
    pub fn solve_window_hinted(
        &self,
        n: u32,
        d_max: Latency,
        d_min: Latency,
        hint: Option<&Solution>,
    ) -> Result<(IterationResult, Option<Solution>), PartitionError> {
        let (result, sol, _) = self.solve_window_traced(n, d_max, d_min, hint)?;
        Ok((result, sol))
    }

    /// [`solve_window_hinted`](Self::solve_window_hinted) that also returns
    /// the backend's solver statistics for the window.
    fn solve_window_traced(
        &self,
        n: u32,
        d_max: Latency,
        d_min: Latency,
        hint: Option<&Solution>,
    ) -> Result<(IterationResult, Option<Solution>, WindowStats), PartitionError> {
        match self.params.backend {
            Backend::Structured => {
                // Try the data-flow assignment order first; if the budget
                // runs out undecided, spend the same budget again on the
                // level order — the two explore different basins first.
                let half = SearchLimits {
                    node_limit: self.params.limits.node_limit / 2,
                    time_limit: self.params.limits.time_limit.map(|t| t / 2),
                };
                let mut outcome = SearchOutcome::LimitReached;
                // `absorb` ANDs `exhausted`, so the accumulator starts from
                // the neutral element `true`.
                let mut stats =
                    crate::structured::SearchStats { exhausted: true, ..Default::default() };
                for (order, use_hint) in [
                    // First attempt: local search around the incumbent.
                    (crate::structured::OrderHeuristic::DataFlow, true),
                    // Fallback: a fresh basin, unbiased by the hint.
                    (crate::structured::OrderHeuristic::Level, false),
                ] {
                    let mut solver = StructuredSolver::with_order(
                        self.graph,
                        self.arch,
                        n,
                        d_max.as_ns(),
                        SearchGoal::FirstFeasible,
                        half,
                        order,
                    )
                    .with_memo_limit(self.params.memo_limit)
                    .with_cancel(self.params.cancel.clone());
                    if use_hint {
                        if let Some(hint) = hint {
                            solver = solver.with_hint(hint.placements().to_vec());
                        }
                    }
                    let (run_outcome, run_stats) = solver.run_parallel(self.params.solver_threads);
                    outcome = run_outcome;
                    stats.absorb(&run_stats);
                    if !matches!(outcome, SearchOutcome::LimitReached) {
                        break;
                    }
                }
                stats.emit_metrics("structured");
                let stats = WindowStats { milp: None, structured: Some(stats) };
                Ok(match outcome {
                    SearchOutcome::Feasible(sol) => {
                        let latency = sol.total_latency(self.graph, self.arch);
                        let eta = sol.partitions_used();
                        (IterationResult::Feasible { latency, eta }, Some(sol), stats)
                    }
                    SearchOutcome::Infeasible => (IterationResult::Infeasible, None, stats),
                    SearchOutcome::LimitReached => (IterationResult::LimitReached, None, stats),
                })
            }
            Backend::Milp => {
                let ilp = IlpModel::build(
                    self.graph,
                    self.arch,
                    n,
                    d_max,
                    d_min,
                    &self.params.model_options,
                )?;
                // `Model::solve` emits the `milp.solve` span and `milp.*`
                // counters itself; here we only capture the stats.
                let outcome = ilp.model().solve(&self.params.milp_options)?;
                Ok(self.decode_milp_outcome(&ilp, n, outcome))
            }
        }
    }

    /// Maps a MILP [`rtr_milp::Outcome`] of the window ILP back onto the
    /// search vocabulary, decoding the incumbent when there is one.
    fn decode_milp_outcome(
        &self,
        ilp: &IlpModel,
        n: u32,
        outcome: rtr_milp::Outcome,
    ) -> (IterationResult, Option<Solution>, WindowStats) {
        let stats = WindowStats { milp: Some(outcome.stats), structured: None };
        match outcome.status {
            rtr_milp::Status::Feasible | rtr_milp::Status::Optimal => {
                // A feasible/optimal status always carries an incumbent;
                // treat a missing one as an undecided window rather than
                // panicking on a solver invariant.
                let Some(assignment) = outcome.solution.as_ref() else {
                    return (IterationResult::LimitReached, None, stats);
                };
                let sol = ilp.decode(assignment).compacted(n);
                let latency = sol.total_latency(self.graph, self.arch);
                let eta = sol.partitions_used();
                (IterationResult::Feasible { latency, eta }, Some(sol), stats)
            }
            rtr_milp::Status::Infeasible => (IterationResult::Infeasible, None, stats),
            rtr_milp::Status::LimitReached | rtr_milp::Status::Unbounded => {
                (IterationResult::LimitReached, None, stats)
            }
        }
    }

    /// [`solve_window_traced`](Self::solve_window_traced) that chains the
    /// milp backend's window solves through one [`MilpSession`]: the ILP is
    /// built once per partition bound, each subsequent window moves only
    /// the latency-row right-hand sides
    /// ([`IlpModel::set_latency_window`]), and every solve warm-starts from
    /// the previous one's root basis. Falls through to the stateless path
    /// for the structured backend or when
    /// [`SolveOptions::warm_start`](rtr_milp::SolveOptions) is off.
    fn solve_window_in_session(
        &self,
        n: u32,
        d_max: Latency,
        d_min: Latency,
        hint: Option<&Solution>,
        session: &mut Option<MilpSession>,
    ) -> Result<(IterationResult, Option<Solution>, WindowStats), PartitionError> {
        if self.params.backend != Backend::Milp || !self.params.milp_options.warm_start {
            return self.solve_window_traced(n, d_max, d_min, hint);
        }
        let s = match session {
            Some(s) => {
                s.ilp.set_latency_window(d_max, d_min);
                s
            }
            None => session.insert(MilpSession {
                ilp: IlpModel::build(
                    self.graph,
                    self.arch,
                    n,
                    d_max,
                    d_min,
                    &self.params.model_options,
                )?,
                basis: None,
            }),
        };
        // Presolve would re-index rows under the chained basis, so session
        // solves run on the unreduced model (`solve_mip_warm` enforces the
        // same rule whenever a basis is supplied).
        let mut opts = self.params.milp_options.clone();
        opts.presolve = false;
        let mut outcome = rtr_milp::solve_mip_warm(s.ilp.model(), &opts, s.basis.as_ref())?;
        s.basis = outcome.root_basis.take();
        Ok(self.decode_milp_outcome(&s.ilp, n, outcome))
    }

    /// The paper's `Reduce_Latency(N, D_max, D_min)` (Figure 1): binary
    /// subdivision of the latency window down to tolerance `δ`. Returns the
    /// best solution found for this partition bound, if any, and appends one
    /// [`IterationRecord`] per solve to `records`.
    ///
    /// The paper's pseudo-code for re-tightening `D_max` after a feasible
    /// solution is garbled in the available text; we implement the behaviour
    /// its prose describes: a feasible solution's recomputed latency becomes
    /// the upper bound, an infeasible window's midpoint becomes the lower
    /// bound.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn reduce_latency(
        &self,
        n: u32,
        d_max: Latency,
        d_min: Latency,
        records: &mut Vec<IterationRecord>,
    ) -> Result<Option<(Solution, Latency)>, PartitionError> {
        self.reduce_latency_ctx(
            n,
            d_max,
            d_min,
            records,
            &mut |_| {},
            RunCtx::default(),
            &mut Degradation::default(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn reduce_latency_ctx(
        &self,
        n: u32,
        d_max: Latency,
        d_min: Latency,
        records: &mut Vec<IterationRecord>,
        observer: &mut dyn FnMut(&IterationRecord),
        ctx: RunCtx<'_>,
        degradation: &mut Degradation,
    ) -> Result<Option<(Solution, Latency)>, PartitionError> {
        let _span = rtr_trace::span("search.reduce_latency").with("n", n);
        let delta = self.params.delta.as_ns().max(1e-9);
        let mut iteration = 0u32;
        // The subdivision's successive windows differ only in the latency
        // RHS, so the milp backend's solves chain through one session.
        let mut session: Option<MilpSession> = None;
        let mut solve = |d_max: Latency,
                         d_min: Latency,
                         hint: Option<&Solution>,
                         records: &mut Vec<IterationRecord>,
                         degradation: &mut Degradation|
         -> Result<(IterationResult, Option<Solution>), PartitionError> {
            iteration += 1;
            // Resume: answer the window from the checkpoint cache when its
            // key is present. The cached bounds must match this window
            // bit-for-bit — the exploration is deterministic, so a mismatch
            // means the checkpoint belongs to a different instance or
            // parameter set.
            if let Some(cache) = ctx.resume {
                if let Some(cached) = cache.get(&(n, iteration)) {
                    if cached.d_max_ns.to_bits() != d_max.as_ns().to_bits()
                        || cached.d_min_ns.to_bits() != d_min.as_ns().to_bits()
                    {
                        return Err(PartitionError::Checkpoint {
                            detail: format!(
                                "checkpoint window (n={n}, iteration={iteration}) was \
                                 [{}, {}] ns but this run needs [{}, {}] ns — wrong \
                                 checkpoint for this instance or parameters?",
                                cached.d_min_ns,
                                cached.d_max_ns,
                                d_min.as_ns(),
                                d_max.as_ns()
                            ),
                        });
                    }
                    let (result, sol) = cached.reconstruct(self.graph, self.arch)?;
                    let record = IterationRecord {
                        n,
                        iteration,
                        d_max,
                        d_min,
                        result: result.clone(),
                        elapsed: Duration::from_micros(cached.elapsed_us),
                        stats: WindowStats::default(),
                    };
                    emit_iteration_event(&record);
                    observer(&record);
                    if let Some(sink) = ctx.sink {
                        sink.record(cached.clone());
                    }
                    records.push(record);
                    return Ok((result, sol));
                }
            }
            let start = Instant::now();
            // Panic isolation: a panicking window solve (injected at the
            // `explore.window` failpoint, or a genuine backend bug) is
            // retried, then given up as a LimitReached window — the search
            // already treats undecided windows as "no improvement found",
            // so a lost window can only forgo improvements, never corrupt
            // the result. An attempt owns the milp warm-start session and
            // hands it back only when it returns, so a session that may
            // have unwound mid-pivot is dropped.
            let key = (u64::from(n) << 40) | (u64::from(iteration) << 8);
            let (solved, panics) = rtr_trace::failpoint::isolate("explore.window", key, || {
                let mut owned = session.take();
                let outcome = self.solve_window_in_session(n, d_max, d_min, hint, &mut owned);
                session = owned;
                outcome
            });
            degradation.panics_caught += u64::from(panics);
            degradation.jobs_retried += u64::from(panics.min(rtr_trace::failpoint::RETRY_LIMIT));
            let (result, sol, stats) = match solved {
                Some(outcome) => outcome?,
                None => {
                    degradation.lose("explore.window", n, iteration);
                    (IterationResult::LimitReached, None, WindowStats::default())
                }
            };
            let record = IterationRecord {
                n,
                iteration,
                d_max,
                d_min,
                result: result.clone(),
                elapsed: start.elapsed(),
                stats,
            };
            emit_iteration_event(&record);
            observer(&record);
            if let Some(sink) = ctx.sink {
                sink.record(CheckpointRecord {
                    n,
                    iteration,
                    d_max_ns: d_max.as_ns(),
                    d_min_ns: d_min.as_ns(),
                    result: match (&result, &sol) {
                        (IterationResult::Feasible { latency, eta }, Some(sol)) => {
                            CheckpointResult::Feasible {
                                latency_ns: latency.as_ns(),
                                eta: *eta,
                                placements: sol
                                    .placements()
                                    .iter()
                                    .map(|p| (p.partition, p.design_point))
                                    .collect(),
                            }
                        }
                        (IterationResult::Infeasible, _) => CheckpointResult::Infeasible,
                        _ => CheckpointResult::LimitReached,
                    },
                    elapsed_us: record.elapsed.as_micros() as u64,
                });
            }
            records.push(record);
            Ok((result, sol))
        };

        // First solve over the full window.
        let (first, sol) = solve(d_max, d_min, None, records, degradation)?;
        let mut best = match (first, sol) {
            (IterationResult::Feasible { latency, .. }, Some(sol)) => (sol, latency),
            _ => return Ok(None),
        };

        let mut lower = d_min.as_ns();
        match self.params.strategy {
            RefinementStrategy::Bisection => {
                // The achieved latency is the effective upper bound from
                // here on.
                while best.1.as_ns() - lower >= delta {
                    let mid = Latency::from_ns((best.1.as_ns() + lower) / 2.0);
                    let (result, sol) =
                        solve(mid, Latency::from_ns(lower), Some(&best.0), records, degradation)?;
                    match (result, sol) {
                        (IterationResult::Feasible { latency, .. }, Some(sol)) => {
                            debug_assert!(latency <= mid + Latency::from_ns(1e-6));
                            best = (sol, latency);
                        }
                        _ => lower = mid.as_ns(),
                    }
                }
            }
            RefinementStrategy::AggressiveDescent => {
                while best.1.as_ns() - lower >= delta {
                    let target = Latency::from_ns(best.1.as_ns() - delta);
                    let (result, sol) = solve(
                        target,
                        Latency::from_ns(lower),
                        Some(&best.0),
                        records,
                        degradation,
                    )?;
                    match (result, sol) {
                        (IterationResult::Feasible { latency, .. }, Some(sol)) => {
                            best = (sol, latency);
                        }
                        _ => break,
                    }
                }
            }
        }
        Ok(Some(best))
    }

    /// `true` once the overall wall-clock budget (the paper's
    /// `TimeExpired()`) has run out or the exploration was cancelled —
    /// cancellation stops the phase loops through the same path as an
    /// exhausted budget, so best-so-far semantics are shared.
    fn expired(&self, started: Instant) -> bool {
        if self.params.cancel.is_cancelled() {
            return true;
        }
        match self.params.time_budget {
            Some(budget) => started.elapsed() >= budget,
            None => false,
        }
    }

    /// Phase 1 of `Refine_Partitions_Bound`: ascending `n` from `n_start`,
    /// solving the full `[MinLatency(n), MaxLatency(n)]` window at each
    /// bound until the first feasible one (or the cap / the time budget
    /// stops the climb). Returns the bound reached and the incumbent found
    /// there, if any.
    ///
    /// This phase is inherently sequential — bound `n + 1` is tried only
    /// because bound `n` failed — so it runs on the calling thread at every
    /// thread count.
    #[allow(clippy::too_many_arguments)]
    fn first_feasible(
        &self,
        n_start: u32,
        n_cap: u32,
        started: Instant,
        records: &mut Vec<IterationRecord>,
        observer: &mut dyn FnMut(&IterationRecord),
        ctx: RunCtx<'_>,
        degradation: &mut Degradation,
    ) -> Result<(u32, Option<(Solution, Latency)>), PartitionError> {
        let mut n = n_start;
        loop {
            let best = self.reduce_latency_ctx(
                n,
                max_latency(self.graph, self.arch, n),
                min_latency(self.graph, self.arch, n),
                records,
                observer,
                ctx,
                degradation,
            )?;
            if best.is_some() || n >= n_cap || self.expired(started) {
                return Ok((n, best));
            }
            n += 1;
        }
    }

    /// Evaluates one phase-2 candidate bound: `Reduce_Latency` from the
    /// phase-1 incumbent, its windows isolated exactly as in phase 1.
    /// Shared by the inline and the pooled phase 2 (where `sched.job`
    /// isolates the whole candidate), so a degraded run reports the same
    /// [`Degradation`] at every thread count.
    fn run_candidate(
        &self,
        n: u32,
        pivot: Latency,
        d_min: Latency,
        observer: &mut dyn FnMut(&IterationRecord),
        ctx: RunCtx<'_>,
    ) -> CandidateRun {
        let mut records = Vec::new();
        let mut degradation = Degradation::default();
        let result =
            self.reduce_latency_ctx(n, pivot, d_min, &mut records, observer, ctx, &mut degradation);
        let (found, error) = match result {
            Ok(found) => (found, None),
            Err(error) => (None, Some(error)),
        };
        CandidateRun { records, found, events: Vec::new(), error, degradation }
    }

    /// The paper's `Refine_Partitions_Bound()` (Figure 2): explores
    /// partition bounds `N_min^l + α ..= N_min^u + γ`, running
    /// [`reduce_latency`](Self::reduce_latency) at each bound. Once a first
    /// feasible bound is found, every relaxed bound refines against that
    /// phase-1 incumbent (see [`explore_with_observer`](Self::explore_with_observer)
    /// for why), and the paper's early exit still stops the relaxation as
    /// soon as `MinLatency(N)` reaches the best latency achieved so far.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn explore(&self) -> Result<Exploration, PartitionError> {
        self.explore_ctx(1, &mut |_| {}, RunCtx::default())
    }

    /// [`explore`](Self::explore) with a progress observer: `observer` is
    /// called once per `SolveModel()` record, as it happens — useful for
    /// streaming UIs.
    ///
    /// Phase 2 anchors every relaxed bound's window at the phase-1
    /// incumbent `L1` rather than chaining each bound's achieved latency
    /// into the next bound's `D_max`. This makes the relaxed bounds
    /// independent of each other — the property
    /// [`explore_parallel`](Self::explore_parallel) exploits — and costs no
    /// solution quality: each bound still bisects to within `δ` of its own
    /// optimum, and a tighter chained window could only hide solutions that
    /// would not have improved the best anyway. The paper's early exit
    /// (`MinLatency(N) ≥ best`) still uses the running best, so dominated
    /// bounds are skipped exactly as in Figure 2.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn explore_with_observer<F: FnMut(&IterationRecord)>(
        &self,
        mut observer: F,
    ) -> Result<Exploration, PartitionError> {
        self.explore_ctx(1, &mut observer, RunCtx::default())
    }

    /// The one loop behind every `explore*` entry point. `threads` resolves
    /// via [`resolve_threads`]. Above one thread the loop runs
    /// inside a work-stealing pool shared by the phase-2 candidate bounds
    /// and any nested window subtree batches (`Pool::with` reuses an ambient
    /// pool when the caller is already inside one), so a stalled window's
    /// jobs get stolen by idle workers instead of idling a statically split
    /// sub-pool.
    fn explore_ctx(
        &self,
        threads: usize,
        observer: &mut dyn FnMut(&IterationRecord),
        ctx: RunCtx<'_>,
    ) -> Result<Exploration, PartitionError> {
        match resolve_threads(threads) {
            1 => self.refine_partitions_bound(None, observer, ctx),
            threads => rtr_sched::Pool::with(threads, |pool| {
                self.refine_partitions_bound(Some(pool), observer, ctx)
            }),
        }
    }

    /// `Refine_Partitions_Bound()` proper. Phase 1 climbs to the first
    /// feasible bound on the calling thread. Phase 2 merges the relaxed
    /// candidate bounds in ascending-`N` order. Without a pool, the merge
    /// evaluates each candidate inline, on demand, so the observer and the
    /// trace see every window live. With a pool,
    /// [`run_candidates`](Self::run_candidates) evaluates them as one batch
    /// first, and the merge replays their records (to the observer too) and
    /// captured trace events. Either way the merge alone decides the early
    /// exit, the error to return, and the degradation account.
    fn refine_partitions_bound(
        &self,
        pool: Option<&rtr_sched::Pool>,
        observer: &mut dyn FnMut(&IterationRecord),
        ctx: RunCtx<'_>,
    ) -> Result<Exploration, PartitionError> {
        let mut span = rtr_trace::span("search.explore")
            .with("backend", self.params.backend.to_string())
            .with("tasks", self.graph.tasks().len());
        if let Some(pool) = pool {
            span.add("threads", pool.threads());
        }
        let n_min_lower = min_area_partitions(self.graph, self.arch);
        let n_min_upper = max_area_partitions(self.graph, self.arch);
        let n_cap = self.n_cap();
        let started = Instant::now();

        let mut records = Vec::new();
        let mut degradation = Degradation::default();
        let n_start = (n_min_lower.saturating_add(self.params.alpha)).min(n_cap);

        // Phase 1: find the first feasible partition bound.
        let (n1, mut best) = self.first_feasible(
            n_start,
            n_cap,
            started,
            &mut records,
            observer,
            ctx,
            &mut degradation,
        )?;

        // Phase 2: relax N looking for better solutions, each bound
        // refining against the phase-1 incumbent.
        if let Some(pivot) = best.as_ref().map(|(_, latency)| *latency) {
            let candidates: Vec<u32> = (n1 + 1..=n_cap).collect();
            let mut pooled = pool.map(|pool| {
                let (runs, sched_report) =
                    self.run_candidates(&candidates, pivot, pool, started, ctx);
                // Scheduler-level isolation totals are batch facts (a pure
                // function of the job list under seeded faults), absorbed
                // here unconditionally so they are never dropped by a merge
                // break; the per-candidate lost entries ride inside the runs.
                degradation.absorb(Degradation {
                    panics_caught: sched_report.panics_caught,
                    jobs_retried: sched_report.jobs_retried,
                    ..Degradation::default()
                });
                runs.into_iter()
            });
            let mut best_latency = pivot;
            for &n in &candidates {
                let d_min = min_latency(self.graph, self.arch, n);
                if d_min >= best_latency {
                    // MinLatency(N) already exceeds the achieved latency:
                    // relaxation cannot help (paper's early exit). Pooled
                    // runs past this bound are discarded unseen.
                    break;
                }
                let run = match &mut pooled {
                    Some(runs) => runs.next().flatten(),
                    None if self.expired(started) => None,
                    None => Some(self.run_candidate(n, pivot, d_min, observer, ctx)),
                };
                // The time budget expired before anyone reached this bound.
                let Some(run) = run else { break };
                rtr_trace::dispatch_all(run.events);
                if pooled.is_some() {
                    for record in &run.records {
                        observer(record);
                    }
                }
                records.extend(run.records);
                degradation.absorb(run.degradation);
                if let Some(error) = run.error {
                    return Err(error);
                }
                if let Some((sol, latency)) = run.found {
                    if latency < best_latency {
                        best_latency = latency;
                        best = Some((sol, latency));
                    }
                }
            }
        }

        let (best, best_latency) = match best {
            Some((sol, latency)) => (Some(sol), Some(latency)),
            None => (None, None),
        };
        if span.armed() {
            span.add("solves", records.len());
            span.add("feasible", best.is_some());
            if let Some(latency) = best_latency {
                span.add("best_latency_ns", latency.as_ns());
            }
        }
        span.finish();
        Ok(self.finish_exploration(Exploration {
            best,
            best_latency,
            records,
            n_min_lower,
            n_min_upper,
            degradation,
        }))
    }

    /// Folds the structured backend's per-window resilience counters into
    /// the exploration-level [`Degradation`] and, when the run was not
    /// clean, emits the aggregate `resilience.*` counters and a
    /// `resilience.degraded` event (from the merging thread, so the trace
    /// stream stays deterministic).
    fn finish_exploration(&self, mut exploration: Exploration) -> Exploration {
        for r in &exploration.records {
            if let Some(s) = &r.stats.structured {
                exploration.degradation.panics_caught += s.panics_caught;
                exploration.degradation.jobs_retried += s.jobs_retried;
                for _ in 0..s.subtrees_lost {
                    exploration.degradation.lose("sched.job", r.n, r.iteration);
                }
            }
        }
        exploration.degradation.cancelled |= self.params.cancel.is_cancelled();
        let d = &exploration.degradation;
        if !d.is_clean() {
            rtr_trace::counter("resilience.panics_caught", d.panics_caught);
            rtr_trace::counter("resilience.jobs_retried", d.jobs_retried);
            rtr_trace::counter("resilience.subtrees_lost", d.subtrees_lost);
            rtr_trace::event("resilience.degraded", || {
                vec![
                    ("panics_caught".to_owned(), d.panics_caught.into()),
                    ("jobs_retried".to_owned(), d.jobs_retried.into()),
                    ("subtrees_lost".to_owned(), d.subtrees_lost.into()),
                    ("checkpoint_failures".to_owned(), d.checkpoint_failures.into()),
                    ("cancelled".to_owned(), u64::from(d.cancelled).into()),
                ]
            });
        }
        exploration
    }

    /// Fingerprint binding a checkpoint (and the `rtrd` solve cache) to
    /// this instance and to every parameter that shapes the exploration
    /// trajectory — including the milp backend's [`SolveOptions`] budgets,
    /// so differently-budgeted runs never alias. Thread counts and the
    /// cancellation latch are deliberately excluded: cancellation is
    /// run-state, not a parameter, and the parallel merge is bit-identical
    /// to the sequential loop as long as no window ends on its budget. A
    /// window that does is best-effort above one thread (DESIGN.md,
    /// "Determinism envelope"), so a checkpoint or cache entry is only
    /// byte-reproducible at `threads` 1, or when no budget fires.
    pub fn fingerprint(&self) -> u64 {
        let p = &self.params;
        let m = &p.milp_options;
        let canon = format!(
            "graph={}|rmax={}|mem={}|ct_bits={}|env={:?}|sec={:?}|delta_bits={}|alpha={}|\
             gamma={}|backend={}|strategy={}|node_limit={}|time_limit={:?}|memo_limit={}|\
             model={:?}|milp_goal={:?}|milp_nodes={}|milp_pivots={}|milp_time={:?}|\
             milp_presolve={}|milp_warm={}",
            self.graph.to_text(),
            self.arch.resource_capacity().units(),
            self.arch.memory_capacity(),
            self.arch.reconfig_time().as_ns().to_bits(),
            self.arch.env_policy(),
            self.arch.secondary_capacities(),
            p.delta.as_ns().to_bits(),
            p.alpha,
            p.gamma,
            p.backend,
            p.strategy,
            p.limits.node_limit,
            p.limits.time_limit,
            p.memo_limit,
            p.model_options,
            m.goal,
            m.node_limit,
            m.pivot_limit,
            m.time_limit,
            m.presolve,
            m.warm_start,
        );
        fnv1a(canon.as_bytes())
    }

    /// [`explore_parallel`](Self::explore_parallel) with checkpointing and
    /// resume.
    ///
    /// With a [`CheckpointPolicy`], every completed `SolveModel()` window
    /// is streamed into a versioned JSON checkpoint (atomic temp-file +
    /// rename writes, interval-gated, plus a final write when the
    /// exploration ends). With a resume [`Checkpoint`], windows whose
    /// `(N, iteration)` key is cached are answered from the checkpoint —
    /// validated against the feasibility checker first — instead of being
    /// solved again; because the exploration is deterministic, the resumed
    /// run's records, best solution, and [`Exploration::to_csv`] output are
    /// byte-identical to an uninterrupted run. `observer` sees every record,
    /// in order, at every thread count.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Checkpoint`] when the resume checkpoint does not
    /// match this instance and parameter set (fingerprint or window
    /// mismatch) or fails validation; otherwise as
    /// [`explore`](Self::explore).
    pub fn explore_resumable<F: FnMut(&IterationRecord)>(
        &self,
        threads: usize,
        policy: Option<&CheckpointPolicy>,
        resume: Option<&Checkpoint>,
        mut observer: F,
    ) -> Result<Exploration, PartitionError> {
        let fingerprint = self.fingerprint();
        let cache: Option<BTreeMap<(u32, u32), CheckpointRecord>> = match resume {
            Some(checkpoint) => {
                if checkpoint.fingerprint != fingerprint {
                    return Err(PartitionError::Checkpoint {
                        detail: format!(
                            "checkpoint fingerprint {:#018x} does not match this instance \
                             and parameter set ({:#018x})",
                            checkpoint.fingerprint, fingerprint
                        ),
                    });
                }
                Some(checkpoint.records.iter().map(|r| ((r.n, r.iteration), r.clone())).collect())
            }
            None => None,
        };
        let sink = policy.map(|p| CheckpointSink::new(p.clone(), fingerprint));
        let ctx = RunCtx { resume: cache.as_ref(), sink: sink.as_ref() };
        let mut exploration = self.explore_ctx(threads, &mut observer, ctx)?;
        if let Some(sink) = &sink {
            sink.flush();
            exploration.degradation.checkpoint_failures = sink.failures();
        }
        Ok(exploration)
    }

    /// [`explore`](Self::explore) with the phase-2 candidate bounds
    /// evaluated concurrently on a `threads`-participant work-stealing pool
    /// ([`rtr_sched::Pool`]).
    ///
    /// `threads` resolves via [`resolve_threads`] (`0` = the `RTR_THREADS`
    /// environment variable, else the machine's available parallelism;
    /// every count capped at [`MAX_THREADS`]); `threads == 1` is
    /// [`explore`](Self::explore).
    ///
    /// Workers share an atomic incumbent latency: a candidate whose
    /// `MinLatency(N)` already exceeds the incumbent is checked against the
    /// order-safe prefix bound (the phase-1 incumbent combined with the
    /// achieved latencies of *smaller* candidates only) and, if still
    /// dominated, skipped without solving — the same bounds the sequential
    /// early exit would have refused to visit. A merge pass then replays
    /// per-candidate record streams and captured trace events in ascending
    /// `N` order, chaining the running best exactly like the sequential
    /// loop, so the returned [`Exploration`] — iteration order, chosen
    /// solution, [`Exploration::to_csv`] output, and the logical trace
    /// stream — is identical to [`explore`](Self::explore) regardless of
    /// thread count.
    ///
    /// The guarantee requires deterministic per-solve limits: with a
    /// wall-clock limit in [`SearchLimits`] or a tight
    /// [`ExploreParams::time_budget`], individual windows (or the whole
    /// relaxation) may time out at machine-dependent points on any path,
    /// sequential included.
    ///
    /// # Errors
    ///
    /// Propagates backend failures; when several candidates fail, the error
    /// of the smallest undominated bound is returned (matching what the
    /// sequential loop would have hit first).
    pub fn explore_parallel(&self, threads: usize) -> Result<Exploration, PartitionError> {
        self.explore_ctx(threads, &mut |_| {}, RunCtx::default())
    }

    /// Evaluates the phase-2 candidate bounds as one batch on the shared
    /// work-stealing pool and returns one run per candidate, index-aligned
    /// (`None` where no worker evaluated the bound).
    ///
    /// Latencies travel through the atomics as IEEE-754 bits: for
    /// non-negative floats the bit pattern orders like the number, so
    /// `fetch_min` on bits is `fetch_min` on latencies.
    fn run_candidates(
        &self,
        candidates: &[u32],
        pivot: Latency,
        pool: &rtr_sched::Pool,
        started: Instant,
        ctx: RunCtx<'_>,
    ) -> (Vec<Option<CandidateRun>>, rtr_sched::BatchReport) {
        let slots: Vec<Mutex<Option<CandidateRun>>> =
            candidates.iter().map(|_| Mutex::new(None)).collect();
        // Best latency achieved anywhere so far, phase 1 included. Purely a
        // pruning accelerator: correctness rests on the prefix confirmation
        // below, so stale reads are harmless.
        let incumbent = AtomicU64::new(pivot.as_ns().to_bits());
        // Per-candidate achieved latency (+∞ until that bound finds one).
        let achieved: Vec<AtomicU64> =
            candidates.iter().map(|_| AtomicU64::new(f64::INFINITY.to_bits())).collect();
        // Smallest bound proven dominated; the merge can never get past it,
        // so larger bounds need not run at all.
        let stop_at = AtomicU32::new(u32::MAX);
        // The pool hands a top-level batch out lowest index first, so
        // candidates are claimed in ascending-N order.
        let report = pool.run(candidates.len(), CANDIDATE_FAIL_KEY, |idx| {
            let n = candidates[idx];
            // Budget expired or bound out of reach: the slot stays empty,
            // and the merge stops at or before it.
            if self.expired(started) || n >= stop_at.load(Ordering::Relaxed) {
                return;
            }
            let d_min = min_latency(self.graph, self.arch, n);
            // Shared-incumbent pruning: the cheap global test may reflect
            // achievements of *larger* bounds the sequential order could
            // not have seen, so a hit must be confirmed against the
            // order-safe prefix bound before skipping. The prefix bound is
            // never below the merge's running best at this bound, so the
            // merge's early exit fires here or earlier.
            if d_min.as_ns() >= f64::from_bits(incumbent.load(Ordering::Relaxed)) {
                let prefix = achieved[..idx]
                    .iter()
                    .map(|a| f64::from_bits(a.load(Ordering::Relaxed)))
                    .fold(pivot.as_ns(), f64::min);
                if d_min.as_ns() >= prefix {
                    stop_at.fetch_min(n, Ordering::Relaxed);
                    return;
                }
            }
            let (mut run, events) =
                rtr_trace::capture(|| self.run_candidate(n, pivot, d_min, &mut |_| {}, ctx));
            run.events = events;
            if let Some((_, latency)) = &run.found {
                let bits = latency.as_ns().to_bits();
                achieved[idx].store(bits, Ordering::Relaxed);
                incumbent.fetch_min(bits, Ordering::Relaxed);
            }
            *slots[idx].lock().unwrap_or_else(PoisonError::into_inner) = Some(run);
        });
        let mut runs: Vec<Option<CandidateRun>> = slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        // A candidate the scheduler abandoned (every `sched.job` attempt
        // panicked) must become a *degraded* run: leaving it empty would
        // make the merge mistake it for a time-budget stop. The report is
        // a pure function of the job list, so this rewrite is as
        // deterministic as the faults themselves.
        for &idx in &report.lost {
            let mut degradation = Degradation::default();
            degradation.lose("sched.job", candidates[idx], 0);
            runs[idx] = Some(CandidateRun {
                records: Vec::new(),
                found: None,
                events: Vec::new(),
                error: None,
                degradation,
            });
        }
        (runs, report)
    }
}

/// Compile-time proof that the partitioner can be shared across the pool
/// workers of [`TemporalPartitioner::explore_parallel`] and that
/// per-candidate results can move back to the merging thread.
#[allow(dead_code)]
fn assert_thread_safe() {
    fn sync<T: Sync>() {}
    fn send<T: Send>() {}
    sync::<TemporalPartitioner<'static>>();
    sync::<ExploreParams>();
    send::<IterationRecord>();
    send::<Exploration>();
    send::<Solution>();
    send::<PartitionError>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_solution;
    use rtr_graph::{Area, DesignPoint, TaskGraphBuilder};

    fn dp(name: &str, area: u64, lat: f64) -> DesignPoint {
        DesignPoint::new(name, Area::new(area), Latency::from_ns(lat))
    }

    /// Chain of 3 tasks, each with a slow-small and fast-big point.
    fn chain3() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let mut prev = None;
        for i in 0..3 {
            let t = b
                .add_task(format!("t{i}"))
                .design_point(dp("s", 40, 400.0))
                .design_point(dp("f", 80, 180.0))
                .finish();
            if let Some(p) = prev {
                b.add_edge(p, t, 1).unwrap();
            }
            prev = Some(t);
        }
        b.build().unwrap()
    }

    #[test]
    fn explore_finds_validated_optimum_small_ct() {
        let g = chain3();
        // Capacity 100: two slow tasks share a partition (80) or one fast (80).
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(20.0));
        let params =
            ExploreParams { delta: Latency::from_ns(10.0), gamma: 2, ..Default::default() };
        let part = TemporalPartitioner::new(&g, &arch, params).unwrap();
        let ex = part.explore().unwrap();
        let best = ex.best.expect("feasible");
        assert!(validate_solution(&g, &arch, &best).is_empty());
        // All-fast needs 3 partitions: 3*180 + 3*20 = 600.
        // (Each partition fits one fast task only.)
        let lat = ex.best_latency.unwrap().as_ns();
        assert!((lat - 600.0).abs() < 10.0 + 1e-6, "latency {lat}");
    }

    #[test]
    fn explore_prefers_fewer_partitions_with_huge_ct() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ms(1.0));
        let params = ExploreParams { delta: Latency::from_ns(10.0), ..Default::default() };
        let part = TemporalPartitioner::new(&g, &arch, params).unwrap();
        let ex = part.explore().unwrap();
        let best = ex.best.clone().expect("feasible");
        // N_min^l = ceil(120/100) = 2: two partitions minimum; with C_T = 1 ms
        // per reconfiguration, 2 partitions beat 3 despite slower points.
        assert_eq!(best.partitions_used(), 2);
        // Phase 2 must stop early: MinLatency(3) > achieved.
        let relaxed: Vec<_> = ex.records_for(3).collect();
        assert!(relaxed.is_empty(), "no N=3 solve should run: {relaxed:?}");
    }

    #[test]
    fn reconfiguration_time_that_overflows_is_a_typed_error() {
        // chain3 needs two partitions on this device, and with γ = 0 the
        // exploration tries up to N_min^u = 3: 3 × 1e308 ns is not finite.
        let g = chain3();
        let params = ExploreParams { gamma: 0, ..Default::default() };
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(1e308));
        let err = TemporalPartitioner::new(&g, &arch, params.clone()).unwrap_err();
        assert_eq!(err, PartitionError::LatencyOverflow { n: 3 });
        assert!(err.to_string().contains("N = 3"), "{err}");
        // 3 × 1e307 ns is finite, so the same device is accepted.
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(1e307));
        assert!(TemporalPartitioner::new(&g, &arch, params).is_ok());
    }

    #[test]
    fn backends_agree() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(20.0));
        let mut results = Vec::new();
        for backend in [Backend::Structured, Backend::Milp] {
            let params = ExploreParams {
                delta: Latency::from_ns(10.0),
                gamma: 2,
                backend,
                ..Default::default()
            };
            let part = TemporalPartitioner::new(&g, &arch, params).unwrap();
            let ex = part.explore().unwrap();
            results.push(ex.best_latency.expect("feasible").as_ns());
        }
        assert!(
            (results[0] - results[1]).abs() < 10.0 + 1e-6,
            "structured {} vs milp {}",
            results[0],
            results[1]
        );
    }

    #[test]
    fn milp_warm_sessions_match_cold_solves_with_fewer_pivots() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(20.0));
        let run = |warm: bool| {
            let params = ExploreParams {
                delta: Latency::from_ns(10.0),
                gamma: 2,
                backend: Backend::Milp,
                // Presolve off on both sides so warm starting is the only
                // difference between the two runs.
                milp_options: SolveOptions {
                    warm_start: warm,
                    presolve: false,
                    ..SolveOptions::feasibility()
                },
                ..Default::default()
            };
            let part = TemporalPartitioner::new(&g, &arch, params).unwrap();
            part.explore().unwrap()
        };
        let warm = run(true);
        let cold = run(false);
        // A warm node LP may sit down on a different optimal vertex of a
        // degenerate relaxation than a cold one, steering branch and bound
        // to a different — equally feasible — incumbent inside a window, so
        // trajectories are not compared row by row. The refinement *result*
        // must agree to within the bisection tolerance δ.
        let (w, c) =
            (warm.best_latency.expect("feasible").as_ns(), cold.best_latency.expect("feasible"));
        assert!((w - c.as_ns()).abs() <= 10.0 + 1e-6, "warm {w} vs cold {c:?}");
        assert!(validate_solution(&g, &arch, warm.best.as_ref().unwrap()).is_empty());
        assert!(validate_solution(&g, &arch, cold.best.as_ref().unwrap()).is_empty());
        // The warm run chained bases across the subdivision windows; the
        // cold run never did.
        let wt = warm.milp_totals();
        let ct = cold.milp_totals();
        assert!(wt.warm_starts > 0, "no warm solves recorded: {wt:?}");
        assert_eq!(ct.warm_starts, 0, "cold run must not warm start: {ct:?}");
    }

    #[test]
    fn records_form_table_rows() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(20.0));
        let part = TemporalPartitioner::new(&g, &arch, Default::default()).unwrap();
        let ex = part.explore().unwrap();
        assert!(!ex.records.is_empty());
        for r in &ex.records {
            assert!(r.d_min <= r.d_max);
            assert!(r.iteration >= 1);
            if let IterationResult::Feasible { latency, .. } = r.result {
                assert!(latency <= r.d_max + Latency::from_ns(1e-6));
            }
            // The execution-only bounds subtract N*C_T.
            assert!(r.d_max_execution(&arch) <= r.d_max);
        }
    }

    #[test]
    fn oversized_task_rejected_at_construction() {
        let mut b = TaskGraphBuilder::new();
        b.add_task("huge").design_point(dp("m", 1000, 1.0)).finish();
        let g = b.build().unwrap();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(1.0));
        assert!(matches!(
            TemporalPartitioner::new(&g, &arch, Default::default()),
            Err(PartitionError::TaskTooLarge { .. })
        ));
    }

    #[test]
    fn aggressive_descent_reaches_the_same_optimum_on_decidable_instances() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(20.0));
        let mut results = Vec::new();
        for strategy in [RefinementStrategy::Bisection, RefinementStrategy::AggressiveDescent] {
            let params = ExploreParams {
                delta: Latency::from_ns(10.0),
                gamma: 2,
                strategy,
                ..Default::default()
            };
            let part = TemporalPartitioner::new(&g, &arch, params).unwrap();
            let ex = part.explore().unwrap();
            results.push(ex.best_latency.unwrap().as_ns());
        }
        // Both strategies converge within δ of each other on an instance
        // where every window is decided.
        assert!((results[0] - results[1]).abs() <= 10.0 + 1e-6, "{results:?}");
        assert_eq!(RefinementStrategy::AggressiveDescent.to_string(), "aggressive-descent");
    }

    #[test]
    fn smaller_delta_never_worse() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(20.0));
        let run = |delta: f64| {
            let params =
                ExploreParams { delta: Latency::from_ns(delta), gamma: 2, ..Default::default() };
            let part = TemporalPartitioner::new(&g, &arch, params).unwrap();
            let ex = part.explore().unwrap();
            (ex.best_latency.unwrap().as_ns(), ex.records.len())
        };
        let (coarse, coarse_iters) = run(500.0);
        let (fine, fine_iters) = run(5.0);
        assert!(fine <= coarse + 1e-6);
        assert!(fine_iters >= coarse_iters, "finer δ explores at least as much");
    }

    #[test]
    fn observer_sees_every_record_in_order() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(20.0));
        let params = ExploreParams {
            delta: Latency::from_ns(10.0),
            gamma: 2,
            time_budget: None,
            ..Default::default()
        };
        let part = TemporalPartitioner::new(&g, &arch, params).unwrap();
        let mut streams = Vec::new();
        for threads in [1, 2, 4] {
            let mut seen = Vec::new();
            let ex = part.explore_resumable(threads, None, None, |r| seen.push(r.clone())).unwrap();
            assert_eq!(seen, ex.records, "threads={threads}");
            // The fixture must exercise phase 2, the pooled merge's replay.
            assert!(seen.iter().any(|r| r.n > seen[0].n), "no phase-2 records");
            streams.push(ex.to_csv());
        }
        assert!(streams.windows(2).all(|w| w[0] == w[1]), "streams differ by thread count");
    }

    #[test]
    fn csv_export_has_one_row_per_solve() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(20.0));
        let part = TemporalPartitioner::new(&g, &arch, Default::default()).unwrap();
        let ex = part.explore().unwrap();
        let csv = ex.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "n,iteration,d_min_ns,d_max_ns,result,latency_ns,eta");
        assert_eq!(csv.lines().count(), ex.records.len() + 1);
        for (line, r) in lines.zip(&ex.records) {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 7);
            assert_eq!(fields[0], r.n.to_string());
            match &r.result {
                IterationResult::Feasible { .. } => assert_eq!(fields[4], "feasible"),
                IterationResult::Infeasible => assert_eq!(fields[4], "infeasible"),
                IterationResult::LimitReached => assert_eq!(fields[4], "limit"),
            }
        }
        // The timed variant appends exactly one elapsed_us column.
        let timed = ex.to_csv_timed();
        let mut timed_lines = timed.lines();
        assert_eq!(
            timed_lines.next().unwrap(),
            "n,iteration,d_min_ns,d_max_ns,result,latency_ns,eta,elapsed_us"
        );
        for (timed_line, line) in timed_lines.zip(csv.lines().skip(1)) {
            assert!(timed_line.starts_with(line));
            assert_eq!(timed_line.split(',').count(), 8);
        }
    }

    #[test]
    fn parallel_explore_matches_sequential_bit_for_bit() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(20.0));
        let params = ExploreParams {
            delta: Latency::from_ns(10.0),
            gamma: 2,
            time_budget: None,
            ..Default::default()
        };
        let part = TemporalPartitioner::new(&g, &arch, params).unwrap();
        let sequential = part.explore().unwrap();
        for threads in [1, 2, 4, 8] {
            let parallel = part.explore_parallel(threads).unwrap();
            assert_eq!(parallel.to_csv(), sequential.to_csv(), "threads={threads}");
            assert_eq!(parallel.best_latency, sequential.best_latency, "threads={threads}");
            assert_eq!(parallel.best, sequential.best, "threads={threads}");
            assert_eq!(parallel.n_min_lower, sequential.n_min_lower);
            assert_eq!(parallel.n_min_upper, sequential.n_min_upper);
        }
    }

    #[test]
    fn parallel_explore_skips_dominated_bounds_like_the_sequential_early_exit() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ms(1.0));
        let params = ExploreParams {
            delta: Latency::from_ns(10.0),
            time_budget: None,
            ..Default::default()
        };
        let part = TemporalPartitioner::new(&g, &arch, params).unwrap();
        let ex = part.explore_parallel(4).unwrap();
        // With C_T = 1 ms the relaxed bound N=3 is dominated and must not be
        // solved on the parallel path either.
        assert_eq!(ex.best.as_ref().unwrap().partitions_used(), 2);
        assert!(ex.records_for(3).next().is_none());
    }

    #[test]
    fn parallel_explore_auto_thread_count_resolves() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(20.0));
        let params = ExploreParams { time_budget: None, gamma: 2, ..Default::default() };
        let part = TemporalPartitioner::new(&g, &arch, params).unwrap();
        // threads == 0 resolves via resolve_threads (env or machine).
        let ex = part.explore_parallel(0).unwrap();
        assert!(ex.best.is_some());
        assert!((1..=MAX_THREADS).contains(&resolve_threads(0)));
    }

    #[test]
    fn thread_counts_resolve_under_one_ceiling() {
        // Pure: no pool starts, whatever the value.
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(MAX_THREADS + 1), MAX_THREADS);
        assert_eq!(resolve_threads(usize::MAX), MAX_THREADS);
        assert_eq!(auto_threads(Some("8"), Some(2)), 8);
        assert_eq!(auto_threads(Some(" 3 "), None), 3);
        assert_eq!(auto_threads(Some("100000"), Some(2)), MAX_THREADS);
        // A host with more CPUs than the ceiling.
        assert_eq!(auto_threads(None, Some(128)), MAX_THREADS);
        assert_eq!(auto_threads(None, Some(2)), 2);
        // Unusable values fall back to the CPU count, then to one thread.
        for bad in ["0", "-4", "eight", ""] {
            assert_eq!(auto_threads(Some(bad), Some(4)), 4, "RTR_THREADS={bad:?}");
            assert_eq!(auto_threads(Some(bad), None), 1, "RTR_THREADS={bad:?}");
        }
    }

    #[test]
    fn zero_time_budget_parallel_still_reports_first_bound() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(20.0));
        let params = ExploreParams { time_budget: Some(Duration::ZERO), ..Default::default() };
        let part = TemporalPartitioner::new(&g, &arch, params).unwrap();
        let ex = part.explore_parallel(4).unwrap();
        // Phase 1's first reduce_latency runs; no worker starts a candidate,
        // and the expired exploration still surfaces the incumbent.
        assert!(ex.best.is_some());
        assert!(ex.records.iter().all(|r| r.n == ex.records[0].n));
    }

    #[test]
    fn records_for_filters_by_bound() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(20.0));
        let params = ExploreParams { gamma: 2, ..Default::default() };
        let part = TemporalPartitioner::new(&g, &arch, params).unwrap();
        let ex = part.explore().unwrap();
        let total: usize = (0..20).map(|n| ex.records_for(n).count()).sum();
        assert_eq!(total, ex.records.len());
        for n in 0..20 {
            assert!(ex.records_for(n).all(|r| r.n == n));
        }
    }

    #[test]
    fn hint_makes_the_seeded_window_cheap() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(20.0));
        let part = TemporalPartitioner::new(&g, &arch, Default::default()).unwrap();
        // Find any solution, then re-solve a window that the hint satisfies.
        let d_max = max_latency(&g, &arch, 3);
        let (_, sol) = part.solve_window(3, d_max, Latency::ZERO).unwrap();
        let sol = sol.expect("feasible");
        let target = sol.total_latency(&g, &arch);
        let (result, hinted) =
            part.solve_window_hinted(3, target, Latency::ZERO, Some(&sol)).unwrap();
        assert!(matches!(result, IterationResult::Feasible { .. }));
        // The hint itself satisfies the window, so it must be recovered (or
        // bettered).
        assert!(hinted.unwrap().total_latency(&g, &arch) <= target + Latency::from_ns(1e-6));
    }

    #[test]
    fn zero_time_budget_still_reports_first_bound() {
        let g = chain3();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(20.0));
        let params = ExploreParams { time_budget: Some(Duration::ZERO), ..Default::default() };
        let part = TemporalPartitioner::new(&g, &arch, params).unwrap();
        // The first reduce_latency still runs; the relaxation loop does not.
        let ex = part.explore().unwrap();
        assert!(ex.records.iter().all(|r| r.n == ex.records[0].n));
    }
}
