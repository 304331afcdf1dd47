//! A structured branch-and-bound solver specialized to the temporal
//! partitioning constraints.
//!
//! The ILP backend ([`crate::model`]) is faithful to the paper but — with a
//! from-scratch simplex instead of CPLEX — does not scale to the 32-task DCT
//! case study. This solver performs implicit enumeration over the *same*
//! feasible set: tasks are assigned in level order to (partition, design
//! point) pairs with incremental checking of the resource, temporal-order,
//! memory, and latency-window constraints, plus admissible lower-bound
//! pruning and symmetry breaking over interchangeable tasks. Equivalence
//! with the ILP backend is asserted by cross-checking tests on small
//! instances (`tests/backend_equivalence.rs`).

use crate::arch::{Architecture, EnvMemoryPolicy};
use crate::solution::{Placement, Solution};
use rtr_graph::{TaskGraph, TaskId};
use rtr_trace::{CancelFlag, Metric};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default bound on the number of dominance-memo entries kept per search
/// (see [`StructuredSolver::with_memo_limit`]). Each entry stores one
/// discrete key and one float vector, so the table caps out at a few
/// hundred MB on the largest paper-scale instances.
pub const DEFAULT_MEMO_LIMIT: usize = 1 << 20;

/// Entries kept per discrete memo key before new states stop being
/// recorded under that key (lookups always continue).
const MEMO_BUCKET_CAP: usize = 8;

/// Subtree jobs [`StructuredSolver::run_parallel`] aims to generate per
/// worker thread: enough slack that an unlucky giant subtree does not
/// serialize the whole search.
const JOBS_PER_THREAD: usize = 8;

/// Hard cap on generated subtree jobs (prefix expansion stops growing the
/// frontier once it is exceeded).
const MAX_JOBS: usize = 4096;

/// Granularity with which search participants claim node allowance from
/// the shared [`SearchLimits::node_limit`] budget.
const BUDGET_CHUNK: u64 = 4096;

/// `sched.job` failpoint namespace of subtree batches: the site's key is
/// `SUBTREE_FAIL_KEY ^ (job≪8 | attempt)`. Disjoint from the candidate
/// batches' `CANDIDATE_FAIL_KEY` (`1 << 62`), so one fault seed draws
/// independent decisions for the two batch kinds.
const SUBTREE_FAIL_KEY: u64 = 0;

/// Limits for one structured search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchLimits {
    /// Maximum number of (partition, design point) assignments tried.
    pub node_limit: u64,
    /// Wall-clock deadline.
    pub time_limit: Option<Duration>,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits { node_limit: 50_000_000, time_limit: Some(Duration::from_secs(60)) }
    }
}

/// Result of one structured search.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchOutcome {
    /// A constraint-satisfying solution (already compacted).
    Feasible(Solution),
    /// The whole space was exhausted without a solution.
    Infeasible,
    /// A limit fired before the space was exhausted.
    LimitReached,
}

impl SearchOutcome {
    /// The solution, if feasible.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            SearchOutcome::Feasible(s) => Some(s),
            _ => None,
        }
    }
}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Assignments tried.
    pub nodes: u64,
    /// Subtrees cut by the latency lower bound.
    pub latency_prunes: u64,
    /// Subtrees cut by area look-ahead.
    pub area_prunes: u64,
    /// Assignments rejected by the memory constraint.
    pub memory_rejects: u64,
    /// Subtrees cut because an already fully explored state at the same
    /// level dominated them (see the dominance memoization in
    /// [`StructuredSolver`]).
    pub dominance_prunes: u64,
    /// Subtree-job panics the scheduler caught under
    /// [`StructuredSolver::run_parallel`] (always `0` without fault
    /// injection or a genuine bug).
    pub panics_caught: u64,
    /// Panicked subtree jobs that the scheduler retried.
    pub jobs_retried: u64,
    /// Subtree jobs abandoned after exhausting their retries; each one
    /// forces `exhausted` to `false`.
    pub subtrees_lost: u64,
    /// Times the search replaced its incumbent with a strictly better
    /// leaf (node-count-stamped `structured.incumbent` trace events carry
    /// the matching timeline).
    pub incumbent_updates: u64,
    /// Nodes charged per relative-depth bucket: bucket `i` covers
    /// assignment levels `[i·L/8, (i+1)·L/8)` of an `L`-level order, so
    /// the histogram is comparable across instances of different size.
    pub nodes_by_depth: [u64; DEPTH_BUCKETS],
    /// Subtrees pruned (all causes: latency, area, memory, dominance) per
    /// relative-depth bucket — where the bounds actually bite.
    pub prunes_by_depth: [u64; DEPTH_BUCKETS],
    /// `true` if the search space was fully exhausted (a returned solution
    /// is proven optimal for the [`SearchGoal::Optimal`] goal).
    pub exhausted: bool,
}

/// Relative-depth attribution buckets in [`SearchStats`].
pub const DEPTH_BUCKETS: usize = 8;

impl SearchStats {
    /// Accumulates another run's counters into this one. `exhausted`
    /// becomes the logical AND of both sides: a merge of several runs (or
    /// of per-thread partial searches) is exhaustive only if every part
    /// was. Accumulators that start from a neutral element must therefore
    /// initialize `exhausted` to `true`, not rely on `default()`.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.nodes += other.nodes;
        self.latency_prunes += other.latency_prunes;
        self.area_prunes += other.area_prunes;
        self.memory_rejects += other.memory_rejects;
        self.dominance_prunes += other.dominance_prunes;
        self.panics_caught += other.panics_caught;
        self.jobs_retried += other.jobs_retried;
        self.subtrees_lost += other.subtrees_lost;
        self.incumbent_updates += other.incumbent_updates;
        for (a, b) in self.nodes_by_depth.iter_mut().zip(&other.nodes_by_depth) {
            *a += b;
        }
        for (a, b) in self.prunes_by_depth.iter_mut().zip(&other.prunes_by_depth) {
            *a += b;
        }
        self.exhausted &= other.exhausted;
    }
}

impl rtr_trace::Instrument for SearchStats {
    /// The structured-search counters (e.g. under scope `structured`:
    /// `structured.nodes`, `structured.area_prunes`, ...), then the
    /// non-empty depth buckets.
    fn counters(&self) -> Vec<(Cow<'static, str>, u64)> {
        let mut counters: Vec<(Cow<'static, str>, u64)> = vec![
            ("nodes".into(), self.nodes),
            ("latency_prunes".into(), self.latency_prunes),
            ("area_prunes".into(), self.area_prunes),
            ("memory_rejects".into(), self.memory_rejects),
            ("dominance_prunes".into(), self.dominance_prunes),
            ("incumbent_updates".into(), self.incumbent_updates),
        ];
        let depths = [("nodes", &self.nodes_by_depth), ("prunes", &self.prunes_by_depth)];
        for (kind, buckets) in depths {
            for (i, &v) in buckets.iter().enumerate() {
                if v > 0 {
                    counters.push((format!("depth{i}.{kind}").into(), v));
                }
            }
        }
        counters
    }
}

/// Goal of the structured search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchGoal {
    /// Stop at the first solution with total latency `≤ d_max`.
    FirstFeasible,
    /// Exhaust the space and return the minimum-latency solution with total
    /// latency `≤ d_max`.
    Optimal,
}

/// Which topological order tasks are assigned in. Different orders explore
/// different solution basins first; callers that hit a limit with one order
/// can retry with the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderHeuristic {
    /// Follow the data: consumers are assigned soon after their producers
    /// (default; best when intra-partition chains dominate).
    #[default]
    DataFlow,
    /// Strict level order: a whole graph level is assigned before the next.
    Level,
}

/// The solver. See the module docs for the algorithm outline.
#[derive(Debug)]
pub struct StructuredSolver<'g> {
    graph: &'g TaskGraph,
    arch: &'g Architecture,
    n: u32,
    d_max_ns: f64,
    goal: SearchGoal,
    limits: SearchLimits,
    // Precomputed per task (by task index):
    order: Vec<TaskId>,
    /// Design-point trial order per task (latency ascending).
    dp_order: Vec<Vec<usize>>,
    /// Where each task's design points start in the flat tables below:
    /// design point `m` of task `t` is entry `dp_base[t] + m`.
    dp_base: Vec<usize>,
    /// Area of each design point.
    dp_area: Vec<u64>,
    /// Latency of each design point in ns.
    dp_latency_ns: Vec<f64>,
    /// Secondary-class usage of each design point, `[design point][class]`
    /// (empty when the architecture declares no secondary classes).
    dp_secondary: Vec<u64>,
    /// Symmetry group of each task (same group ⇒ interchangeable); the
    /// predecessor of a task within its group in assignment order, if any.
    group_prev: Vec<Option<usize>>,
    /// Total minimum area of tasks from position `i` of `order` onwards.
    suffix_min_area: Vec<u64>,
    /// Incoming edges of each task as `(pred index, data units)`.
    pred_edges: Vec<Vec<(usize, u64)>>,
    /// Longest min-latency path strictly below each task (to any leaf).
    tail_after_ns: Vec<f64>,
    /// Static suffix latency bound: the longest min-latency whole-graph
    /// path through any task at position `≥ i` of `order`. Any completion's
    /// `Σ_p d_p` is at least the graph's critical path, so this is an
    /// admissible per-level floor that stays tight near the root where the
    /// dynamic chain bound knows nothing yet.
    suffix_path_ns: Vec<f64>,
    /// Tasks "open" at each level: assigned before position `i` but with a
    /// successor at position `≥ i`. Together with the symmetry anchor these
    /// are the only already-assigned tasks a subtree below `i` can observe,
    /// and therefore the only ones in the dominance-memo key.
    memo_scope: Vec<Vec<usize>>,
    /// Bound on dominance-memo entries (0 disables memoization).
    memo_limit: usize,
    /// Relative-depth bucket of each level (see
    /// [`SearchStats::nodes_by_depth`]).
    depth_buckets: Vec<u8>,
    /// Warm-start hint: a (typically incumbent) placement tried first at
    /// every node.
    hint: Option<Vec<Placement>>,
    /// Cooperative cancellation latch, polled on the same every-1024-node
    /// cadence as the wall-clock limit; aborts through the
    /// [`SearchOutcome::LimitReached`] path.
    cancel: CancelFlag,
}

/// Compile-time proof that the solver is re-entrant across threads: all
/// mutable search state lives in a per-`run` `State`, so
/// `TemporalPartitioner::explore_parallel` workers may build and run solvers
/// over the same graph and architecture concurrently.
#[allow(dead_code)]
fn assert_thread_safe() {
    fn sync_and_send<T: Sync + Send>() {}
    sync_and_send::<StructuredSolver<'static>>();
    sync_and_send::<SearchLimits>();
    sync_and_send::<SearchOutcome>();
    sync_and_send::<SearchStats>();
}

/// Per-participant dominance-memoization table: one open-addressing hash
/// table per assignment level, keyed on the discrete part of a state's
/// signature (the level itself is implicit). Each bucket stores, flat, the
/// rows of up to [`MEMO_BUCKET_CAP`] states already explored to completion
/// under its key. A row is `[proven, lane sums…, dom…]`: `dom` is the
/// float part (componentwise `≤` means "at least as good"), the
/// [`MEMO_LANES`] lane sums its prefilter (see [`seal_row`]), and `proven`
/// the claim *"this state has no in-window completion with total latency
/// `< proven − 1e-9`"*.
///
/// A state probes its level once on entry ([`MemoTable::probe`]) and
/// inserts on exit with that probe ([`MemoTable::insert`]). The subtree
/// in between only touches deeper levels, so the bucket the probe scanned
/// — and the empty slot it found for a missing key — are still exact at
/// the exit.
struct MemoTable {
    levels: Vec<MemoLevel>,
    entries: usize,
    limit: usize,
}

/// One level of a [`MemoTable`].
#[derive(Default)]
struct MemoLevel {
    /// Open-addressing index with linear probing: `0` is an empty slot,
    /// anything else a bucket index plus one. A power of two long and at
    /// most half full.
    slots: Vec<u32>,
    /// The buckets' keys, back to back (every key at a level has the same
    /// width).
    keys: Vec<u32>,
    /// The buckets' key hashes, so growing the index rehashes nothing.
    hashes: Vec<u64>,
    /// Each bucket's rows, back to back in one vector.
    rows: Vec<Vec<f64>>,
}

/// What one probe learned about a state the memo did not prune, kept
/// until the state's exit.
struct MemoProbe {
    hash: u64,
    /// The slot holding the key's bucket, or the empty slot a new bucket
    /// for the key would take.
    slot: usize,
    bucket: Option<usize>,
    /// Bit `i`: row `i` is componentwise `≤` the state.
    covers: u32,
    /// Bit `i`: the state is componentwise `≤` row `i`.
    covered: u32,
}

/// Multiplicative hash of a memo key (the FxHash step, two key words per
/// multiply), deterministic across runs and platforms. The slot is taken
/// from the high bits. Keys are search state (partition and design-point
/// indices), not outside input, so an unkeyed hash is safe.
fn memo_hash(key: &[u32]) -> u64 {
    let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    let mut pairs = key.chunks_exact(2);
    let h = pairs.by_ref().fold(0, |h, w| step(h, u64::from(w[0]) | u64::from(w[1]) << 32));
    pairs.remainder().iter().fold(h, |h, &k| step(h, u64::from(k)))
}

/// Lane sums leading each memo row, after `proven`.
const MEMO_LANES: usize = 4;

/// Where a memo row's float part starts: after `proven` and the lane sums.
const MEMO_DOM: usize = 1 + MEMO_LANES;

/// Fills the lane sums of a memo row whose `proven` slot and float part
/// are in place: lane `i` sums the float components `i, i + 4, i + 8, …`
/// in that order. IEEE addition is monotone, so a row componentwise `≤`
/// another has every lane sum `≤` the other's.
fn seal_row(row: &mut [f64]) {
    let (head, dom) = row.split_at_mut(MEMO_DOM);
    let lanes = &mut head[1..];
    lanes.fill(0.0);
    for chunk in dom.chunks(MEMO_LANES) {
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane += x;
        }
    }
}

/// Componentwise `(a ≤ b, b ≤ a)` of two equally long sealed rows. The
/// lane sums are tested first: a lane of `a` above `b`'s rules out
/// `a ≤ b` (and below, `b ≤ a`) before any component is read.
#[inline]
fn memo_compare(a: &[f64], b: &[f64]) -> (bool, bool) {
    let (mut le, mut ge) = (true, true);
    for (x, y) in a[1..MEMO_DOM].iter().zip(&b[1..MEMO_DOM]) {
        le &= x <= y;
        ge &= y <= x;
    }
    let (da, db) = (&a[MEMO_DOM..], &b[MEMO_DOM..]);
    match (le, ge) {
        (false, false) => (false, false),
        (true, false) => (da.iter().zip(db).all(|(x, y)| x <= y), false),
        (false, true) => (false, db.iter().zip(da).all(|(x, y)| x <= y)),
        (true, true) => {
            for (x, y) in da.iter().zip(db) {
                le &= x <= y;
                ge &= y <= x;
                if !(le || ge) {
                    break;
                }
            }
            (le, ge)
        }
    }
}

impl MemoLevel {
    /// The slot of `key`'s bucket, or the empty slot where it would go.
    fn find(&self, hash: u64, key: &[u32]) -> (usize, Option<usize>) {
        if self.slots.is_empty() {
            return (0, None);
        }
        let mask = self.slots.len() - 1;
        let width = key.len();
        let mut s = (hash >> 32) as usize & mask;
        loop {
            match self.slots[s] {
                0 => return (s, None),
                v => {
                    let b = v as usize - 1;
                    if self.hashes[b] == hash && self.keys[b * width..(b + 1) * width] == *key {
                        return (s, Some(b));
                    }
                }
            }
            s = (s + 1) & mask;
        }
    }

    /// Adds a bucket for `key` holding `row`. `slot` is the empty slot
    /// [`find`](Self::find) returned, valid unless the index must grow.
    fn add_bucket(&mut self, hash: u64, slot: usize, key: &[u32], row: Vec<f64>) {
        let b = self.rows.len();
        let slot = if 2 * (b + 1) > self.slots.len() {
            let size = (2 * self.slots.len()).max(16);
            self.slots = vec![0; size];
            for (i, &h) in self.hashes.iter().enumerate() {
                let s = self.empty_slot(h);
                self.slots[s] = i as u32 + 1;
            }
            self.empty_slot(hash)
        } else {
            slot
        };
        self.slots[slot] = b as u32 + 1;
        self.keys.extend_from_slice(key);
        self.hashes.push(hash);
        self.rows.push(row);
    }

    fn empty_slot(&self, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut s = (hash >> 32) as usize & mask;
        while self.slots[s] != 0 {
            s = (s + 1) & mask;
        }
        s
    }
}

impl MemoTable {
    fn new(limit: usize, levels: usize) -> Self {
        MemoTable { levels: (0..levels).map(|_| MemoLevel::default()).collect(), entries: 0, limit }
    }

    /// Scans the bucket of state `(key, row)` at `level` once. Returns
    /// `None` if some row dominates the state closely enough that
    /// exploring it cannot improve on `best_now`: the row's completions
    /// are a superset with no larger totals, and none of them beats the
    /// row's `proven`, which `best_now` already matches. Otherwise returns
    /// the probe [`insert`](Self::insert) needs at the state's exit.
    fn probe(&self, level: usize, key: &[u32], row: &[f64], best_now: f64) -> Option<MemoProbe> {
        let lvl = &self.levels[level];
        let hash = memo_hash(key);
        let (slot, bucket) = lvl.find(hash, key);
        let mut probe = MemoProbe { hash, slot, bucket, covers: 0, covered: 0 };
        if let Some(b) = bucket {
            for (i, e) in lvl.rows[b].chunks_exact(row.len()).enumerate() {
                let (covers, covered) = memo_compare(e, row);
                if covers {
                    if best_now <= e[0] {
                        return None;
                    }
                    probe.covers |= 1 << i;
                }
                if covered {
                    probe.covered |= 1 << i;
                }
            }
        }
        Some(probe)
    }

    /// Records the fully explored state `(key, row)` with bound `proven`,
    /// using the probe taken at its entry: skips it if a row covering it
    /// proves as much, drops the rows it covers with no stronger proof,
    /// and keeps at most [`MEMO_BUCKET_CAP`] rows per bucket.
    fn insert(
        &mut self,
        level: usize,
        probe: &MemoProbe,
        key: &[u32],
        row: &mut [f64],
        proven: f64,
    ) {
        if self.limit == 0 || self.entries >= self.limit {
            return;
        }
        // Failpoint: dropping a memo insert loses a future prune but never
        // changes results, so this site is safe under global injection.
        if rtr_trace::failpoint::failpoint("structured.memo_insert", proven.to_bits()) {
            return;
        }
        row[0] = proven;
        let lvl = &mut self.levels[level];
        let Some(b) = probe.bucket else {
            lvl.add_bucket(probe.hash, probe.slot, key, row.to_vec());
            self.entries += 1;
            return;
        };
        let width = row.len();
        let rows = &mut lvl.rows[b];
        let proven_of = |i: usize| rows[i * width];
        if bits(probe.covers).any(|i| proven_of(i) >= proven) {
            return;
        }
        let drop =
            bits(probe.covered).filter(|&i| proven >= proven_of(i)).fold(0u32, |m, i| m | 1 << i);
        if drop != 0 {
            let mut kept = 0;
            for i in 0..rows.len() / width {
                if drop & (1 << i) == 0 {
                    rows.copy_within(i * width..(i + 1) * width, kept * width);
                    kept += 1;
                }
            }
            self.entries -= rows.len() / width - kept;
            rows.truncate(kept * width);
        }
        if rows.len() / width >= MEMO_BUCKET_CAP {
            return;
        }
        rows.extend_from_slice(row);
        self.entries += 1;
    }
}

/// The indices of the set bits of `mask`, ascending.
fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// State shared by the participants of one search (a lone participant
/// included). Latencies travel through `incumbent_bits` as IEEE-754 bits:
/// for non-negative floats the bit pattern orders like the number, so
/// `fetch_min` on bits is `fetch_min` on latencies (the PR-2 explorer's
/// encoding).
struct Shared {
    /// Best total latency accepted by any participant (or the greedy seed).
    incumbent_bits: AtomicU64,
    /// Node allowance claimed so far against the global `node_limit`.
    nodes_claimed: AtomicU64,
    node_limit: u64,
    /// Lowest job index that found a solution ([`SearchGoal::FirstFeasible`]
    /// only); higher-indexed jobs become irrelevant.
    first_found: AtomicUsize,
    /// A node or time limit fired somewhere; stop claiming jobs.
    limit_hit: AtomicBool,
}

/// Undo frame of one applied assignment.
struct Undo {
    ti: usize,
    pi: usize,
    m: usize,
    delta_d: f64,
    old_d: f64,
    old_max: u32,
    old_chain_lb: f64,
}

/// What every candidate of one state shares about its task's
/// predecessors, found in one scan ([`StructuredSolver::pred_context`]).
/// Every predecessor sits at a partition `≤ p_min` and every candidate has
/// `p ≥ p_min`, so a candidate's same-partition chain is `chain_pmin` when
/// `p == p_min` and nothing otherwise.
struct PredContext {
    /// The latest predecessor partition (1 without predecessors).
    p_min: u32,
    /// The longest chain ending at a predecessor in partition `p_min`.
    chain_pmin: f64,
    /// The longest assigned path ending at a predecessor.
    gdepth_in: f64,
}

/// Result of [`StructuredSolver::check_and_apply`].
enum Step {
    /// A constraint or prune rejected the candidate; state unchanged.
    Rejected,
    /// A limit fired (or the job became irrelevant); abort the search.
    Abort,
    /// The assignment was applied; undo with [`StructuredSolver::undo_step`].
    Applied(Undo),
}

/// Per-job outcome a participant hands to the deterministic merge.
struct JobResult {
    /// Improvement found while running this job, if any.
    found: Option<(f64, Vec<Placement>)>,
    /// This job's share of the search statistics.
    stats: SearchStats,
    /// Trace events captured while the job ran, replayed in job order.
    events: Vec<rtr_trace::Event>,
}

struct State<'s> {
    part: Vec<u32>,
    dpc: Vec<usize>,
    area_used: Vec<u64>,
    /// Secondary-resource usage, `[partition][class]` (empty when the
    /// architecture declares no secondary classes).
    sec_used: Vec<u64>,
    chain_ns: Vec<f64>,
    /// Longest whole-graph path ending at each assigned task, with chosen
    /// design-point latencies (all predecessors are assigned first).
    gdepth_ns: Vec<f64>,
    d_part_ns: Vec<f64>,
    sum_d_ns: f64,
    mem: Vec<u64>,
    max_part: u32,
    /// Total area committed by the assignments on the current path.
    total_area: u64,
    /// Running max over assigned tasks of `gdepth + tail_after`: a
    /// monotone-per-path admissible bound on the final `Σ_p d_p`.
    chain_lb_max: f64,
    stats: SearchStats,
    best: Option<(f64, Vec<Placement>)>,
    nodes_exhausted: bool,
    start: Instant,
    /// Per-level candidate buffers, packed for one integer sort (see
    /// [`StructuredSolver::dfs`]).
    cand: Vec<Vec<u128>>,
    memo: MemoTable,
    /// Per-level dominance signatures, built on a state's entry and kept
    /// for its exit.
    sigs: Vec<MemoSig>,
    /// `Some(depth)`: collect surviving prefixes of `depth` assignments
    /// into `jobs` instead of descending past them (job generation).
    gen_depth: Option<usize>,
    jobs: Vec<Vec<(u32, u32)>>,
    shared: &'s Shared,
    /// Node allowance left from the last claimed budget chunk.
    budget_left: u64,
    job_index: usize,
    /// Counter values already pushed to the live status board; the next
    /// publication sends only the delta (see [`publish_status`]).
    published: SearchStats,
}

/// One level's dominance signature (see
/// [`StructuredSolver::build_signature`]).
#[derive(Clone, Default)]
struct MemoSig {
    key: Vec<u32>,
    row: Vec<f64>,
}

/// How often (in charged nodes) a search pushes its deltas to the live
/// status board. Coarse enough to stay invisible next to the per-node
/// bound arithmetic, fine enough for sub-millisecond heartbeat freshness
/// at the solver's node rates.
const STATUS_CADENCE: u64 = 4096;

/// Pushes this state's counter growth since the last publication to the
/// process-global [`rtr_trace::status::board`]. Saturating arithmetic:
/// per-job stat resets can only make a delta read as zero, never wrap.
fn publish_status(st: &mut State) {
    let board = rtr_trace::status::board();
    let (s, p) = (&st.stats, &st.published);
    for (metric, now, then) in [
        (Metric::Nodes, s.nodes, p.nodes),
        (Metric::LatencyPrunes, s.latency_prunes, p.latency_prunes),
        (Metric::AreaPrunes, s.area_prunes, p.area_prunes),
        (Metric::MemoryRejects, s.memory_rejects, p.memory_rejects),
        (Metric::DominancePrunes, s.dominance_prunes, p.dominance_prunes),
    ] {
        board.add(metric, now.saturating_sub(then));
    }
    st.published = st.stats;
}

impl<'g> StructuredSolver<'g> {
    /// Creates a solver for partition bound `n` and absolute latency budget
    /// `d_max_ns` (including reconfiguration overhead).
    pub fn new(
        graph: &'g TaskGraph,
        arch: &'g Architecture,
        n: u32,
        d_max_ns: f64,
        goal: SearchGoal,
        limits: SearchLimits,
    ) -> Self {
        Self::with_order(graph, arch, n, d_max_ns, goal, limits, OrderHeuristic::default())
    }

    /// [`new`](Self::new) with an explicit assignment-order heuristic.
    #[allow(clippy::too_many_arguments)]
    pub fn with_order(
        graph: &'g TaskGraph,
        arch: &'g Architecture,
        n: u32,
        d_max_ns: f64,
        goal: SearchGoal,
        limits: SearchLimits,
        order_heuristic: OrderHeuristic,
    ) -> Self {
        let count = graph.task_count();
        let min_latency_ns: Vec<f64> =
            graph.tasks().iter().map(|t| t.min_latency_point().latency().as_ns()).collect();
        let min_area: Vec<u64> =
            graph.tasks().iter().map(|t| t.min_area_point().area().units()).collect();

        // Level = longest-path depth; sorting by it is a topological order.
        let mut level = vec![0u32; count];
        for &t in graph.topological_order() {
            let l = graph.predecessors(t).iter().map(|p| level[p.index()] + 1).max().unwrap_or(0);
            level[t.index()] = l;
        }

        // Interchangeability groups: same preds, succs, env I/O, and design
        // point multiset.
        let group_key = |t: usize| -> String {
            let task = &graph.tasks()[t];
            let mut preds: Vec<usize> =
                graph.predecessors(TaskId::from_index(t)).iter().map(|p| p.index()).collect();
            preds.sort_unstable();
            let mut succs: Vec<usize> =
                graph.successors(TaskId::from_index(t)).iter().map(|s| s.index()).collect();
            succs.sort_unstable();
            let dps: Vec<String> = task
                .design_points()
                .iter()
                .map(|d| format!("{}:{}", d.area().units(), d.latency().as_ns()))
                .collect();
            format!("{preds:?}|{succs:?}|{dps:?}|{}|{}", task.env_input(), task.env_output())
        };
        let keys: Vec<String> = (0..count).map(group_key).collect();

        // Assignment order: a topological order that "follows the data" —
        // among ready tasks, prefer (1) siblings of the task just assigned
        // (keeps interchangeable groups consecutive for symmetry breaking),
        // then (2) tasks whose predecessors were assigned most recently
        // (keeps producers and their consumers close, which lets pruning see
        // the consequences of a packing early), then id order.
        let order: Vec<TaskId> = match order_heuristic {
            OrderHeuristic::DataFlow => {
                let mut remaining_deps: Vec<usize> =
                    (0..count).map(|t| graph.predecessors(TaskId::from_index(t)).len()).collect();
                let mut ready: Vec<usize> =
                    (0..count).filter(|&t| remaining_deps[t] == 0).collect();
                let mut last_pred_pos = vec![-1i64; count];
                let mut order: Vec<TaskId> = Vec::with_capacity(count);
                let mut last_key: Option<&str> = None;
                // `max_by` is `Some` exactly while `ready` is non-empty.
                while let Some(pos) = ready
                    .iter()
                    .enumerate()
                    .max_by(|(_, &a), (_, &b)| {
                        let sib_a = last_key == Some(keys[a].as_str());
                        let sib_b = last_key == Some(keys[b].as_str());
                        sib_a
                            .cmp(&sib_b)
                            .then(last_pred_pos[a].cmp(&last_pred_pos[b]))
                            .then(b.cmp(&a))
                    })
                    .map(|(i, _)| i)
                {
                    let t = ready.swap_remove(pos);
                    last_key = Some(keys[t].as_str());
                    let assigned_pos = order.len() as i64;
                    order.push(TaskId::from_index(t));
                    for s in graph.successors(TaskId::from_index(t)) {
                        let si = s.index();
                        last_pred_pos[si] = last_pred_pos[si].max(assigned_pos);
                        remaining_deps[si] -= 1;
                        if remaining_deps[si] == 0 {
                            ready.push(si);
                        }
                    }
                }
                order
            }
            OrderHeuristic::Level => {
                let mut order: Vec<TaskId> = (0..count).map(TaskId::from_index).collect();
                order.sort_by(|a, b| {
                    level[a.index()]
                        .cmp(&level[b.index()])
                        .then_with(|| keys[a.index()].cmp(&keys[b.index()]))
                        .then_with(|| a.index().cmp(&b.index()))
                });
                order
            }
        };
        debug_assert_eq!(order.len(), count);

        // group_prev: the previous same-group task in assignment order.
        let mut group_prev = vec![None; count];
        for w in order.windows(2) {
            let (a, b) = (w[0].index(), w[1].index());
            if keys[a] == keys[b] && level[a] == level[b] {
                group_prev[b] = Some(a);
            }
        }

        // Smallest-area first: packing feasibility dominates the search; the
        // chain lower bound rejects too-slow points cheaply when the window
        // is tight.
        let dp_order: Vec<Vec<usize>> = graph
            .tasks()
            .iter()
            .map(|task| {
                let mut idx: Vec<usize> = (0..task.design_points().len()).collect();
                idx.sort_by(|&a, &b| {
                    let da = &task.design_points()[a];
                    let db = &task.design_points()[b];
                    da.area().cmp(&db.area()).then(da.latency().total_cmp(&db.latency()))
                });
                idx
            })
            .collect();

        let classes = arch.secondary_capacities().len();
        let mut dp_base = Vec::with_capacity(count);
        let (mut dp_area, mut dp_latency_ns, mut dp_secondary) =
            (Vec::new(), Vec::new(), Vec::new());
        for task in graph.tasks() {
            dp_base.push(dp_area.len());
            for dp in task.design_points() {
                dp_area.push(dp.area().units());
                dp_latency_ns.push(dp.latency().as_ns());
                dp_secondary.extend((0..classes).map(|k| dp.secondary_usage(k)));
            }
        }

        let mut suffix_min_area = vec![0u64; count + 1];
        for i in (0..count).rev() {
            suffix_min_area[i] = suffix_min_area[i + 1] + min_area[order[i].index()];
        }

        let mut pred_edges = vec![Vec::new(); count];
        for e in graph.edges() {
            pred_edges[e.dst().index()].push((e.src().index(), e.data()));
        }
        let mut tail_after_ns = vec![0.0f64; count];
        for &t in graph.topological_order().iter().rev() {
            let ti = t.index();
            tail_after_ns[ti] = graph
                .successors(t)
                .iter()
                .map(|s| min_latency_ns[s.index()] + tail_after_ns[s.index()])
                .fold(0.0f64, f64::max);
        }

        // Longest min-latency path ending at each task (inclusive), then
        // the per-level suffix of the "longest path through" values.
        let mut head_min_ns = vec![0.0f64; count];
        for &t in graph.topological_order() {
            let ti = t.index();
            head_min_ns[ti] = min_latency_ns[ti]
                + graph
                    .predecessors(t)
                    .iter()
                    .map(|q| head_min_ns[q.index()])
                    .fold(0.0f64, f64::max);
        }
        let mut suffix_path_ns = vec![0.0f64; count + 1];
        for i in (0..count).rev() {
            let ti = order[i].index();
            suffix_path_ns[i] = suffix_path_ns[i + 1].max(head_min_ns[ti] + tail_after_ns[ti]);
        }

        // Open-task scope per level for the dominance memo key.
        let mut pos_of = vec![0usize; count];
        for (i, t) in order.iter().enumerate() {
            pos_of[t.index()] = i;
        }
        let max_succ_pos: Vec<Option<usize>> = (0..count)
            .map(|t| {
                graph.successors(TaskId::from_index(t)).iter().map(|s| pos_of[s.index()]).max()
            })
            .collect();
        let memo_scope: Vec<Vec<usize>> = (0..count)
            .map(|i| {
                (0..count)
                    .filter(|&t| pos_of[t] < i && max_succ_pos[t].is_some_and(|s| s >= i))
                    .collect()
            })
            .collect();

        StructuredSolver {
            graph,
            arch,
            n,
            d_max_ns,
            goal,
            limits,
            order,
            dp_order,
            dp_base,
            dp_area,
            dp_latency_ns,
            dp_secondary,
            group_prev,
            suffix_min_area,
            pred_edges,
            tail_after_ns,
            suffix_path_ns,
            memo_scope,
            memo_limit: DEFAULT_MEMO_LIMIT,
            depth_buckets: (0..count).map(|i| (i * DEPTH_BUCKETS / count) as u8).collect(),
            hint: None,
            cancel: CancelFlag::new(),
        }
    }

    /// Installs a warm-start hint: `placements[t]` is tried first when task
    /// `t` is assigned. Typically the incumbent of a previous, looser
    /// window; completeness is unaffected (the hint only reorders the
    /// search).
    pub fn with_hint(mut self, placements: Vec<Placement>) -> Self {
        self.hint = Some(placements);
        self
    }

    /// Caps the dominance-memoization table at `limit` entries
    /// ([`DEFAULT_MEMO_LIMIT`] unless overridden); `0` disables
    /// memoization entirely. Memoization only ever prunes states proven
    /// unable to improve the incumbent, so a search that finishes within
    /// its limits returns the same solution and outcome at any limit —
    /// only the node count changes. A search that hits its node or time
    /// limit is not covered: the nodes it saves or spends move where the
    /// limit falls, so its best-effort result can differ.
    pub fn with_memo_limit(mut self, limit: usize) -> Self {
        self.memo_limit = limit;
        self
    }

    /// Installs a shared cancellation latch. Once cancelled, the search
    /// aborts at its next every-1024-node budget check exactly as a
    /// wall-clock limit would: the best incumbent found so far survives
    /// and the outcome is [`SearchOutcome::LimitReached`] (best-effort,
    /// not exhaustive).
    pub fn with_cancel(mut self, cancel: CancelFlag) -> Self {
        self.cancel = cancel;
        self
    }

    /// `false` if some task fits no design point on the device at all.
    fn admissible(&self) -> bool {
        self.graph
            .tasks()
            .iter()
            .all(|task| task.design_points().iter().any(|dp| self.arch.admits(dp)))
    }

    /// Greedy seeding: a constructive packing often satisfies loose
    /// windows outright, and otherwise provides an incumbent for the
    /// optimal goal. For [`SearchGoal::FirstFeasible`] the first in-window
    /// packing wins (matching the search's early return); for
    /// [`SearchGoal::Optimal`] the best of the three pickers.
    fn greedy_seed(&self) -> Option<(f64, Solution)> {
        let mut seed: Option<(f64, Solution)> = None;
        for picker in [
            crate::baseline::DesignPointPicker::MinArea,
            crate::baseline::DesignPointPicker::MinLatency,
            crate::baseline::DesignPointPicker::MaxArea,
        ] {
            if let Some(sol) =
                crate::baseline::greedy_partition(self.graph, self.arch, picker, self.n)
            {
                let total = sol.total_latency(self.graph, self.arch).as_ns();
                if total <= self.d_max_ns + 1e-9
                    && seed.as_ref().map(|(b, _)| total < *b).unwrap_or(true)
                {
                    seed = Some((total, sol));
                    if self.goal == SearchGoal::FirstFeasible {
                        return seed;
                    }
                }
            }
        }
        seed
    }

    fn fresh_state<'s>(
        &self,
        best: Option<(f64, Vec<Placement>)>,
        start: Instant,
        shared: &'s Shared,
    ) -> State<'s> {
        let count = self.graph.task_count();
        let np = self.n as usize;
        State {
            part: vec![0; count],
            dpc: vec![0; count],
            area_used: vec![0; np],
            sec_used: vec![0; np * self.arch.secondary_capacities().len()],
            chain_ns: vec![0.0; count],
            gdepth_ns: vec![0.0; count],
            d_part_ns: vec![0.0; np],
            sum_d_ns: 0.0,
            mem: vec![0; np.saturating_sub(1)],
            max_part: 0,
            total_area: 0,
            chain_lb_max: 0.0,
            stats: SearchStats::default(),
            best,
            nodes_exhausted: true,
            start,
            cand: vec![Vec::new(); count],
            memo: MemoTable::new(self.memo_limit, count),
            sigs: vec![MemoSig::default(); count],
            gen_depth: None,
            jobs: Vec::new(),
            shared,
            budget_left: 0,
            job_index: 0,
            published: SearchStats::default(),
        }
    }

    /// The relative-depth attribution bucket of assignment level `idx`
    /// (see [`SearchStats::nodes_by_depth`]).
    #[inline]
    fn depth_bucket(&self, idx: usize) -> usize {
        usize::from(self.depth_buckets[idx])
    }

    /// Runs the search on the calling thread: the whole assignment tree as
    /// one job through the same job body, budget rule and merge as
    /// [`run_parallel`](Self::run_parallel). A panic propagates to the
    /// caller; only a pool's scheduler isolates job panics.
    pub fn run(&self) -> (SearchOutcome, SearchStats) {
        self.search(1)
    }

    /// The search on `threads` participants: the admissibility check and
    /// the greedy seed, then the jobs on a pool, or the whole tree as one
    /// job on the calling thread (one participant, or a graph too small to
    /// split).
    fn search(&self, threads: usize) -> (SearchOutcome, SearchStats) {
        // A task none of whose design points fits the device can never be
        // placed.
        if !self.admissible() {
            return (SearchOutcome::Infeasible, SearchStats::default());
        }
        let seed = self.greedy_seed();
        if self.goal == SearchGoal::FirstFeasible {
            if let Some((_, sol)) = seed {
                return (SearchOutcome::Feasible(sol), SearchStats::default());
            }
        }
        let seed = seed.map(|(total, sol)| (total, sol.placements().to_vec()));
        let start = Instant::now();
        if threads > 1 && self.graph.task_count() >= 2 {
            return rtr_sched::Pool::with(threads, |pool| self.run_jobs(Some(pool), seed, start));
        }
        self.run_jobs(None, seed, start)
    }

    /// The search's answer: the best placements found as a solution, else
    /// `Infeasible` when the tree was exhausted and `LimitReached` when a
    /// budget stopped it.
    fn outcome(
        &self,
        best: Option<Vec<Placement>>,
        stats: SearchStats,
    ) -> (SearchOutcome, SearchStats) {
        match best {
            Some(placements) => {
                let sol = Solution::new(placements, self.n).compacted(self.n);
                (SearchOutcome::Feasible(sol), stats)
            }
            None if stats.exhausted => (SearchOutcome::Infeasible, stats),
            None => (SearchOutcome::LimitReached, stats),
        }
    }

    /// `true` when the dominance memo applies at level `idx`: never during
    /// job generation (a truncated descent proves nothing), never when
    /// disabled, and only where a subtree is deep enough that a lookup can
    /// pay for itself.
    fn memo_active(&self, idx: usize, st: &State) -> bool {
        st.gen_depth.is_none() && self.memo_limit > 0 && idx >= 1 && self.order.len() - idx >= 4
    }

    /// Builds the dominance signature of the current state at level `idx`
    /// into `st.sigs[idx]`: the key is the discrete part, the sealed row
    /// `[proven, lane sums…, dom…]` carries the float part (componentwise
    /// `≤` = at-least-as-good), with `proven` filled in at insert. Only
    /// quantities a subtree below `idx` can observe participate: the
    /// open-task scope's partitions and chains, the symmetry anchor, and
    /// the loads of the `max_part` opened partitions and of the boundaries
    /// between them. The key holds `max_part`; under one key every later
    /// partition is empty and every later boundary holds the same
    /// level-wide host output, so those components are equal in every row
    /// of a bucket and are left out. The admissible-bound inputs (`gdepth`,
    /// `chain_lb_max`) are deliberately excluded — they only tighten
    /// pruning, never completion totals.
    fn build_signature(&self, idx: usize, st: &mut State) {
        let ti = self.order[idx].index();
        let scope = &self.memo_scope[idx];
        let sig = &mut st.sigs[idx];
        sig.key.clear();
        sig.key.push(st.max_part);
        match self.group_prev[ti] {
            // `dpc + 1` so the anchor can never collide with "no anchor".
            Some(prev) => sig.key.extend([st.part[prev], st.dpc[prev] as u32 + 1]),
            None => sig.key.extend([0, 0]),
        }
        sig.key.extend(scope.iter().map(|&q| st.part[q]));
        let opened = st.max_part as usize;
        let classes = self.arch.secondary_capacities().len();
        sig.row.clear();
        sig.row.resize(MEMO_DOM, 0.0);
        sig.row.extend_from_slice(&st.d_part_ns[..opened]);
        sig.row.extend(st.area_used[..opened].iter().map(|&a| a as f64));
        sig.row.extend(st.sec_used[..opened * classes].iter().map(|&u| u as f64));
        sig.row.extend(st.mem[..opened.saturating_sub(1)].iter().map(|&m| m as f64));
        sig.row.extend(scope.iter().map(|&q| st.chain_ns[q]));
        seal_row(&mut sig.row);
    }

    /// The [`PredContext`] of task `ti` in the current state.
    fn pred_context(&self, ti: usize, st: &State) -> PredContext {
        let mut ctx = PredContext { p_min: 1, chain_pmin: 0.0, gdepth_in: 0.0 };
        for &(q, _) in &self.pred_edges[ti] {
            let pq = st.part[q];
            if pq > ctx.p_min {
                (ctx.p_min, ctx.chain_pmin) = (pq, st.chain_ns[q]);
            } else if pq == ctx.p_min {
                ctx.chain_pmin = ctx.chain_pmin.max(st.chain_ns[q]);
            }
            ctx.gdepth_in = ctx.gdepth_in.max(st.gdepth_ns[q]);
        }
        ctx
    }

    /// Returns `true` to abort the whole search (first-feasible found, or a
    /// limit fired).
    fn dfs(&self, idx: usize, st: &mut State) -> bool {
        if idx == self.order.len() {
            let total = st.sum_d_ns + self.ct_ns() * f64::from(st.max_part);
            if total <= self.d_max_ns + 1e-9 {
                let better = match &st.best {
                    Some((b, _)) => total < b - 1e-9,
                    None => true,
                };
                if better {
                    let placements: Vec<Placement> = st
                        .part
                        .iter()
                        .zip(&st.dpc)
                        .map(|(&p, &m)| Placement { partition: p, design_point: m })
                        .collect();
                    st.best = Some((total, placements));
                    st.stats.incumbent_updates += 1;
                    rtr_trace::status::board().record_incumbent(total);
                    // Node-count-stamped (not wall-clock-stamped), so the
                    // improvement timeline is deterministic and replays
                    // identically through the capture/merge machinery.
                    let nodes = st.stats.nodes;
                    rtr_trace::event("structured.incumbent", || {
                        vec![
                            ("nodes".to_owned(), nodes.into()),
                            ("latency_ns".to_owned(), total.into()),
                        ]
                    });
                    st.shared.incumbent_bits.fetch_min(total.to_bits(), Ordering::Relaxed);
                }
                if self.goal == SearchGoal::FirstFeasible {
                    return true;
                }
            }
            return false;
        }

        // Job generation: record the surviving prefix instead of descending.
        if st.gen_depth == Some(idx) {
            let prefix: Vec<(u32, u32)> = self.order[..idx]
                .iter()
                .map(|t| (st.part[t.index()], st.dpc[t.index()] as u32))
                .collect();
            st.jobs.push(prefix);
            return false;
        }

        // One memo probe per state: the signature and the bucket scan
        // taken here also serve the insert at this state's exit, because
        // undo restores the state exactly and deeper levels never touch
        // this level's table.
        let probe = if self.memo_active(idx, st) {
            self.build_signature(idx, st);
            let best_now = st.best.as_ref().map(|(b, _)| *b).unwrap_or(f64::INFINITY);
            let sig = &st.sigs[idx];
            match st.memo.probe(idx, &sig.key, &sig.row, best_now) {
                Some(probe) => Some(probe),
                None => {
                    st.stats.dominance_prunes += 1;
                    st.stats.prunes_by_depth[self.depth_bucket(idx)] += 1;
                    return false;
                }
            }
        } else {
            None
        };

        let ti = self.order[idx].index();
        // One scan of the predecessors serves every candidate below; only
        // the `p_min` partition can chain with them.
        let ctx = self.pred_context(ti, st);
        let p_min = ctx.p_min;
        // Symmetry breaking: within an interchangeable group, (partition,
        // design point) must be lexicographically non-decreasing.
        let sym_floor = self.group_prev[ti].map(|prev| (st.part[prev], st.dpc[prev]));

        // Warm start: follow the hint solution first (local search around
        // an incumbent from a previous, looser window).
        let hint_pair = self
            .hint
            .as_ref()
            .and_then(|h| h.get(ti).copied())
            .map(|pl| (pl.partition, pl.design_point))
            .filter(|&(p, m)| {
                p >= p_min
                    && p <= self.n
                    && m < self.dp_order[ti].len()
                    && match sym_floor {
                        Some((sp, sm)) => p > sp || (p == sp && m >= sm),
                        None => true,
                    }
            });
        if let Some((p, m)) = hint_pair {
            if let Some(abort) = self.try_candidate(idx, p, m, &ctx, st) {
                if abort {
                    return true;
                }
            }
        }

        // Candidate ordering: try cheap assignments first so the incumbent
        // closes early. The key is the exact objective increment — the
        // partition-latency growth plus `C_T` times the partition-count
        // growth; only the `p_min` partition can chain with predecessors, so
        // the chain contribution is known without applying the assignment.
        // Enumeration order `(p, k)` — `k` indexing `dp_order` — breaks
        // ties, which keeps the order deterministic. Each candidate packs
        // as `key bits · 2^64 + p · 2^32 + k`: the key is never negative,
        // so its bits sort like the number, and one integer sort orders
        // by key, then enumeration.
        let mut cand = std::mem::take(&mut st.cand[idx]);
        cand.clear();
        let latency_ns = &self.dp_latency_ns[self.dp_base[ti]..];
        for p in p_min..=self.n {
            let pi = (p - 1) as usize;
            for (k, &m) in self.dp_order[ti].iter().enumerate() {
                if Some((p, m)) == hint_pair {
                    continue;
                }
                if let Some((sp, sm)) = sym_floor {
                    if p < sp || (p == sp && m < sm) {
                        continue;
                    }
                }
                let base = if p == p_min { ctx.chain_pmin } else { 0.0 };
                let delta_d = st.d_part_ns[pi].max(base + latency_ns[m]) - st.d_part_ns[pi];
                let eta_delta = f64::from(p.max(st.max_part) - st.max_part);
                let key = (delta_d + self.ct_ns() * eta_delta).to_bits();
                cand.push(u128::from(key) << 64 | u128::from(p) << 32 | k as u128);
            }
        }
        cand.sort_unstable();
        let mut aborted = false;
        for &c in &cand {
            let (p, k) = ((c >> 32) as u32, c as u32 as usize);
            if let Some(true) = self.try_candidate(idx, p, self.dp_order[ti][k], &ctx, st) {
                aborted = true;
                break;
            }
        }
        st.cand[idx] = cand;
        if aborted {
            return true;
        }

        // Fully explored without a limit firing: record the dominance entry.
        // `proven` is the tightest incumbent this exploration pruned against
        // — nothing below this state beats it by more than the tolerance.
        if let Some(probe) = probe {
            let local = st.best.as_ref().map(|(b, _)| *b).unwrap_or(f64::INFINITY);
            let shared_best = f64::from_bits(st.shared.incumbent_bits.load(Ordering::Relaxed));
            let sig = &mut st.sigs[idx];
            st.memo.insert(idx, &probe, &sig.key, &mut sig.row, local.min(shared_best));
        }
        false
    }

    /// Charges one node against the active limits. Returns `true` to abort.
    ///
    /// Participants claim allowances from the *global* node budget in
    /// [`BUDGET_CHUNK`]-sized chunks, so a `node_limit` of 50M means 50M
    /// nodes across all threads (allowances never exceed the remainder),
    /// and a lone participant stops at exactly the limit; wall-clock,
    /// cancellation and first-found aborts piggyback on the every-1024
    /// check.
    fn charge_node(&self, st: &mut State) -> bool {
        let sh = st.shared;
        if st.budget_left == 0 {
            if sh.limit_hit.load(Ordering::Relaxed) {
                st.nodes_exhausted = false;
                return true;
            }
            let claimed = sh.nodes_claimed.fetch_add(BUDGET_CHUNK, Ordering::Relaxed);
            if claimed >= sh.node_limit {
                sh.limit_hit.store(true, Ordering::Relaxed);
                st.nodes_exhausted = false;
                return true;
            }
            st.budget_left = BUDGET_CHUNK.min(sh.node_limit - claimed);
        }
        if st.stats.nodes.is_multiple_of(1024) {
            let timed_out = self.limits.time_limit.is_some_and(|limit| st.start.elapsed() >= limit);
            if timed_out || self.cancel.is_cancelled() {
                sh.limit_hit.store(true, Ordering::Relaxed);
                st.nodes_exhausted = false;
                return true;
            }
            // First-feasible found in an earlier subtree: this job can no
            // longer win the merge, stop without marking the search
            // non-exhaustive.
            if self.goal == SearchGoal::FirstFeasible
                && sh.first_found.load(Ordering::Relaxed) < st.job_index
            {
                return true;
            }
        }
        st.budget_left -= 1;
        st.stats.nodes += 1;
        if st.stats.nodes.is_multiple_of(STATUS_CADENCE) {
            publish_status(st);
        }
        false
    }

    /// Checks the task at level `idx` on `(p, m)` against every constraint
    /// and bound and, if it survives, applies the assignment. `ctx` is the
    /// task's [`PredContext`] in the current state. `charge` is `false`
    /// only when a job replays its prefix, which generation already
    /// charged.
    fn check_and_apply(
        &self,
        idx: usize,
        p: u32,
        m: usize,
        ctx: &PredContext,
        st: &mut State,
        charge: bool,
    ) -> Step {
        let ti = self.order[idx].index();
        let pi = (p - 1) as usize;
        if charge {
            if self.charge_node(st) {
                return Step::Abort;
            }
            st.stats.nodes_by_depth[self.depth_bucket(idx)] += 1;
        }

        let d = self.dp_base[ti] + m;
        let (area, latency) = (self.dp_area[d], self.dp_latency_ns[d]);
        let cap = self.arch.resource_capacity().units();
        // Resource.
        if st.area_used[pi] + area > cap {
            return Step::Rejected;
        }
        // Secondary resource classes (constraint (6) per class).
        let capacities = self.arch.secondary_capacities();
        let classes = capacities.len();
        let usage = &self.dp_secondary[d * classes..(d + 1) * classes];
        let used = &st.sec_used[pi * classes..(pi + 1) * classes];
        if used.iter().zip(usage).zip(capacities).any(|((&u, &x), &c)| u + x > c) {
            return Step::Rejected;
        }
        // Area look-ahead: remaining minimum areas (excluding t) must
        // fit in the total free area.
        // `total_area` is the sum of `area_used`; wrapping arithmetic
        // yields `Σ_q (cap − used_q) − area` exactly, as that never
        // underflows.
        let free_total =
            u64::from(self.n).wrapping_mul(cap).wrapping_sub(st.total_area).wrapping_sub(area);
        if self.suffix_min_area[idx + 1] > free_total {
            st.stats.area_prunes += 1;
            st.stats.prunes_by_depth[self.depth_bucket(idx)] += 1;
            return Step::Rejected;
        }

        // Latency bookkeeping from the state's one predecessor scan.
        let chain_in = if p == ctx.p_min { ctx.chain_pmin } else { 0.0 };
        let chain = latency + chain_in;
        let new_d = st.d_part_ns[pi].max(chain);
        let delta_d = new_d - st.d_part_ns[pi];
        let new_sum = st.sum_d_ns + delta_d;
        let new_max_part = st.max_part.max(p);
        // Admissible chain bound: the longest assigned-latency path ending
        // at t plus the cheapest possible completion below it; tracked as a
        // running max because it is monotone along a path.
        let gdepth = latency + ctx.gdepth_in;
        let chain_track = st.chain_lb_max.max(gdepth + self.tail_after_ns[ti]);
        // η lower bound: partitions already opened, or however many the
        // committed area plus the cheapest remaining areas must occupy.
        // (The division only runs when the area floor can exceed the
        // partitions already opened.)
        let area_floor = st.total_area + area + self.suffix_min_area[idx + 1];
        let eta_lb = if area_floor <= u64::from(new_max_part).saturating_mul(cap) {
            new_max_part
        } else {
            new_max_part.max(crate::bounds::min_partitions_for_area(area_floor, cap))
        };
        let lb = new_sum.max(chain_track).max(self.suffix_path_ns[idx + 1])
            + self.ct_ns() * f64::from(eta_lb);
        if lb > self.d_max_ns + 1e-9 {
            st.stats.latency_prunes += 1;
            st.stats.prunes_by_depth[self.depth_bucket(idx)] += 1;
            return Step::Rejected;
        }
        if self.goal == SearchGoal::Optimal {
            if let Some((best, _)) = &st.best {
                if lb >= best - 1e-9 {
                    st.stats.latency_prunes += 1;
                    st.stats.prunes_by_depth[self.depth_bucket(idx)] += 1;
                    return Step::Rejected;
                }
            }
            // Cross-thread incumbent: strictly worse only, so a bound that
            // ties the (racy) shared value never prunes — that keeps the
            // merged result independent of arrival order.
            let shared_best = f64::from_bits(st.shared.incumbent_bits.load(Ordering::Relaxed));
            if lb > shared_best + 1e-9 {
                st.stats.latency_prunes += 1;
                st.stats.prunes_by_depth[self.depth_bucket(idx)] += 1;
                return Step::Rejected;
            }
        }

        // Memory: add every charge, and walk them back on a rejection.
        let mem_cap = self.arch.memory_capacity();
        let mut fits = true;
        self.for_each_charge(ti, p, &st.part, |i, amount| {
            st.mem[i] += amount;
            fits &= st.mem[i] <= mem_cap;
        });
        if !fits {
            self.for_each_charge(ti, p, &st.part, |i, amount| st.mem[i] -= amount);
            st.stats.memory_rejects += 1;
            st.stats.prunes_by_depth[self.depth_bucket(idx)] += 1;
            return Step::Rejected;
        }

        // Apply.
        st.part[ti] = p;
        st.dpc[ti] = m;
        st.area_used[pi] += area;
        for (u, &x) in st.sec_used[pi * classes..(pi + 1) * classes].iter_mut().zip(usage) {
            *u += x;
        }
        st.chain_ns[ti] = chain;
        st.gdepth_ns[ti] = gdepth;
        let old_d = st.d_part_ns[pi];
        st.d_part_ns[pi] = new_d;
        st.sum_d_ns = new_sum;
        let old_max = st.max_part;
        st.max_part = new_max_part;
        let old_chain_lb = st.chain_lb_max;
        st.chain_lb_max = chain_track;
        st.total_area += area;
        Step::Applied(Undo { ti, pi, m, delta_d, old_d, old_max, old_chain_lb })
    }

    /// Visits the boundary memory charges of task `ti` on partition `p`,
    /// as `(mem index, amount)`, in one fixed order: each predecessor's
    /// data on every boundary between its partition and `p`, then, with
    /// host I/O resident on the board, the task's input on every boundary
    /// before `p` and its output on every boundary after. It reads only the
    /// predecessors' partitions, which stay put while `ti` is assigned, so
    /// a later walk visits exactly the charges an earlier one made.
    fn for_each_charge(&self, ti: usize, p: u32, part: &[u32], mut charge: impl FnMut(usize, u64)) {
        // Boundary `b`, between partitions `b − 1` and `b`, is `mem[b − 2]`.
        let mut boundaries = |from: u32, to: u32, amount: u64| {
            if amount > 0 {
                for b in from..=to {
                    charge((b - 2) as usize, amount);
                }
            }
        };
        for &(q, data) in &self.pred_edges[ti] {
            boundaries(part[q] + 1, p, data);
        }
        if self.arch.env_policy() == EnvMemoryPolicy::Resident {
            let task = &self.graph.tasks()[ti];
            boundaries(2, p, task.env_input());
            boundaries(p + 1, self.n, task.env_output());
        }
    }

    /// Reverses one [`Step::Applied`] assignment.
    fn undo_step(&self, u: Undo, st: &mut State) {
        let d = self.dp_base[u.ti] + u.m;
        let classes = self.arch.secondary_capacities().len();
        self.for_each_charge(u.ti, u.pi as u32 + 1, &st.part, |i, amount| st.mem[i] -= amount);
        st.part[u.ti] = 0;
        st.dpc[u.ti] = 0;
        st.area_used[u.pi] -= self.dp_area[d];
        let usage = &self.dp_secondary[d * classes..(d + 1) * classes];
        for (used, &x) in st.sec_used[u.pi * classes..(u.pi + 1) * classes].iter_mut().zip(usage) {
            *used -= x;
        }
        st.chain_ns[u.ti] = 0.0;
        st.gdepth_ns[u.ti] = 0.0;
        st.d_part_ns[u.pi] = u.old_d;
        st.sum_d_ns -= u.delta_d;
        st.max_part = u.old_max;
        st.chain_lb_max = u.old_chain_lb;
        st.total_area -= self.dp_area[d];
    }

    /// Tries assigning the task at level `idx` to `(p, m)`. Returns `None`
    /// if the candidate was rejected by a constraint or prune,
    /// `Some(abort)` after descending.
    fn try_candidate(
        &self,
        idx: usize,
        p: u32,
        m: usize,
        ctx: &PredContext,
        st: &mut State,
    ) -> Option<bool> {
        match self.check_and_apply(idx, p, m, ctx, st, true) {
            Step::Rejected => None,
            Step::Abort => Some(true),
            Step::Applied(u) => {
                let abort = self.dfs(idx + 1, st);
                self.undo_step(u, st);
                Some(abort)
            }
        }
    }

    fn ct_ns(&self) -> f64 {
        self.arch.reconfig_time().as_ns()
    }

    /// Runs the search on `threads` participants, resolved by
    /// [`crate::resolve_threads`] (`0` = auto via `RTR_THREADS` / available
    /// parallelism, capped at [`crate::MAX_THREADS`]). At one thread this
    /// is [`run`](Self::run).
    ///
    /// When the caller is already inside a pool — a window solve submitted
    /// from a phase-2 candidate job — the ambient pool is reused and
    /// `threads` only decides whether the tree is split: both layers draw
    /// from the one global thread budget, and this window's jobs can be
    /// taken by idle workers from other candidates (and vice versa) instead
    /// of idling a statically split sub-pool. Otherwise a pool of `threads`
    /// is created for the duration of the solve.
    ///
    /// The first levels of the tree are expanded — pruning against the
    /// greedy seed only — into prefix jobs; the pool hands jobs out in
    /// ascending order, participants share an incumbent as `AtomicU64`
    /// latency bits, and the merge scans job results in ascending job order
    /// accepting strict improvements, so the returned `Solution` and
    /// `SearchOutcome` are identical to [`run`](Self::run) for any thread
    /// count. Fired node/time limits are the exception: the global budget
    /// is exact, but *which* nodes it covers depends on scheduling, so
    /// limit-hit results are best-effort (exactly like wall-clock deadlines
    /// at one thread). A subtree job that panics is retried and, after
    /// [`rtr_trace::failpoint::RETRY_LIMIT`] retries, abandoned by the
    /// scheduler and counted in [`SearchStats::subtrees_lost`].
    pub fn run_parallel(&self, threads: usize) -> (SearchOutcome, SearchStats) {
        self.search(crate::resolve_threads(threads))
    }

    /// Every structured search after its seed (see
    /// [`run_parallel`](Self::run_parallel), which owns the public
    /// contract). With a pool it splits the tree into prefix jobs and runs
    /// them as one batch; without one it runs the whole tree as job 0 on
    /// the calling thread. Either way every job runs the same body, charges
    /// the same shared budget, and goes through the same ascending merge.
    fn run_jobs(
        &self,
        pool: Option<&rtr_sched::Pool>,
        seed: Option<(f64, Vec<Placement>)>,
        start: Instant,
    ) -> (SearchOutcome, SearchStats) {
        let count = self.graph.task_count();
        let shared = Shared {
            incumbent_bits: AtomicU64::new(
                seed.as_ref().map(|(b, _)| *b).unwrap_or(f64::INFINITY).to_bits(),
            ),
            nodes_claimed: AtomicU64::new(0),
            node_limit: self.limits.node_limit,
            first_found: AtomicUsize::new(usize::MAX),
            limit_hit: AtomicBool::new(false),
        };
        // Job generation: deepen the split frontier until every pool
        // participant can claim several jobs (work stealing by job
        // granularity). Each pass re-expands from the root, which is cheap
        // — the frontier is tiny compared to the tree below it. A lone
        // participant keeps the root as its only job.
        let participants = pool.map_or(1, rtr_sched::Pool::threads);
        let target = pool.map_or(1, |_| (participants * JOBS_PER_THREAD).min(MAX_JOBS));
        let mut gen = self.fresh_state(seed.clone(), start, &shared);
        let mut jobs: Vec<Vec<(u32, u32)>> = vec![Vec::new()];
        let mut depth = 0usize;
        while jobs.len() < target && depth + 1 < count {
            depth += 1;
            gen.gen_depth = Some(depth);
            gen.jobs = Vec::new();
            let abort = self.dfs(0, &mut gen);
            // A node/time limit fired while only generating jobs, or every
            // prefix of this depth was pruned: the tree is exhausted
            // without ever reaching a leaf.
            if abort || gen.jobs.is_empty() {
                let stats = SearchStats { exhausted: !abort, ..gen.stats };
                return self.outcome(gen.best.map(|(_, pl)| pl), stats);
            }
            if gen.jobs.len() > MAX_JOBS && jobs.len() > 1 {
                // Deepening exploded; the previous, coarser frontier wins.
                break;
            }
            jobs = std::mem::take(&mut gen.jobs);
        }
        publish_status(&mut gen);
        // Generation claimed whole chunks; the jobs' budget starts at the
        // nodes it actually charged.
        shared.nodes_claimed.store(gen.stats.nodes, Ordering::Relaxed);
        let depth = jobs[0].len();
        debug_assert!(jobs.iter().all(|j| j.len() == depth));

        let results: Vec<Mutex<Option<JobResult>>> =
            (0..jobs.len()).map(|_| Mutex::new(None)).collect();
        // Per-participant state, created on first claim and reused across
        // this batch's jobs, so the dominance memo keeps its cross-job hits.
        let states: Vec<Mutex<Option<State<'_>>>> =
            (0..participants).map(|_| Mutex::new(None)).collect();
        // Per-participant load accounting for the flight recorder: jobs
        // each participant actually ran and how long it stayed busy.
        let worker_jobs: Vec<AtomicU64> = (0..participants).map(|_| AtomicU64::new(0)).collect();
        let worker_busy_us: Vec<AtomicU64> = (0..participants).map(|_| AtomicU64::new(0)).collect();
        let workers_started = Instant::now();
        let run_job = |j: usize| {
            let pid = pool.and_then(rtr_sched::Pool::participant_ordinal).unwrap_or(0);
            let busy_from = Instant::now();
            // The job owns its participant's state until it puts it back,
            // so a panicking job drops the state it may have left
            // mid-assignment, and the scheduler's retry starts from a
            // fresh one. The merge accepts ascending strict improvements
            // only, so a rebuilt incumbent never changes the outcome.
            let taken = states[pid].lock().unwrap_or_else(PoisonError::into_inner).take();
            let mut st = taken.unwrap_or_else(|| self.fresh_state(seed.clone(), start, &shared));
            if self.goal == SearchGoal::FirstFeasible {
                st.best = None;
            }
            worker_jobs[pid].fetch_add(1, Ordering::Relaxed);
            rtr_trace::status::board().add(Metric::JobsClaimed, 1);
            st.job_index = j;
            st.nodes_exhausted = true;
            let prev_best = st.best.as_ref().map(|(b, _)| *b);
            let ((), events) = rtr_trace::capture(|| {
                if shared.limit_hit.load(Ordering::Relaxed)
                    || (self.goal == SearchGoal::FirstFeasible
                        && shared.first_found.load(Ordering::Relaxed) < j)
                {
                    return;
                }
                let span = rtr_trace::span("structured.subtree")
                    .with("job", j as u64)
                    .with("depth", depth as u64);
                let mut undos: Vec<Undo> = Vec::with_capacity(depth);
                let mut pruned = false;
                for (lvl, &(p, m)) in jobs[j].iter().enumerate() {
                    // Replaying the prefix can legitimately be rejected
                    // now: a better incumbent may have arrived since
                    // generation, pruning the whole subtree.
                    let ctx = self.pred_context(self.order[lvl].index(), &st);
                    match self.check_and_apply(lvl, p, m as usize, &ctx, &mut st, false) {
                        Step::Applied(u) => undos.push(u),
                        _ => {
                            pruned = true;
                            break;
                        }
                    }
                }
                if !pruned {
                    self.dfs(depth, &mut st);
                }
                for u in undos.into_iter().rev() {
                    self.undo_step(u, &mut st);
                }
                span.finish();
            });
            publish_status(&mut st);
            let found = match (&st.best, prev_best) {
                (Some((b, pl)), Some(pb)) if *b < pb - 1e-9 => Some((*b, pl.clone())),
                (Some((b, pl)), None) => Some((*b, pl.clone())),
                _ => None,
            };
            let mut stats = std::mem::take(&mut st.stats);
            st.published = SearchStats::default();
            stats.exhausted = st.nodes_exhausted;
            if self.goal == SearchGoal::FirstFeasible && found.is_some() {
                shared.first_found.fetch_min(j, Ordering::Relaxed);
            }
            *results[j].lock().unwrap_or_else(PoisonError::into_inner) =
                Some(JobResult { found, stats, events });
            *states[pid].lock().unwrap_or_else(PoisonError::into_inner) = Some(st);
            worker_busy_us[pid].fetch_add(
                busy_from.elapsed().as_micros().min(u64::MAX as u128) as u64,
                Ordering::Relaxed,
            );
        };
        let report = match pool {
            Some(pool) => pool.run(jobs.len(), SUBTREE_FAIL_KEY, run_job),
            None => {
                run_job(0);
                rtr_sched::BatchReport::default()
            }
        };
        // Per-worker load balance gauges. Wall-clock-dependent and only
        // emitted on a pool, so they never enter the deterministic
        // one-thread trace stream the replay tests compare.
        if pool.is_some() && rtr_trace::enabled() {
            let wall_us = workers_started.elapsed().as_micros().min(u64::MAX as u128) as u64;
            for (w, (jobs_run, busy)) in worker_jobs.iter().zip(&worker_busy_us).enumerate() {
                let busy_us = busy.load(Ordering::Relaxed).min(wall_us);
                rtr_trace::gauge(
                    &format!("structured.worker{w}.jobs"),
                    jobs_run.load(Ordering::Relaxed) as f64,
                );
                rtr_trace::gauge(
                    &format!("structured.worker{w}.idle_us"),
                    (wall_us - busy_us) as f64,
                );
            }
        }

        // Deterministic merge: ascending job order, strict improvement only
        // — exactly the order and acceptance rule one participant applies
        // across these subtrees.
        let mut stats = gen.stats;
        stats.exhausted = true;
        let mut best = seed;
        let mut first_feasible: Option<Vec<Placement>> = None;
        for slot in &results {
            match slot.lock().unwrap_or_else(PoisonError::into_inner).take() {
                Some(r) => {
                    rtr_trace::dispatch_all(r.events);
                    stats.absorb(&r.stats);
                    if let Some((lat, pl)) = r.found {
                        match self.goal {
                            SearchGoal::FirstFeasible => {
                                if first_feasible.is_none() {
                                    first_feasible = Some(pl);
                                }
                            }
                            SearchGoal::Optimal => {
                                let cur = best.as_ref().map(|(b, _)| *b).unwrap_or(f64::INFINITY);
                                if lat < cur - 1e-9 {
                                    best = Some((lat, pl));
                                }
                            }
                        }
                    }
                }
                None => stats.exhausted = false,
            }
        }
        if self.goal == SearchGoal::FirstFeasible && first_feasible.is_some() {
            // Stopping at the first solution still counts as an exhaustive
            // answer, unless a limit fired somewhere.
            stats.exhausted = !shared.limit_hit.load(Ordering::Relaxed);
        }
        // Jobs the scheduler abandoned at the `sched.job` site left their
        // result slot empty (forcing `exhausted = false` above); the batch
        // report is the search's whole degradation account.
        stats.panics_caught += report.panics_caught;
        stats.jobs_retried += report.jobs_retried;
        stats.subtrees_lost += report.lost.len() as u64;
        let winner = match self.goal {
            SearchGoal::FirstFeasible => first_feasible,
            SearchGoal::Optimal => best.map(|(_, pl)| pl),
        };
        self.outcome(winner, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_solution;
    use rtr_graph::{Area, DesignPoint, Latency, TaskGraphBuilder};
    use std::collections::HashMap;

    fn dp(name: &str, area: u64, lat: f64) -> DesignPoint {
        DesignPoint::new(name, Area::new(area), Latency::from_ns(lat))
    }

    fn small_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b
            .add_task("a")
            .design_point(dp("s", 50, 300.0))
            .design_point(dp("f", 90, 150.0))
            .env_input(2)
            .finish();
        let c = b
            .add_task("c")
            .design_point(dp("s", 60, 250.0))
            .design_point(dp("f", 95, 120.0))
            .env_output(1)
            .finish();
        b.add_edge(a, c, 3).unwrap();
        b.build().unwrap()
    }

    fn run(
        graph: &TaskGraph,
        arch: &Architecture,
        n: u32,
        d_max: f64,
        goal: SearchGoal,
    ) -> SearchOutcome {
        StructuredSolver::new(graph, arch, n, d_max, goal, SearchLimits::default()).run().0
    }

    #[test]
    fn finds_feasible_and_respects_window() {
        let g = small_graph();
        let arch = Architecture::new(Area::new(100), 16, Latency::from_ns(50.0));
        match run(&g, &arch, 2, 1_000.0, SearchGoal::FirstFeasible) {
            SearchOutcome::Feasible(sol) => {
                assert!(validate_solution(&g, &arch, &sol).is_empty());
                assert!(sol.total_latency(&g, &arch).as_ns() <= 1_000.0);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn window_below_optimum_is_infeasible() {
        let g = small_graph();
        let arch = Architecture::new(Area::new(100), 16, Latency::from_ns(50.0));
        // Optimum is 150 + 120 + 2*50 = 370.
        assert_eq!(run(&g, &arch, 2, 369.0, SearchGoal::FirstFeasible), SearchOutcome::Infeasible);
        assert!(matches!(
            run(&g, &arch, 2, 370.0, SearchGoal::FirstFeasible),
            SearchOutcome::Feasible(_)
        ));
    }

    #[test]
    fn optimal_mode_finds_minimum() {
        let g = small_graph();
        let arch = Architecture::new(Area::new(100), 16, Latency::from_ns(50.0));
        match run(&g, &arch, 2, 1e9, SearchGoal::Optimal) {
            SearchOutcome::Feasible(sol) => {
                assert_eq!(sol.total_latency(&g, &arch).as_ns(), 370.0);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn oversized_task_is_infeasible() {
        let g = small_graph();
        let arch = Architecture::new(Area::new(40), 16, Latency::from_ns(50.0));
        assert_eq!(run(&g, &arch, 4, 1e9, SearchGoal::FirstFeasible), SearchOutcome::Infeasible);
    }

    #[test]
    fn memory_blocks_split() {
        let g = small_graph();
        // Splitting puts edge data (3 units) across the boundary; the area
        // (50 + 60 > 100) rules out sharing a partition, so memory 2 makes
        // the instance infeasible while memory 3 admits the split.
        let arch = Architecture::new(Area::new(100), 2, Latency::from_ns(50.0));
        assert_eq!(run(&g, &arch, 2, 1e9, SearchGoal::FirstFeasible), SearchOutcome::Infeasible);
        let arch_ok = Architecture::new(Area::new(100), 3, Latency::from_ns(50.0));
        assert!(matches!(
            run(&g, &arch_ok, 2, 1e9, SearchGoal::FirstFeasible),
            SearchOutcome::Feasible(_)
        ));
    }

    #[test]
    fn node_limit_reports_limit() {
        let g = small_graph();
        let arch = Architecture::new(Area::new(100), 16, Latency::from_ns(50.0));
        let limits = SearchLimits { node_limit: 1, time_limit: None };
        // Force a search that needs more than one node: infeasible window.
        let (out, stats) =
            StructuredSolver::new(&g, &arch, 2, 369.0, SearchGoal::FirstFeasible, limits).run();
        assert_eq!(out, SearchOutcome::LimitReached);
        assert_eq!(stats.nodes, 1);
    }

    #[test]
    fn symmetric_tasks_are_broken() {
        // Four identical independent tasks: symmetry breaking should keep the
        // node count tiny even for an exhaustive (infeasible) search.
        let mut b = TaskGraphBuilder::new();
        for i in 0..4 {
            b.add_task(format!("t{i}")).design_point(dp("m", 10, 100.0)).finish();
        }
        let g = b.build().unwrap();
        let arch = Architecture::new(Area::new(10), 16, Latency::from_ns(1.0));
        // Each partition fits exactly one task; with N=4 the only solutions
        // (up to symmetry) place one task per partition: total = 400 + 4.
        let (out, stats) = StructuredSolver::new(
            &g,
            &arch,
            4,
            1.0, // infeasible: forces exhaustion
            SearchGoal::FirstFeasible,
            SearchLimits::default(),
        )
        .run();
        assert_eq!(out, SearchOutcome::Infeasible);
        assert!(stats.nodes < 100, "symmetry breaking failed: {} nodes", stats.nodes);

        let (out2, _) = StructuredSolver::new(
            &g,
            &arch,
            4,
            404.0,
            SearchGoal::FirstFeasible,
            SearchLimits::default(),
        )
        .run();
        match out2 {
            SearchOutcome::Feasible(sol) => {
                assert_eq!(sol.partitions_used(), 4);
                assert_eq!(sol.total_latency(&g, &arch).as_ns(), 404.0);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn solutions_are_compacted() {
        let mut b = TaskGraphBuilder::new();
        b.add_task("only").design_point(dp("m", 10, 100.0)).finish();
        let g = b.build().unwrap();
        let arch = Architecture::new(Area::new(100), 16, Latency::from_ns(1.0));
        match run(&g, &arch, 5, 1e9, SearchGoal::FirstFeasible) {
            SearchOutcome::Feasible(sol) => assert_eq!(sol.partitions_used(), 1),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn absorb_ands_exhausted() {
        let exhausted = |e| SearchStats { exhausted: e, ..SearchStats::default() };
        let mut acc = exhausted(true);
        acc.absorb(&exhausted(true));
        assert!(acc.exhausted);
        acc.absorb(&exhausted(false));
        assert!(!acc.exhausted);
        // Once false, a later exhaustive run must not flip it back.
        acc.absorb(&exhausted(true));
        assert!(!acc.exhausted);
    }

    /// A two-layer graph wide enough to spawn many subtree jobs and deep
    /// enough for memoization to apply.
    fn layered_graph(width: usize) -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let top: Vec<_> = (0..width)
            .map(|i| {
                b.add_task(format!("u{i}"))
                    .design_point(dp("s", 20 + 7 * i as u64, 200.0 + 30.0 * i as f64))
                    .design_point(dp("f", 45 + 5 * i as u64, 90.0 + 11.0 * i as f64))
                    .finish()
            })
            .collect();
        let bottom: Vec<_> = (0..width)
            .map(|i| {
                b.add_task(format!("v{i}"))
                    .design_point(dp("s", 25 + 6 * i as u64, 180.0 + 23.0 * i as f64))
                    .design_point(dp("f", 50 + 4 * i as u64, 80.0 + 13.0 * i as f64))
                    .finish()
            })
            .collect();
        for i in 0..width {
            b.add_edge(top[i], bottom[i], 1 + (i as u64 % 3)).unwrap();
            b.add_edge(top[i], bottom[(i + 1) % width], 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn run_parallel_matches_run() {
        let g = layered_graph(4);
        let arch = Architecture::new(Area::new(120), 32, Latency::from_ns(40.0));
        for goal in [SearchGoal::Optimal, SearchGoal::FirstFeasible] {
            for d_max in [900.0, 1_400.0, 2_500.0, 1e9] {
                let solver =
                    StructuredSolver::new(&g, &arch, 3, d_max, goal, SearchLimits::default());
                let (sequential, seq_stats) = solver.run();
                for threads in [2, 4, 8] {
                    let (parallel, par_stats) = solver.run_parallel(threads);
                    assert_eq!(
                        parallel, sequential,
                        "goal {goal:?} d_max {d_max} diverged at {threads} threads"
                    );
                    assert_eq!(par_stats.exhausted, seq_stats.exhausted);
                }
            }
        }
    }

    #[test]
    fn parallel_node_budget_is_global() {
        let g = layered_graph(5);
        let arch = Architecture::new(Area::new(120), 32, Latency::from_ns(40.0));
        let limits = SearchLimits { node_limit: 500, time_limit: None };
        let solver = StructuredSolver::new(&g, &arch, 3, 1e9, SearchGoal::Optimal, limits);
        let (_, stats) = solver.run_parallel(4);
        assert!(
            stats.nodes <= 500,
            "global budget exceeded: {} nodes across all workers",
            stats.nodes
        );
        assert!(!stats.exhausted, "a 500-node budget cannot exhaust this tree");
    }

    /// One fully-explored state recorded in [`ReferenceMemo`].
    struct MemoEntry {
        dom: Vec<f64>,
        proven: f64,
    }

    /// The dominance memo before the one-probe protocol: a map from the
    /// full key (level first) to entries, rescanned by every call.
    /// [`MemoTable`] must match it answer for answer.
    struct ReferenceMemo {
        map: HashMap<Vec<u32>, Vec<MemoEntry>>,
        entries: usize,
        limit: usize,
    }

    impl ReferenceMemo {
        fn dominated(&self, key: &[u32], dom: &[f64], best_now: f64) -> bool {
            let Some(bucket) = self.map.get(key) else { return false };
            bucket
                .iter()
                .any(|e| best_now <= e.proven && e.dom.iter().zip(dom).all(|(a, b)| *a <= *b))
        }

        fn insert(&mut self, key: Vec<u32>, dom: Vec<f64>, proven: f64) {
            if self.limit == 0 || self.entries >= self.limit {
                return;
            }
            if rtr_trace::failpoint::failpoint("structured.memo_insert", proven.to_bits()) {
                return;
            }
            let bucket = self.map.entry(key).or_default();
            if bucket
                .iter()
                .any(|e| e.proven >= proven && e.dom.iter().zip(&dom).all(|(a, b)| *a <= *b))
            {
                return;
            }
            let before = bucket.len();
            bucket
                .retain(|e| !(proven >= e.proven && dom.iter().zip(&e.dom).all(|(a, b)| *a <= *b)));
            self.entries -= before - bucket.len();
            if bucket.len() >= MEMO_BUCKET_CAP {
                return;
            }
            bucket.push(MemoEntry { dom, proven });
            self.entries += 1;
        }
    }

    /// Stored rows by full key (level first), rows in bucket order.
    type MemoContents = Vec<(Vec<u32>, Vec<(Vec<f64>, f64)>)>;

    /// Drives seeded random probe/insert sequences through [`MemoTable`]
    /// and [`ReferenceMemo`] in DFS discipline — a state is entered below
    /// every open one and inserted when it closes — and demands identical
    /// prune answers, entry counts and stored rows.
    #[test]
    fn one_probe_memo_matches_the_rescanning_reference() {
        use rtr_workloads::rng::Rng;
        const LEVELS: usize = 6;
        // Two-valued key words make a small key set; three-valued loads
        // make dominance ties common.
        let key_len = |level: usize| 1 + level % 3;
        let row_len = |level: usize| MEMO_DOM + 3 + level % 2;
        let bounds = [1.0, 2.0, 2.0, 3.0, f64::INFINITY];
        let pick = |rng: &mut Rng| bounds[rng.range_usize(0, bounds.len() - 1)];
        let full_key = |level: usize, key: &[u32]| {
            let mut full = vec![level as u32];
            full.extend_from_slice(key);
            full
        };
        for (seed, limit) in [(1u64, DEFAULT_MEMO_LIMIT), (2, DEFAULT_MEMO_LIMIT), (3, 40), (4, 7)]
        {
            let mut rng = Rng::new(seed);
            let mut memo = MemoTable::new(limit, LEVELS);
            let mut reference = ReferenceMemo { map: HashMap::new(), entries: 0, limit };
            let mut open: Vec<(usize, Vec<u32>, Vec<f64>, MemoProbe)> = Vec::new();
            let (mut prunes, mut full_buckets, mut at_limit) = (0, 0, 0);
            for step in 0..20_000 {
                let below = open.last().map_or(0, |o| o.0 + 1);
                if below < LEVELS && (open.is_empty() || rng.range_u64(0, 1) == 0) {
                    let level = rng.range_usize(below, LEVELS - 1);
                    let key: Vec<u32> =
                        (0..key_len(level)).map(|_| rng.range_u64(0, 1) as u32).collect();
                    let mut row: Vec<f64> =
                        (0..row_len(level)).map(|_| rng.range_u64(0, 2) as f64).collect();
                    seal_row(&mut row);
                    let best_now = pick(&mut rng);
                    let pruned =
                        reference.dominated(&full_key(level, &key), &row[MEMO_DOM..], best_now);
                    let probe = memo.probe(level, &key, &row, best_now);
                    assert_eq!(probe.is_none(), pruned, "seed {seed} step {step}: prune answer");
                    match probe {
                        Some(probe) => open.push((level, key, row, probe)),
                        None => prunes += 1,
                    }
                } else if let Some((level, key, mut row, probe)) = open.pop() {
                    let proven = pick(&mut rng);
                    reference.insert(full_key(level, &key), row[MEMO_DOM..].to_vec(), proven);
                    memo.insert(level, &probe, &key, &mut row, proven);
                    assert_eq!(memo.entries, reference.entries, "seed {seed} step {step}: entries");
                    full_buckets +=
                        usize::from(reference.map.values().any(|b| b.len() == MEMO_BUCKET_CAP));
                    at_limit += usize::from(reference.entries == limit);
                }
            }
            let mut stored: MemoContents = Vec::new();
            for (level, lvl) in memo.levels.iter().enumerate() {
                let (kl, width) = (key_len(level), row_len(level));
                for (b, rows) in lvl.rows.iter().enumerate() {
                    let rows =
                        rows.chunks_exact(width).map(|r| (r[MEMO_DOM..].to_vec(), r[0])).collect();
                    stored.push((full_key(level, &lvl.keys[b * kl..(b + 1) * kl]), rows));
                }
            }
            let mut expected: MemoContents = reference
                .map
                .iter()
                .filter(|(_, bucket)| !bucket.is_empty())
                .map(|(key, bucket)| {
                    (key.clone(), bucket.iter().map(|e| (e.dom.clone(), e.proven)).collect())
                })
                .collect();
            stored.sort_by(|a, b| a.0.cmp(&b.0));
            expected.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(stored, expected, "seed {seed}: stored rows");
            assert!(prunes > 0, "seed {seed}: no prune exercised");
            if limit == DEFAULT_MEMO_LIMIT {
                assert!(full_buckets > 0, "seed {seed}: the bucket cap was never reached");
            } else {
                assert!(at_limit > 0, "seed {seed}: the entry limit was never reached");
            }
        }
    }

    /// The lane prefilter never changes an answer: on random sealed rows
    /// with heavy ties, [`memo_compare`] equals the plain componentwise
    /// comparison in both directions.
    #[test]
    fn memo_compare_is_the_componentwise_answer() {
        use rtr_workloads::rng::Rng;
        let mut rng = Rng::new(5);
        let le =
            |a: &[f64], b: &[f64]| a[MEMO_DOM..].iter().zip(&b[MEMO_DOM..]).all(|(x, y)| x <= y);
        let mut seen = [[0usize; 2]; 2];
        for _ in 0..20_000 {
            let width = MEMO_DOM + rng.range_usize(0, 9);
            let mut row = || {
                let mut row: Vec<f64> = (0..width).map(|_| rng.range_u64(0, 2) as f64).collect();
                seal_row(&mut row);
                row
            };
            let (a, b) = (row(), row());
            let expected = (le(&a, &b), le(&b, &a));
            assert_eq!(memo_compare(&a, &b), expected, "{a:?} vs {b:?}");
            assert_eq!(memo_compare(&b, &a), (expected.1, expected.0), "{b:?} vs {a:?}");
            seen[usize::from(expected.0)][usize::from(expected.1)] += 1;
        }
        assert!(seen.iter().flatten().all(|&n| n > 0), "an answer never occurred: {seen:?}");
    }

    #[test]
    fn memoization_prunes_without_changing_the_optimum() {
        let g = layered_graph(4);
        let arch = Architecture::new(Area::new(120), 32, Latency::from_ns(40.0));
        let base =
            StructuredSolver::new(&g, &arch, 3, 1e9, SearchGoal::Optimal, SearchLimits::default());
        let (with_memo, memo_stats) = base.run();
        let off =
            StructuredSolver::new(&g, &arch, 3, 1e9, SearchGoal::Optimal, SearchLimits::default())
                .with_memo_limit(0);
        let (without_memo, off_stats) = off.run();
        assert_eq!(with_memo, without_memo);
        assert_eq!(off_stats.dominance_prunes, 0);
        assert!(
            memo_stats.nodes <= off_stats.nodes,
            "memoization increased nodes: {} > {}",
            memo_stats.nodes,
            off_stats.nodes
        );
    }
}
