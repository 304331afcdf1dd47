//! Live status board: a lock-free snapshot of solver progress.
//!
//! The trace stream ([`crate::Sink`]) is the *deterministic* record of a
//! run — every event in it must be identical across thread counts, which
//! rules out publishing anything scheduling-dependent through it. The
//! status board is the complementary surface: a process-global set of
//! relaxed atomic counters that the solver stack bumps at coarse cadences
//! (budget-chunk claims, prune sites, window completions, simplex pivots)
//! and that any thread may snapshot at any time without locks. Snapshots
//! are approximate by design — fields are read independently, so a
//! snapshot is not a consistent cut — but every individual field is exact
//! at the moment it was read.
//!
//! [`StatusWriter`] turns the board into a heartbeat file: a watcher
//! thread appends one JSON object per interval (JSONL), flushing each
//! line, so a run killed with SIGKILL still leaves a readable progress
//! tail. The line format is the wire format planned for `rtrd` status
//! queries (ROADMAP item 1).

use std::fmt;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Process-global progress counters, updated with relaxed atomics.
///
/// All methods are safe to call from any thread at any frequency; the
/// intended discipline is coarse cadences (every budget chunk, every
/// window, every pivot) so the hot search loop stays unobserved.
#[derive(Debug)]
pub struct StatusBoard {
    nodes: AtomicU64,
    latency_prunes: AtomicU64,
    area_prunes: AtomicU64,
    memory_rejects: AtomicU64,
    dominance_prunes: AtomicU64,
    /// Best latency anywhere, as non-negative IEEE-754 bits (`fetch_min`
    /// on bits orders like `fetch_min` on the latencies themselves).
    incumbent_bits: AtomicU64,
    windows_feasible: AtomicU64,
    windows_infeasible: AtomicU64,
    windows_limit: AtomicU64,
    lp_pivots: AtomicU64,
    lp_devex_resets: AtomicU64,
    ilp_cuts: AtomicU64,
    checkpoint_writes: AtomicU64,
    /// Trace-epoch timestamp of the last checkpoint write (`u64::MAX`
    /// until one happens).
    checkpoint_last_us: AtomicU64,
    jobs_claimed: AtomicU64,
    workers_active: AtomicU64,
    sched_jobs: AtomicU64,
    sched_batches: AtomicU64,
    sched_nested_batches: AtomicU64,
    sched_lost_jobs: AtomicU64,
    sched_local_pops: AtomicU64,
    sched_steals: AtomicU64,
    sched_idle_parks: AtomicU64,
    sched_queue_depth_max: AtomicU64,
    rtrd_submitted: AtomicU64,
    rtrd_rejected: AtomicU64,
    rtrd_completed: AtomicU64,
    rtrd_cancelled: AtomicU64,
    rtrd_cache_hits: AtomicU64,
    rtrd_cache_misses: AtomicU64,
    rtrd_cache_evictions: AtomicU64,
}

impl StatusBoard {
    const fn new() -> Self {
        StatusBoard {
            nodes: AtomicU64::new(0),
            latency_prunes: AtomicU64::new(0),
            area_prunes: AtomicU64::new(0),
            memory_rejects: AtomicU64::new(0),
            dominance_prunes: AtomicU64::new(0),
            incumbent_bits: AtomicU64::new(u64::MAX),
            windows_feasible: AtomicU64::new(0),
            windows_infeasible: AtomicU64::new(0),
            windows_limit: AtomicU64::new(0),
            lp_pivots: AtomicU64::new(0),
            lp_devex_resets: AtomicU64::new(0),
            ilp_cuts: AtomicU64::new(0),
            checkpoint_writes: AtomicU64::new(0),
            checkpoint_last_us: AtomicU64::new(u64::MAX),
            jobs_claimed: AtomicU64::new(0),
            workers_active: AtomicU64::new(0),
            sched_jobs: AtomicU64::new(0),
            sched_batches: AtomicU64::new(0),
            sched_nested_batches: AtomicU64::new(0),
            sched_lost_jobs: AtomicU64::new(0),
            sched_local_pops: AtomicU64::new(0),
            sched_steals: AtomicU64::new(0),
            sched_idle_parks: AtomicU64::new(0),
            sched_queue_depth_max: AtomicU64::new(0),
            rtrd_submitted: AtomicU64::new(0),
            rtrd_rejected: AtomicU64::new(0),
            rtrd_completed: AtomicU64::new(0),
            rtrd_cancelled: AtomicU64::new(0),
            rtrd_cache_hits: AtomicU64::new(0),
            rtrd_cache_misses: AtomicU64::new(0),
            rtrd_cache_evictions: AtomicU64::new(0),
        }
    }

    /// Adds `n` explored search nodes.
    pub fn add_nodes(&self, n: u64) {
        self.nodes.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds pruned-subtree counts by cause.
    pub fn add_prunes(&self, latency: u64, area: u64, memory: u64, dominance: u64) {
        if latency > 0 {
            self.latency_prunes.fetch_add(latency, Ordering::Relaxed);
        }
        if area > 0 {
            self.area_prunes.fetch_add(area, Ordering::Relaxed);
        }
        if memory > 0 {
            self.memory_rejects.fetch_add(memory, Ordering::Relaxed);
        }
        if dominance > 0 {
            self.dominance_prunes.fetch_add(dominance, Ordering::Relaxed);
        }
    }

    /// Publishes an incumbent latency; only improvements stick.
    pub fn record_incumbent(&self, latency_ns: f64) {
        if latency_ns >= 0.0 && latency_ns.is_finite() {
            self.incumbent_bits.fetch_min(latency_ns.to_bits(), Ordering::Relaxed);
        }
    }

    /// Records one completed window by outcome.
    pub fn record_window(&self, outcome: WindowOutcome) {
        let slot = match outcome {
            WindowOutcome::Feasible => &self.windows_feasible,
            WindowOutcome::Infeasible => &self.windows_infeasible,
            WindowOutcome::LimitReached => &self.windows_limit,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds simplex pivots.
    pub fn add_lp_pivots(&self, n: u64) {
        self.lp_pivots.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds devex / steepest-edge pricing framework resets.
    pub fn add_lp_devex_resets(&self, n: u64) {
        self.lp_devex_resets.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds cutting planes generated by the MILP root separator.
    pub fn add_ilp_cuts(&self, n: u64) {
        self.ilp_cuts.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a checkpoint write (stamps the checkpoint age clock).
    pub fn record_checkpoint_write(&self) {
        self.checkpoint_writes.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_last_us.store(crate::now_us(), Ordering::Relaxed);
    }

    /// Adds claimed intra-window subtree jobs.
    pub fn add_jobs_claimed(&self, n: u64) {
        self.jobs_claimed.fetch_add(n, Ordering::Relaxed);
    }

    /// Marks a worker thread as entering (`+1`) the solver.
    pub fn worker_started(&self) {
        self.workers_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a worker thread as leaving (`-1`) the solver.
    pub fn worker_stopped(&self) {
        self.workers_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Adds scheduler jobs executed to completion (or abandonment).
    pub fn add_sched_jobs(&self, n: u64) {
        self.sched_jobs.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds scheduler batches submitted.
    pub fn add_sched_batches(&self, n: u64) {
        self.sched_batches.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds batches submitted from inside another job (nested
    /// parallelism sharing the global budget).
    pub fn add_sched_nested_batches(&self, n: u64) {
        self.sched_nested_batches.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds jobs abandoned after the scheduler's retry limit.
    pub fn add_sched_lost_jobs(&self, n: u64) {
        self.sched_lost_jobs.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds jobs a participant claimed from its own newest nested batch.
    pub fn add_sched_local_pops(&self, n: u64) {
        self.sched_local_pops.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds jobs claimed from the top of another participant's nested
    /// batch.
    pub fn add_sched_steals(&self, n: u64) {
        self.sched_steals.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds idle waits.
    pub fn add_sched_idle_parks(&self, n: u64) {
        self.sched_idle_parks.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the high-water mark of unclaimed scheduler jobs.
    pub fn max_sched_queue_depth(&self, depth: u64) {
        self.sched_queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records an `rtrd` job accepted into the queue.
    pub fn add_rtrd_submitted(&self, n: u64) {
        self.rtrd_submitted.fetch_add(n, Ordering::Relaxed);
    }

    /// Records an `rtrd` job rejected by admission control.
    pub fn add_rtrd_rejected(&self, n: u64) {
        self.rtrd_rejected.fetch_add(n, Ordering::Relaxed);
    }

    /// Records an `rtrd` job run to completion.
    pub fn add_rtrd_completed(&self, n: u64) {
        self.rtrd_completed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records an `rtrd` job cancelled (user request or deadline).
    pub fn add_rtrd_cancelled(&self, n: u64) {
        self.rtrd_cancelled.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `rtrd` solve-cache hits.
    pub fn add_rtrd_cache_hits(&self, n: u64) {
        self.rtrd_cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `rtrd` solve-cache misses.
    pub fn add_rtrd_cache_misses(&self, n: u64) {
        self.rtrd_cache_misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `rtrd` solve-cache entries evicted (corruption quarantine).
    pub fn add_rtrd_cache_evictions(&self, n: u64) {
        self.rtrd_cache_evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads every counter (independently; not a consistent cut).
    pub fn snapshot(&self) -> StatusSnapshot {
        let incumbent = self.incumbent_bits.load(Ordering::Relaxed);
        let last_ck = self.checkpoint_last_us.load(Ordering::Relaxed);
        let now = crate::now_us();
        StatusSnapshot {
            ts_us: now,
            nodes: self.nodes.load(Ordering::Relaxed),
            latency_prunes: self.latency_prunes.load(Ordering::Relaxed),
            area_prunes: self.area_prunes.load(Ordering::Relaxed),
            memory_rejects: self.memory_rejects.load(Ordering::Relaxed),
            dominance_prunes: self.dominance_prunes.load(Ordering::Relaxed),
            incumbent_latency_ns: (incumbent != u64::MAX).then(|| f64::from_bits(incumbent)),
            windows_feasible: self.windows_feasible.load(Ordering::Relaxed),
            windows_infeasible: self.windows_infeasible.load(Ordering::Relaxed),
            windows_limit: self.windows_limit.load(Ordering::Relaxed),
            lp_pivots: self.lp_pivots.load(Ordering::Relaxed),
            lp_devex_resets: self.lp_devex_resets.load(Ordering::Relaxed),
            ilp_cuts: self.ilp_cuts.load(Ordering::Relaxed),
            checkpoint_writes: self.checkpoint_writes.load(Ordering::Relaxed),
            checkpoint_age_us: (last_ck != u64::MAX).then(|| now.saturating_sub(last_ck)),
            jobs_claimed: self.jobs_claimed.load(Ordering::Relaxed),
            workers_active: self.workers_active.load(Ordering::Relaxed),
            sched_jobs: self.sched_jobs.load(Ordering::Relaxed),
            sched_batches: self.sched_batches.load(Ordering::Relaxed),
            sched_nested_batches: self.sched_nested_batches.load(Ordering::Relaxed),
            sched_lost_jobs: self.sched_lost_jobs.load(Ordering::Relaxed),
            sched_local_pops: self.sched_local_pops.load(Ordering::Relaxed),
            sched_steals: self.sched_steals.load(Ordering::Relaxed),
            sched_idle_parks: self.sched_idle_parks.load(Ordering::Relaxed),
            sched_queue_depth_max: self.sched_queue_depth_max.load(Ordering::Relaxed),
            rtrd_submitted: self.rtrd_submitted.load(Ordering::Relaxed),
            rtrd_rejected: self.rtrd_rejected.load(Ordering::Relaxed),
            rtrd_completed: self.rtrd_completed.load(Ordering::Relaxed),
            rtrd_cancelled: self.rtrd_cancelled.load(Ordering::Relaxed),
            rtrd_cache_hits: self.rtrd_cache_hits.load(Ordering::Relaxed),
            rtrd_cache_misses: self.rtrd_cache_misses.load(Ordering::Relaxed),
            rtrd_cache_evictions: self.rtrd_cache_evictions.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter. Intended for tests and between independent
    /// runs in one process; concurrent updates may survive the reset.
    pub fn reset(&self) {
        self.nodes.store(0, Ordering::Relaxed);
        self.latency_prunes.store(0, Ordering::Relaxed);
        self.area_prunes.store(0, Ordering::Relaxed);
        self.memory_rejects.store(0, Ordering::Relaxed);
        self.dominance_prunes.store(0, Ordering::Relaxed);
        self.incumbent_bits.store(u64::MAX, Ordering::Relaxed);
        self.windows_feasible.store(0, Ordering::Relaxed);
        self.windows_infeasible.store(0, Ordering::Relaxed);
        self.windows_limit.store(0, Ordering::Relaxed);
        self.lp_pivots.store(0, Ordering::Relaxed);
        self.lp_devex_resets.store(0, Ordering::Relaxed);
        self.ilp_cuts.store(0, Ordering::Relaxed);
        self.checkpoint_writes.store(0, Ordering::Relaxed);
        self.checkpoint_last_us.store(u64::MAX, Ordering::Relaxed);
        self.jobs_claimed.store(0, Ordering::Relaxed);
        self.workers_active.store(0, Ordering::Relaxed);
        self.sched_jobs.store(0, Ordering::Relaxed);
        self.sched_batches.store(0, Ordering::Relaxed);
        self.sched_nested_batches.store(0, Ordering::Relaxed);
        self.sched_lost_jobs.store(0, Ordering::Relaxed);
        self.sched_local_pops.store(0, Ordering::Relaxed);
        self.sched_steals.store(0, Ordering::Relaxed);
        self.sched_idle_parks.store(0, Ordering::Relaxed);
        self.sched_queue_depth_max.store(0, Ordering::Relaxed);
        self.rtrd_submitted.store(0, Ordering::Relaxed);
        self.rtrd_rejected.store(0, Ordering::Relaxed);
        self.rtrd_completed.store(0, Ordering::Relaxed);
        self.rtrd_cancelled.store(0, Ordering::Relaxed);
        self.rtrd_cache_hits.store(0, Ordering::Relaxed);
        self.rtrd_cache_misses.store(0, Ordering::Relaxed);
        self.rtrd_cache_evictions.store(0, Ordering::Relaxed);
    }
}

/// How a window solve ended, as the board counts them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowOutcome {
    /// The window produced a feasible solution.
    Feasible,
    /// The window was proven infeasible.
    Infeasible,
    /// A node or wall-clock budget fired first.
    LimitReached,
}

static BOARD: StatusBoard = StatusBoard::new();

/// The process-global status board.
pub fn board() -> &'static StatusBoard {
    &BOARD
}

/// One point-in-time reading of the [`StatusBoard`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatusSnapshot {
    /// Trace-epoch timestamp of the read (µs).
    pub ts_us: u64,
    /// Search nodes explored.
    pub nodes: u64,
    /// Subtrees pruned by the latency lower bound.
    pub latency_prunes: u64,
    /// Subtrees pruned by the area look-ahead.
    pub area_prunes: u64,
    /// Assignments rejected by the memory constraint.
    pub memory_rejects: u64,
    /// Subtrees pruned by dominance memoization.
    pub dominance_prunes: u64,
    /// Best total latency found anywhere, if any solution exists yet.
    pub incumbent_latency_ns: Option<f64>,
    /// Windows that ended feasible.
    pub windows_feasible: u64,
    /// Windows proven infeasible.
    pub windows_infeasible: u64,
    /// Windows that hit a search budget.
    pub windows_limit: u64,
    /// Simplex pivots performed.
    pub lp_pivots: u64,
    /// Devex / steepest-edge pricing framework resets.
    pub lp_devex_resets: u64,
    /// Cutting planes generated by the MILP root separator.
    pub ilp_cuts: u64,
    /// Checkpoint writes attempted.
    pub checkpoint_writes: u64,
    /// Time since the last checkpoint write (µs), once one happened.
    pub checkpoint_age_us: Option<u64>,
    /// Intra-window subtree jobs claimed by parallel workers.
    pub jobs_claimed: u64,
    /// Worker threads currently inside a solve.
    pub workers_active: u64,
    /// Scheduler jobs executed (all batch kinds).
    pub sched_jobs: u64,
    /// Scheduler batches submitted.
    pub sched_batches: u64,
    /// Batches submitted from inside another job.
    pub sched_nested_batches: u64,
    /// Jobs abandoned after the scheduler's retry limit.
    pub sched_lost_jobs: u64,
    /// Jobs a participant claimed from its own newest nested batch.
    pub sched_local_pops: u64,
    /// Jobs claimed from the top of another participant's nested batch.
    pub sched_steals: u64,
    /// Idle waits.
    pub sched_idle_parks: u64,
    /// High-water mark of unclaimed jobs across all open batches.
    pub sched_queue_depth_max: u64,
    /// `rtrd` jobs accepted into the bounded queue.
    pub rtrd_submitted: u64,
    /// `rtrd` jobs rejected by admission control (queue full or draining).
    pub rtrd_rejected: u64,
    /// `rtrd` jobs run to completion.
    pub rtrd_completed: u64,
    /// `rtrd` jobs cancelled by user request or deadline.
    pub rtrd_cancelled: u64,
    /// `rtrd` solve-cache hits (result served by verified replay).
    pub rtrd_cache_hits: u64,
    /// `rtrd` solve-cache misses (fresh solve required).
    pub rtrd_cache_misses: u64,
    /// `rtrd` solve-cache entries evicted after checksum mismatch.
    pub rtrd_cache_evictions: u64,
}

impl StatusSnapshot {
    /// Total windows completed, regardless of outcome.
    pub fn windows_done(&self) -> u64 {
        self.windows_feasible + self.windows_infeasible + self.windows_limit
    }

    /// Renders the snapshot as one JSON object (no trailing newline) —
    /// the heartbeat line format and the planned `rtrd` wire format.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        let field = |out: &mut String, key: &str, value: String| {
            if out.len() > 1 {
                out.push(',');
            }
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            out.push_str(&value);
        };
        field(&mut out, "ts_us", self.ts_us.to_string());
        field(&mut out, "nodes", self.nodes.to_string());
        field(&mut out, "latency_prunes", self.latency_prunes.to_string());
        field(&mut out, "area_prunes", self.area_prunes.to_string());
        field(&mut out, "memory_rejects", self.memory_rejects.to_string());
        field(&mut out, "dominance_prunes", self.dominance_prunes.to_string());
        // `None` renders as `null`, the codec's stand-in for a missing float.
        let mut incumbent = String::new();
        let latency = self.incumbent_latency_ns.unwrap_or(f64::NAN);
        crate::json::write_value(&mut incumbent, &crate::Value::F64(latency));
        field(&mut out, "incumbent_latency_ns", incumbent);
        field(&mut out, "windows_done", self.windows_done().to_string());
        field(&mut out, "windows_feasible", self.windows_feasible.to_string());
        field(&mut out, "windows_infeasible", self.windows_infeasible.to_string());
        field(&mut out, "windows_limit", self.windows_limit.to_string());
        field(&mut out, "lp_pivots", self.lp_pivots.to_string());
        field(&mut out, "lp_devex_resets", self.lp_devex_resets.to_string());
        field(&mut out, "ilp_cuts", self.ilp_cuts.to_string());
        field(&mut out, "checkpoint_writes", self.checkpoint_writes.to_string());
        let age = match self.checkpoint_age_us {
            Some(v) => v.to_string(),
            None => "null".to_owned(),
        };
        field(&mut out, "checkpoint_age_us", age);
        field(&mut out, "jobs_claimed", self.jobs_claimed.to_string());
        field(&mut out, "workers_active", self.workers_active.to_string());
        field(&mut out, "sched_jobs", self.sched_jobs.to_string());
        field(&mut out, "sched_batches", self.sched_batches.to_string());
        field(&mut out, "sched_nested_batches", self.sched_nested_batches.to_string());
        field(&mut out, "sched_lost_jobs", self.sched_lost_jobs.to_string());
        field(&mut out, "sched_local_pops", self.sched_local_pops.to_string());
        field(&mut out, "sched_steals", self.sched_steals.to_string());
        field(&mut out, "sched_idle_parks", self.sched_idle_parks.to_string());
        field(&mut out, "sched_queue_depth_max", self.sched_queue_depth_max.to_string());
        field(&mut out, "rtrd_submitted", self.rtrd_submitted.to_string());
        field(&mut out, "rtrd_rejected", self.rtrd_rejected.to_string());
        field(&mut out, "rtrd_completed", self.rtrd_completed.to_string());
        field(&mut out, "rtrd_cancelled", self.rtrd_cancelled.to_string());
        field(&mut out, "rtrd_cache_hits", self.rtrd_cache_hits.to_string());
        field(&mut out, "rtrd_cache_misses", self.rtrd_cache_misses.to_string());
        field(&mut out, "rtrd_cache_evictions", self.rtrd_cache_evictions.to_string());
        out.push('}');
        out
    }
}

/// Why a [`StatusWriter`] could not be started.
#[derive(Debug)]
pub enum StatusError {
    /// The heartbeat interval was zero.
    ZeroInterval,
    /// The heartbeat file could not be created (missing parent directory,
    /// permissions, ...).
    Create(PathBuf, io::Error),
}

impl fmt::Display for StatusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatusError::ZeroInterval => {
                write!(f, "status heartbeat interval must be positive (got 0 ms)")
            }
            StatusError::Create(path, e) => {
                write!(f, "cannot create status file `{}`: {e}", path.display())
            }
        }
    }
}

impl std::error::Error for StatusError {}

struct WriterShared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// A watcher thread appending one [`StatusSnapshot`] JSON line to a file
/// per interval. Each line is flushed as it is written, so the file stays
/// readable after SIGKILL; [`stop`](StatusWriter::stop) (or drop) writes
/// one final line and joins the thread.
pub struct StatusWriter {
    shared: Arc<WriterShared>,
    handle: Option<JoinHandle<()>>,
}

impl StatusWriter {
    /// Spawns the watcher, truncating the file at `path`.
    ///
    /// # Errors
    ///
    /// [`StatusError::ZeroInterval`] when `every` is zero;
    /// [`StatusError::Create`] when the file cannot be created (for
    /// example, a missing parent directory).
    pub fn spawn(path: impl AsRef<Path>, every: Duration) -> Result<StatusWriter, StatusError> {
        let path = path.as_ref().to_path_buf();
        if every.is_zero() {
            return Err(StatusError::ZeroInterval);
        }
        let mut file = File::create(&path).map_err(|e| StatusError::Create(path.clone(), e))?;
        let shared = Arc::new(WriterShared { stop: Mutex::new(false), wake: Condvar::new() });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("rtr-status".to_owned())
            .spawn(move || {
                let write_line = |file: &mut File| {
                    let mut line = board().snapshot().to_json();
                    line.push('\n');
                    // A failed heartbeat must never disturb the solve.
                    let _ = file.write_all(line.as_bytes());
                    let _ = file.flush();
                };
                write_line(&mut file);
                let mut stopped = thread_shared.stop.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if *stopped {
                        break;
                    }
                    let (guard, _) = thread_shared
                        .wake
                        .wait_timeout(stopped, every)
                        .unwrap_or_else(PoisonError::into_inner);
                    stopped = guard;
                    if *stopped {
                        break;
                    }
                    drop(stopped);
                    write_line(&mut file);
                    stopped = thread_shared.stop.lock().unwrap_or_else(PoisonError::into_inner);
                }
                drop(stopped);
                // Final line so the file always ends with the run's last
                // known state.
                write_line(&mut file);
            })
            .map_err(|e| StatusError::Create(path, e))?;
        Ok(StatusWriter { shared, handle: Some(handle) })
    }

    /// Stops the watcher, writing one final snapshot line.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            *self.shared.stop.lock().unwrap_or_else(PoisonError::into_inner) = true;
            self.shared.wake.notify_all();
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for StatusWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StatusWriter").field("running", &self.handle.is_some()).finish()
    }
}

impl Drop for StatusWriter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The board is process-global; serialize tests that reset it.
    static GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn snapshot_reflects_updates_and_resets() {
        let _g = GUARD.lock().unwrap();
        let b = board();
        b.reset();
        b.add_nodes(1024);
        b.add_prunes(3, 2, 1, 4);
        b.record_incumbent(1500.0);
        b.record_incumbent(1200.0);
        b.record_incumbent(1300.0); // worse; must not stick
        b.record_window(WindowOutcome::Feasible);
        b.record_window(WindowOutcome::LimitReached);
        b.add_lp_pivots(64);
        b.record_checkpoint_write();
        b.add_jobs_claimed(7);
        b.worker_started();
        let s = b.snapshot();
        assert_eq!(s.nodes, 1024);
        assert_eq!(s.latency_prunes, 3);
        assert_eq!(s.area_prunes, 2);
        assert_eq!(s.memory_rejects, 1);
        assert_eq!(s.dominance_prunes, 4);
        assert_eq!(s.incumbent_latency_ns, Some(1200.0));
        assert_eq!(s.windows_done(), 2);
        assert_eq!(s.windows_feasible, 1);
        assert_eq!(s.windows_limit, 1);
        assert_eq!(s.lp_pivots, 64);
        assert_eq!(s.checkpoint_writes, 1);
        assert!(s.checkpoint_age_us.is_some());
        assert_eq!(s.jobs_claimed, 7);
        assert_eq!(s.workers_active, 1);
        b.worker_stopped();
        b.reset();
        let s = b.snapshot();
        assert_eq!(s.nodes, 0);
        assert_eq!(s.incumbent_latency_ns, None);
        assert_eq!(s.checkpoint_age_us, None);
    }

    #[test]
    fn snapshot_json_is_parseable_and_complete() {
        let _g = GUARD.lock().unwrap();
        board().reset();
        board().add_nodes(5);
        board().record_incumbent(2048.0);
        let line = board().snapshot().to_json();
        let value = crate::parse_value(&line).expect("heartbeat line parses");
        let crate::JsonValue::Obj(fields) = value else { panic!("not an object: {line}") };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert!(matches!(get("nodes"), Some(crate::JsonValue::Num(v, _)) if *v == 5.0), "{line}");
        assert!(
            matches!(get("incumbent_latency_ns"), Some(crate::JsonValue::Num(v, true)) if *v == 2048.0),
            "incumbent must stay a float: {line}"
        );
        assert!(matches!(get("checkpoint_age_us"), Some(crate::JsonValue::Null)), "{line}");
        for key in [
            "ts_us",
            "windows_done",
            "lp_pivots",
            "lp_devex_resets",
            "ilp_cuts",
            "jobs_claimed",
            "workers_active",
            "sched_jobs",
            "sched_batches",
            "sched_nested_batches",
            "sched_lost_jobs",
            "sched_local_pops",
            "sched_steals",
            "sched_idle_parks",
            "sched_queue_depth_max",
            "rtrd_submitted",
            "rtrd_rejected",
            "rtrd_completed",
            "rtrd_cancelled",
            "rtrd_cache_hits",
            "rtrd_cache_misses",
            "rtrd_cache_evictions",
        ] {
            assert!(get(key).is_some(), "missing {key}: {line}");
        }
    }

    #[test]
    fn writer_rejects_zero_interval_and_missing_parent() {
        let err = StatusWriter::spawn("/tmp/rtr_status_probe.jsonl", Duration::ZERO)
            .expect_err("zero interval must be rejected");
        assert!(matches!(err, StatusError::ZeroInterval), "{err}");
        assert!(err.to_string().contains("interval"), "{err}");

        let missing = std::env::temp_dir().join("rtr_status_no_such_dir").join("s.jsonl");
        let err = StatusWriter::spawn(&missing, Duration::from_millis(10))
            .expect_err("missing parent directory must be rejected");
        assert!(matches!(err, StatusError::Create(..)), "{err}");
        assert!(err.to_string().contains("cannot create status file"), "{err}");
    }

    #[test]
    fn writer_heartbeats_and_final_line_survive() {
        let _g = GUARD.lock().unwrap();
        board().reset();
        let path = std::env::temp_dir().join(format!("rtr_status_hb_{}.jsonl", std::process::id()));
        let writer = StatusWriter::spawn(&path, Duration::from_millis(5)).expect("spawn writer");
        board().add_nodes(42);
        std::thread::sleep(Duration::from_millis(30));
        writer.stop();
        let text = std::fs::read_to_string(&path).expect("heartbeat file");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        assert!(lines.len() >= 2, "expected several heartbeats, got {}", lines.len());
        for line in &lines {
            assert!(crate::parse_value(line).is_ok(), "unparseable heartbeat: {line}");
        }
        let last = lines.last().expect("non-empty");
        assert!(last.contains("\"nodes\":42"), "final line stale: {last}");
    }
}
