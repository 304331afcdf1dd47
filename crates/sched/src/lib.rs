//! One scheduler for every parallel unit in the solver stack.
//!
//! Both parallel layers of the exploration — phase-2 candidate `N`s and
//! depth-`k` subtree prefix jobs inside a window solve — used to carry
//! their own bespoke scoped-thread pools, which meant a nested run split
//! the `--threads` budget statically and a stalled window idled workers
//! that other candidates could have used. This crate replaces both with a
//! single scheduler:
//!
//! * **One global thread budget.** [`Pool::scoped`] spawns `threads - 1`
//!   scoped workers; the calling thread participates as the last worker,
//!   so exactly `threads` threads compute.
//! * **One lock, two cursors per batch.** Each batch with unclaimed jobs
//!   is an entry `lo..hi` in one mutex-protected list, oldest first. A
//!   participant claims (1) the lowest index of its own newest nested
//!   batch, else (2) the lowest index of the oldest top-level batch, else
//!   (3) the highest index of the oldest nested batch of the next
//!   participant round the ring that has one. So top-level batches go out
//!   in ascending order (small candidate `N`s first, as the bespoke pools
//!   claimed them), a nested batch's submitter works up from its lowest
//!   index, and helpers take the highest. That order decides which
//!   subtrees a budget-limited window's node budget covers, so it is part
//!   of the contract.
//! * **Dynamic nesting.** [`Pool::with`] reuses the ambient pool when the
//!   caller is already a participant, so a window solve submitted from
//!   inside a candidate job shares the same budget — and a stalled
//!   window's jobs get taken by whoever is idle, instead of waiting on a
//!   private sub-pool.
//! * **Determinism by merge discipline, not by schedule.** The pool makes
//!   no ordering promises to results; callers own a result slot per job
//!   index and merge in ascending index order, which is what keeps
//!   results bit-identical to the sequential path at any thread count.
//! * **Panic isolation with bounded retries.** Each job runs through
//!   [`rtr_trace::failpoint::isolate`] at the `sched.job` failpoint; a job
//!   is retried up to [`RETRY_LIMIT`] times and then reported lost in the
//!   [`BatchReport`], which is a pure function of the job list under
//!   seeded fault injection.
//!
//! Scheduling telemetry (`sched.*`) is published live to the
//! `rtr_trace::status` board and emitted as trace counters/gauges when the
//! pool winds down. Steals, pops, and parks are scheduling-dependent and
//! therefore gauges; job/batch totals are deterministic at a fixed thread
//! count and therefore counters.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
// Library code recovers from every fallible situation; `unwrap`/`expect`
// are confined to tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use rtr_trace::failpoint::{isolate, RETRY_LIMIT};
use rtr_trace::status::{board, Metric};

thread_local! {
    /// `(pool, participant ordinal)` while this thread participates in a
    /// pool; null outside. Set by the worker loop and the scoped owner.
    static CURRENT: Cell<(*const Pool, usize)> = const { Cell::new((std::ptr::null(), 0)) };
    /// Nesting depth of `execute` frames on this thread; a batch
    /// submitted at depth > 0 comes from inside another job (nested
    /// parallelism, e.g. a window solve inside a candidate).
    static EXEC_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// What happened to a batch: panic-isolation totals plus the ascending
/// indices of jobs abandoned after [`RETRY_LIMIT`] retries. Under
/// seeded `sched.job` fault injection this is a pure function of the job
/// list (index, attempt, and the caller's `fail_key` — never of which
/// thread ran what).
#[derive(Debug, Default, Clone)]
pub struct BatchReport {
    /// Panics caught across all attempts of all jobs.
    pub panics_caught: u64,
    /// Retries performed (a lost job contributes `RETRY_LIMIT`).
    pub jobs_retried: u64,
    /// Ascending indices of jobs whose every attempt panicked.
    pub lost: Vec<usize>,
}

impl BatchReport {
    /// True when every job completed on its first attempt.
    pub fn is_clean(&self) -> bool {
        self.panics_caught == 0 && self.jobs_retried == 0 && self.lost.is_empty()
    }
}

/// Snapshot of the pool's scheduling telemetry. `jobs`, `batches`,
/// `nested_batches`, and `lost_jobs` are deterministic at a fixed thread
/// count; the rest depend on runtime scheduling.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedStats {
    /// Participants in the pool (the `--threads` budget).
    pub threads: usize,
    /// Jobs executed to completion (including lost jobs).
    pub jobs: u64,
    /// Batches submitted.
    pub batches: u64,
    /// Batches submitted from inside another job (nested parallelism).
    pub nested_batches: u64,
    /// Jobs abandoned after retry exhaustion.
    pub lost_jobs: u64,
    /// Jobs a participant claimed from its own newest nested batch.
    pub local_pops: u64,
    /// Jobs claimed from the top of another participant's nested batch.
    pub steals: u64,
    /// Jobs claimed from a top-level batch.
    pub injector_pops: u64,
    /// Waits while idle.
    pub idle_parks: u64,
    /// High-water mark of unclaimed jobs across all open batches.
    pub max_queue_depth: u64,
}

#[derive(Default)]
struct Counters {
    jobs: AtomicU64,
    batches: AtomicU64,
    nested_batches: AtomicU64,
    lost_jobs: AtomicU64,
    local_pops: AtomicU64,
    steals: AtomicU64,
    injector_pops: AtomicU64,
    idle_parks: AtomicU64,
    max_queue_depth: AtomicU64,
}

#[derive(Default)]
struct Account {
    panics_caught: u64,
    jobs_retried: u64,
    lost: Vec<usize>,
}

/// Type-erased shared state of one in-flight batch. Lives on the
/// submitter's stack for the duration of [`Pool::run`]; the pool's open
/// list points at it. Soundness is structural: `run` does not return
/// until `remaining` hits zero, and a finishing participant never touches
/// the batch after its decrement (see `Pool::participate`).
struct BatchShared {
    /// Invokes the caller's closure for one index.
    call: unsafe fn(*const (), usize),
    /// The caller's closure, erased.
    data: *const (),
    /// Jobs not yet finished (completed or abandoned). Read and written
    /// only with the pool's lock held: the lock orders every access, and
    /// its release/acquire publishes each job's writes to the submitter.
    remaining: AtomicUsize,
    /// Caller-chosen `sched.job` failpoint namespace.
    fail_key: u64,
    account: Mutex<Account>,
}

/// Calls the closure erased into `data` for one index.
///
/// # Safety
///
/// `data` must have been erased from an `&F` that is still alive.
unsafe fn call_closure<F: Fn(usize) + Sync>(data: *const (), index: usize) {
    // SAFETY: the caller guarantees `data` is a live `&F`; it borrows from
    // the `Pool::run` frame, which blocks until every job has finished.
    let f = unsafe { &*data.cast::<F>() };
    f(index);
}

/// One batch with unclaimed jobs: indices `lo..hi` are still to be
/// claimed, and the entry leaves the open list when the range empties.
struct Open {
    batch: *const BatchShared,
    lo: usize,
    hi: usize,
    /// Ordinal of the participant that submitted the batch.
    owner: usize,
    /// Submitted from inside a job.
    nested: bool,
}

// SAFETY: apart from `batch`, `Open` is plain data. Other threads only
// share the `BatchShared` behind `batch`, whose fields are all `Sync`
// (atomics, a mutex, a fn pointer, and `data`, an erased `&F` with
// `F: Sync`). It outlives the entry, which leaves the list when its last
// job is claimed, before that job can finish and let `Pool::run` return.
unsafe impl Send for Open {}

/// The scheduler. Create one with [`Pool::scoped`] (or [`Pool::with`],
/// which reuses the ambient pool when nested) and submit indexed batches
/// with [`Pool::run`].
pub struct Pool {
    threads: usize,
    /// Every batch with unclaimed jobs, oldest first.
    open: Mutex<Vec<Open>>,
    /// Notified with `open` locked when a batch opens, when a batch's last
    /// job finishes, and at shutdown (which is also set under the lock).
    wake: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
}

impl Pool {
    /// Run `f` with a pool of exactly `threads` participants
    /// (`threads - 1` spawned workers plus the calling thread). Workers
    /// are joined — and `sched.*` telemetry emitted — before this
    /// returns. `threads` is clamped to at least 1; a 1-thread pool has
    /// no workers and the owner executes every job itself, in ascending
    /// index order.
    pub fn scoped<R>(threads: usize, f: impl FnOnce(&Pool) -> R) -> R {
        let threads = threads.max(1);
        let pool = Pool {
            threads,
            open: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        };
        let out = std::thread::scope(|scope| {
            for ordinal in 0..threads - 1 {
                let pool = &pool;
                scope.spawn(move || pool.worker_loop(ordinal));
            }
            let owner = CurrentGuard::set(&pool, threads - 1);
            let out = f(&pool);
            drop(owner);
            let _open = pool.lock();
            pool.shutdown.store(true, Ordering::Relaxed);
            pool.wake.notify_all();
            out
        });
        pool.emit_telemetry();
        out
    }

    /// Reuse the ambient pool when the calling thread is already a
    /// participant (nested parallelism shares the global budget);
    /// otherwise create a scoped pool of `threads`.
    pub fn with<R>(threads: usize, f: impl FnOnce(&Pool) -> R) -> R {
        let (ptr, _) = CURRENT.with(Cell::get);
        if ptr.is_null() {
            Pool::scoped(threads, f)
        } else {
            // SAFETY: `CURRENT` is non-null only between `CurrentGuard::set`
            // and its drop, both of which happen while the pool is alive
            // (worker loops and the scoped owner frame borrow it).
            f(unsafe { &*ptr })
        }
    }

    /// Number of participants (spawned workers + owner).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// This thread's participant ordinal in `self`, if it is one.
    pub fn participant_ordinal(&self) -> Option<usize> {
        let (ptr, ordinal) = CURRENT.with(Cell::get);
        (std::ptr::eq(ptr, self)).then_some(ordinal)
    }

    /// Telemetry snapshot (live; racy reads are fine).
    pub fn stats(&self) -> SchedStats {
        let c = &self.counters;
        SchedStats {
            threads: self.threads(),
            jobs: c.jobs.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            nested_batches: c.nested_batches.load(Ordering::Relaxed),
            lost_jobs: c.lost_jobs.load(Ordering::Relaxed),
            local_pops: c.local_pops.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            injector_pops: c.injector_pops.load(Ordering::Relaxed),
            idle_parks: c.idle_parks.load(Ordering::Relaxed),
            max_queue_depth: c.max_queue_depth.load(Ordering::Relaxed),
        }
    }

    /// Execute `f(index)` for every `index in 0..count`, spread across
    /// the pool, and block (helping: the caller executes queued jobs,
    /// possibly from other batches, while it waits) until all have
    /// finished. Panicking jobs are caught, retried up to
    /// [`RETRY_LIMIT`] times, then abandoned and listed in the
    /// report. `fail_key` namespaces the `sched.job` failpoint so
    /// distinct batch kinds draw distinct fault decisions.
    ///
    /// The pool promises nothing about execution order; determinism is
    /// the caller's obligation, discharged by giving each index its own
    /// result slot and merging in ascending index order.
    pub fn run<F: Fn(usize) + Sync>(&self, count: usize, fail_key: u64, f: F) -> BatchReport {
        if count == 0 {
            return BatchReport::default();
        }
        let batch = BatchShared {
            call: call_closure::<F>,
            data: (&raw const f).cast(),
            remaining: AtomicUsize::new(count),
            fail_key,
            account: Mutex::new(Account::default()),
        };
        bump(&self.counters.batches, Metric::SchedBatches);
        let nested = EXEC_DEPTH.with(Cell::get) > 0;
        if nested {
            bump(&self.counters.nested_batches, Metric::SchedNestedBatches);
        }

        match self.participant_ordinal() {
            Some(me) => {
                let mut open = self.lock();
                open.push(Open { batch: &raw const batch, lo: 0, hi: count, owner: me, nested });
                let depth = open.iter().map(|o| (o.hi - o.lo) as u64).sum();
                self.counters.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
                board().raise(Metric::SchedQueueDepthMax, depth);
                self.wake.notify_all();
                drop(open);
                self.participate(me, || batch.remaining.load(Ordering::Relaxed) == 0);
            }
            None => {
                // Not a participant of this pool (defensive fallback):
                // run the batch inline, sequentially, with identical
                // isolation semantics.
                for index in 0..count {
                    self.execute(&batch, index);
                }
            }
        }

        let mut account = batch.account.into_inner().unwrap_or_else(PoisonError::into_inner);
        // Completion order is scheduling-dependent; the report is not.
        account.lost.sort_unstable();
        BatchReport {
            panics_caught: account.panics_caught,
            jobs_retried: account.jobs_retried,
            lost: account.lost,
        }
    }

    /// Locks the open list. No panic can unwind while it is held (jobs run
    /// unlocked, and each update under it leaves the list valid), so a
    /// poisoned lock is recovered.
    fn lock(&self) -> MutexGuard<'_, Vec<Open>> {
        self.open.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims and runs jobs as participant `me` until `done` holds,
    /// waiting while nothing is claimable. `done` and every claim are
    /// checked with the lock held, and every change to them notifies
    /// `wake` under the same lock, so the untimed wait cannot miss one.
    fn participate(&self, me: usize, done: impl Fn() -> bool) {
        let mut open = self.lock();
        while !done() {
            let Some((batch, index)) = self.claim(&mut open, me) else {
                bump(&self.counters.idle_parks, Metric::SchedIdleParks);
                open = self.wake.wait(open).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            drop(open);
            // SAFETY: the claimed job is unfinished, so its batch's
            // `Pool::run` frame is still blocked, and it stays blocked until
            // the `remaining` decrement below.
            let batch = unsafe { &*batch };
            self.execute(batch, index);
            open = self.lock();
            // Last touch of `batch`: once `remaining` reaches zero its
            // submitter may return and pop the frame.
            if batch.remaining.fetch_sub(1, Ordering::Relaxed) == 1 {
                self.wake.notify_all();
            }
        }
    }

    /// Claims participant `me`'s next job by the pool's three rules (see
    /// the crate doc), and drops the batch's entry once its range empties.
    fn claim(&self, open: &mut Vec<Open>, me: usize) -> Option<(*const BatchShared, usize)> {
        let n = self.threads;
        let (at, top) = if let Some(at) = open.iter().rposition(|o| o.nested && o.owner == me) {
            bump(&self.counters.local_pops, Metric::SchedLocalPops);
            (at, false)
        } else if let Some(at) = open.iter().position(|o| !o.nested) {
            self.counters.injector_pops.fetch_add(1, Ordering::Relaxed);
            (at, false)
        } else {
            let at = (1..n)
                .find_map(|k| open.iter().position(|o| o.nested && o.owner == (me + k) % n))?;
            bump(&self.counters.steals, Metric::SchedSteals);
            (at, true)
        };
        let entry = &mut open[at];
        let index = if top {
            entry.hi -= 1;
            entry.hi
        } else {
            entry.lo += 1;
            entry.lo - 1
        };
        let batch = entry.batch;
        if entry.lo == entry.hi {
            open.remove(at);
        }
        Some((batch, index))
    }

    /// Run one job to completion (or abandonment) with panic isolation.
    fn execute(&self, batch: &BatchShared, index: usize) {
        let depth = EXEC_DEPTH.with(Cell::get);
        EXEC_DEPTH.with(|d| d.set(depth + 1));
        let (done, panics) = isolate("sched.job", batch.fail_key ^ ((index as u64) << 8), || {
            // SAFETY: `data` is the erased closure `call` was
            // monomorphized for, alive until the batch finishes.
            unsafe { (batch.call)(batch.data, index) }
        });
        if panics > 0 {
            let mut account = batch.account.lock().unwrap_or_else(PoisonError::into_inner);
            account.panics_caught += u64::from(panics);
            account.jobs_retried += u64::from(panics.min(RETRY_LIMIT));
            if done.is_none() {
                account.lost.push(index);
                drop(account);
                bump(&self.counters.lost_jobs, Metric::SchedLostJobs);
            }
        }
        EXEC_DEPTH.with(|d| d.set(depth));
        bump(&self.counters.jobs, Metric::SchedJobs);
    }

    fn worker_loop(&self, ordinal: usize) {
        let _current = CurrentGuard::set(self, ordinal);
        board().add(Metric::WorkersActive, 1);
        self.participate(ordinal, || self.shutdown.load(Ordering::Relaxed));
        board().sub(Metric::WorkersActive, 1);
    }

    /// Emit the final `sched.*` telemetry for this pool's lifetime.
    /// Deterministic totals (at a fixed thread count) go out as counters;
    /// scheduling-dependent ones as gauges. Trace consumers comparing
    /// streams across thread counts must strip `sched.*` events — the
    /// schedule is exactly what these measure.
    fn emit_telemetry(&self) {
        if !rtr_trace::enabled() {
            return;
        }
        let stats = self.stats();
        rtr_trace::counter("sched.jobs", stats.jobs);
        rtr_trace::counter("sched.batches", stats.batches);
        rtr_trace::counter("sched.nested_batches", stats.nested_batches);
        rtr_trace::counter("sched.lost_jobs", stats.lost_jobs);
        rtr_trace::gauge("sched.threads", stats.threads as f64);
        rtr_trace::gauge("sched.steals", stats.steals as f64);
        rtr_trace::gauge("sched.local_pops", stats.local_pops as f64);
        rtr_trace::gauge("sched.injector_pops", stats.injector_pops as f64);
        rtr_trace::gauge("sched.idle_parks", stats.idle_parks as f64);
        rtr_trace::gauge("sched.max_queue_depth", stats.max_queue_depth as f64);
    }
}

/// Adds one to a per-pool counter and to its twin on the status board.
fn bump(counter: &AtomicU64, metric: Metric) {
    counter.fetch_add(1, Ordering::Relaxed);
    board().add(metric, 1);
}

/// RAII for the thread-local participant registration.
struct CurrentGuard {
    previous: (*const Pool, usize),
}

impl CurrentGuard {
    fn set(pool: &Pool, ordinal: usize) -> CurrentGuard {
        let previous = CURRENT.with(|c| c.replace((pool as *const Pool, ordinal)));
        CurrentGuard { previous }
    }
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.previous));
    }
}

#[cfg(test)]
mod tests;
