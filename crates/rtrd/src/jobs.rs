//! The job table: bounded admission queue, worker pool, deadlines,
//! cancellation, and the cache-backed solve path.
//!
//! ## Lifecycle
//!
//! `queued → running → done | failed`. A cancel (user request, deadline
//! expiry, or drain) never removes a job: it flips the job's
//! [`CancelFlag`], the solver winds down through its normal limit paths,
//! and the job still ends `done` — with the best-so-far result and
//! `degradation.cancelled = true` in the response. `failed` is reserved
//! for solver errors and for jobs whose worker panicked past its retries.
//!
//! ## Admission
//!
//! The queue is bounded ([`Config::queue_cap`](crate::Config)): a submit
//! that would exceed `queued + running ≥ cap` is rejected with a
//! retry-after hint and counted in `rtrd.rejected` — overload degrades to
//! predictable backpressure, not to unbounded memory growth. A draining
//! server rejects every submit.
//!
//! ## Workers and faults
//!
//! A fixed pool of worker threads drains the queue in submit order. Each
//! job runs through [`isolate`] at the `rtrd.worker` failpoint: a panic is
//! caught and the job retried (fresh, same request) up to
//! [`RETRY_LIMIT`](rtr_trace::failpoint::RETRY_LIMIT) times before it
//! fails — one tenant's crash never takes down the worker, the service, or
//! another job. The `rtrd.admission` site deterministically injects
//! rejections to drill the backpressure path.
//!
//! ## Cache path
//!
//! Fingerprint hit → serve by verified deterministic replay. Miss → solve
//! with an every-window durable checkpoint in the cache's `jobs/` area;
//! completed jobs are promoted into the cache, cancelled jobs leave their
//! checkpoint behind as the resumable state a resubmit picks up.

use crate::cache::{Lookup, SolveCache};
use crate::request::JobRequest;
use rtr_core::checkpoint::{Checkpoint, CheckpointPolicy};
use rtr_core::{Exploration, TemporalPartitioner};
use rtr_trace::failpoint::isolate;
use rtr_trace::{CancelFlag, Escaped, Metric};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Retry-after hint returned with queue-full rejections, in milliseconds.
pub const RETRY_AFTER_MS: u64 = 500;

/// Public job state, as reported by the status endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting in the admission queue.
    Queued,
    /// A worker is solving (or replaying) it.
    Running,
    /// Finished; the rendered result is ready.
    Done {
        /// Deterministic result JSON (the byte-comparable part).
        result: String,
        /// Served from the solve cache by verified replay.
        cached: bool,
        /// Resumed from an interrupted run's checkpoint.
        resumed: bool,
    },
    /// The solver returned an error or the worker exhausted its retries.
    Failed {
        /// Human-readable cause.
        error: String,
    },
}

impl JobState {
    /// The wire name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
        }
    }
}

/// Why a submit was not admitted.
#[derive(Debug)]
pub enum SubmitError {
    /// The server is draining (SIGTERM); nothing new is admitted.
    Draining,
    /// The bounded queue is full (or the `rtrd.admission` failpoint
    /// injected a rejection); retry after the hinted delay.
    QueueFull {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The instance itself is invalid (e.g. a task fits no design point).
    Invalid(String),
}

struct JobEntry {
    state: JobState,
    cancel: CancelFlag,
    /// Taken by the worker when the job starts.
    request: Option<JobRequest>,
    fingerprint: u64,
    deadline: Option<Duration>,
}

struct TableInner {
    next_id: u64,
    jobs: BTreeMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    running: usize,
    draining: bool,
    stop: bool,
    /// Interrupted-job checkpoints from the startup recovery scan,
    /// consumed (as resume state) by the first matching submit.
    resumable: BTreeMap<u64, PathBuf>,
}

/// The shared job table. One instance per server; workers, the HTTP
/// handlers, and the signal path all talk to it.
pub struct JobTable {
    inner: Mutex<TableInner>,
    work_ready: Condvar,
    idle: Condvar,
    cache: SolveCache,
    queue_cap: usize,
    /// Submission ordinal, the `rtrd.admission` failpoint key.
    submit_seq: AtomicU64,
}

impl JobTable {
    /// Creates a table over `cache` with the given admission bound,
    /// seeding the resumable set from a recovery scan.
    pub fn new(cache: SolveCache, queue_cap: usize, resumable: BTreeMap<u64, PathBuf>) -> JobTable {
        JobTable {
            inner: Mutex::new(TableInner {
                next_id: 1,
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                running: 0,
                draining: false,
                stop: false,
                resumable,
            }),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            cache,
            queue_cap,
            submit_seq: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admission control: accept into the bounded queue or reject.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when draining, full, or the instance is invalid.
    pub fn submit(&self, request: JobRequest) -> Result<(u64, u64), SubmitError> {
        // Validate the instance and compute the cache fingerprint before
        // taking the table lock: both only need the request.
        let fingerprint =
            TemporalPartitioner::new(&request.graph, &request.arch, request.params.clone())
                .map_err(|e| SubmitError::Invalid(e.to_string()))?
                .fingerprint();
        let board = rtr_trace::status::board();
        let mut inner = self.lock();
        if inner.draining || inner.stop {
            board.add(Metric::RtrdRejected, 1);
            return Err(SubmitError::Draining);
        }
        // Failpoint: an injected rejection exercises the backpressure path;
        // the client retries and is served identically (outcome-invariant).
        // Keyed by the submission ordinal — not the fingerprint — so a
        // retried submit draws a fresh deterministic decision.
        let seq = self.submit_seq.fetch_add(1, Ordering::Relaxed);
        if rtr_trace::failpoint::failpoint("rtrd.admission", seq) {
            board.add(Metric::RtrdRejected, 1);
            return Err(SubmitError::QueueFull { retry_after_ms: RETRY_AFTER_MS });
        }
        if inner.queue.len() + inner.running >= self.queue_cap {
            board.add(Metric::RtrdRejected, 1);
            return Err(SubmitError::QueueFull { retry_after_ms: RETRY_AFTER_MS });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let deadline = request.deadline;
        inner.jobs.insert(
            id,
            JobEntry {
                state: JobState::Queued,
                cancel: request.params.cancel.clone(),
                request: Some(request),
                fingerprint,
                deadline,
            },
        );
        inner.queue.push_back(id);
        board.add(Metric::RtrdSubmitted, 1);
        drop(inner);
        self.work_ready.notify_one();
        Ok((id, fingerprint))
    }

    /// The job's current state, by id.
    pub fn state(&self, id: u64) -> Option<JobState> {
        self.lock().jobs.get(&id).map(|j| j.state.clone())
    }

    /// The job's fingerprint, by id.
    pub fn fingerprint(&self, id: u64) -> Option<u64> {
        self.lock().jobs.get(&id).map(|j| j.fingerprint)
    }

    /// Cooperatively cancels a job. `true` if the job exists; finished
    /// jobs are unaffected (their flag is spent).
    pub fn cancel(&self, id: u64) -> bool {
        match self.lock().jobs.get(&id) {
            Some(job) => {
                job.cancel.cancel();
                true
            }
            None => false,
        }
    }

    /// Cancels every job that has not finished (drain with a hurry:
    /// running solves wind down to best-so-far at their next budget
    /// check).
    pub fn cancel_all(&self) {
        for job in self.lock().jobs.values() {
            if matches!(job.state, JobState::Queued | JobState::Running) {
                job.cancel.cancel();
            }
        }
    }

    /// Stops admitting new jobs; everything queued or running proceeds.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.work_ready.notify_all();
    }

    /// `true` once [`drain`](Self::drain) (or shutdown) was called.
    pub fn is_draining(&self) -> bool {
        let inner = self.lock();
        inner.draining || inner.stop
    }

    /// Current queue depth (queued, not yet claimed by a worker).
    pub fn queue_depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Fingerprints recovered from interrupted runs, still unclaimed.
    pub fn resumable_count(&self) -> usize {
        self.lock().resumable.len()
    }

    /// Blocks until no job is queued or running (with a safety timeout).
    pub fn wait_idle(&self, timeout: Duration) {
        let mut inner = self.lock();
        let deadline = std::time::Instant::now() + timeout;
        while !inner.queue.is_empty() || inner.running > 0 {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .idle
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    /// Tells workers to exit after their current job and unblocks idle
    /// ones. Pending queued jobs are abandoned (the server is going away).
    pub fn stop(&self) {
        let mut inner = self.lock();
        inner.stop = true;
        inner.draining = true;
        drop(inner);
        self.work_ready.notify_all();
    }

    /// One worker thread's main loop: claim jobs in submit order until
    /// [`stop`](Self::stop).
    pub fn worker_loop(self: &Arc<Self>) {
        loop {
            let claimed = {
                let mut inner = self.lock();
                loop {
                    if inner.stop {
                        return;
                    }
                    if let Some(id) = inner.queue.pop_front() {
                        inner.running += 1;
                        let job = match inner.jobs.get_mut(&id) {
                            Some(job) => job,
                            None => {
                                inner.running -= 1;
                                continue;
                            }
                        };
                        job.state = JobState::Running;
                        let request = job.request.take();
                        let cancel = job.cancel.clone();
                        let fingerprint = job.fingerprint;
                        let deadline = job.deadline;
                        break Some((id, request, cancel, fingerprint, deadline));
                    }
                    inner = self.work_ready.wait(inner).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let Some((id, request, cancel, fingerprint, deadline)) = claimed else {
                return;
            };
            let state = match request {
                Some(request) => self.run_with_retries(id, request, &cancel, fingerprint, deadline),
                None => JobState::Failed { error: "job request lost".to_owned() },
            };
            let mut inner = self.lock();
            if let Some(job) = inner.jobs.get_mut(&id) {
                job.state = state;
            }
            inner.running -= 1;
            drop(inner);
            self.idle.notify_all();
        }
    }

    /// Runs one job, retrying on (injected or genuine) worker panics.
    fn run_with_retries(
        &self,
        id: u64,
        request: JobRequest,
        cancel: &CancelFlag,
        fingerprint: u64,
        deadline: Option<Duration>,
    ) -> JobState {
        // The deadline watchdog blocks until the deadline passes or the job
        // ends, whichever is first: dropping `finished` ends the wait at
        // once, and a deadline cancels at its instant, not at a poll tick.
        let (finished, ended) = mpsc::channel::<()>();
        let watchdog = deadline.map(|limit| {
            let cancel = cancel.clone();
            std::thread::spawn(move || {
                if let Err(RecvTimeoutError::Timeout) = ended.recv_timeout(limit) {
                    cancel.cancel();
                }
            })
        });
        let (state, panics) =
            isolate("rtrd.worker", id << 8, || self.run_job(&request, fingerprint));
        let state = state.unwrap_or_else(|| JobState::Failed {
            error: format!("worker panicked {panics} times; job abandoned"),
        });
        drop(finished);
        if let Some(handle) = watchdog {
            let _ = handle.join();
        }
        state
    }

    /// The cache-first solve path.
    fn run_job(&self, request: &JobRequest, fingerprint: u64) -> JobState {
        let board = rtr_trace::status::board();
        let partitioner =
            match TemporalPartitioner::new(&request.graph, &request.arch, request.params.clone()) {
                Ok(p) => p,
                Err(e) => return JobState::Failed { error: e.to_string() },
            };

        // 1. Cache hit: serve by verified deterministic replay. Every
        //    window comes from the checkpoint (validated record by
        //    record); missing windows are re-solved, so even a partial
        //    entry yields a correct result.
        if let Lookup::Hit(checkpoint) = self.cache.load(fingerprint) {
            match partitioner.explore_resumable(1, None, Some(&checkpoint), |_| {}) {
                Ok(exploration) => {
                    board.add(Metric::RtrdCompleted, 1);
                    return JobState::Done {
                        result: render_result(&exploration, request),
                        cached: true,
                        resumed: false,
                    };
                }
                Err(_) => {
                    // The entry verified its checksum but failed replay
                    // validation (e.g. written by an incompatible build):
                    // evict it and solve afresh — never serve it.
                    self.cache.evict(fingerprint);
                }
            }
        }

        // 2. Miss: solve, streaming every completed window into a durable
        //    in-flight checkpoint so a crash (or cancel) leaves verified,
        //    resumable state behind.
        let resume = {
            let mut inner = self.lock();
            inner.resumable.remove(&fingerprint)
        };
        let resume_checkpoint = resume.as_deref().and_then(|path| Checkpoint::load(path).ok());
        let resumed = resume_checkpoint.is_some();
        let policy =
            CheckpointPolicy::new(self.cache.job_checkpoint_path(fingerprint), Duration::ZERO);
        let outcome = partitioner.explore_resumable(
            request.threads,
            Some(&policy),
            resume_checkpoint.as_ref(),
            |_| {},
        );
        match outcome {
            Ok(exploration) => {
                if exploration.degradation.cancelled {
                    // Interrupted: keep the job checkpoint as the
                    // resumable state of a future resubmit; the cache
                    // proper only holds completed runs.
                    board.add(Metric::RtrdCancelled, 1);
                } else {
                    self.cache.promote_job_checkpoint(fingerprint);
                }
                board.add(Metric::RtrdCompleted, 1);
                JobState::Done {
                    result: render_result(&exploration, request),
                    cached: false,
                    resumed,
                }
            }
            Err(e) => JobState::Failed { error: e.to_string() },
        }
    }
}

/// Escapes a string for embedding in JSON (no surrounding quotes).
pub fn escape_json(s: &str) -> String {
    Escaped(s).to_string()
}

/// Renders the deterministic part of a job response: everything in this
/// object is a pure function of the instance and parameters (CSV log,
/// solution text, degradation account), so two runs of the same request —
/// fresh, replayed from cache, or resumed across a crash — produce
/// byte-identical strings. Timing, job ids, and cache provenance live
/// *outside* this object.
fn render_result(exploration: &Exploration, request: &JobRequest) -> String {
    let mut out = String::with_capacity(512);
    out.push('{');
    match (&exploration.best, exploration.best_latency) {
        (Some(best), Some(latency)) => {
            let _ = write!(
                out,
                "\"feasible\":true,\"best_latency_ns\":{},\"solution\":\"{}\"",
                latency.as_ns(),
                Escaped(&best.to_text(&request.graph))
            );
        }
        _ => out.push_str("\"feasible\":false,\"best_latency_ns\":null,\"solution\":null"),
    }
    let _ = write!(
        out,
        ",\"n_min_lower\":{},\"n_min_upper\":{},\"windows\":{},\"csv\":\"{}\"",
        exploration.n_min_lower,
        exploration.n_min_upper,
        exploration.records.len(),
        Escaped(&exploration.to_csv())
    );
    let d = &exploration.degradation;
    let _ = write!(
        out,
        ",\"clean\":{},\"cancelled\":{},\"degradation\":\"{}\"}}",
        d.is_clean(),
        d.cancelled,
        Escaped(&d.render())
    );
    out
}
