//! Versioned JSON checkpoints for long explorations.
//!
//! A checkpoint is a *solve cache*, not a program image: it stores one
//! entry per completed `SolveModel()` window, keyed by `(N, iteration)`,
//! together with a fingerprint of the instance and parameters. Because the
//! exploration itself is deterministic, resuming is replay — the run
//! starts from scratch, and every window whose key is in the cache is
//! answered from the stored record (validated first) instead of being
//! solved again. Any subset of records is usable; missing windows are
//! simply re-solved, so a checkpoint torn mid-run by `kill -9` still
//! resumes to a byte-identical result.
//!
//! Writes are atomic (temp file in the same directory, then rename) and
//! *resilient*: a failed write — real or injected via the
//! `checkpoint.write` failpoint — is counted and retried at the next
//! interval, never aborting the exploration.
//!
//! ## Schema and version policy
//!
//! The file is a single JSON object:
//!
//! ```json
//! {
//!   "version": 1,
//!   "fingerprint": "0x1a2b3c4d5e6f7788",
//!   "records": [
//!     {"n": 2, "iteration": 1, "d_max_ns": 1730, "d_min_ns": 780,
//!      "result": "feasible", "latency_ns": 900, "eta": 2,
//!      "elapsed_us": 1234, "placements": [[1, 0], [2, 1]]}
//!   ]
//! }
//! ```
//!
//! `placements[t]` is `[partition, design_point]` for task index `t`;
//! infeasible / limit rows carry `"placements": null`. Floats are written
//! with Rust's shortest-round-trip formatting, so parsing restores the
//! exact bit pattern. `version` is bumped on any incompatible schema
//! change; loaders reject unknown versions (and mismatched fingerprints)
//! with a typed [`PartitionError::Checkpoint`] rather than guessing.
//!
//! Reading goes through [`rtr_trace::parse_value`], the workspace's one
//! JSON reader, and decodes its tree: malformed JSON, nesting past
//! [`rtr_trace::MAX_DEPTH`], an overflowing float such as `1e999`, and a
//! missing or mistyped field are all the same typed error.

use crate::arch::Architecture;
use crate::error::PartitionError;
use crate::search::IterationResult;
use crate::solution::{Placement, Solution};
use crate::validate::validate_solution;
use rtr_graph::TaskGraph;
use rtr_trace::{parse_value, JsonValue};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Current checkpoint schema version (see the module docs for the policy).
pub const CHECKPOINT_VERSION: u32 = 1;

/// How one checkpointed `SolveModel()` window ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointResult {
    /// The window had a solution; `placements[t]` is
    /// `(partition, design_point)` for task index `t`.
    Feasible {
        /// Recomputed total latency of the stored solution, in ns.
        latency_ns: f64,
        /// Partitions actually used.
        eta: u32,
        /// The solution itself, `(partition, design_point)` per task.
        placements: Vec<(u32, usize)>,
    },
    /// The window was proven empty.
    Infeasible,
    /// A limit fired before the window was decided.
    LimitReached,
}

/// One completed window solve, keyed by `(n, iteration)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// Partition bound `N` of the solve.
    pub n: u32,
    /// Iteration index within this `N` (1-based).
    pub iteration: u32,
    /// Window upper bound in ns (exact bits of the original window).
    pub d_max_ns: f64,
    /// Window lower bound in ns.
    pub d_min_ns: f64,
    /// What the solve returned.
    pub result: CheckpointResult,
    /// Wall-clock time of the original solve, in µs.
    pub elapsed_us: u64,
}

impl CheckpointRecord {
    /// Rebuilds the window's `(result, solution)` from the stored record,
    /// validating the solution against the graph, architecture, and the
    /// original window before trusting it.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Checkpoint`] when the stored placements are
    /// malformed, violate a constraint, or their recomputed latency does
    /// not reproduce the stored one bit-for-bit.
    pub(crate) fn reconstruct(
        &self,
        graph: &TaskGraph,
        arch: &Architecture,
    ) -> Result<(IterationResult, Option<Solution>), PartitionError> {
        match &self.result {
            CheckpointResult::Infeasible => Ok((IterationResult::Infeasible, None)),
            CheckpointResult::LimitReached => Ok((IterationResult::LimitReached, None)),
            CheckpointResult::Feasible { latency_ns, eta, placements } => {
                let detail = |msg: String| PartitionError::Checkpoint {
                    detail: format!("record (n={}, iteration={}): {msg}", self.n, self.iteration),
                };
                if placements.len() != graph.task_count() {
                    return Err(detail(format!(
                        "{} placements for {} tasks",
                        placements.len(),
                        graph.task_count()
                    )));
                }
                let mut decoded = Vec::with_capacity(placements.len());
                for (t, &(partition, design_point)) in placements.iter().enumerate() {
                    let points = graph.tasks()[t].design_points().len();
                    if partition < 1 || partition > self.n || design_point >= points {
                        return Err(detail(format!(
                            "task {t} placed at (partition {partition}, point {design_point})"
                        )));
                    }
                    decoded.push(Placement { partition, design_point });
                }
                let sol = Solution::new(decoded, self.n);
                let violations = validate_solution(graph, arch, &sol);
                if !violations.is_empty() {
                    return Err(detail(format!("stored solution is invalid: {violations:?}")));
                }
                let latency = sol.total_latency(graph, arch);
                if latency.as_ns().to_bits() != latency_ns.to_bits() {
                    return Err(detail(format!(
                        "stored latency {latency_ns} ns != recomputed {} ns",
                        latency.as_ns()
                    )));
                }
                if sol.partitions_used() != *eta {
                    return Err(detail(format!(
                        "stored eta {eta} != recomputed {}",
                        sol.partitions_used()
                    )));
                }
                Ok((IterationResult::Feasible { latency, eta: *eta }, Some(sol)))
            }
        }
    }
}

/// A loaded (or to-be-written) checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Schema version ([`CHECKPOINT_VERSION`] when written by this build).
    pub version: u32,
    /// Fingerprint of the instance and exploration parameters.
    pub fingerprint: u64,
    /// Completed window solves, ascending by `(n, iteration)`.
    pub records: Vec<CheckpointRecord>,
}

impl Checkpoint {
    /// Serializes the checkpoint as JSON (see the module docs for the
    /// schema).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.records.len() * 96);
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {},\n", self.version));
        out.push_str(&format!("  \"fingerprint\": \"{:#018x}\",\n", self.fingerprint));
        out.push_str("  \"records\": [");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"n\": {}, \"iteration\": {}, \"d_max_ns\": {}, \"d_min_ns\": {}, ",
                r.n, r.iteration, r.d_max_ns, r.d_min_ns
            ));
            match &r.result {
                CheckpointResult::Feasible { latency_ns, eta, placements } => {
                    out.push_str(&format!(
                        "\"result\": \"feasible\", \"latency_ns\": {latency_ns}, \"eta\": {eta}, "
                    ));
                    out.push_str(&format!("\"elapsed_us\": {}, \"placements\": [", r.elapsed_us));
                    for (j, (p, m)) in placements.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!("[{p}, {m}]"));
                    }
                    out.push_str("]}");
                }
                CheckpointResult::Infeasible => out.push_str(&format!(
                    "\"result\": \"infeasible\", \"elapsed_us\": {}, \"placements\": null}}",
                    r.elapsed_us
                )),
                CheckpointResult::LimitReached => out.push_str(&format!(
                    "\"result\": \"limit\", \"elapsed_us\": {}, \"placements\": null}}",
                    r.elapsed_us
                )),
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a checkpoint from its JSON text.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Checkpoint`] on malformed JSON, an unknown
    /// schema version, or missing / mistyped fields.
    pub fn from_json(text: &str) -> Result<Checkpoint, PartitionError> {
        let err = |msg: &str| PartitionError::Checkpoint { detail: msg.to_owned() };
        let top = parse_value(text)
            .map_err(|e| PartitionError::Checkpoint { detail: format!("bad JSON: {e}") })?;
        if !matches!(top, JsonValue::Obj(_)) {
            return Err(err("top level is not an object"));
        }
        let version = top.get("version").and_then(JsonValue::as_u64);
        let version = version.ok_or_else(|| err("missing `version`"))? as u32;
        if version != CHECKPOINT_VERSION {
            return Err(PartitionError::Checkpoint {
                detail: format!(
                    "unsupported checkpoint version {version} (this build reads \
                     {CHECKPOINT_VERSION})"
                ),
            });
        }
        let fingerprint = top
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .and_then(parse_hex_u64)
            .ok_or_else(|| err("missing or malformed `fingerprint`"))?;
        let Some(JsonValue::Arr(records_json)) = top.get("records") else {
            return Err(err("missing `records` array"));
        };
        let mut records = Vec::with_capacity(records_json.len());
        for (i, rec) in records_json.iter().enumerate() {
            let rerr =
                |msg: &str| PartitionError::Checkpoint { detail: format!("record {i}: {msg}") };
            if !matches!(rec, JsonValue::Obj(_)) {
                return Err(rerr("not an object"));
            }
            let int = |key: &str| rec.get(key).and_then(JsonValue::as_u64);
            let float = |key: &str| rec.get(key).and_then(JsonValue::as_f64);
            let n = int("n").ok_or_else(|| rerr("missing `n`"))? as u32;
            let iteration = int("iteration").ok_or_else(|| rerr("missing `iteration`"))? as u32;
            let d_max_ns = float("d_max_ns").ok_or_else(|| rerr("missing `d_max_ns`"))?;
            let d_min_ns = float("d_min_ns").ok_or_else(|| rerr("missing `d_min_ns`"))?;
            let elapsed_us = int("elapsed_us").unwrap_or(0);
            let result = match rec.get("result").and_then(JsonValue::as_str) {
                Some("feasible") => {
                    let latency_ns =
                        float("latency_ns").ok_or_else(|| rerr("missing `latency_ns`"))?;
                    let eta = int("eta").ok_or_else(|| rerr("missing `eta`"))? as u32;
                    let Some(JsonValue::Arr(list)) = rec.get("placements") else {
                        return Err(rerr("feasible record without `placements`"));
                    };
                    let mut placements = Vec::with_capacity(list.len());
                    for pair in list {
                        let bad_pair = || rerr("placement is not a [partition, design_point] pair");
                        let JsonValue::Arr(pair) = pair else { return Err(bad_pair()) };
                        let [p, m] = pair.as_slice() else { return Err(bad_pair()) };
                        let p = p.as_u64().ok_or_else(|| rerr("bad partition"))? as u32;
                        let m = m.as_u64().ok_or_else(|| rerr("bad design point"))? as usize;
                        placements.push((p, m));
                    }
                    CheckpointResult::Feasible { latency_ns, eta, placements }
                }
                Some("infeasible") => CheckpointResult::Infeasible,
                Some("limit") => CheckpointResult::LimitReached,
                _ => return Err(rerr("missing or unknown `result`")),
            };
            records.push(CheckpointRecord { n, iteration, d_max_ns, d_min_ns, result, elapsed_us });
        }
        Ok(Checkpoint { version, fingerprint, records })
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Checkpoint`] on IO failure (including one
    /// injected at the `checkpoint.load` failpoint) or malformed content.
    pub fn load(path: &Path) -> Result<Checkpoint, PartitionError> {
        if rtr_trace::failpoint::failpoint(
            "checkpoint.load",
            fnv1a(path.as_os_str().as_encoded_bytes()),
        ) {
            return Err(PartitionError::Checkpoint {
                detail: format!("injected load failure for `{}`", path.display()),
            });
        }
        let text = std::fs::read_to_string(path).map_err(|e| PartitionError::Checkpoint {
            detail: format!("cannot read `{}`: {e}", path.display()),
        })?;
        Checkpoint::from_json(&text)
    }
}

/// When and where [`crate::TemporalPartitioner::explore_resumable`] writes
/// checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Destination file; a sibling `<path>.tmp` is used for atomic writes.
    pub path: PathBuf,
    /// Minimum interval between writes; [`Duration::ZERO`] writes after
    /// every completed window solve. A final write always happens when the
    /// exploration ends.
    pub every: Duration,
}

impl CheckpointPolicy {
    /// A policy writing to `path` every `every`.
    pub fn new(path: impl Into<PathBuf>, every: Duration) -> Self {
        CheckpointPolicy { path: path.into(), every }
    }
}

/// Thread-shared collector the exploration streams completed window
/// records into; owns the interval gating and the atomic writes.
#[derive(Debug)]
pub(crate) struct CheckpointSink {
    policy: CheckpointPolicy,
    fingerprint: u64,
    inner: Mutex<SinkInner>,
}

#[derive(Debug)]
struct SinkInner {
    records: BTreeMap<(u32, u32), CheckpointRecord>,
    last_write: Instant,
    write_ordinal: u64,
    failures: u64,
}

impl CheckpointSink {
    pub(crate) fn new(policy: CheckpointPolicy, fingerprint: u64) -> Self {
        CheckpointSink {
            policy,
            fingerprint,
            inner: Mutex::new(SinkInner {
                records: BTreeMap::new(),
                last_write: Instant::now(),
                write_ordinal: 0,
                failures: 0,
            }),
        }
    }

    /// Adds one completed window record and writes the checkpoint if the
    /// interval has elapsed (or the policy writes on every record).
    pub(crate) fn record(&self, rec: CheckpointRecord) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.records.insert((rec.n, rec.iteration), rec);
        if self.policy.every.is_zero() || inner.last_write.elapsed() >= self.policy.every {
            self.write_locked(&mut inner);
        }
    }

    /// Unconditionally writes the checkpoint (used for the final write).
    pub(crate) fn flush(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        self.write_locked(&mut inner);
    }

    /// Write failures so far (real IO errors plus injected ones).
    pub(crate) fn failures(&self) -> u64 {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).failures
    }

    /// Serializes and atomically replaces the checkpoint file. A failure
    /// is counted and deferred to the next interval — checkpointing is an
    /// observer of the exploration and must never abort it.
    fn write_locked(&self, inner: &mut SinkInner) {
        let _span = rtr_trace::span("checkpoint.write").with("records", inner.records.len());
        inner.last_write = Instant::now();
        inner.write_ordinal += 1;
        let checkpoint = Checkpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: self.fingerprint,
            records: inner.records.values().cloned().collect(),
        };
        let failed = if rtr_trace::failpoint::failpoint("checkpoint.write", inner.write_ordinal) {
            true
        } else {
            atomic_durable_write(&self.policy.path, checkpoint.to_json().as_bytes()).is_err()
        };
        if failed {
            inner.failures += 1;
            rtr_trace::counter("resilience.checkpoint_write_failures", 1);
        } else {
            rtr_trace::status::board().record_checkpoint_write();
        }
    }
}

/// Writes `bytes` to `path` atomically *and durably*: the data is written
/// to a sibling temp file, fsynced, renamed over `path`, and then the
/// parent directory is fsynced so the rename itself survives power loss.
/// Plain temp+rename guarantees readers never observe a torn file (enough
/// for SIGKILL) but leaves the directory entry in the page cache; the
/// directory fsync closes that window. Used for `--checkpoint` files and
/// the `rtrd` solve cache.
///
/// The temp name (`<stem>.<pid>.<n>.tmp`) is unique to the process and the
/// write, so concurrent writers of one `path` never share a temp file: each
/// rename lands whole, and the last one wins. A crash can leave a stray
/// `*.tmp` behind; `rtrd`'s startup scan deletes them.
///
/// # Errors
///
/// Any I/O error from the write, syncs, or rename; the temp file is
/// removed on a best-effort basis when a step fails.
pub fn atomic_durable_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let write = WRITES.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("{}.{write}.tmp", std::process::id()));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // Durability of the rename: fsync the directory holding the entry.
        // A path with no parent component means the current directory.
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// FNV-1a, used for instance fingerprints, failpoint keys, and the `rtrd`
/// solve-cache entry checksums.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn parse_hex_u64(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: 0x1a2b_3c4d_5e6f_7788,
            records: vec![
                CheckpointRecord {
                    n: 2,
                    iteration: 1,
                    d_max_ns: 1730.125,
                    d_min_ns: 780.0,
                    result: CheckpointResult::Feasible {
                        latency_ns: 900.5,
                        eta: 2,
                        placements: vec![(1, 0), (2, 1)],
                    },
                    elapsed_us: 1234,
                },
                CheckpointRecord {
                    n: 2,
                    iteration: 2,
                    d_max_ns: 840.25,
                    d_min_ns: 780.0,
                    result: CheckpointResult::Infeasible,
                    elapsed_us: 99,
                },
                CheckpointRecord {
                    n: 3,
                    iteration: 1,
                    d_max_ns: 900.5,
                    d_min_ns: 810.0,
                    result: CheckpointResult::LimitReached,
                    elapsed_us: 7,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let cp = sample();
        let parsed = Checkpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(parsed, cp);
        // Floats survive bit-for-bit (shortest round-trip formatting).
        let tricky = Checkpoint {
            records: vec![CheckpointRecord {
                d_max_ns: 0.1 + 0.2,
                d_min_ns: f64::MIN_POSITIVE,
                ..cp.records[1].clone()
            }],
            ..cp
        };
        let parsed = Checkpoint::from_json(&tricky.to_json()).unwrap();
        assert_eq!(parsed.records[0].d_max_ns.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(parsed.records[0].d_min_ns.to_bits(), f64::MIN_POSITIVE.to_bits());
    }

    #[test]
    fn version_and_shape_are_enforced() {
        let cp = sample();
        let bumped = cp.to_json().replace("\"version\": 1", "\"version\": 99");
        assert!(matches!(
            Checkpoint::from_json(&bumped),
            Err(PartitionError::Checkpoint { detail }) if detail.contains("version 99")
        ));
        for bad in [
            "",
            "{",
            "[1, 2]",
            "{\"version\": 1}",
            "{\"version\": 1, \"fingerprint\": \"0x0\", \"records\": 7}",
            "{\"version\": 1, \"fingerprint\": 12, \"records\": []}",
        ] {
            assert!(
                matches!(Checkpoint::from_json(bad), Err(PartitionError::Checkpoint { .. })),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn overflowing_floats_are_rejected() {
        let text = sample().to_json().replace("\"d_max_ns\": 1730.125", "\"d_max_ns\": 1e999");
        assert!(text.contains("1e999"));
        assert!(matches!(Checkpoint::from_json(&text), Err(PartitionError::Checkpoint { .. })));
    }

    #[test]
    fn concurrent_writes_to_one_path_all_succeed() {
        let dir = std::env::temp_dir().join(format!("rtr_ckpt_concurrent_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.ckpt");
        // Every round releases all writers at once, so their writes overlap.
        // Writers count their failures instead of panicking, which would
        // leave the others waiting at the barrier.
        let barrier = std::sync::Barrier::new(8);
        let failures: usize = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..8u8)
                .map(|writer| {
                    let (path, barrier) = (&path, &barrier);
                    scope.spawn(move || {
                        (0..25u8)
                            .filter(|&round| {
                                barrier.wait();
                                atomic_durable_write(path, &[writer, round]).is_err()
                            })
                            .count()
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(failures, 0, "concurrent writes to one path failed");
        // The last rename wins whole, and no temp file is left behind.
        assert_eq!(std::fs::read(&path).unwrap().len(), 2);
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["job.ckpt"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
