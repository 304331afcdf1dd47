//! The durable on-disk solve cache.
//!
//! One entry per instance+parameter fingerprint (the checkpoint
//! fingerprint of `rtr_core`, which covers the graph text, the device,
//! and every exploration knob including the milp `SolveOptions` budgets).
//! An entry stores the *checkpoint* of a completed exploration, not the
//! rendered result: a hit is served by deterministic replay
//! (`explore_resumable` with every window answered from the checkpoint,
//! each record validated against the feasibility checker), so a cache can
//! never assert an answer the solver would not reproduce.
//!
//! ## Entry format
//!
//! ```text
//! rtrc1 <fnv1a-of-payload:016x> <payload-len>\n
//! <checkpoint JSON payload>
//! ```
//!
//! Writes go through `atomic_durable_write` (temp file + fsync + rename +
//! parent-directory fsync), so an entry either exists in full or not at
//! all — across power loss, not just SIGKILL. Reads verify the length and
//! checksum; any mismatch (a flipped byte, a truncated payload, a foreign
//! file) **quarantines** the entry — renamed to `<name>.corrupt`, counted
//! as an eviction — and reports a miss, so a corrupt entry is re-solved
//! and never served.
//!
//! ## In-flight job checkpoints
//!
//! Running jobs stream their windows into `<dir>/jobs/<fp>.ckpt` (every
//! window; same durable writer). On completion the checkpoint is promoted
//! into the cache proper and the job file removed. After a crash, the
//! leftover `jobs/*.ckpt` files are the interrupted jobs: they are scanned
//! on startup and offered as resume state when a matching fingerprint is
//! submitted again.
//!
//! ## Failpoints
//!
//! * `rtrd.cache.read` — keyed by fingerprint; a hit is treated as a miss
//!   (the entry stays on disk). Outcome-invariant: the job re-solves.
//! * `rtrd.cache.write` — keyed by fingerprint; the promotion is skipped.
//!   Outcome-invariant: the next request misses and re-solves.

use rtr_core::checkpoint::{atomic_durable_write, fnv1a, Checkpoint};
use rtr_trace::Metric;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Magic tag of cache entry headers (format version 1).
const MAGIC: &str = "rtrc1";

/// What a cache lookup found.
#[derive(Debug)]
pub enum Lookup {
    /// A verified entry.
    Hit(Checkpoint),
    /// No entry (or one suppressed by the `rtrd.cache.read` failpoint).
    Miss,
    /// An entry failed verification and was quarantined; solve afresh.
    Evicted,
}

/// The on-disk cache. All methods are infallible at the service level:
/// I/O trouble degrades to a miss (the job re-solves), never to an error
/// surfaced to the client.
#[derive(Debug)]
pub struct SolveCache {
    dir: PathBuf,
}

impl SolveCache {
    /// Opens (creating if needed) a cache rooted at `dir`, with the
    /// in-flight checkpoint area at `dir/jobs`.
    ///
    /// # Errors
    ///
    /// Any error creating the two directories.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SolveCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        std::fs::create_dir_all(dir.join("jobs"))?;
        Ok(SolveCache { dir })
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.rtrc"))
    }

    /// The in-flight checkpoint path for a job with this fingerprint.
    pub fn job_checkpoint_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join("jobs").join(format!("{fingerprint:016x}.ckpt"))
    }

    /// Looks up `fingerprint`, verifying the checksum. Corrupt entries are
    /// quarantined (renamed to `.corrupt`) and reported as [`Lookup::Evicted`].
    pub fn load(&self, fingerprint: u64) -> Lookup {
        // Failpoint: a suppressed read degrades a hit to a miss — the job
        // re-solves deterministically, so results are unchanged.
        if rtr_trace::failpoint::failpoint("rtrd.cache.read", fingerprint) {
            rtr_trace::status::board().add(Metric::RtrdCacheMisses, 1);
            return Lookup::Miss;
        }
        let path = self.entry_path(fingerprint);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                rtr_trace::status::board().add(Metric::RtrdCacheMisses, 1);
                return Lookup::Miss;
            }
        };
        match verify_entry(&bytes) {
            Some(checkpoint) => {
                rtr_trace::status::board().add(Metric::RtrdCacheHits, 1);
                Lookup::Hit(checkpoint)
            }
            None => {
                self.quarantine(&path);
                Lookup::Evicted
            }
        }
    }

    /// Evicts an entry whose *content* failed a later check (e.g. replay
    /// validation after a clean checksum): quarantined like a corrupt one.
    pub fn evict(&self, fingerprint: u64) {
        self.quarantine(&self.entry_path(fingerprint));
    }

    /// Moves a failed entry aside (never deletes evidence) and counts the
    /// eviction.
    fn quarantine(&self, path: &Path) {
        let corrupt = path.with_extension("rtrc.corrupt");
        if std::fs::rename(path, &corrupt).is_err() {
            // Fall back to removal so the bad entry cannot be served next
            // time either.
            let _ = std::fs::remove_file(path);
        }
        rtr_trace::status::board().add(Metric::RtrdCacheEvictions, 1);
        rtr_trace::counter("rtrd.cache.evictions", 1);
    }

    /// Stores a completed exploration's checkpoint under `fingerprint`.
    /// Returns `false` when the write was skipped (failpoint) or failed —
    /// the cache simply stays cold for this key.
    pub fn store(&self, fingerprint: u64, checkpoint: &Checkpoint) -> bool {
        // Failpoint: a skipped promotion means the next request re-solves;
        // served results are unchanged.
        if rtr_trace::failpoint::failpoint("rtrd.cache.write", fingerprint) {
            return false;
        }
        let payload = checkpoint.to_json();
        let entry =
            format!("{MAGIC} {:016x} {}\n{payload}", fnv1a(payload.as_bytes()), payload.len());
        atomic_durable_write(&self.entry_path(fingerprint), entry.as_bytes()).is_ok()
    }

    /// Promotes an in-flight job checkpoint (written window-by-window
    /// while the job ran) into the cache proper, then removes the job
    /// file. Missing or unreadable checkpoints are ignored.
    pub fn promote_job_checkpoint(&self, fingerprint: u64) {
        let path = self.job_checkpoint_path(fingerprint);
        if let Ok(checkpoint) = Checkpoint::load(&path) {
            if self.store(fingerprint, &checkpoint) {
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    /// Startup recovery scan: deletes the stray temp files of writes a
    /// crash cut short, verifies every cache entry (quarantining corrupt
    /// ones eagerly), and collects the interrupted-job checkpoints left
    /// behind, keyed by fingerprint. The returned map is the "resumable"
    /// set — a new submit whose fingerprint matches resumes from the
    /// interrupted run's verified windows.
    pub fn recover(&self) -> RecoveryReport {
        for dir in [self.dir.clone(), self.dir.join("jobs")] {
            for tmp in list_dir(&dir, "tmp") {
                let _ = std::fs::remove_file(tmp);
            }
        }
        let mut verified = 0u64;
        let mut quarantined = 0u64;
        let mut entries = list_dir(&self.dir, "rtrc");
        entries.sort();
        for path in entries {
            match std::fs::read(&path).ok().and_then(|b| verify_entry(&b)) {
                Some(_) => verified += 1,
                None => {
                    self.quarantine(&path);
                    quarantined += 1;
                }
            }
        }
        let mut resumable = BTreeMap::new();
        for path in list_dir(&self.dir.join("jobs"), "ckpt") {
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
            let Ok(fingerprint) = u64::from_str_radix(stem, 16) else { continue };
            // Only offer checkpoints that actually load; a torn job file
            // (mid-write crash) is dropped rather than resumed.
            if Checkpoint::load(&path).is_ok() {
                resumable.insert(fingerprint, path);
            } else {
                let _ = std::fs::remove_file(&path);
            }
        }
        RecoveryReport { verified, quarantined, resumable }
    }
}

/// What the startup scan found.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Cache entries that passed verification.
    pub verified: u64,
    /// Cache entries quarantined (checksum or format mismatch).
    pub quarantined: u64,
    /// Interrupted-job checkpoints by fingerprint, resumable on resubmit.
    pub resumable: BTreeMap<u64, PathBuf>,
}

/// Parses and checksum-verifies one entry; `None` on any mismatch.
fn verify_entry(bytes: &[u8]) -> Option<Checkpoint> {
    let text = std::str::from_utf8(bytes).ok()?;
    let (header, payload) = text.split_once('\n')?;
    let mut parts = header.split(' ');
    if parts.next()? != MAGIC {
        return None;
    }
    let checksum = u64::from_str_radix(parts.next()?, 16).ok()?;
    let len: usize = parts.next()?.parse().ok()?;
    if parts.next().is_some() || payload.len() != len || fnv1a(payload.as_bytes()) != checksum {
        return None;
    }
    Checkpoint::from_json(payload).ok()
}

fn list_dir(dir: &Path, extension: &str) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(extension))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::checkpoint::CheckpointRecord;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtrd_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_checkpoint() -> Checkpoint {
        // A minimal valid checkpoint: round-trip an empty record set.
        let json = Checkpoint {
            version: rtr_core::checkpoint::CHECKPOINT_VERSION,
            fingerprint: 0xfeed,
            records: Vec::<CheckpointRecord>::new(),
        }
        .to_json();
        Checkpoint::from_json(&json).expect("sample checkpoint parses")
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = SolveCache::open(temp_dir("roundtrip")).expect("open cache");
        let ck = sample_checkpoint();
        assert!(cache.store(7, &ck));
        match cache.load(7) {
            Lookup::Hit(loaded) => assert_eq!(loaded.fingerprint, ck.fingerprint),
            other => panic!("expected a hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn flipped_byte_is_quarantined_never_served() {
        let cache = SolveCache::open(temp_dir("corrupt")).expect("open cache");
        let ck = sample_checkpoint();
        assert!(cache.store(9, &ck));
        let path = cache.entry_path(9);
        let mut bytes = std::fs::read(&path).expect("entry exists");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite corrupted entry");
        assert!(matches!(cache.load(9), Lookup::Evicted), "corrupt entry must evict");
        assert!(!path.exists(), "quarantined entry must leave the namespace");
        assert!(path.with_extension("rtrc.corrupt").exists(), "evidence kept");
        // The next lookup is a plain miss: the entry is gone, so it can
        // never be served.
        assert!(matches!(cache.load(9), Lookup::Miss));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_and_foreign_entries_evict() {
        let cache = SolveCache::open(temp_dir("truncated")).expect("open cache");
        let ck = sample_checkpoint();
        assert!(cache.store(11, &ck));
        let path = cache.entry_path(11);
        let bytes = std::fs::read(&path).expect("entry exists");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate");
        assert!(matches!(cache.load(11), Lookup::Evicted));

        std::fs::write(cache.entry_path(12), b"not a cache entry at all").expect("foreign");
        assert!(matches!(cache.load(12), Lookup::Evicted));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn recover_reports_verified_and_quarantined() {
        let cache = SolveCache::open(temp_dir("recover")).expect("open cache");
        let ck = sample_checkpoint();
        assert!(cache.store(1, &ck));
        assert!(cache.store(2, &ck));
        std::fs::write(cache.entry_path(3), b"garbage").expect("write garbage");
        let report = cache.recover();
        assert_eq!(report.verified, 2);
        assert_eq!(report.quarantined, 1);
        assert!(report.resumable.is_empty());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn recover_deletes_stray_temp_files() {
        let cache = SolveCache::open(temp_dir("stray_tmp")).expect("open cache");
        let strays = [cache.dir().join("00ab.77.0.tmp"), cache.dir().join("jobs/00ab.77.1.tmp")];
        for stray in &strays {
            std::fs::write(stray, b"torn").expect("write stray temp file");
        }
        assert!(cache.store(1, &sample_checkpoint()));
        let report = cache.recover();
        assert_eq!(report.verified, 1);
        assert!(strays.iter().all(|p| !p.exists()), "stray temp files survived recovery");
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
