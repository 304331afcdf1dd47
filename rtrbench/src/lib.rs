//! `rtrbench`: the repository benchmark.
//!
//! It measures the partitioner and the `rtrd` service only from outside:
//! it times calls into their public functions and reads counters only from
//! public results (`WindowStats`, `SearchStats`, `SolveStats`, status-board
//! snapshots). See `README.md` for the workloads, the metrics, and the
//! comparison protocol.

#![forbid(unsafe_code)]

pub mod check;
pub mod compare;
pub mod layers;
pub mod pace;
pub mod reference;
pub mod report;
pub mod service;
pub mod solver;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;

use report::Outcome;
use spec::Spec;
use std::path::PathBuf;
use std::time::Duration;
use workload::{Scale, Workload};

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed the inputs are drawn from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// The separate traced run that produces the per-layer metrics.
    pub traced: bool,
    /// Measured sizes, or the tiny stand-in of the contract test.
    pub scale: Scale,
    /// Scratch directory for caches and checkpoints; the caller removes it.
    pub work_dir: PathBuf,
}

impl RunOptions {
    /// Times set-up is repeated; `setup_s` is the median.
    pub fn setup_repeats(&self) -> usize {
        match self.scale {
            Scale::Full => 9,
            Scale::Tiny => 2,
        }
    }
}

/// Runs one workload and checks its outputs. The outcome carries every
/// metric `spec` declares for the mode: end-to-end metrics untraced,
/// per-layer metrics traced, where a layer the workload does not exercise
/// reads `0` with no samples.
///
/// # Errors
///
/// A fault of the benchmark itself (a malformed reference table, a server
/// that does not start), as opposed to a failed job, which the outcome
/// counts.
pub fn run(workload: Workload, opts: &RunOptions, spec: &Spec) -> Result<Outcome, String> {
    let mut outcome = match workload {
        Workload::RtrdMix => service::run(opts)?,
        _ => solver::run(workload, opts)?,
    };
    if opts.traced {
        outcome.fill_unmeasured(&spec.per_layer);
    }
    Ok(outcome)
}
