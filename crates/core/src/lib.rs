//! Temporal partitioning combined with design space exploration for latency
//! minimization of run-time reconfigured designs.
//!
//! This crate implements the system of Kaul & Vemuri (DATE 1999): given a
//! task graph whose tasks each carry a set of synthesized *design points*
//! (area/latency alternatives), and the parameters of a run-time
//! reconfigurable processor (`R_max`, `M_max`, `C_T`), it simultaneously
//!
//! 1. maps every task to a temporal partition,
//! 2. selects a design point for every task, and
//! 3. explores partition counts,
//!
//! minimizing the total latency `Σ_p d_p + η·C_T` subject to area, memory,
//! and dependency constraints.
//!
//! The core engine is a *feasibility* solve over the paper's ILP
//! formulation, wrapped in two nested searches: a binary subdivision on the
//! latency bound ([`TemporalPartitioner::reduce_latency`], the paper's
//! Figure 1) and a partition-bound relaxation loop
//! ([`TemporalPartitioner::explore`], Figure 2, with a deterministic
//! multi-threaded twin in [`TemporalPartitioner::explore_parallel`]).
//! Two interchangeable
//! backends implement the feasibility solve: the faithful ILP
//! ([`model::IlpModel`] over the `rtr-milp` simplex/branch-and-bound) and a
//! specialized structured search ([`structured::StructuredSolver`]) that
//! scales to the paper's 32-task DCT case study.
//!
//! # Examples
//!
//! See [`TemporalPartitioner`] for an end-to-end example, and the
//! `examples/` directory of the repository for the paper's case studies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code recovers from every fallible situation with typed errors or
// degraded-but-valid results; `unwrap`/`expect` are confined to tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
mod arch;
pub mod baseline;
mod bounds;
pub mod checkpoint;
mod error;
pub mod model;
pub mod optimal;
mod search;
mod solution;
pub mod structured;
mod validate;

pub use analysis::{PartitionAnalysis, SolutionAnalysis};
pub use arch::{Architecture, EnvMemoryPolicy};
pub use bounds::{
    max_area_partitions, max_latency, min_area_partitions, min_latency, min_partitions_for_area,
};
pub use checkpoint::{Checkpoint, CheckpointPolicy, CheckpointRecord, CheckpointResult};
pub use error::PartitionError;
pub use rtr_trace::failpoint;
pub use search::{
    resolve_threads, Backend, Degradation, Exploration, ExploreParams, IterationRecord,
    IterationResult, LostSubtree, RefinementStrategy, TemporalPartitioner, WindowStats,
    MAX_THREADS,
};
pub use solution::{Placement, Solution};
pub use structured::{SearchGoal, SearchLimits, SearchOutcome, SearchStats};
pub use validate::{validate_solution, Violation};
