//! # rtrpart
//!
//! Temporal partitioning combined with design space exploration for latency
//! minimization of run-time reconfigured designs — a from-scratch
//! reproduction of Kaul & Vemuri (DATE 1999).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`graph`] — task graphs, design points, quantities ([`rtr_graph`]);
//! * [`milp`] — the simplex + branch-and-bound MILP solver ([`rtr_milp`]);
//! * [`hls`] — design-point synthesis from behavioral tasks ([`rtr_hls`]);
//! * [`core`] — the partitioner and its searches ([`rtr_core`]);
//! * [`sim`] — the reconfigurable-processor simulator ([`rtr_sim`]);
//! * [`workloads`] — the paper's case studies and generators
//!   ([`rtr_workloads`]);
//! * [`trace`] — structured tracing, metrics, and run reports
//!   ([`rtr_trace`]);
//! * [`service`] — the crash-safe `rtrd` partitioning daemon: HTTP/JSON
//!   job server with admission control, deadlines, cancellation, and a
//!   durable solve cache ([`rtrd`]).
//!
//! # Observability
//!
//! Every solver layer emits structured trace events through [`trace`];
//! install a sink to capture them (nothing is recorded by default):
//!
//! ```
//! use std::sync::Arc;
//! # use rtrpart::{Architecture, ExploreParams, TemporalPartitioner};
//! # use rtrpart::graph::{TaskGraphBuilder, DesignPoint, Area, Latency};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let mut b = TaskGraphBuilder::new();
//! # b.add_task("t")
//! #     .design_point(DesignPoint::new("m", Area::new(10), Latency::from_ns(100.0)))
//! #     .finish();
//! # let graph = b.build()?;
//! # let arch = Architecture::new(Area::new(32), 64, Latency::from_us(1.0));
//! let sink = Arc::new(rtrpart::trace::MemorySink::new());
//! rtrpart::trace::install(sink.clone());
//! let partitioner = TemporalPartitioner::new(&graph, &arch, ExploreParams::default())?;
//! let exploration = partitioner.explore()?;
//! rtrpart::trace::uninstall();
//! let report = rtrpart::trace::RunReport::from_events(&sink.take());
//! println!("{}", report.render());
//! # assert!(report.event_total > 0);
//! # Ok(())
//! # }
//! ```
//!
//! The `rtrpart` binary exposes the same machinery as
//! `rtrpart partition --trace run.jsonl ...` followed by
//! `rtrpart trace-report run.jsonl`.
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Quickstart
//!
//! ```
//! use rtrpart::{Architecture, ExploreParams, TemporalPartitioner};
//! use rtrpart::graph::{TaskGraphBuilder, DesignPoint, Area, Latency};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Describe the behavior as a task graph with design points.
//! let mut b = TaskGraphBuilder::new();
//! let fir = b.add_task("fir")
//!     .design_point(DesignPoint::new("serial", Area::new(120), Latency::from_ns(900.0)))
//!     .design_point(DesignPoint::new("parallel", Area::new(300), Latency::from_ns(320.0)))
//!     .env_input(8)
//!     .finish();
//! let post = b.add_task("post")
//!     .design_point(DesignPoint::new("only", Area::new(150), Latency::from_ns(400.0)))
//!     .env_output(8)
//!     .finish();
//! b.add_edge(fir, post, 8)?;
//! let graph = b.build()?;
//!
//! // 2. Describe the reconfigurable processor.
//! let arch = Architecture::new(Area::new(320), 64, Latency::from_us(1.0));
//!
//! // 3. Explore.
//! let partitioner = TemporalPartitioner::new(&graph, &arch, ExploreParams::default())?;
//! let exploration = partitioner.explore()?;
//! let best = exploration.best.expect("feasible instance");
//!
//! // 4. Cross-check on the simulator.
//! let report = rtrpart::sim::simulate(&graph, &arch, &best)?;
//! assert_eq!(report.total_latency, exploration.best_latency.unwrap());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rtr_core as core;
pub use rtr_graph as graph;
pub use rtr_hls as hls;
pub use rtr_milp as milp;
pub use rtr_sim as sim;
pub use rtr_trace as trace;
pub use rtr_workloads as workloads;
pub use rtrd as service;

pub use rtr_core::{
    max_area_partitions, max_latency, min_area_partitions, min_latency, resolve_threads,
    validate_solution, Architecture, Backend, Checkpoint, CheckpointPolicy, Degradation,
    EnvMemoryPolicy, Exploration, ExploreParams, IterationRecord, IterationResult, LostSubtree,
    PartitionError, Placement, SearchLimits, Solution, TemporalPartitioner, MAX_THREADS,
};
