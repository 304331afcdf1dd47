//! # rtr-trace
//!
//! Structured tracing, metrics, and run reports for the temporal
//! partitioning solver stack — self-contained (no external dependencies,
//! builds offline) and free when off.
//!
//! The paper's central claim is about *where time goes*: the iterative
//! `Reduce_Latency` / `Refine_Partitions_Bound` procedure explores more of
//! the design space per unit time than solving the ILP to optimality. This
//! crate is the measurement substrate for that claim — every layer of the
//! workspace (simplex pivots, branch-and-bound nodes, window solves,
//! schedule estimation, simulated timelines) emits structured events
//! through one global dispatch point.
//!
//! ## Model
//!
//! * [`Event`] — one structured record: a timestamp, a kind, a dotted
//!   name, and key/value [`Value`] fields.
//! * Kinds: [`span`] (named stretch of wall-clock time), [`counter`]
//!   (monotonic increment), [`gauge`] (level sample), [`event`]
//!   (structured point event).
//! * [`Sink`] — where events go. Ships with [`MemorySink`] (in-memory
//!   vector) and [`JsonlSink`] (one JSON object per line).
//! * [`RunReport`] — aggregates events (in memory or parsed back from a
//!   JSONL file via [`parse_jsonl`]) into a per-phase time breakdown with
//!   counter totals and duration histograms.
//! * [`parse_value`] / [`Escaped`] — the workspace's one JSON codec. Every
//!   crate reads JSON through [`parse_value`] (nesting bounded at
//!   [`MAX_DEPTH`], overflowing number literals rejected) and escapes
//!   strings through [`Escaped`]; [`write_value`] renders field values.
//! * [`Instrument`] — implemented by solver-statistics structs across the
//!   workspace so each layer lists its exact counters once, for the trace
//!   stream and the `reproduce` bodies alike.
//! * [`capture`] — diverts one thread's events into a buffer so parallel
//!   drivers can re-emit per-worker streams in a deterministic order with
//!   [`dispatch_all`] (used by the parallel partition-count exploration).
//! * [`perfetto`] — Chrome / Perfetto trace-event export of an event
//!   stream ([`RunReport::to_perfetto_json`]), reconstructing per-candidate
//!   and per-subtree-job timeline tracks.
//! * [`status`] — the live [`StatusBoard`]: lock-free progress counters,
//!   one per declared [`Metric`], published by the solver stack and
//!   written as heartbeat JSONL by a [`StatusWriter`] watcher thread.
//!
//! ## Cost when disabled
//!
//! No sink is installed by default. Every emission helper first checks one
//! relaxed atomic ([`enabled`]); a disabled call is a load, a branch, and
//! an immediate return — no clock read, no allocation, no lock. Solver
//! results are bit-identical with tracing on, off, or absent; the trace is
//! an observer, never a participant.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use rtr_trace as trace;
//!
//! let sink = Arc::new(trace::MemorySink::new());
//! trace::install(sink.clone());
//! {
//!     let _solve = trace::span("demo.solve").with("n", 3u32);
//!     trace::counter("demo.nodes", 17);
//! }
//! trace::uninstall();
//!
//! let events = sink.take();
//! let report = trace::RunReport::from_events(&events);
//! assert_eq!(report.counter("demo.nodes"), 17);
//! assert_eq!(report.span("demo.solve").unwrap().count, 1);
//! println!("{}", report.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must degrade with typed errors, never panic on inputs.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cancel;
mod event;
pub mod failpoint;
mod histogram;
mod json;
pub mod perfetto;
mod report;
mod sink;
pub mod status;

pub use cancel::CancelFlag;
pub use event::{Event, EventKind, Instrument, Value};
pub use histogram::DurationHistogram;
pub use json::{
    parse_event, parse_jsonl, parse_value, write_event, write_string, write_value, Escaped,
    JsonValue, ParseError, MAX_DEPTH,
};
pub use report::{fmt_duration, GaugeStats, RunReport, SpanStats};
pub use sink::{
    capture, counter, dispatch, dispatch_all, enabled, event, gauge, install, now_us, span,
    uninstall, JsonlSink, MemorySink, Sink, Span,
};
pub use status::{board, Metric, StatusBoard, StatusError, StatusSnapshot, StatusWriter};
