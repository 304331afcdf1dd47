//! Tracing integration with the solver stack: observer ordering, the
//! disabled-path purity guarantee, and agreement between trace-report
//! totals and the solver's own statistics. These tests install the
//! process-global sink, so they serialize on a mutex.

use rtrpart::graph::{Area, Latency};
use rtrpart::trace::{MemorySink, RunReport};
use rtrpart::workloads::dct::dct_4x4;
use rtrpart::workloads::random::{random_layered, RandomGraphParams};
use rtrpart::{
    Architecture, Backend, Exploration, ExploreParams, IterationResult, SearchLimits,
    TemporalPartitioner,
};
use std::sync::{Arc, Mutex, PoisonError};

/// Serializes tests that touch the process-global sink.
static GUARD: Mutex<()> = Mutex::new(());

/// Deterministic exploration parameters: node limits only, no wall-clock
/// cutoffs, so repeated runs visit exactly the same search tree.
fn deterministic_params() -> ExploreParams {
    ExploreParams {
        delta: Latency::from_ns(400.0),
        gamma: 1,
        limits: SearchLimits { node_limit: 2_000_000, time_limit: None },
        time_budget: None,
        ..Default::default()
    }
}

/// The semantic content of an exploration, excluding wall-clock fields.
fn fingerprint(ex: &Exploration) -> impl PartialEq + std::fmt::Debug {
    let records: Vec<_> =
        ex.records.iter().map(|r| (r.n, r.iteration, r.d_min, r.d_max, r.result.clone())).collect();
    let best = ex.best.as_ref().map(|b| format!("{b:?}"));
    (records, best, ex.best_latency)
}

/// Running with tracing enabled returns bit-identical results to the
/// uninstrumented run: instrumentation observes, never steers.
#[test]
fn tracing_does_not_perturb_exploration() {
    let _guard = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    let graph = dct_4x4();
    let arch = Architecture::new(Area::new(1024), 512, Latency::from_us(1.0));

    let plain = TemporalPartitioner::new(&graph, &arch, deterministic_params())
        .expect("tasks fit")
        .explore()
        .expect("exploration runs");

    let sink = Arc::new(MemorySink::new());
    rtrpart::trace::install(sink.clone());
    let traced = TemporalPartitioner::new(&graph, &arch, deterministic_params())
        .expect("tasks fit")
        .explore()
        .expect("exploration runs");
    rtrpart::trace::uninstall();

    assert!(!sink.is_empty(), "the traced run must actually emit events");
    assert_eq!(fingerprint(&plain), fingerprint(&traced));
}

/// The observer sees every iteration, in order, and the trace carries one
/// `search.iteration` event per observed record.
#[test]
fn observer_and_trace_agree_on_iterations() {
    let _guard = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    let graph = dct_4x4();
    let arch = Architecture::new(Area::new(1024), 512, Latency::from_us(1.0));
    let part = TemporalPartitioner::new(&graph, &arch, deterministic_params()).expect("tasks fit");

    let sink = Arc::new(MemorySink::new());
    rtrpart::trace::install(sink.clone());
    let mut observed: Vec<(u32, u32)> = Vec::new();
    let ex = part
        .explore_with_observer(|r| observed.push((r.n, r.iteration)))
        .expect("exploration runs");
    rtrpart::trace::uninstall();

    // Observer callbacks mirror the record list exactly, in order.
    let recorded: Vec<(u32, u32)> = ex.records.iter().map(|r| (r.n, r.iteration)).collect();
    assert_eq!(observed, recorded);

    // One search.iteration event per record, in emission order, with the
    // same (n, iteration) labels.
    let events = sink.take();
    let emitted: Vec<(u32, u32)> = events
        .iter()
        .filter(|e| e.name == "search.iteration")
        .map(|e| {
            (
                e.u64_field("n").expect("n field") as u32,
                e.u64_field("iteration").expect("iteration field") as u32,
            )
        })
        .collect();
    assert_eq!(emitted, recorded);

    // The report's per-N rollup matches a direct count over the records.
    let report = RunReport::from_events(&events);
    for (n, count) in &report.iterations_per_n {
        let direct = ex.records.iter().filter(|r| u64::from(r.n) == *n).count() as u64;
        assert_eq!(*count, direct, "N = {n}");
    }
    let feasible =
        ex.records.iter().filter(|r| matches!(r.result, IterationResult::Feasible { .. })).count()
            as u64;
    assert_eq!(report.outcomes.get("feasible").copied().unwrap_or(0), feasible);
}

/// Trace-report MILP totals agree with the solver's own `SolveStats`
/// accumulation over the exploration.
#[test]
fn milp_trace_totals_match_solve_stats() {
    let _guard = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    let graph = random_layered(3, &RandomGraphParams { tasks: 6, ..Default::default() });
    let arch = Architecture::new(Area::new(300), 64, Latency::from_us(1.0));
    let params = ExploreParams {
        delta: Latency::from_ns(100.0),
        backend: Backend::Milp,
        time_budget: None,
        ..Default::default()
    };
    let part = TemporalPartitioner::new(&graph, &arch, params).expect("tasks fit");

    let sink = Arc::new(MemorySink::new());
    rtrpart::trace::install(sink.clone());
    let ex = part.explore().expect("exploration runs");
    rtrpart::trace::uninstall();

    let totals = ex.milp_totals();
    assert!(totals.nodes > 0, "the MILP backend must have solved something");

    let report = RunReport::from_events(&sink.take());
    assert_eq!(report.counter("milp.nodes"), totals.nodes as u64);
    assert_eq!(report.counter("milp.pivots"), totals.simplex_iterations as u64);
    assert_eq!(report.counter("milp.nodes_pruned"), totals.nodes_pruned as u64);
    assert_eq!(report.counter("milp.infeasible_nodes"), totals.infeasible_nodes as u64);
}

/// The structured backend's window stats also survive into the trace.
#[test]
fn structured_trace_totals_match_search_stats() {
    let _guard = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    let graph = dct_4x4();
    let arch = Architecture::new(Area::new(1024), 512, Latency::from_us(1.0));
    let part = TemporalPartitioner::new(&graph, &arch, deterministic_params()).expect("tasks fit");

    let sink = Arc::new(MemorySink::new());
    rtrpart::trace::install(sink.clone());
    let ex = part.explore().expect("exploration runs");
    rtrpart::trace::uninstall();

    let totals = ex.structured_totals();
    assert!(totals.nodes > 0);

    let report = RunReport::from_events(&sink.take());
    assert_eq!(report.counter("structured.nodes"), totals.nodes);
    assert_eq!(report.counter("structured.latency_prunes"), totals.latency_prunes);
    assert_eq!(report.counter("structured.area_prunes"), totals.area_prunes);
    assert_eq!(report.counter("structured.memory_rejects"), totals.memory_rejects);
}
