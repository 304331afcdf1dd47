//! A budgeted solve never pivots past its budget. When a warm-started node
//! LP falls back to a cold solve, the fallback spends what the warm attempt
//! left of the node's pivot cap, not a second full cap; and in
//! `Goal::Optimal` a strong-branch probe that runs out of its own cap is
//! charged to the budget like any other LP.
//!
//! Pivots are read off the process-global status board, so this test is
//! its own binary: nothing else in the process may pivot while it runs.
//! The models are `rtr-core`'s ILPs over random graphs of 6–10 tasks, the
//! shape the `milp_exact` benchmark workload solves.

use rtr_core::model::{IlpModel, ModelOptions};
use rtr_core::Architecture;
use rtr_graph::{Area, Latency, TaskGraph};
use rtr_milp::{solve_mip, SolveOptions};
use rtr_trace::status::board;
use rtr_workloads::random::{random_layered, RandomGraphParams};

/// A device holding about half the graph's minimum area, and at least its
/// largest task.
fn half_area_device(graph: &TaskGraph) -> Architecture {
    let largest = graph.tasks().iter().map(|t| t.min_area_point().area().units()).max();
    let r_max = (graph.total_min_area().units() / 2).max(largest.unwrap_or(1)).max(64);
    Architecture::new(Area::new(r_max), 64, Latency::from_us(1.0))
}

/// The ILP of random graph `index` at partition bound `n`.
fn random_model(index: u64, n: u32, options: &ModelOptions) -> IlpModel {
    let params = RandomGraphParams {
        tasks: 6 + (index % 5) as usize,
        max_layer_width: 3,
        ..Default::default()
    };
    let graph = random_layered(2_000_000 + index, &params);
    let arch = half_area_device(&graph);
    let d_max = rtr_core::max_latency(&graph, &arch, n);
    IlpModel::build(&graph, &arch, n, d_max, Latency::ZERO, options).expect("model builds")
}

/// Solves `ilp` under a `limit`-pivot budget and returns the pivots the
/// solve charged itself and the pivots the status board saw.
fn budgeted_pivots(ilp: &IlpModel, options: SolveOptions, limit: usize) -> (usize, u64) {
    let before = board().snapshot().lp_pivots;
    let out =
        solve_mip(ilp.model(), &options.with_pivot_limit(limit)).expect("budgeted solve runs");
    (out.stats.simplex_iterations, board().snapshot().lp_pivots - before)
}

#[test]
fn budgeted_solves_never_pivot_past_the_limit() {
    let mut solves = 0usize;
    let mut over = Vec::new();
    for index in 0..20u64 {
        let ilp = random_model(index, 3, &ModelOptions::default());
        for limit in (5..=320).step_by(15) {
            let (charged, pivots) = budgeted_pivots(&ilp, SolveOptions::feasibility(), limit);
            solves += 1;
            assert!(charged <= limit, "graph {index}, limit {limit}: charged {charged}");
            if pivots > limit as u64 {
                over.push((index, limit, pivots));
            }
        }
    }
    // Latency-minimizing solves strong-branch. Graph 8 at N = 4 pivoted
    // 1,188 past a 3,000-pivot budget while capped probes went uncharged.
    let ilp = random_model(8, 4, &ModelOptions { minimize_latency: true, ..Default::default() });
    for limit in [300, 1_000, 3_000] {
        let (charged, pivots) = budgeted_pivots(&ilp, SolveOptions::optimal(), limit);
        assert!(charged <= limit, "optimal graph 8, limit {limit}: charged {charged}");
        assert!(pivots <= limit as u64, "optimal graph 8, limit {limit}: pivoted {pivots}");
    }
    assert!(solves >= 400, "only {solves} solves ran");
    assert!(
        over.is_empty(),
        "{} of {solves} budgeted solves pivoted past their limit (graph, limit, pivots): {over:?}",
        over.len()
    );
}
