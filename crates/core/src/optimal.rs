//! Solving to optimality — the paper's `Result(Optimal)` comparison runs.

use crate::arch::Architecture;
use crate::error::PartitionError;
use crate::model::{IlpModel, ModelOptions};
use crate::search::Backend;
use crate::solution::Solution;
use crate::structured::{SearchGoal, SearchLimits, SearchOutcome, StructuredSolver};
use rtr_graph::{Latency, TaskGraph};
use rtr_milp::SolveOptions;
use rtr_trace::Instrument as _;

/// Result of an optimality run.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimalOutcome {
    /// Proven-optimal solution and its latency.
    Optimal(Solution, Latency),
    /// A limit fired; the incumbent (if any) is returned unproven.
    Interrupted(Option<(Solution, Latency)>),
    /// Proven infeasible under the partition bound.
    Infeasible,
}

impl OptimalOutcome {
    /// The solution, if one was found (proven optimal or incumbent).
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            OptimalOutcome::Optimal(s, _) => Some(s),
            OptimalOutcome::Interrupted(Some((s, _))) => Some(s),
            _ => None,
        }
    }

    /// The latency of the returned solution, if any.
    pub fn latency(&self) -> Option<Latency> {
        match self {
            OptimalOutcome::Optimal(_, l) => Some(*l),
            OptimalOutcome::Interrupted(Some((_, l))) => Some(*l),
            _ => None,
        }
    }
}

/// Minimizes the total latency `Σ_p d_p + η·C_T` under partition bound `n`,
/// the way the paper solves small instances "to optimality using the ILP
/// solver" for comparison against the iterative procedure.
///
/// # Errors
///
/// Propagates model-building and MILP failures.
pub fn solve_optimal(
    graph: &TaskGraph,
    arch: &Architecture,
    n: u32,
    backend: Backend,
    limits: SearchLimits,
) -> Result<OptimalOutcome, PartitionError> {
    let span = rtr_trace::span("optimal.solve").with("n", n).with("backend", backend.to_string());
    let outcome = solve_optimal_inner(graph, arch, n, backend, limits)?;
    if span.armed() {
        let label = match &outcome {
            OptimalOutcome::Optimal(..) => "optimal",
            OptimalOutcome::Interrupted(Some(_)) => "interrupted-incumbent",
            OptimalOutcome::Interrupted(None) => "interrupted",
            OptimalOutcome::Infeasible => "infeasible",
        };
        span.with("outcome", label).finish();
    }
    Ok(outcome)
}

fn solve_optimal_inner(
    graph: &TaskGraph,
    arch: &Architecture,
    n: u32,
    backend: Backend,
    limits: SearchLimits,
) -> Result<OptimalOutcome, PartitionError> {
    match backend {
        Backend::Structured => {
            let d_max = crate::bounds::max_latency(graph, arch, n);
            let solver =
                StructuredSolver::new(graph, arch, n, d_max.as_ns(), SearchGoal::Optimal, limits);
            let (outcome, stats) = solver.run();
            stats.emit_metrics("optimal.structured");
            Ok(match outcome {
                SearchOutcome::Feasible(sol) => {
                    let latency = sol.total_latency(graph, arch);
                    if stats.exhausted {
                        OptimalOutcome::Optimal(sol, latency)
                    } else {
                        OptimalOutcome::Interrupted(Some((sol, latency)))
                    }
                }
                SearchOutcome::Infeasible => OptimalOutcome::Infeasible,
                SearchOutcome::LimitReached => OptimalOutcome::Interrupted(None),
            })
        }
        Backend::Milp => {
            let d_max = crate::bounds::max_latency(graph, arch, n);
            let options = ModelOptions {
                minimize_latency: true,
                include_dmin_cut: false,
                ..Default::default()
            };
            let ilp = IlpModel::build(graph, arch, n, d_max, Latency::ZERO, &options)?;
            let mut solve = SolveOptions::optimal();
            if let Some(t) = limits.time_limit {
                solve = solve.with_time_limit(t);
            }
            let outcome = ilp.model().solve(&solve)?;
            // `milp.*` counters were already emitted inside the solve; this
            // re-emission scopes the same stats to the optimality run.
            outcome.stats.emit_metrics("optimal.milp");
            // An optimal/feasible status always carries an incumbent;
            // treat a missing one as an interrupted run rather than
            // panicking on a solver invariant.
            Ok(match (outcome.status, outcome.solution.as_ref()) {
                (rtr_milp::Status::Optimal, Some(assignment)) => {
                    let sol = ilp.decode(assignment).compacted(n);
                    let latency = sol.total_latency(graph, arch);
                    OptimalOutcome::Optimal(sol, latency)
                }
                (rtr_milp::Status::Feasible, Some(assignment)) => {
                    let sol = ilp.decode(assignment).compacted(n);
                    let latency = sol.total_latency(graph, arch);
                    OptimalOutcome::Interrupted(Some((sol, latency)))
                }
                (rtr_milp::Status::Infeasible, _) => OptimalOutcome::Infeasible,
                _ => OptimalOutcome::Interrupted(None),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_graph::{Area, DesignPoint, TaskGraphBuilder};

    fn dp(name: &str, area: u64, lat: f64) -> DesignPoint {
        DesignPoint::new(name, Area::new(area), Latency::from_ns(lat))
    }

    fn graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b
            .add_task("a")
            .design_point(dp("s", 50, 300.0))
            .design_point(dp("f", 90, 150.0))
            .finish();
        let c = b
            .add_task("c")
            .design_point(dp("s", 60, 250.0))
            .design_point(dp("f", 95, 120.0))
            .finish();
        b.add_edge(a, c, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn both_backends_prove_the_same_optimum() {
        let g = graph();
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(50.0));
        // Optimum at N=2: 150 + 120 + 100 = 370.
        for backend in [Backend::Structured, Backend::Milp] {
            match solve_optimal(&g, &arch, 2, backend, SearchLimits::default()).unwrap() {
                OptimalOutcome::Optimal(_, lat) => {
                    assert_eq!(lat.as_ns(), 370.0, "backend {backend}")
                }
                other => panic!("{backend}: expected optimal, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_partition_forces_slow_or_infeasible() {
        let g = graph();
        // Both fast points: 90 + 95 = 185 > 100. Slow+slow = 110 > 100. The
        // only single-partition options mix: 50+60=110 > 100 too -> infeasible.
        let arch = Architecture::new(Area::new(100), 64, Latency::from_ns(50.0));
        assert_eq!(
            solve_optimal(&g, &arch, 1, Backend::Structured, SearchLimits::default()).unwrap(),
            OptimalOutcome::Infeasible
        );
    }
}
