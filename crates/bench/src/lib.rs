//! Shared experiment harness of the `reproduce` binary.
//!
//! `reproduce <artifact>` regenerates each committed `results/` table, the
//! `smoke` counter fixtures and the `runtime_comparison` record included.
//! The paper's DCT configurations and the per-window budgets live here.
//! See `DESIGN.md` (per-experiment index) and `EXPERIMENTS.md`
//! (paper-vs-measured record) at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rtr_core::{Architecture, Exploration, ExploreParams, IterationResult, SearchLimits};
use rtr_graph::{Area, Latency};

/// Configuration of one DCT experiment (one paper table).
#[derive(Debug, Clone, Copy)]
pub struct DctExperiment {
    /// Table number in the paper.
    pub table: u32,
    /// Device capacity `R_max`.
    pub r_max: u64,
    /// Reconfiguration time `C_T`.
    pub ct: Latency,
    /// Latency tolerance `δ` in ns.
    pub delta_ns: f64,
    /// Starting partition relaxation `α`.
    pub alpha: u32,
    /// Ending partition relaxation `γ`.
    pub gamma: u32,
}

impl DctExperiment {
    /// The configuration of paper Table `table`, one of the DCT Tables 3–8:
    /// two device sizes, a small (1 µs) and a large (10 ms) reconfiguration
    /// time, and δ = 200 ns on the small device, 800 or 100 ns on the
    /// large one.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not one of the paper's DCT tables.
    pub fn paper(table: u32) -> Self {
        let (small, large) = (Latency::from_us(1.0), Latency::from_ms(10.0));
        let (r_max, ct, delta_ns, alpha) = match table {
            3 => (576, small, 200.0, 0),
            4 => (576, large, 200.0, 0),
            5 => (1024, small, 800.0, 1),
            6 => (1024, large, 800.0, 0),
            7 => (1024, small, 100.0, 1),
            8 => (1024, large, 100.0, 0),
            _ => panic!("the paper's DCT tables are 3 to 8, not {table}"),
        };
        DctExperiment { table, r_max, ct, delta_ns, alpha, gamma: 1 }
    }

    /// The architecture of this experiment (`M_max` = 512 words throughout,
    /// comfortably above the DCT's peak demand so the memory constraint is
    /// present but non-binding, as in the paper).
    pub fn architecture(&self) -> Architecture {
        Architecture::new(Area::new(self.r_max), 512, self.ct)
    }

    /// The exploration parameters of this experiment: pure node budgets
    /// and no wall-clock cut-offs, so a committed table reproduces the
    /// same solve trace on any machine.
    pub fn params(&self) -> ExploreParams {
        ExploreParams {
            alpha: self.alpha,
            ..node_budget_params(self.delta_ns, self.gamma, TABLE_NODE_LIMIT)
        }
    }
}

/// Exploration parameters under node budgets only: `node_limit` nodes per
/// `SolveModel()` call, no per-solve deadline and no exploration time
/// budget, so the solve trace is the same on every host.
pub fn node_budget_params(delta_ns: f64, gamma: u32, node_limit: u64) -> ExploreParams {
    ExploreParams {
        delta: Latency::from_ns(delta_ns),
        gamma,
        limits: SearchLimits { node_limit, time_limit: None },
        time_budget: None,
        ..Default::default()
    }
}

/// Per-`SolveModel()` node budget of the paper tables: enough to decide
/// the paper-scale windows, deterministic on any host. (40 M nodes
/// corresponds to roughly the historical 5 s deadline at the ~10 M
/// nodes/s the structured solver sustains on one core.)
pub const TABLE_NODE_LIMIT: u64 = 40_000_000;

/// [`TABLE_NODE_LIMIT`] as per-solve limits, with no deadline.
pub fn per_solve_limits() -> SearchLimits {
    SearchLimits { node_limit: TABLE_NODE_LIMIT, time_limit: None }
}

/// An exploration's `SolveModel()` calls by outcome: `solves`, then
/// `feasible_windows`, `infeasible_windows` and `limit_windows`.
pub fn window_counts(ex: &Exploration) -> [(&'static str, u64); 4] {
    let count = |outcome: fn(&IterationResult) -> bool| {
        ex.records.iter().filter(|r| outcome(&r.result)).count() as u64
    };
    [
        ("solves", ex.records.len() as u64),
        ("feasible_windows", count(|r| matches!(r, IterationResult::Feasible { .. }))),
        ("infeasible_windows", count(|r| matches!(r, IterationResult::Infeasible))),
        ("limit_windows", count(|r| matches!(r, IterationResult::LimitReached))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_configs_match_paper_parameters() {
        assert!((3..=8).all(|table| DctExperiment::paper(table).table == table));
        assert_eq!(DctExperiment::paper(3).r_max, 576);
        assert_eq!(DctExperiment::paper(4).ct, Latency::from_ms(10.0));
        assert_eq!(DctExperiment::paper(5).alpha, 1);
        assert_eq!(DctExperiment::paper(7).delta_ns, 100.0);
        assert_eq!(DctExperiment::paper(8).r_max, 1024);
        let params = DctExperiment::paper(3).params();
        assert_eq!((params.limits.time_limit, params.time_budget), (None, None));
    }
}
