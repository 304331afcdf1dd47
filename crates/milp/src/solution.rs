//! Solve options, solutions, and outcomes.

use rtr_trace::CancelFlag;
use std::borrow::Cow;
use std::fmt;
use std::time::Duration;

/// What the branch-and-bound driver should aim for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Goal {
    /// Stop at the first integer-feasible solution (the paper's
    /// `SolveModel()` constraint-satisfaction use of the ILP).
    Feasibility,
    /// Prove optimality of the objective.
    Optimal,
}

/// Options controlling a solve.
///
/// The tuning that no caller varies is fixed in `branch.rs` rather than
/// exposed here: integrality tolerance `1e-6`, simplex tolerance `1e-7`,
/// an automatic per-LP iteration cap, a rounding attempt at the root, and
/// — for [`Goal::Optimal`] solves only — root cutting planes
/// (cover/clique/Gomory) and reliability pseudo-cost branching. The
/// feasibility hot path of the paper's DSE loop stays cut-free and
/// branches on the most fractional variable.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Feasibility or optimality.
    pub goal: Goal,
    /// Maximum number of branch-and-bound nodes to explore.
    pub node_limit: usize,
    /// Total simplex-iteration (pivot) budget for the whole solve, summed
    /// across every LP it spawns — node LPs, cut-round re-solves, and
    /// strong-branch probes (0 means unlimited). Unlike `time_limit` this
    /// budget is deterministic: the same model and options stop at the
    /// same pivot on any machine, so pivot-budgeted outcomes can be
    /// recorded by bit-exact regression gates. On big models the LP work
    /// per node varies by orders of magnitude, which makes `node_limit`
    /// alone a poor proxy for effort; the pivot budget is the knob that
    /// actually bounds it. Exhaustion stops the solve like a node limit
    /// ([`Status::Feasible`] with an incumbent in hand,
    /// [`Status::LimitReached`] without); the LP in flight when the budget
    /// runs dry may overrun it by at most its own per-LP cap.
    pub pivot_limit: usize,
    /// Wall-clock deadline for the whole solve.
    pub time_limit: Option<Duration>,
    /// Run presolve (bound propagation, redundant-row removal) before
    /// branch and bound.
    pub presolve: bool,
    /// Warm-start each branch-and-bound node's LP from its parent's optimal
    /// basis (dual simplex); `false` forces the historical cold start at
    /// every node. Outcomes are identical either way — warm solves fall
    /// back to a cold start on any trouble — only the pivot counts differ.
    pub warm_start: bool,
    /// Cooperative cancellation latch, polled at the head of every
    /// branch-and-bound node alongside the node/pivot/time budgets. A
    /// cancelled solve stops through the same path as a budget limit —
    /// [`Status::Feasible`] with the incumbent in hand,
    /// [`Status::LimitReached`] without — it is never torn down. Run-state,
    /// not configuration: the field compares equal regardless of latch
    /// state and is excluded from checkpoint/cache fingerprints.
    pub cancel: CancelFlag,
}

impl SolveOptions {
    /// Options for a feasibility run.
    pub fn feasibility() -> Self {
        SolveOptions { goal: Goal::Feasibility, ..SolveOptions::default() }
    }

    /// Options for an optimality run.
    pub fn optimal() -> Self {
        SolveOptions { goal: Goal::Optimal, ..SolveOptions::default() }
    }

    /// Builder-style time limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Builder-style node limit.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    /// Builder-style solve-wide pivot budget.
    pub fn with_pivot_limit(mut self, limit: usize) -> Self {
        self.pivot_limit = limit;
        self
    }
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            goal: Goal::Feasibility,
            node_limit: 2_000_000,
            pivot_limit: 0,
            time_limit: None,
            presolve: true,
            warm_start: true,
            cancel: CancelFlag::new(),
        }
    }
}

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Optimality was proven (optimality goal only).
    Optimal,
    /// An integer-feasible solution was found (feasibility goal, or an
    /// optimality run interrupted by a limit with an incumbent in hand).
    Feasible,
    /// The model was proven infeasible.
    Infeasible,
    /// The LP relaxation is unbounded in the optimization direction.
    Unbounded,
    /// A node or time limit was hit with no incumbent.
    LimitReached,
}

impl Status {
    /// `true` for [`Status::Optimal`] and [`Status::Feasible`].
    pub fn has_solution(self) -> bool {
        matches!(self, Status::Optimal | Status::Feasible)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Status::Optimal => "optimal",
            Status::Feasible => "feasible",
            Status::Infeasible => "infeasible",
            Status::Unbounded => "unbounded",
            Status::LimitReached => "limit reached",
        })
    }
}

/// A (mixed-)integer solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Value of every variable, indexed by [`VarId::index`](crate::VarId::index).
    pub values: Vec<f64>,
    /// Objective value at `values` (0 for pure feasibility models).
    pub objective: f64,
}

impl Solution {
    /// The value of `var` rounded to the nearest integer — convenient for
    /// binary/integer variables.
    pub fn int_value(&self, var: crate::VarId) -> i64 {
        self.values[var.index()].round() as i64
    }

    /// The raw value of `var`.
    pub fn value(&self, var: crate::VarId) -> f64 {
        self.values[var.index()]
    }
}

/// Statistics of a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Branch-and-bound nodes explored (1 for a pure LP).
    pub nodes: usize,
    /// Total simplex iterations (pivots) across all LP solves.
    pub simplex_iterations: usize,
    /// Nodes pruned because their LP bound was dominated by the incumbent.
    pub nodes_pruned: usize,
    /// Nodes whose LP relaxation was infeasible.
    pub infeasible_nodes: usize,
    /// Wall-clock time spent inside per-node LP solves.
    pub lp_time: Duration,
    /// Variable bounds strengthened by presolve.
    pub presolve_tightened_bounds: usize,
    /// Constraints removed as redundant by presolve.
    pub presolve_removed_rows: usize,
    /// Node LPs solved warm (dual simplex from the parent basis).
    pub warm_starts: usize,
    /// Node LPs solved cold (slack-identity start), including warm attempts
    /// that fell back.
    pub cold_starts: usize,
    /// Basis factorizations computed across all LP solves. A parent basis
    /// is factorized once for all the LPs warm-started from it; the copies
    /// count as none.
    pub refactorizations: usize,
    /// Estimated pivots avoided by warm starts: for every warm node LP, the
    /// most expensive LP solved earlier in the same tree (a lower bound on
    /// the cold-start price at this model size — exact when the tree is
    /// cold-rooted, conservative when even the root was warm) minus the
    /// pivots the warm solve actually took.
    pub pivots_saved: usize,
    /// Cutting planes generated across all root separation rounds
    /// (including ones later aged out of the pool).
    pub cuts_generated: usize,
    /// Cutting planes still active in the pool when the root loop ended.
    pub cuts_active: usize,
    /// Separation rounds that produced at least one Gomory cut.
    pub gomory_rounds: usize,
    /// Devex reference-framework resets across all LP solves.
    pub devex_resets: usize,
    /// Branchings decided by recorded pseudo-costs (both directions had
    /// history for the chosen variable).
    pub pseudo_cost_branches: usize,
    /// Child LPs solved for strong-branching reliability initialization.
    pub strong_branch_evals: usize,
    /// Final relative optimality gap in parts per million, capped at
    /// 1 000 000 (100%): 0 when optimality (or infeasibility) was proven,
    /// the incumbent-vs-best-open-bound gap when a limit stopped the
    /// search, 1 000 000 when a limit fired with no incumbent. Stored in
    /// ppm so statistics stay integer (hashable, exactly comparable).
    pub gap_ppm: usize,
}

impl SolveStats {
    /// Accumulates another run's statistics into this one (used when a
    /// caller sums stats across a sequence of solves).
    pub fn absorb(&mut self, other: &SolveStats) {
        self.nodes += other.nodes;
        self.simplex_iterations += other.simplex_iterations;
        self.nodes_pruned += other.nodes_pruned;
        self.infeasible_nodes += other.infeasible_nodes;
        self.lp_time += other.lp_time;
        self.presolve_tightened_bounds += other.presolve_tightened_bounds;
        self.presolve_removed_rows += other.presolve_removed_rows;
        self.warm_starts += other.warm_starts;
        self.cold_starts += other.cold_starts;
        self.refactorizations += other.refactorizations;
        self.pivots_saved += other.pivots_saved;
        self.cuts_generated += other.cuts_generated;
        self.cuts_active += other.cuts_active;
        self.gomory_rounds += other.gomory_rounds;
        self.devex_resets += other.devex_resets;
        self.pseudo_cost_branches += other.pseudo_cost_branches;
        self.strong_branch_evals += other.strong_branch_evals;
        // Gaps do not sum: keep the worst gap seen across the sequence.
        self.gap_ppm = self.gap_ppm.max(other.gap_ppm);
    }
}

impl rtr_trace::Instrument for SolveStats {
    /// The branch-and-bound counters (e.g. under scope `milp`:
    /// `milp.nodes`, `milp.pivots`, ...). This is the single list of MILP
    /// statistics: the exploration loop, the optimality runner and the
    /// `reproduce` bodies all report through it rather than hand-copying
    /// counters.
    fn counters(&self) -> Vec<(Cow<'static, str>, u64)> {
        [
            ("nodes", self.nodes),
            ("pivots", self.simplex_iterations),
            ("nodes_pruned", self.nodes_pruned),
            ("infeasible_nodes", self.infeasible_nodes),
            ("presolve_tightened_bounds", self.presolve_tightened_bounds),
            ("presolve_removed_rows", self.presolve_removed_rows),
            ("lp.warm_starts", self.warm_starts),
            ("lp.cold_starts", self.cold_starts),
            ("lp.refactorizations", self.refactorizations),
            ("lp.pivots_saved", self.pivots_saved),
            ("cuts_generated", self.cuts_generated),
            ("cuts_active", self.cuts_active),
            ("gomory_rounds", self.gomory_rounds),
            ("lp.devex_resets", self.devex_resets),
            ("pseudo_cost_branches", self.pseudo_cost_branches),
            ("strong_branch_evals", self.strong_branch_evals),
            ("gap_ppm", self.gap_ppm),
        ]
        .into_iter()
        .map(|(name, value)| (name.into(), value as u64))
        .collect()
    }

    /// The counters, with the LP wall time in its trace place after
    /// `infeasible_nodes`. It is no exact counter, so `counters()`
    /// leaves it out.
    fn emit_metrics(&self, scope: &str) {
        if !rtr_trace::enabled() {
            return;
        }
        let mut counters = self.counters();
        counters.insert(4, ("lp_time_us".into(), self.lp_time.as_micros() as u64));
        for (name, value) in counters {
            rtr_trace::counter(&format!("{scope}.{name}"), value);
        }
    }
}

/// Result of [`Model::solve`](crate::Model::solve).
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Why the solve stopped.
    pub status: Status,
    /// The incumbent solution, present iff `status.has_solution()`.
    pub solution: Option<Solution>,
    /// Search statistics.
    pub stats: SolveStats,
    /// The root LP relaxation's optimal basis, when it was solved to
    /// optimality on the *unreduced* model (presolve off or no-op). Feed it
    /// to [`solve_mip_warm`](crate::solve_mip_warm) after a bounds/RHS-only
    /// mutation — the paper's binary-subdivision loop — to warm-start the
    /// next solve in the chain.
    pub root_basis: Option<crate::Basis>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_has_solution() {
        assert!(Status::Optimal.has_solution());
        assert!(Status::Feasible.has_solution());
        assert!(!Status::Infeasible.has_solution());
        assert!(!Status::Unbounded.has_solution());
        assert!(!Status::LimitReached.has_solution());
    }

    #[test]
    fn options_builders() {
        let o = SolveOptions::optimal()
            .with_node_limit(5)
            .with_pivot_limit(1000)
            .with_time_limit(Duration::from_millis(10));
        assert_eq!(o.goal, Goal::Optimal);
        assert_eq!(o.node_limit, 5);
        assert_eq!(o.pivot_limit, 1000);
        assert_eq!(o.time_limit, Some(Duration::from_millis(10)));
    }

    /// `counters()` lists exact counts only: the LP wall time stays out of
    /// it, and two solves of one model report the same counters.
    #[test]
    fn counters_are_exact_and_leave_out_the_lp_wall_time() {
        use rtr_trace::Instrument;
        let timed = SolveStats { lp_time: Duration::from_millis(7), ..SolveStats::default() };
        assert_eq!(timed.counters(), SolveStats::default().counters());
        assert!(timed.counters().iter().all(|(name, _)| name != "lp_time_us"));

        let mut model = crate::Model::new();
        let vars: Vec<_> = (0..4).map(|_| model.add_var(crate::Variable::binary())).collect();
        let weights = [5.0, 6.0, 4.0, 3.0];
        model.add_constraint(crate::Constraint::new(
            vars.iter().zip(weights).map(|(&v, w)| (w, v)).collect::<crate::LinExpr>(),
            crate::Rel::Le,
            9.0,
        ));
        let values = [10.0, 13.0, 7.5, 5.0];
        model.maximize(vars.iter().zip(values).map(|(&v, c)| (c, v)).collect::<crate::LinExpr>());
        let solve = || crate::solve_mip(&model, &SolveOptions::optimal()).expect("solves").stats;
        let (first, second) = (solve(), solve());
        assert!(first.simplex_iterations > 0, "the fixture must pivot");
        assert_eq!(first.counters(), second.counters());
    }

    #[test]
    fn status_display() {
        assert_eq!(Status::Infeasible.to_string(), "infeasible");
        assert_eq!(Status::LimitReached.to_string(), "limit reached");
    }
}
