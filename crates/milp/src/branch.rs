//! Branch and bound over the LP relaxation, with root cutting planes and
//! reliability-initialized pseudo-cost branching.

use crate::cuts::CutPool;
use crate::error::MilpError;
use crate::model::{effective_bounds, Model, Sense, VarKind};
use crate::simplex::{resolve_in, solve_in, Basis, LpMatrix, LpStatus, SharedBasis};
use crate::solution::{Goal, Outcome, Solution, SolveOptions, SolveStats, Status};
use rtr_trace::Instrument as _;
use std::rc::Rc;
use std::time::Instant;

/// Tolerance within which a value counts as integral.
const INT_TOL: f64 = 1e-6;
/// Feasibility/optimality tolerance of every simplex solve.
pub(crate) const LP_TOL: f64 = 1e-7;
/// Maximum root cut-separation rounds.
const MAX_CUT_ROUNDS: usize = 5;
/// A variable's pseudo-cost direction is *reliable* once it has this many
/// recorded observations; unreliable candidates get strong-branched first.
const RELIABILITY: u32 = 4;
/// Strong-branch at most this many candidates per node.
const STRONG_BRANCH_CANDS: usize = 8;
/// Simplex iteration cap for each strong-branch child LP.
const STRONG_BRANCH_ITERS: usize = 100;
/// Floor for pseudo-cost scores in the product rule, so a zero-degradation
/// direction never wipes out the other direction's signal.
const PC_EPS: f64 = 1e-6;

/// Solves a mixed-integer model by branch and bound.
///
/// In `Goal::Feasibility` mode (see [`SolveOptions`](crate::SolveOptions)) the search returns as soon as any
/// integer-feasible point is found — the paper's `SolveModel()` use of the
/// ILP. In `Goal::Optimal` mode the search prunes on the incumbent bound
/// and only stops when the tree is exhausted (or a limit fires).
///
/// With `options.warm_start` (the default) every child node's LP re-solves
/// from its parent's optimal basis by dual simplex — branching only
/// tightens one variable's bounds, which leaves that basis dual feasible —
/// and falls back to a cold start on any trouble, so the search outcome is
/// independent of the flag.
///
/// The tree builds its constraint matrix once (again only when a root cut
/// round changes the working model), and each parent basis is factorized
/// once: its strong-branch probes and both children share the
/// factorization. [`SolveStats::refactorizations`] counts only the
/// factorizations actually computed, so a shared one counts once.
///
/// When a [`rtr_trace`] sink is installed, each solve closes one
/// `milp.solve` span and emits its [`SolveStats`] as `milp.*` counters
/// (including the `milp.lp.*` warm-start counters). Tracing never changes
/// the search: the same pivots and branches happen with a sink installed,
/// absent, or disabled.
///
/// # Errors
///
/// Propagates [`MilpError`] from model validation or a simplex failure.
pub fn solve_mip(model: &Model, options: &SolveOptions) -> Result<Outcome, MilpError> {
    solve_mip_warm(model, options, None)
}

/// [`solve_mip`] with an optional warm-start basis for the *root* LP,
/// produced by a previous solve of the same model after a bounds- or
/// RHS-only mutation (the paper's binary-subdivision loop re-solves).
///
/// Supplying a basis skips presolve: the basis indexes the unreduced
/// model's rows, and row removal would silently invalidate it. A stale or
/// unusable basis degrades to a cold root solve — results never change.
///
/// # Errors
///
/// Propagates [`MilpError`] like [`solve_mip`].
pub fn solve_mip_warm(
    model: &Model,
    options: &SolveOptions,
    root_basis: Option<&Basis>,
) -> Result<Outcome, MilpError> {
    let span = rtr_trace::span("milp.solve")
        .with("vars", model.vars.len())
        .with("rows", model.constraints.len());
    let outcome = if options.presolve && root_basis.is_none() {
        match crate::presolve::presolve(model) {
            crate::presolve::PresolveOutcome::Reduced(reduced, pstats) => {
                let mut inner = options.clone();
                inner.presolve = false;
                let mut outcome = branch_and_bound(&reduced, &inner, None)?;
                outcome.stats.presolve_tightened_bounds = pstats.tightened_bounds;
                outcome.stats.presolve_removed_rows = pstats.removed_rows;
                // The root basis indexes the reduced row space; it cannot
                // seed a re-solve of the original model.
                outcome.root_basis = None;
                outcome
            }
            crate::presolve::PresolveOutcome::Infeasible => Outcome {
                status: Status::Infeasible,
                solution: None,
                stats: SolveStats::default(),
                root_basis: None,
            },
        }
    } else {
        branch_and_bound(model, options, root_basis)?
    };
    if rtr_trace::enabled() {
        outcome.stats.emit_metrics("milp");
        span.with("status", outcome.status.to_string())
            .with("nodes", outcome.stats.nodes as u64)
            .finish();
    }
    Ok(outcome)
}

/// A branch-and-bound node: its bound box plus the parent LP's optimal
/// basis (shared, with its factorization, between sibling children).
struct Node {
    bounds: Vec<(f64, f64)>,
    parent_basis: Option<Rc<SharedBasis>>,
    /// Parent LP objective in minimization terms — this node's dual bound.
    bound: f64,
    /// `(variable, fractional distance to the branched bound, went up)` of
    /// the branching that created this node; feeds pseudo-cost updates.
    branch: Option<(usize, f64, bool)>,
}

/// Per-variable pseudo-costs: average objective degradation per unit of
/// fractional distance, kept separately for the up and down directions and
/// keyed by variable index (deterministic across runs by construction).
struct PseudoCosts {
    down_sum: Vec<f64>,
    down_n: Vec<u32>,
    up_sum: Vec<f64>,
    up_n: Vec<u32>,
}

impl PseudoCosts {
    fn new(n: usize) -> Self {
        PseudoCosts {
            down_sum: vec![0.0; n],
            down_n: vec![0; n],
            up_sum: vec![0.0; n],
            up_n: vec![0; n],
        }
    }

    fn record(&mut self, j: usize, up: bool, per_unit: f64) {
        if up {
            self.up_sum[j] += per_unit;
            self.up_n[j] += 1;
        } else {
            self.down_sum[j] += per_unit;
            self.down_n[j] += 1;
        }
    }

    /// Average degradation per unit fraction, `None` with no observations.
    fn cost(&self, j: usize, up: bool) -> Option<f64> {
        let (sum, n) =
            if up { (self.up_sum[j], self.up_n[j]) } else { (self.down_sum[j], self.down_n[j]) };
        (n > 0).then(|| sum / f64::from(n))
    }

    fn reliable(&self, j: usize) -> bool {
        self.down_n[j].min(self.up_n[j]) >= RELIABILITY
    }
}

/// The branch-and-bound core, run on an (optionally presolved) model.
fn branch_and_bound(
    model: &Model,
    options: &SolveOptions,
    root_basis: Option<&Basis>,
) -> Result<Outcome, MilpError> {
    let start = Instant::now();
    let int_vars: Vec<usize> = model.integer_vars().map(|v| v.index()).collect();
    let minimize_sign = match model.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };

    let root_bounds: Vec<(f64, f64)> = model
        .vars
        .iter()
        .map(|v| {
            let (lo, hi) = effective_bounds(v);
            if matches!(v.kind, VarKind::Integer | VarKind::Binary) {
                (lo.ceil(), hi.floor())
            } else {
                (lo, hi)
            }
        })
        .collect();

    let mut stats = SolveStats::default();
    let mut incumbent: Option<Solution> = None;
    // Incumbent objective in minimization terms.
    let mut incumbent_obj = f64::INFINITY;
    let mut stack: Vec<Node> = vec![Node {
        bounds: root_bounds.clone(),
        parent_basis: root_basis.map(|b| Rc::new(SharedBasis::new(b.clone()))),
        bound: f64::NEG_INFINITY,
        branch: None,
    }];
    let mut saw_limit = false;
    let mut root_unbounded = false;
    let mut first_node = true;
    // Pivot-price baseline: the most expensive LP solved in this tree so
    // far (the root LP of a cold-started run; in a warm-rooted tree, the
    // priciest warm solve — still a lower bound on the cold-start price at
    // this model size, so the savings estimate stays conservative). A node
    // never claims savings against its own price: the baseline is updated
    // after the node is charged.
    let mut price_baseline = 0usize;
    let mut outcome_root_basis: Option<Basis> = None;
    // Root cutting planes: the pool plus the current working model (base +
    // active cut rows). `None` until the first committed cut round; cuts
    // are separated from root bounds, so they stay valid tree-wide and
    // every descendant node LP solves the augmented model.
    let mut pool = CutPool::new();
    let mut augmented: Option<Model> = None;
    // The working model's LP matrix, shared by every LP of the tree.
    let mut matrix = LpMatrix::new(model);
    let mut pc = PseudoCosts::new(model.vars.len());
    // Cuts and pseudo-cost machinery aim at proving bounds; the paper's
    // feasibility hot path keeps the historical cut-free, most-fractional
    // search (and its node counts) untouched.
    let use_cuts = options.goal == Goal::Optimal && !int_vars.is_empty();
    let use_pc = options.goal == Goal::Optimal;
    // Dual bound of the node a limit interrupted, for the final gap.
    let mut broken_bound = f64::INFINITY;

    // Solve-wide pivot budget: pivots remaining before
    // `options.pivot_limit` is exhausted (`usize::MAX` with no budget).
    let pivots_left = |stats: &SolveStats| -> usize {
        if options.pivot_limit == 0 {
            usize::MAX
        } else {
            options.pivot_limit.saturating_sub(stats.simplex_iterations)
        }
    };
    // Per-LP iteration cap: the automatic anti-cycling cap (0) without a
    // budget, the budget remainder with one. A cycling LP then burns the
    // budget and stops the solve instead of erroring, which is the right
    // failure mode for a budgeted run.
    let lp_cap = |stats: &SolveStats| -> usize {
        let left = pivots_left(stats);
        if left == usize::MAX {
            0
        } else {
            left
        }
    };
    // With a budget, an [`MilpError::IterationLimit`] from an LP solved at
    // `lp_cap` means the budget ran dry, not that the LP failed: the solve
    // stops with a limit status and the budget is charged in full.
    let budgeted = options.pivot_limit != 0;

    while let Some(Node { bounds, parent_basis, bound, branch: came_from }) = stack.pop() {
        if stats.nodes >= options.node_limit || pivots_left(&stats) == 0 {
            saw_limit = true;
            broken_bound = bound;
            break;
        }
        if let Some(limit) = options.time_limit {
            if start.elapsed() >= limit {
                saw_limit = true;
                broken_bound = bound;
                break;
            }
        }
        if options.cancel.is_cancelled() {
            saw_limit = true;
            broken_bound = bound;
            break;
        }
        stats.nodes += 1;

        // The parent's LP objective already bounds this node: when the
        // incumbent dominates it, prune without solving the LP at all.
        if incumbent.is_some() && bound >= incumbent_obj - 1e-9 {
            stats.nodes_pruned += 1;
            continue;
        }

        let deadline = options.time_limit.map(|t| start + t);
        let lp_start = Instant::now();
        let warm_basis = if options.warm_start { parent_basis.as_deref() } else { None };
        let cap = lp_cap(&stats);
        let lp = match warm_basis {
            Some(basis) => resolve_in(&matrix, Some(&bounds), basis, LP_TOL, cap, deadline),
            None => solve_in(&matrix, Some(&bounds), LP_TOL, cap, deadline),
        };
        let lp = match lp {
            Ok(lp) => lp,
            Err(MilpError::IterationLimit { .. }) if budgeted => {
                // The node LP consumed the remaining pivot budget: charge
                // it in full and stop like any other limit.
                stats.lp_time += lp_start.elapsed();
                stats.simplex_iterations = options.pivot_limit;
                saw_limit = true;
                broken_bound = bound;
                break;
            }
            Err(e) => return Err(e),
        };
        stats.lp_time += lp_start.elapsed();
        stats.simplex_iterations += lp.iterations;
        stats.refactorizations += lp.refactorizations;
        stats.devex_resets += lp.devex_resets;
        if lp.warm {
            stats.warm_starts += 1;
            stats.pivots_saved += price_baseline.saturating_sub(lp.iterations);
        } else {
            stats.cold_starts += 1;
        }
        price_baseline = price_baseline.max(lp.iterations);
        let is_root = std::mem::take(&mut first_node);
        if is_root {
            // Captured before any cut is added: the basis must index the
            // unaugmented model so a later bounds/RHS-only re-solve of the
            // caller's model (the paper's subdivision chain) can warm from
            // it.
            outcome_root_basis = lp.basis.clone();
        }
        match lp.status {
            LpStatus::Infeasible => {
                stats.infeasible_nodes += 1;
                continue;
            }
            LpStatus::Interrupted => {
                saw_limit = true;
                broken_bound = bound;
                break;
            }
            LpStatus::Unbounded => {
                // With bounded integer variables, unboundedness comes from
                // continuous directions and already holds at the root.
                if is_root {
                    root_unbounded = true;
                    break;
                }
                continue;
            }
            LpStatus::Optimal => {}
        }
        let mut lp = lp;

        // Root cutting-plane loop: separate cover/clique cuts on the base
        // rows and Gomory mixed-integer cuts on the fractional root basis,
        // then re-solve the augmented root. Cut rows only ever exclude
        // fractional points, so an infeasible augmented LP proves *integer*
        // infeasibility of the node (here: the whole model).
        if is_root && use_cuts {
            let mut cut_proved_infeasible = false;
            for round in 0..MAX_CUT_ROUNDS {
                // Fault injection for the separation site: a tripped
                // failpoint skips the round, leaving the pool and the
                // working model exactly as they were.
                if rtr_trace::failpoint::failpoint("milp.cut_separation", round as u64) {
                    continue;
                }
                let Some(basis) = lp.basis.as_ref() else { break };
                let work: &Model = augmented.as_ref().unwrap_or(model);
                let res = pool.separate(model, work, &matrix, &root_bounds, basis, &lp.values);
                stats.cuts_generated += res.total();
                if res.gomory > 0 {
                    stats.gomory_rounds += 1;
                }
                let stale = pool.age_cuts(&lp.values);
                let dropped = stale.len();
                pool.remove(&stale);
                if res.total() == 0 && dropped == 0 {
                    break;
                }
                // Rebuild base + pool and re-solve the root cold. A cold
                // solve makes dropping any cut row unconditionally safe (no
                // basis references the removed rows) and its cost is
                // bounded by MAX_CUT_ROUNDS root LPs.
                let mut work_next = model.clone();
                pool.append_rows(&mut work_next);
                if pivots_left(&stats) == 0 {
                    saw_limit = true;
                    break;
                }
                let re_cap = lp_cap(&stats);
                let re_start = Instant::now();
                let matrix_next = LpMatrix::new(&work_next);
                let relp =
                    match solve_in(&matrix_next, Some(&root_bounds), LP_TOL, re_cap, deadline) {
                        Ok(relp) => relp,
                        Err(MilpError::IterationLimit { .. }) if budgeted => {
                            stats.lp_time += re_start.elapsed();
                            stats.simplex_iterations = options.pivot_limit;
                            saw_limit = true;
                            break;
                        }
                        Err(e) => return Err(e),
                    };
                stats.lp_time += re_start.elapsed();
                stats.simplex_iterations += relp.iterations;
                stats.refactorizations += relp.refactorizations;
                stats.devex_resets += relp.devex_resets;
                stats.cold_starts += 1;
                match relp.status {
                    LpStatus::Optimal => {
                        augmented = Some(work_next);
                        matrix = matrix_next;
                        lp = relp;
                    }
                    LpStatus::Infeasible => {
                        cut_proved_infeasible = true;
                        break;
                    }
                    LpStatus::Interrupted => {
                        saw_limit = true;
                        break;
                    }
                    LpStatus::Unbounded => break,
                }
            }
            stats.cuts_active = pool.active();
            if cut_proved_infeasible {
                stats.infeasible_nodes += 1;
                continue;
            }
            if saw_limit {
                broken_bound = bound;
                break;
            }
        }

        let lp_obj_min = minimize_sign * lp.objective;

        // Feed the parent's branching outcome into the pseudo-costs: the
        // LP objective degradation per unit of fractional distance.
        if use_pc {
            if let Some((j, frac, up)) = came_from {
                if frac > INT_TOL {
                    let per_unit = ((lp_obj_min - bound) / frac).max(0.0);
                    if per_unit.is_finite() {
                        pc.record(j, up, per_unit);
                    }
                }
            }
        }

        if incumbent.is_some() && lp_obj_min >= incumbent_obj - 1e-9 {
            stats.nodes_pruned += 1;
            continue; // dominated by the incumbent
        }

        // Rounding heuristic: at the root, try the nearest integer point.
        if is_root && !int_vars.is_empty() {
            let mut rounded = lp.values.clone();
            for &j in &int_vars {
                rounded[j] = rounded[j].round().clamp(bounds[j].0, bounds[j].1);
            }
            if model.is_feasible_point(&rounded, INT_TOL) {
                let objective = model.objective.eval(&rounded);
                let obj_min = minimize_sign * objective;
                if obj_min < incumbent_obj {
                    incumbent_obj = obj_min;
                    incumbent = Some(Solution { values: rounded, objective });
                    if options.goal == Goal::Feasibility {
                        break;
                    }
                }
            }
        }

        // Fractional branching candidates, ascending variable index.
        let mut cands: Vec<(usize, f64)> = Vec::new(); // (var, LP value)
        for &j in &int_vars {
            let v = lp.values[j];
            if (v - v.round()).abs() > INT_TOL {
                cands.push((j, v));
            }
        }

        if cands.is_empty() {
            // Integer feasible. Defensively re-check the point against
            // the raw constraints before accepting it as an incumbent:
            // a simplex numerical failure must never surface as a bogus
            // "feasible" answer.
            let mut values = lp.values.clone();
            for &j in &int_vars {
                values[j] = values[j].round();
            }
            if !model.is_feasible_point(&values, 1e-5) {
                continue;
            }
            let objective = model.objective.eval(&values);
            let obj_min = minimize_sign * objective;
            if obj_min < incumbent_obj {
                incumbent_obj = obj_min;
                incumbent = Some(Solution { values, objective });
            }
            if options.goal == Goal::Feasibility {
                break;
            }
            continue;
        }

        // This node's optimal basis, factorized by the first LP that installs
        // it: a strong-branch probe or a child.
        let node_basis = lp.basis.take().map(|b| Rc::new(SharedBasis::new(b)));

        // Reliability initialization: strong-branch the most fractional
        // candidates whose pseudo-costs have too few observations, seeding
        // the tables with the observed LP degradations. Every probe LP is
        // iteration-capped and warm-started from this node's basis.
        if use_pc {
            let mut order: Vec<usize> = (0..cands.len()).collect();
            order.sort_by(|&a, &b| {
                let fa = (cands[a].1 - cands[a].1.floor() - 0.5).abs();
                let fb = (cands[b].1 - cands[b].1.floor() - 0.5).abs();
                fa.total_cmp(&fb).then(cands[a].0.cmp(&cands[b].0))
            });
            let mut probed = 0usize;
            for &ci in &order {
                if probed >= STRONG_BRANCH_CANDS {
                    break;
                }
                // Probes are a bounded investment; never let them be the
                // LP that drains the last of the pivot budget.
                if pivots_left(&stats) <= 2 * STRONG_BRANCH_ITERS {
                    break;
                }
                let (j, v) = cands[ci];
                if pc.reliable(j) {
                    continue;
                }
                probed += 1;
                let floor = v.floor();
                for up in [false, true] {
                    let frac = if up { floor + 1.0 - v } else { v - floor };
                    if frac <= INT_TOL {
                        continue;
                    }
                    let mut cb = bounds.clone();
                    if up {
                        cb[j].0 = cb[j].0.max(floor + 1.0);
                    } else {
                        cb[j].1 = cb[j].1.min(floor);
                    }
                    stats.strong_branch_evals += 1;
                    let sb_start = Instant::now();
                    let probe = match node_basis.as_deref() {
                        Some(b) => {
                            resolve_in(&matrix, Some(&cb), b, LP_TOL, STRONG_BRANCH_ITERS, deadline)
                        }
                        None => solve_in(&matrix, Some(&cb), LP_TOL, STRONG_BRANCH_ITERS, deadline),
                    };
                    let sb = match probe {
                        Ok(sb) => sb,
                        // The tight per-probe pivot cap is an intended
                        // truncation: running out of iterations makes the
                        // probe uninformative, not the solve a failure. Its
                        // pivots still count against the budget.
                        Err(MilpError::IterationLimit { limit }) => {
                            stats.lp_time += sb_start.elapsed();
                            stats.simplex_iterations += limit;
                            continue;
                        }
                        Err(e) => return Err(e),
                    };
                    stats.lp_time += sb_start.elapsed();
                    stats.simplex_iterations += sb.iterations;
                    stats.refactorizations += sb.refactorizations;
                    stats.devex_resets += sb.devex_resets;
                    if sb.status == LpStatus::Optimal {
                        let per_unit =
                            ((minimize_sign * sb.objective - lp_obj_min) / frac).max(0.0);
                        if per_unit.is_finite() {
                            pc.record(j, up, per_unit);
                        }
                    }
                    // Infeasible/interrupted probes carry no degradation
                    // information; the table is left untouched.
                }
            }
        }

        // Pseudo-cost product rule. With an empty table every direction
        // falls back to unit cost, and the score reduces to
        // frac·(1 − frac) — exactly the historical most-fractional rule —
        // so feasibility solves (which never record costs) are unchanged.
        let mut choice = cands[0];
        let mut choice_score = f64::NEG_INFINITY;
        let mut choice_reliable = false;
        for &(j, v) in &cands {
            let f_down = v - v.floor();
            let f_up = 1.0 - f_down;
            let (c_down, c_up) =
                if use_pc { (pc.cost(j, false), pc.cost(j, true)) } else { (None, None) };
            let d_down = c_down.unwrap_or(1.0) * f_down;
            let d_up = c_up.unwrap_or(1.0) * f_up;
            let score = d_down.max(PC_EPS) * d_up.max(PC_EPS);
            if score > choice_score {
                choice_score = score;
                choice = (j, v);
                choice_reliable = c_down.is_some() && c_up.is_some();
            }
        }
        if choice_reliable {
            stats.pseudo_cost_branches += 1;
        }

        let (j, v) = choice;
        let floor = v.floor();
        let mut down = bounds.clone();
        down[j].1 = down[j].1.min(floor);
        let mut up = bounds;
        up[j].0 = up[j].0.max(floor + 1.0);
        // Both children warm-start from this node's optimal basis:
        // the only change is one variable's bound, which leaves the
        // basis dual feasible.
        let down = Node {
            bounds: down,
            parent_basis: node_basis.clone(),
            bound: lp_obj_min,
            branch: Some((j, v - floor, false)),
        };
        let up = Node {
            bounds: up,
            parent_basis: node_basis,
            bound: lp_obj_min,
            branch: Some((j, floor + 1.0 - v, true)),
        };
        // Explore the nearer branch first (depth-first).
        if v - floor <= 0.5 {
            stack.push(up);
            stack.push(down);
        } else {
            stack.push(down);
            stack.push(up);
        }
    }

    let status = if root_unbounded {
        Status::Unbounded
    } else {
        match (&incumbent, saw_limit, options.goal) {
            (Some(_), false, Goal::Optimal) => Status::Optimal,
            (Some(_), _, _) => Status::Feasible,
            (None, true, _) => Status::LimitReached,
            (None, false, _) => Status::Infeasible,
        }
    };
    // Final relative gap (ppm): incumbent vs the best dual bound still
    // open (the remaining stack plus the node a limit interrupted). An
    // exhausted tree has bound +inf — gap 0, matching the proven statuses.
    stats.gap_ppm = match status {
        Status::Optimal | Status::Infeasible | Status::Unbounded => 0,
        _ if incumbent.is_none() => 1_000_000,
        _ => {
            let open = stack.iter().map(|n| n.bound).fold(broken_bound, f64::min);
            if open == f64::INFINITY {
                0
            } else if open == f64::NEG_INFINITY {
                1_000_000
            } else {
                let denom = incumbent_obj.abs().max(1e-9);
                let rel = ((incumbent_obj - open).max(0.0) / denom).min(1.0);
                (rel * 1e6).round() as usize
            }
        }
    };
    Ok(Outcome { status, solution: incumbent, stats, root_basis: outcome_root_basis })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Constraint, LinExpr, Rel, Variable};
    use std::time::Duration;

    #[test]
    fn knapsack_optimal() {
        // max 10a + 13b + 7c s.t. 5a + 6b + 4c <= 10, binaries.
        // Best: b + c = 20, a + c = 17, a + b -> 11 > 10 infeasible. So {b, c} = 20.
        let mut m = Model::new();
        let a = m.add_var(Variable::binary());
        let b = m.add_var(Variable::binary());
        let c = m.add_var(Variable::binary());
        m.add_constraint(Constraint::new(
            LinExpr::new() + (5.0, a) + (6.0, b) + (4.0, c),
            Rel::Le,
            10.0,
        ));
        m.maximize(LinExpr::new() + (10.0, a) + (13.0, b) + (7.0, c));
        let out = m.solve(&SolveOptions::optimal()).unwrap();
        assert_eq!(out.status, Status::Optimal);
        let sol = out.solution.unwrap();
        assert_eq!(sol.objective, 20.0);
        assert_eq!(sol.int_value(a), 0);
        assert_eq!(sol.int_value(b), 1);
        assert_eq!(sol.int_value(c), 1);
    }

    #[test]
    fn integer_rounding_gap() {
        // max x s.t. 2x <= 5, x integer -> 2 (LP gives 2.5).
        let mut m = Model::new();
        let x = m.add_var(Variable::integer(0.0, 10.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (2.0, x), Rel::Le, 5.0));
        m.maximize(LinExpr::new() + (1.0, x));
        let out = m.solve(&SolveOptions::optimal()).unwrap();
        assert_eq!(out.status, Status::Optimal);
        assert_eq!(out.solution.unwrap().objective, 2.0);
    }

    #[test]
    fn infeasible_integer_model() {
        // 0.4 <= x <= 0.6, x integer: LP feasible, IP infeasible.
        let mut m = Model::new();
        let x = m.add_var(Variable::integer(0.0, 1.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x), Rel::Ge, 0.4));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x), Rel::Le, 0.6));
        let out = m.solve(&SolveOptions::feasibility()).unwrap();
        assert_eq!(out.status, Status::Infeasible);
        assert!(out.solution.is_none());
    }

    #[test]
    fn feasibility_mode_stops_at_first_solution() {
        // A model with many feasible points; feasibility mode should explore
        // very few nodes.
        let mut m = Model::new();
        let vars: Vec<_> = (0..12).map(|_| m.add_var(Variable::binary())).collect();
        let sum: LinExpr = vars.iter().map(|&v| (1.0, v)).collect();
        m.add_constraint(Constraint::new(sum, Rel::Ge, 3.0));
        let out = m.solve(&SolveOptions::feasibility()).unwrap();
        assert_eq!(out.status, Status::Feasible);
        let sol = out.solution.unwrap();
        let total: f64 = sol.values.iter().sum();
        assert!(total >= 3.0 - 1e-6);
        assert!(out.stats.nodes <= 5, "nodes {}", out.stats.nodes);
    }

    #[test]
    fn equality_sum_partition() {
        // x1 + x2 + x3 = 2 with pairwise exclusion x1 + x2 <= 1 -> x3 = 1 and
        // exactly one of x1, x2.
        let mut m = Model::new();
        let x1 = m.add_var(Variable::binary());
        let x2 = m.add_var(Variable::binary());
        let x3 = m.add_var(Variable::binary());
        m.add_constraint(Constraint::new(
            LinExpr::new() + (1.0, x1) + (1.0, x2) + (1.0, x3),
            Rel::Eq,
            2.0,
        ));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x1) + (1.0, x2), Rel::Le, 1.0));
        let out = m.solve(&SolveOptions::feasibility()).unwrap();
        assert_eq!(out.status, Status::Feasible);
        let sol = out.solution.unwrap();
        assert_eq!(sol.int_value(x3), 1);
        assert_eq!(sol.int_value(x1) + sol.int_value(x2), 1);
    }

    #[test]
    fn unbounded_integer_model() {
        let mut m = Model::new();
        let x = m.add_var(Variable::continuous(0.0, f64::INFINITY));
        let y = m.add_var(Variable::binary());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, y), Rel::Le, 1.0));
        m.maximize(LinExpr::new() + (1.0, x));
        let out = m.solve(&SolveOptions::optimal()).unwrap();
        assert_eq!(out.status, Status::Unbounded);
    }

    #[test]
    fn node_limit_reported() {
        // A tight feasibility problem needing branching, with node_limit 1:
        // stops with LimitReached unless root rounding already succeeds.
        let mut m = Model::new();
        let vars: Vec<_> = (0..10).map(|_| m.add_var(Variable::binary())).collect();
        let sum: LinExpr = vars.iter().map(|&v| (3.0, v)).collect();
        m.add_constraint(Constraint::new(sum.clone(), Rel::Ge, 7.0));
        m.add_constraint(Constraint::new(sum, Rel::Le, 8.0));
        let out = m.solve(&SolveOptions::feasibility().with_node_limit(1)).unwrap();
        // One node explored, branching needed, then the limit fires.
        assert!(matches!(out.status, Status::LimitReached | Status::Feasible));
        if out.status == Status::LimitReached {
            assert!(out.solution.is_none());
        }
    }

    #[test]
    fn pivot_limit_stops_the_solve_deterministically() {
        // 16-item knapsack with a fractional LP optimum: a 3-pivot budget
        // cannot finish even the root LP, so the solve must stop with a
        // limit status — and two runs must report bit-identical stats.
        let mut m = Model::new();
        let vars: Vec<_> = (0..16).map(|_| m.add_var(Variable::binary())).collect();
        m.add_constraint(Constraint::new(
            vars.iter().enumerate().map(|(i, &v)| ((i % 7 + 2) as f64, v)).collect(),
            Rel::Le,
            19.0,
        ));
        m.maximize(vars.iter().enumerate().map(|(i, &v)| ((i % 5 + 1) as f64, v)).collect());
        let opts = SolveOptions::optimal().with_pivot_limit(3);
        let a = m.solve(&opts).unwrap();
        let b = m.solve(&opts).unwrap();
        assert_eq!(a.status, Status::LimitReached);
        assert!(a.solution.is_none());
        assert_eq!(a.stats.gap_ppm, 1_000_000);
        assert_eq!(a.stats.simplex_iterations, 3, "the drained budget is charged in full");
        let (mut sa, mut sb) = (a.stats, b.stats);
        sa.lp_time = Duration::ZERO;
        sb.lp_time = Duration::ZERO;
        assert_eq!(sa, sb);

        // A generous budget must not change the answer.
        let full = m.solve(&SolveOptions::optimal()).unwrap();
        let budgeted = m.solve(&SolveOptions::optimal().with_pivot_limit(1_000_000)).unwrap();
        assert_eq!(full.status, Status::Optimal);
        assert_eq!(budgeted.status, Status::Optimal);
        assert_eq!(full.solution.unwrap().objective, budgeted.solution.unwrap().objective);
    }

    #[test]
    fn time_limit_zero_fires_immediately() {
        let mut m = Model::new();
        let x = m.add_var(Variable::binary());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x), Rel::Ge, 1.0));
        let opts = SolveOptions::feasibility().with_time_limit(Duration::ZERO);
        let out = m.solve(&opts).unwrap();
        assert_eq!(out.status, Status::LimitReached);
    }

    #[test]
    fn optimal_matches_brute_force_on_small_knapsacks() {
        // Deterministic pseudo-random 8-item knapsacks cross-checked against
        // exhaustive enumeration.
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..25 {
            let items = 8;
            let weights: Vec<f64> = (0..items).map(|_| (next() % 20 + 1) as f64).collect();
            let values: Vec<f64> = (0..items).map(|_| (next() % 30 + 1) as f64).collect();
            let cap = (weights.iter().sum::<f64>() / 2.0).floor();

            let mut m = Model::new();
            let vars: Vec<_> = (0..items).map(|_| m.add_var(Variable::binary())).collect();
            m.add_constraint(Constraint::new(
                vars.iter().zip(&weights).map(|(&v, &w)| (w, v)).collect(),
                Rel::Le,
                cap,
            ));
            m.maximize(vars.iter().zip(&values).map(|(&v, &val)| (val, v)).collect());
            let out = m.solve(&SolveOptions::optimal()).unwrap();
            assert_eq!(out.status, Status::Optimal, "case {case}");
            let got = out.solution.unwrap().objective;

            let mut best = 0.0f64;
            for mask in 0u32..(1 << items) {
                let w: f64 = (0..items).filter(|&i| mask & (1 << i) != 0).map(|i| weights[i]).sum();
                if w <= cap {
                    let v: f64 =
                        (0..items).filter(|&i| mask & (1 << i) != 0).map(|i| values[i]).sum();
                    best = best.max(v);
                }
            }
            assert!((got - best).abs() < 1e-6, "case {case}: milp {got} vs brute {best}");
        }
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 3x + 2y, x integer in [0,4], y continuous in [0, 2.5],
        // x + y <= 5 -> x = 4, y = 1 -> 14.
        let mut m = Model::new();
        let x = m.add_var(Variable::integer(0.0, 4.0));
        let y = m.add_var(Variable::continuous(0.0, 2.5));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Le, 5.0));
        m.maximize(LinExpr::new() + (3.0, x) + (2.0, y));
        let out = m.solve(&SolveOptions::optimal()).unwrap();
        assert_eq!(out.status, Status::Optimal);
        let sol = out.solution.unwrap();
        assert_eq!(sol.int_value(x), 4);
        assert!((sol.value(y) - 1.0).abs() < 1e-6);
        assert!((sol.objective - 14.0).abs() < 1e-6);
    }

    #[test]
    fn fractional_bounds_are_tightened_for_integers() {
        // x integer in [0.3, 2.7] -> effectively [1, 2].
        let mut m = Model::new();
        let x = m.add_var(Variable::integer(0.3, 2.7));
        m.maximize(LinExpr::new() + (1.0, x));
        let out = m.solve(&SolveOptions::optimal()).unwrap();
        assert_eq!(out.solution.unwrap().objective, 2.0);
        let mut m2 = Model::new();
        let y = m2.add_var(Variable::integer(0.3, 2.7));
        m2.minimize(LinExpr::new() + (1.0, y));
        let out2 = m2.solve(&SolveOptions::optimal()).unwrap();
        assert_eq!(out2.solution.unwrap().objective, 1.0);
    }
}
