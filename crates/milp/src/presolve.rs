//! Presolve: bound propagation and redundant-row elimination.
//!
//! The reductions keep the variable set (and indexing) intact, so a
//! solution of the reduced model is a solution of the original:
//!
//! * **activity-based bound tightening** — for every row, the minimum and
//!   maximum activity of all-but-one variable imply bounds on the
//!   remaining one; integer bounds are then rounded inward;
//! * **redundant-row removal** — a row whose worst-case activity already
//!   satisfies it is dropped;
//! * **infeasibility detection** — a row whose best-case activity violates
//!   it proves the model infeasible;
//! * **coefficient tightening** — on rows where a binary variable's
//!   coefficient exceeds what the row can actually absorb, the coefficient
//!   and right-hand side shrink in lockstep (Savelsbergh's rule): the
//!   integer solution set is unchanged but the LP relaxation is strictly
//!   tighter;
//! * **probing** — each binary (up to a deterministic cap, ascending
//!   index) is tentatively fixed to 0 and to 1 with a short propagation
//!   after each; an infeasible side fixes the variable to the other value,
//!   two infeasible sides prove the model infeasible, and two feasible
//!   sides still contribute the union of their implied bounds.
//!
//! Rounds repeat until a fixpoint (or a small cap).

use crate::model::{effective_bounds, Constraint, LinExpr, Model, Rel, VarId, VarKind};

/// Binaries probed per presolve, ascending variable index. Bounds the cost
/// of probing on the large linearized `Y·w` product-variable blocks.
const MAX_PROBES: usize = 64;
/// Propagation rounds inside each tentative probe fix.
const PROBE_ROUNDS: usize = 2;
/// Fixpoint rounds of the main pass, and of the propagation after probing.
const MAX_ROUNDS: usize = 8;
/// Slack below which a bound change, a redundancy or a crossing is ignored.
const TOL: f64 = 1e-9;

/// Statistics of a presolve run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Number of variable bounds strengthened.
    pub tightened_bounds: usize,
    /// Number of constraints removed as redundant.
    pub removed_rows: usize,
    /// Propagation rounds performed.
    pub rounds: usize,
    /// Binaries fixed by probing (one tentative value proved infeasible).
    pub probed_fixings: usize,
    /// Row coefficients shrunk by coefficient tightening.
    pub coef_tightened: usize,
}

/// Result of presolving a model.
#[derive(Debug, Clone)]
pub enum PresolveOutcome {
    /// The reduced model (same variables, tightened bounds, fewer rows).
    Reduced(Model, PresolveStats),
    /// The constraints are provably inconsistent.
    Infeasible,
}

/// Presolves `model`. See the module docs for the reductions applied.
pub fn presolve(model: &Model) -> PresolveOutcome {
    let mut m = model.clone();
    let mut stats = PresolveStats::default();

    // Effective (integrality-rounded) bounds, maintained locally.
    let mut lb: Vec<f64> = Vec::with_capacity(m.vars.len());
    let mut ub: Vec<f64> = Vec::with_capacity(m.vars.len());
    for v in &m.vars {
        let (lo, hi) = effective_bounds(v);
        if matches!(v.kind, VarKind::Integer | VarKind::Binary) {
            lb.push(lo.ceil());
            ub.push(hi.floor());
        } else {
            lb.push(lo);
            ub.push(hi);
        }
    }

    let mut normalized: Vec<Vec<(usize, f64)>> = m
        .constraints
        .iter()
        .map(|c| c.expr.normalized().into_iter().map(|(v, coef)| (v.index(), coef)).collect())
        .collect();
    let mut alive: Vec<bool> = vec![true; m.constraints.len()];

    for round in 0..MAX_ROUNDS {
        let mut changed = false;
        for (ci, c) in m.constraints.iter().enumerate() {
            if !alive[ci] {
                continue;
            }
            let terms = &normalized[ci];
            let (act_min, act_max) = activity(terms, &lb, &ub);
            if infeasible(c, act_min, act_max) {
                return PresolveOutcome::Infeasible;
            }
            let redundant = match c.rel {
                Rel::Le => act_max <= c.rhs + TOL,
                Rel::Ge => act_min >= c.rhs - TOL,
                Rel::Eq => false,
            };
            if redundant {
                alive[ci] = false;
                stats.removed_rows += 1;
                changed = true;
                continue;
            }
            let Some(tightened) = tighten(&m, c, terms, act_min, act_max, &mut lb, &mut ub) else {
                return PresolveOutcome::Infeasible;
            };
            stats.tightened_bounds += tightened;
            changed |= tightened > 0;
        }

        // Coefficient tightening (Savelsbergh): when a binary's coefficient
        // overshoots what the row can absorb, shrink coefficient and
        // right-hand side together. The integer solution set is unchanged
        // (the row was redundant on the slack side and binds identically on
        // the tight side) but the LP relaxation is strictly tighter. One
        // term per row per round, ascending term order, keeps the fixpoint
        // iteration deterministic.
        for ci in 0..m.constraints.len() {
            if !alive[ci] {
                continue;
            }
            let rel = m.constraints[ci].rel;
            if matches!(rel, Rel::Eq) {
                continue;
            }
            let b = m.constraints[ci].rhs;
            let (act_min, act_max) = activity(&normalized[ci], &lb, &ub);
            // (term index, new coefficient, new right-hand side)
            let mut update: Option<(usize, f64, f64)> = None;
            for (idx, &(j, a)) in normalized[ci].iter().enumerate() {
                if !is_unfixed_binary(&m, j, &lb, &ub) {
                    continue;
                }
                match rel {
                    Rel::Le if a > 0.0 => {
                        let others = act_max - a;
                        if others.is_finite() && others < b - TOL && others + a > b + TOL {
                            update = Some((idx, a + others - b, others));
                        }
                    }
                    Rel::Le if a < 0.0 => {
                        let others = act_max;
                        if others.is_finite() && others > b + TOL && others + a < b - TOL {
                            update = Some((idx, b - others, b));
                        }
                    }
                    Rel::Ge if a < 0.0 => {
                        let others = act_min - a;
                        if others.is_finite() && others > b + TOL && others + a < b - TOL {
                            update = Some((idx, a + others - b, others));
                        }
                    }
                    Rel::Ge if a > 0.0 => {
                        let others = act_min;
                        if others.is_finite() && others < b - TOL && others + a > b + TOL {
                            update = Some((idx, b - others, b));
                        }
                    }
                    _ => {}
                }
                if update.is_some() {
                    break;
                }
            }
            if let Some((idx, coef, rhs)) = update {
                normalized[ci][idx].1 = coef;
                m.constraints[ci].rhs = rhs;
                m.constraints[ci].expr =
                    normalized[ci].iter().map(|&(j, c)| (c, VarId(j))).collect::<LinExpr>();
                stats.coef_tightened += 1;
                changed = true;
            }
        }

        stats.rounds = round + 1;
        if !changed {
            break;
        }
    }

    // Probing: tentatively fix each early binary to 0 and to 1 and run a
    // short propagation after each. An infeasible side forces the variable
    // to the other value (adopting that side's implied bounds); two
    // infeasible sides prove the model infeasible; two feasible sides still
    // bound every solution by the union of their implied boxes, because any
    // integer point has the binary at one of the two probed values.
    let mut probed = 0usize;
    let mut fixed_any = false;
    for j in 0..m.vars.len() {
        if probed >= MAX_PROBES {
            break;
        }
        if !is_unfixed_binary(&m, j, &lb, &ub) {
            continue;
        }
        probed += 1;
        let probe = |fix: f64, lb: &[f64], ub: &[f64]| -> Option<(Vec<f64>, Vec<f64>)> {
            let mut plo = lb.to_vec();
            let mut phi = ub.to_vec();
            plo[j] = fix;
            phi[j] = fix;
            propagate(&m, &normalized, &alive, &mut plo, &mut phi, PROBE_ROUNDS)
                .then_some((plo, phi))
        };
        match (probe(0.0, &lb, &ub), probe(1.0, &lb, &ub)) {
            (None, None) => return PresolveOutcome::Infeasible,
            (None, Some((plo, phi))) | (Some((plo, phi)), None) => {
                lb.copy_from_slice(&plo);
                ub.copy_from_slice(&phi);
                stats.probed_fixings += 1;
                fixed_any = true;
            }
            (Some((lo0, hi0)), Some((lo1, hi1))) => {
                for k in 0..lb.len() {
                    let lo = lo0[k].min(lo1[k]);
                    let hi = hi0[k].max(hi1[k]);
                    if lo > lb[k] + TOL {
                        lb[k] = lo;
                        stats.tightened_bounds += 1;
                    }
                    if hi < ub[k] - TOL {
                        ub[k] = hi;
                        stats.tightened_bounds += 1;
                    }
                }
            }
        }
    }
    if fixed_any && !propagate(&m, &normalized, &alive, &mut lb, &mut ub, MAX_ROUNDS) {
        return PresolveOutcome::Infeasible;
    }

    // Write back bounds and surviving rows. Propagation returned
    // `Infeasible` for any crossing wider than `TOL` but accepts narrower
    // ones (rounding in the implied-bound division); the simplex rejects
    // every crossed pair, so such a pair becomes the point between them.
    for (j, v) in m.vars.iter_mut().enumerate() {
        let (lo, hi) = (lb[j], ub[j]);
        (v.lower, v.upper) = if lo > hi {
            let mid = 0.5 * (lo + hi);
            (mid, mid)
        } else {
            (lo, hi)
        };
    }
    let survivors: Vec<Constraint> =
        m.constraints.iter().zip(&alive).filter(|(_, &a)| a).map(|(c, _)| c.clone()).collect();
    m.constraints = survivors;
    PresolveOutcome::Reduced(m, stats)
}

/// Whether variable `j` is a still-free 0/1 variable under the working
/// bounds (declared binary, or integer with effective bounds exactly 0..1).
fn is_unfixed_binary(m: &Model, j: usize, lb: &[f64], ub: &[f64]) -> bool {
    matches!(m.vars[j].kind, VarKind::Binary | VarKind::Integer) && lb[j] == 0.0 && ub[j] == 1.0
}

/// A row's minimum and maximum activity under the working bounds.
fn activity(terms: &[(usize, f64)], lb: &[f64], ub: &[f64]) -> (f64, f64) {
    let mut act_min = 0.0f64;
    let mut act_max = 0.0f64;
    for &(j, coef) in terms {
        if coef > 0.0 {
            act_min += coef * lb[j];
            act_max += coef * ub[j];
        } else {
            act_min += coef * ub[j];
            act_max += coef * lb[j];
        }
    }
    (act_min, act_max)
}

/// Whether row `c`'s best-case activity already violates it. An inequality
/// gets a slack relative to its right-hand side; an equality gets [`TOL`].
fn infeasible(c: &Constraint, act_min: f64, act_max: f64) -> bool {
    let slack = TOL.max(1e-7 * c.rhs.abs());
    match c.rel {
        Rel::Le => act_min > c.rhs + slack,
        Rel::Ge => act_max < c.rhs - slack,
        Rel::Eq => act_min > c.rhs + TOL || act_max < c.rhs - TOL,
    }
}

/// Activity-based bound tightening of one row: its `expr ≤ rhs` side
/// (`Le`, `Eq`) bounds each variable through the minimum activity of the
/// others, its `expr ≥ rhs` side (`Ge`, `Eq`) through their maximum, and
/// integer bounds round inward. Returns the number of bounds tightened, or
/// `None` when a bound pair crosses by more than [`TOL`].
fn tighten(
    m: &Model,
    c: &Constraint,
    terms: &[(usize, f64)],
    act_min: f64,
    act_max: f64,
    lb: &mut [f64],
    ub: &mut [f64],
) -> Option<usize> {
    let mut tightened = 0;
    for (le, act) in [(true, act_min), (false, act_max)] {
        let side = if le { c.rel != Rel::Ge } else { c.rel != Rel::Le };
        if !side || !act.is_finite() {
            continue;
        }
        for &(j, coef) in terms {
            // The term bounds `j` from above when it pushes the row's
            // activity towards the side's limit.
            let upper = (coef > 0.0) == le;
            let own = if upper { coef * lb[j] } else { coef * ub[j] };
            let residual = act - own;
            let implied = round_for(m, j, (c.rhs - residual) / coef, upper);
            if upper && implied < ub[j] - TOL {
                ub[j] = implied;
                tightened += 1;
            } else if !upper && implied > lb[j] + TOL {
                lb[j] = implied;
                tightened += 1;
            }
            if lb[j] > ub[j] + TOL {
                return None;
            }
        }
    }
    Some(tightened)
}

/// Bound propagation on working bound vectors, up to `rounds` sweeps: the
/// main pass's tightening without its row removal, which is what probing
/// needs. Returns `false` when a row proves infeasible under the bounds.
fn propagate(
    m: &Model,
    normalized: &[Vec<(usize, f64)>],
    alive: &[bool],
    lb: &mut [f64],
    ub: &mut [f64],
    rounds: usize,
) -> bool {
    for _ in 0..rounds {
        let mut changed = false;
        for (ci, c) in m.constraints.iter().enumerate() {
            if !alive[ci] {
                continue;
            }
            let (act_min, act_max) = activity(&normalized[ci], lb, ub);
            if infeasible(c, act_min, act_max) {
                return false;
            }
            match tighten(m, c, &normalized[ci], act_min, act_max, lb, ub) {
                Some(tightened) => changed |= tightened > 0,
                None => return false,
            }
        }
        if !changed {
            break;
        }
    }
    true
}

/// Rounds an implied bound inward for integer variables.
fn round_for(model: &Model, var: usize, value: f64, is_upper: bool) -> f64 {
    match model.vars[var].kind {
        VarKind::Integer | VarKind::Binary => {
            if is_upper {
                (value + 1e-9).floor()
            } else {
                (value - 1e-9).ceil()
            }
        }
        VarKind::Continuous => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Variable};
    use crate::solution::SolveOptions;

    #[test]
    fn singleton_row_tightens_bound() {
        // 2x <= 5 with x integer in [0, 10] -> x <= 2, row becomes redundant.
        let mut m = Model::new();
        let x = m.add_var(Variable::integer(0.0, 10.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (2.0, x), Rel::Le, 5.0));
        match presolve(&m) {
            PresolveOutcome::Reduced(r, stats) => {
                assert_eq!(r.vars()[0].upper(), 2.0);
                assert!(stats.tightened_bounds >= 1);
                assert_eq!(r.constraint_count(), 0, "tightened row is redundant");
            }
            PresolveOutcome::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn detects_infeasible_row() {
        let mut m = Model::new();
        let x = m.add_var(Variable::binary());
        let y = m.add_var(Variable::binary());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Ge, 3.0));
        assert!(matches!(presolve(&m), PresolveOutcome::Infeasible));
    }

    #[test]
    fn removes_redundant_rows() {
        let mut m = Model::new();
        let x = m.add_var(Variable::binary());
        let y = m.add_var(Variable::binary());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Le, 5.0));
        match presolve(&m) {
            PresolveOutcome::Reduced(r, stats) => {
                assert_eq!(r.constraint_count(), 0);
                assert_eq!(stats.removed_rows, 1);
            }
            PresolveOutcome::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn propagation_chains_across_rounds() {
        // x <= 3; y <= x - 1 (as y - x <= -1); z <= y (z - y <= 0):
        // bounds cascade to y <= 2, z <= 2.
        let mut m = Model::new();
        let x = m.add_var(Variable::integer(0.0, 100.0));
        let y = m.add_var(Variable::integer(0.0, 100.0));
        let z = m.add_var(Variable::integer(0.0, 100.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x), Rel::Le, 3.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, y) + (-1.0, x), Rel::Le, -1.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, z) + (-1.0, y), Rel::Le, 0.0));
        match presolve(&m) {
            PresolveOutcome::Reduced(r, stats) => {
                assert_eq!(r.vars()[0].upper(), 3.0);
                assert_eq!(r.vars()[1].upper(), 2.0);
                assert_eq!(r.vars()[2].upper(), 2.0);
                assert!(stats.rounds >= 2);
            }
            PresolveOutcome::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn preserves_solutions() {
        // Presolved and raw models give the same optimum on a knapsack.
        let mut m = Model::new();
        let vars: Vec<_> = (0..6).map(|_| m.add_var(Variable::binary())).collect();
        let weights = [3.0, 5.0, 7.0, 2.0, 4.0, 6.0];
        let values = [4.0, 6.0, 9.0, 2.0, 5.0, 7.0];
        m.add_constraint(Constraint::new(
            vars.iter().zip(weights).map(|(&v, w)| (w, v)).collect(),
            Rel::Le,
            12.0,
        ));
        m.maximize(vars.iter().zip(values).map(|(&v, c)| (c, v)).collect());
        let raw = m.solve(&SolveOptions::optimal()).unwrap();
        let reduced = match presolve(&m) {
            PresolveOutcome::Reduced(r, _) => r,
            PresolveOutcome::Infeasible => panic!("feasible model"),
        };
        let pre = reduced.solve(&SolveOptions::optimal()).unwrap();
        assert_eq!(raw.solution.unwrap().objective, pre.solution.unwrap().objective);
    }

    #[test]
    fn coefficient_tightening_shrinks_binary_coef() {
        // 3x + y <= 3.5, x binary, y in [0, 1]: others_max = 1, so the row
        // binds only through x and tightens to 0.5x + y <= 1 (same integer
        // set, strictly tighter LP relaxation).
        let mut m = Model::new();
        let x = m.add_var(Variable::binary());
        let y = m.add_var(Variable::continuous(0.0, 1.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (3.0, x) + (1.0, y), Rel::Le, 3.5));
        m.maximize(LinExpr::new() + (2.0, x) + (1.0, y));
        let raw = m.solve(&SolveOptions::optimal()).unwrap();
        match presolve(&m) {
            PresolveOutcome::Reduced(r, stats) => {
                assert!(stats.coef_tightened >= 1);
                assert_eq!(r.constraint_count(), 1);
                assert!((r.constraints[0].rhs - 1.0).abs() < 1e-9);
                let terms = r.constraints[0].expr.normalized();
                assert!((terms[0].1 - 0.5).abs() < 1e-9, "x coef tightened to 0.5");
                let pre = r.solve(&SolveOptions::optimal()).unwrap();
                assert_eq!(
                    raw.solution.unwrap().objective,
                    pre.solution.unwrap().objective,
                    "tightening must preserve the integer optimum"
                );
            }
            PresolveOutcome::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn probing_fixes_forced_binary() {
        // x + y <= 1 and x - y <= 0: fixing x = 1 forces y <= 0 and y >= 1,
        // so probing fixes x = 0. Single-row propagation cannot see this.
        let mut m = Model::new();
        let x = m.add_var(Variable::binary());
        let y = m.add_var(Variable::binary());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Le, 1.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (-1.0, y), Rel::Le, 0.0));
        match presolve(&m) {
            PresolveOutcome::Reduced(r, stats) => {
                assert!(stats.probed_fixings >= 1);
                assert_eq!(r.vars()[0].upper(), 0.0, "x fixed to 0 by probing");
            }
            PresolveOutcome::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn probing_detects_integer_infeasibility() {
        // x + y = 1 and x - y = 0 has only the fractional solution
        // x = y = 0.5; both probe values of x propagate to a contradiction.
        let mut m = Model::new();
        let x = m.add_var(Variable::binary());
        let y = m.add_var(Variable::binary());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Eq, 1.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (-1.0, y), Rel::Eq, 0.0));
        assert!(matches!(presolve(&m), PresolveOutcome::Infeasible));
    }

    #[test]
    fn probing_union_bounds_tighten() {
        // y >= 4x and y >= 4 - 4x: each probe value of x implies y >= 4, so
        // the union of the probe boxes lifts y's lower bound to 4 even
        // though neither row alone implies it.
        let mut m = Model::new();
        let x = m.add_var(Variable::binary());
        let y = m.add_var(Variable::integer(0.0, 10.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, y) + (-4.0, x), Rel::Ge, 0.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, y) + (4.0, x), Rel::Ge, 4.0));
        match presolve(&m) {
            PresolveOutcome::Reduced(r, _) => {
                assert_eq!(r.vars()[1].lower(), 4.0, "probing lifts y's lower bound");
            }
            PresolveOutcome::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn bounds_crossed_by_rounding_become_a_point() {
        // `0.1·x ≤ 0.3` and `0.3·x ≥ 0.9` both say `x = 3`, but the implied
        // bounds `0.3 / 0.1` and `0.9 / 0.3` round to adjacent doubles with
        // the lower one above the upper one.
        let (hi, lo) = (0.3f64 / 0.1, 0.9f64 / 0.3);
        assert!(lo > hi && lo <= hi + 1e-9, "the rows must cross by rounding only");
        let crossed = |ge_rhs: f64| {
            let mut m = Model::new();
            let x = m.add_var(Variable::continuous(0.0, 10.0));
            m.add_constraint(Constraint::new(LinExpr::new() + (0.1, x), Rel::Le, 0.3));
            m.add_constraint(Constraint::new(LinExpr::new() + (0.3, x), Rel::Ge, ge_rhs));
            presolve(&m)
        };
        match crossed(0.9) {
            PresolveOutcome::Reduced(r, _) => {
                let v = &r.vars()[0];
                assert_eq!(v.lower(), v.upper(), "a crossed pair is written back as a point");
                assert!((hi..=lo).contains(&v.lower()));
                assert!(r.validate().is_ok());
                let out = r.solve(&SolveOptions::optimal()).expect("solvable");
                assert!(out.status.has_solution(), "the point must be feasible");
            }
            PresolveOutcome::Infeasible => panic!("a crossing within tolerance is feasible"),
        }
        // A crossing wider than the tolerance still proves infeasibility.
        assert!(matches!(crossed(0.91), PresolveOutcome::Infeasible));
    }

    #[test]
    fn ge_rows_raise_lower_bounds() {
        // x + y >= 1.5 with y <= 0.3 -> x >= 1.2.
        let mut m = Model::new();
        let x = m.add_var(Variable::continuous(0.0, 10.0));
        let y = m.add_var(Variable::continuous(0.0, 0.3));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Ge, 1.5));
        match presolve(&m) {
            PresolveOutcome::Reduced(r, _) => {
                assert!((r.vars()[0].lower() - 1.2).abs() < 1e-9);
            }
            PresolveOutcome::Infeasible => panic!("feasible model"),
        }
    }
}
