//! Cutting planes for the MILP root: a deterministic cut pool fed by
//! knapsack cover/clique separation and Gomory mixed-integer rounds.
//!
//! Cuts are generated **only at the branch-and-bound root, against the
//! root's variable bounds**, so every cut is valid for the whole subtree
//! (children only tighten bounds). Three families:
//!
//! * **cover cuts** — from `≤`-rows whose support is all-binary with
//!   positive coefficients (the per-partition area-knapsack rows of the
//!   partitioning ILP): a greedy, LP-value-ordered minimal cover `C` with
//!   `Σ_{j∈C} a_j > b` yields `Σ_{j∈C} x_j ≤ |C| − 1`;
//! * **clique cuts** — from the same rows: the longest
//!   coefficient-descending prefix whose two smallest members still
//!   pairwise overflow the capacity is a conflict clique, `Σ x_j ≤ 1`;
//! * **Gomory mixed-integer cuts** — from tableau rows of fractional
//!   integer basics at the optimal root basis, with the full
//!   bounded-variable complementation (at-upper nonbasics enter through
//!   their displacement `u − x`) and slack substitution back into
//!   structural space, slacks conservatively treated as continuous.
//!
//! Everything is deterministic: rows are scanned in model order, ties
//! break on ascending variable index, candidates are ranked by exact
//! comparisons, and the pool dedups via exact bit-pattern keys. The pool
//! ages cuts that go slack at the current LP optimum and hands stale ones
//! back to the caller for removal (activity-based aging), keeping the
//! working LP small.

use crate::branch::LP_TOL;
use crate::model::{Constraint, LinExpr, Model, Rel, VarId, VarKind};
use crate::simplex::{fractional_rows, Basis, LpMatrix};
use std::collections::BTreeSet;

/// Hard cap on pool size: separation stops adding once this many cuts are
/// active, keeping the working LP rows bounded.
pub(crate) const MAX_POOL_CUTS: usize = 64;
/// Tableau rows inspected per Gomory round.
const MAX_GOMORY_PER_ROUND: usize = 8;
/// Rounds a cut may sit slack at the LP optimum before it is dropped.
const CUT_AGE_LIMIT: u32 = 3;
/// Minimum violation at the separating LP point for a cut to be kept.
const MIN_VIOLATION: f64 = 1e-6;
/// Reject cuts whose kept coefficients span a wider dynamic range.
const MAX_COEF_RANGE: f64 = 1e7;
/// Gomory rows whose fractional part falls outside `[f0, 1-f0]` of this
/// are skipped as numerically fragile.
const GOMORY_FRAC_MIN: f64 = 0.05;

/// One pooled cutting plane over the structural variables.
#[derive(Debug, Clone)]
pub(crate) struct Cut {
    /// Export name, `cut_<family>_<seq>`.
    pub name: String,
    /// `(structural var index, coefficient)`, ascending, merged.
    pub terms: Vec<(usize, f64)>,
    /// Row relation.
    pub rel: Rel,
    /// Right-hand side.
    pub rhs: f64,
    /// Consecutive LP optima at which this cut was slack.
    pub age: u32,
}

impl Cut {
    /// Left-hand-side activity at the structural point `x`.
    pub fn activity(&self, x: &[f64]) -> f64 {
        self.terms.iter().map(|&(j, c)| c * x[j]).sum()
    }

    /// Slack at `x`: how far inside the cut the point sits (non-negative
    /// when satisfied with room, for both relations).
    pub fn slack(&self, x: &[f64]) -> f64 {
        match self.rel {
            Rel::Le => self.rhs - self.activity(x),
            Rel::Ge => self.activity(x) - self.rhs,
            Rel::Eq => -(self.activity(x) - self.rhs).abs(),
        }
    }

    /// The cut as a model constraint.
    pub fn to_constraint(&self) -> Constraint {
        let expr: LinExpr = self.terms.iter().map(|&(j, c)| (c, VarId(j))).collect();
        Constraint::new(expr, self.rel, self.rhs).with_name(self.name.clone())
    }
}

/// What one separation round produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SeparationResult {
    /// Gomory mixed-integer cuts added.
    pub gomory: usize,
    /// Cover + clique cuts added.
    pub knapsack: usize,
}

impl SeparationResult {
    /// Total cuts added this round.
    pub fn total(&self) -> usize {
        self.gomory + self.knapsack
    }
}

/// Exact dedup key: relation tag, rhs bits, term bits.
type CutKey = (u8, u64, Vec<(usize, u64)>);

/// The root cut pool: active cuts plus lifetime counters.
#[derive(Debug, Default)]
pub(crate) struct CutPool {
    cuts: Vec<Cut>,
    /// Cuts generated over the pool's lifetime (dropped ones included).
    pub generated: usize,
    seen: BTreeSet<CutKey>,
    seq: usize,
}

impl CutPool {
    pub fn new() -> Self {
        CutPool::default()
    }

    /// Active cuts, in working-model row order (base rows first).
    pub fn cuts(&self) -> &[Cut] {
        &self.cuts
    }

    /// Number of currently active cuts.
    pub fn active(&self) -> usize {
        self.cuts().len()
    }

    /// Appends every active cut to `model` as a named `cut_*` row.
    pub fn append_rows(&self, model: &mut Model) {
        for cut in &self.cuts {
            model.add_constraint(cut.to_constraint());
        }
    }

    fn key(terms: &[(usize, f64)], rel: Rel, rhs: f64) -> CutKey {
        let tag = match rel {
            Rel::Le => 0u8,
            Rel::Ge => 1,
            Rel::Eq => 2,
        };
        (tag, rhs.to_bits(), terms.iter().map(|&(j, c)| (j, c.to_bits())).collect())
    }

    /// Normalizes, validates, and dedups a candidate cut; returns `true`
    /// if it entered the pool. `x` is the structural LP point the cut must
    /// separate.
    fn try_add(
        &mut self,
        family: &str,
        mut terms: Vec<(usize, f64)>,
        rel: Rel,
        rhs: f64,
        x: &[f64],
    ) -> bool {
        if self.cuts.len() >= MAX_POOL_CUTS {
            return false;
        }
        terms.sort_by_key(|&(j, _)| j);
        terms.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 += b.1;
                true
            } else {
                false
            }
        });
        terms.retain(|&(_, c)| c.abs() > 1e-10);
        if terms.is_empty() || !rhs.is_finite() {
            return false;
        }
        let mut max_c = 0.0f64;
        let mut min_c = f64::INFINITY;
        for &(_, c) in &terms {
            let a = c.abs();
            if a > max_c {
                max_c = a;
            }
            if a < min_c {
                min_c = a;
            }
        }
        if max_c / min_c > MAX_COEF_RANGE || max_c > 1e8 {
            return false;
        }
        let cut = Cut { name: String::new(), terms, rel, rhs, age: 0 };
        if cut.slack(x) > -MIN_VIOLATION {
            return false; // not violated at the LP point: useless here
        }
        let key = Self::key(&cut.terms, cut.rel, cut.rhs);
        if !self.seen.insert(key) {
            return false;
        }
        let mut cut = cut;
        cut.name = format!("cut_{family}_{}", self.seq);
        self.seq += 1;
        self.cuts.push(cut);
        self.generated += 1;
        rtr_trace::status::board().add(rtr_trace::Metric::IlpCuts, 1);
        true
    }

    /// One deterministic separation round against the structural LP point
    /// `x` and the optimal `basis` of the current working model.
    ///
    /// `base` is the **original** model (knapsack separation scans only its
    /// rows, never cut rows); `work` is the current working model (base
    /// plus active cuts) that `basis` belongs to, and `matrix` is its LP
    /// matrix; `root_bounds` are the root's integer-rounded bounds, making
    /// every derived cut globally valid for the subtree.
    pub fn separate(
        &mut self,
        base: &Model,
        work: &Model,
        matrix: &LpMatrix,
        root_bounds: &[(f64, f64)],
        basis: &Basis,
        x: &[f64],
    ) -> SeparationResult {
        let knapsack = self.separate_knapsack(base, x);
        let gomory = self.separate_gomory(work, matrix, root_bounds, basis, x);
        SeparationResult { gomory, knapsack }
    }

    /// Cover and clique cuts from all-binary positive `≤`-rows of `base`.
    fn separate_knapsack(&mut self, base: &Model, x: &[f64]) -> usize {
        let mut added = 0usize;
        for c in &base.constraints {
            if c.rel != Rel::Le || !c.rhs.is_finite() {
                continue;
            }
            let terms = c.expr.normalized();
            if terms.len() < 2 {
                continue;
            }
            let mut items: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
            let mut ok = true;
            for (v, coef) in &terms {
                let j = v.index();
                if coef <= &0.0 || base.vars[j].kind != VarKind::Binary {
                    ok = false;
                    break;
                }
                items.push((j, *coef));
            }
            if !ok || items.iter().map(|&(_, a)| a).sum::<f64>() <= c.rhs {
                continue;
            }

            // Cover: greedily take items by LP value (desc), coefficient
            // (desc), index (asc) until the capacity overflows, then peel
            // back to a minimal cover.
            let mut by_value = items.clone();
            by_value.sort_by(|a, b| {
                x[b.0]
                    .partial_cmp(&x[a.0])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal))
                    .then(a.0.cmp(&b.0))
            });
            let mut cover: Vec<(usize, f64)> = Vec::new();
            let mut weight = 0.0f64;
            for &(j, a) in &by_value {
                cover.push((j, a));
                weight += a;
                if weight > c.rhs + 1e-9 {
                    break;
                }
            }
            if weight > c.rhs + 1e-9 {
                // Minimality: drop heavy items that are not needed, largest
                // coefficient first (index-tiebroken), keeping a cover.
                let mut order: Vec<usize> = (0..cover.len()).collect();
                order.sort_by(|&p, &q| {
                    cover[q]
                        .1
                        .partial_cmp(&cover[p].1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(cover[p].0.cmp(&cover[q].0))
                });
                let mut keep = vec![true; cover.len()];
                for &p in &order {
                    if weight - cover[p].1 > c.rhs + 1e-9 {
                        keep[p] = false;
                        weight -= cover[p].1;
                    }
                }
                let cover: Vec<(usize, f64)> =
                    cover.iter().zip(&keep).filter(|(_, &k)| k).map(|(&it, _)| it).collect();
                let rhs = cover.len() as f64 - 1.0;
                let cut_terms: Vec<(usize, f64)> = cover.iter().map(|&(j, _)| (j, 1.0)).collect();
                if self.try_add("cover", cut_terms, Rel::Le, rhs, x) {
                    added += 1;
                }
            }

            // Clique: sort by coefficient descending; the longest prefix
            // whose two smallest members together overflow the capacity is
            // pairwise conflicting.
            let mut by_coef = items.clone();
            by_coef.sort_by(|a, b| {
                b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
            });
            let mut k = 0usize;
            for len in 2..=by_coef.len() {
                if by_coef[len - 2].1 + by_coef[len - 1].1 > c.rhs + 1e-9 {
                    k = len;
                } else {
                    break;
                }
            }
            if k >= 2 {
                let cut_terms: Vec<(usize, f64)> =
                    by_coef[..k].iter().map(|&(j, _)| (j, 1.0)).collect();
                if self.try_add("clique", cut_terms, Rel::Le, 1.0, x) {
                    added += 1;
                }
            }
        }
        added
    }

    /// Gomory mixed-integer cuts from fractional integer basics of the
    /// working model's optimal basis, read off the tableau at the branch
    /// and bound LP tolerance.
    fn separate_gomory(
        &mut self,
        work: &Model,
        matrix: &LpMatrix,
        root_bounds: &[(f64, f64)],
        basis: &Basis,
        x: &[f64],
    ) -> usize {
        let n = work.vars.len();
        let mut is_int = vec![false; n];
        for (j, v) in work.vars.iter().enumerate() {
            is_int[j] = matches!(v.kind, VarKind::Integer | VarKind::Binary);
        }
        let Some(snap) = fractional_rows(
            matrix,
            Some(root_bounds),
            basis,
            LP_TOL,
            &is_int,
            MAX_GOMORY_PER_ROUND,
        ) else {
            return 0;
        };
        let mut added = 0usize;
        'rows: for row in &snap.rows {
            let b = row.rhs;
            let f0 = b - b.floor();
            if !(GOMORY_FRAC_MIN..=1.0 - GOMORY_FRAC_MIN).contains(&f0) {
                continue;
            }
            // Per nonbasic column: complement to its displacement from the
            // bound it sits at, apply the GMI coefficient, and record the
            // cut in column space.
            let mut col_coef: Vec<(usize, f64)> = Vec::with_capacity(row.coeffs.len());
            let mut rhs = f0;
            for &(j, a) in &row.coeffs {
                let at_upper = snap.at_upper[j];
                let (bound, c) = if at_upper {
                    // x_j = u_j - y_j, y_j >= 0: coefficient flips.
                    (snap.ub[j], -a)
                } else if snap.lb[j].is_finite() {
                    (snap.lb[j], a)
                } else {
                    // Free nonbasic: GMI needs a one-sided displacement.
                    continue 'rows;
                };
                if !bound.is_finite() {
                    continue 'rows;
                }
                // Integer displacement only when the variable is integer
                // AND the bound it is complemented against is integral.
                let integral = j < snap.n && is_int[j] && bound.fract() == 0.0;
                let g = if integral {
                    let fj = c - c.floor();
                    if fj <= f0 {
                        fj
                    } else {
                        f0 * (1.0 - fj) / (1.0 - f0)
                    }
                } else if c >= 0.0 {
                    c
                } else {
                    f0 * (-c) / (1.0 - f0)
                };
                if g == 0.0 {
                    continue;
                }
                // Substitute the displacement back: y = x - l or y = u - x.
                if at_upper {
                    col_coef.push((j, -g));
                    rhs -= g * bound;
                } else {
                    col_coef.push((j, g));
                    rhs += g * bound;
                }
            }
            // Substitute slacks out via their row definitions:
            // s_i = rhs_i - Σ a_ik x_k  (rows are  a·x + s = rhs).
            let mut terms: Vec<(usize, f64)> = Vec::new();
            for &(j, coef) in &col_coef {
                if j < snap.n {
                    terms.push((j, coef));
                } else {
                    let c = &work.constraints[j - snap.n];
                    rhs -= coef * c.rhs;
                    for (v, a) in c.expr.normalized() {
                        terms.push((v.index(), -coef * a));
                    }
                }
            }
            if self.try_add("gomory", terms, Rel::Ge, rhs, x) {
                added += 1;
            }
        }
        added
    }

    /// Ages every active cut against the structural LP point `x`
    /// (slack ⇒ `age += 1`, tight ⇒ `age = 0`) and returns the indices of
    /// cuts past the age limit, ascending.
    pub fn age_cuts(&mut self, x: &[f64]) -> Vec<usize> {
        let mut stale = Vec::new();
        for (i, cut) in self.cuts.iter_mut().enumerate() {
            if cut.slack(x) > 1e-6 {
                cut.age += 1;
            } else {
                cut.age = 0;
            }
            if cut.age >= CUT_AGE_LIMIT {
                stale.push(i);
            }
        }
        stale
    }

    /// Removes the cuts at `indices` (ascending, as returned by
    /// [`CutPool::age_cuts`], possibly filtered by the caller).
    pub fn remove(&mut self, indices: &[usize]) {
        for &i in indices.iter().rev() {
            self.cuts.remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Variable;
    use crate::simplex::solve_lp;

    const TOL: f64 = 1e-7;

    fn root_bounds(m: &Model) -> Vec<(f64, f64)> {
        m.vars.iter().map(crate::model::effective_bounds).collect()
    }

    /// Brute-force every binary point of `m`; every feasible one must
    /// satisfy every pooled cut (cut validity).
    fn assert_cuts_valid_on_binaries(m: &Model, pool: &CutPool) {
        let n = m.vars.len();
        assert!(n <= 16, "brute force only for small models");
        for mask in 0..(1u32 << n) {
            let point: Vec<f64> =
                (0..n).map(|j| if mask & (1 << j) != 0 { 1.0 } else { 0.0 }).collect();
            if !m.is_feasible_point(&point, 1e-6) {
                continue;
            }
            for cut in pool.cuts() {
                assert!(
                    cut.slack(&point) >= -1e-6,
                    "cut {} cuts off feasible point {point:?}",
                    cut.name
                );
            }
        }
    }

    #[test]
    fn cover_cut_separates_fractional_knapsack() {
        // max 3x0+4x1+5x2 s.t. 3x0+4x1+5x2 <= 6, binaries. LP relaxation is
        // fractional; the cover {x1, x2} (4+5 > 6) must be found.
        let mut m = Model::new();
        let v: Vec<_> = (0..3).map(|_| m.add_var(Variable::binary())).collect();
        m.add_constraint(Constraint::new(
            LinExpr::new() + (3.0, v[0]) + (4.0, v[1]) + (5.0, v[2]),
            Rel::Le,
            6.0,
        ));
        m.maximize(LinExpr::new() + (3.0, v[0]) + (4.0, v[1]) + (5.0, v[2]));
        let lp = solve_lp(&m, None, TOL, 0).unwrap();
        let mut pool = CutPool::new();
        let added = pool.separate_knapsack(&m, &lp.values);
        assert!(added >= 1, "expected at least one knapsack cut");
        assert!(pool.cuts().iter().any(|c| c.name.starts_with("cut_")));
        assert_cuts_valid_on_binaries(&m, &pool);
        // At least one cut must be violated at the LP point (try_add
        // guarantees it, but assert the contract anyway).
        assert!(pool.cuts().iter().any(|c| c.slack(&lp.values) < -1e-7));
    }

    #[test]
    fn clique_cut_from_pairwise_conflicts() {
        // Any two of {5,6,7} overflow 10: a 3-clique. LP point (which puts
        // total "weight" 10 fractionally) violates x0+x1+x2 <= 1.
        let mut m = Model::new();
        let v: Vec<_> = (0..3).map(|_| m.add_var(Variable::binary())).collect();
        m.add_constraint(Constraint::new(
            LinExpr::new() + (5.0, v[0]) + (6.0, v[1]) + (7.0, v[2]),
            Rel::Le,
            10.0,
        ));
        m.maximize(LinExpr::new() + (1.0, v[0]) + (1.0, v[1]) + (1.0, v[2]));
        let lp = solve_lp(&m, None, TOL, 0).unwrap();
        let mut pool = CutPool::new();
        pool.separate_knapsack(&m, &lp.values);
        let clique = pool.cuts().iter().find(|c| c.name.starts_with("cut_clique"));
        let clique = clique.expect("clique cut expected");
        assert_eq!(clique.terms.len(), 3);
        assert_eq!(clique.rhs, 1.0);
        assert_cuts_valid_on_binaries(&m, &pool);
    }

    #[test]
    fn gomory_cut_is_valid_and_violated() {
        // max x + y s.t. 2x + 3y <= 12, 4x + y <= 10, integers >= 0.
        // LP optimum is fractional -> a GMI cut must separate it.
        let mut m = Model::new();
        let x = m.add_var(Variable::integer(0.0, 10.0));
        let y = m.add_var(Variable::integer(0.0, 10.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (2.0, x) + (3.0, y), Rel::Le, 12.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (4.0, x) + (1.0, y), Rel::Le, 10.0));
        m.maximize(LinExpr::new() + (1.0, x) + (1.0, y));
        let lp = solve_lp(&m, None, TOL, 0).unwrap();
        let frac = lp.values.iter().any(|v| (v - v.round()).abs() > 1e-6);
        assert!(frac, "fixture must have a fractional LP optimum: {:?}", lp.values);
        let bounds = root_bounds(&m);
        let basis = lp.basis.clone().unwrap();
        let mut pool = CutPool::new();
        let added = pool.separate_gomory(&m, &LpMatrix::new(&m), &bounds, &basis, &lp.values);
        assert!(added >= 1, "expected a Gomory cut");
        // Validity: every integer point in the box that satisfies the rows
        // must satisfy every cut.
        for xi in 0..=10i32 {
            for yi in 0..=10i32 {
                let p = [f64::from(xi), f64::from(yi)];
                if !m.is_feasible_point(&p, 1e-6) {
                    continue;
                }
                for cut in pool.cuts() {
                    assert!(
                        cut.slack(&p) >= -1e-6,
                        "cut {} cuts off integer point {p:?}",
                        cut.name
                    );
                }
            }
        }
        assert!(pool.cuts().iter().any(|c| c.slack(&lp.values) < -1e-7));
    }

    #[test]
    fn pool_dedups_and_ages() {
        let mut m = Model::new();
        let v: Vec<_> = (0..3).map(|_| m.add_var(Variable::binary())).collect();
        m.add_constraint(Constraint::new(
            LinExpr::new() + (3.0, v[0]) + (4.0, v[1]) + (5.0, v[2]),
            Rel::Le,
            6.0,
        ));
        m.maximize(LinExpr::new() + (3.0, v[0]) + (4.0, v[1]) + (5.0, v[2]));
        let lp = solve_lp(&m, None, TOL, 0).unwrap();
        let mut pool = CutPool::new();
        let first = pool.separate_knapsack(&m, &lp.values);
        assert!(first >= 1);
        let again = pool.separate_knapsack(&m, &lp.values);
        assert_eq!(again, 0, "identical round must dedup to nothing");
        assert_eq!(pool.generated, pool.active());

        // A point deep inside every cut ages them out after 3 rounds.
        let inside = vec![0.0; 3];
        assert!(pool.age_cuts(&inside).is_empty());
        assert!(pool.age_cuts(&inside).is_empty());
        let stale = pool.age_cuts(&inside);
        assert_eq!(stale.len(), pool.active());
        let active_before = pool.active();
        pool.remove(&stale);
        assert_eq!(pool.active(), 0);
        assert_eq!(pool.generated, active_before, "generated counts dropped cuts too");
    }

    #[test]
    fn cut_rows_append_with_cut_names() {
        let mut m = Model::new();
        let v: Vec<_> = (0..3).map(|_| m.add_var(Variable::binary())).collect();
        m.add_constraint(Constraint::new(
            LinExpr::new() + (5.0, v[0]) + (6.0, v[1]) + (7.0, v[2]),
            Rel::Le,
            10.0,
        ));
        m.maximize(LinExpr::new() + (1.0, v[0]) + (1.0, v[1]) + (1.0, v[2]));
        let lp = solve_lp(&m, None, TOL, 0).unwrap();
        let mut pool = CutPool::new();
        pool.separate_knapsack(&m, &lp.values);
        assert!(pool.active() >= 1);
        let base_rows = m.constraints.len();
        let mut work = m.clone();
        pool.append_rows(&mut work);
        assert_eq!(work.constraints.len(), base_rows + pool.active());
        for (c, cut) in work.constraints[base_rows..].iter().zip(pool.cuts()) {
            assert_eq!(c.name.as_deref(), Some(cut.name.as_str()));
        }
    }
}
