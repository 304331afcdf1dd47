//! Sparse revised bounded-variable simplex with warm-started re-solves.
//!
//! The solver keeps the classic bounded-variable method of the original
//! dense-tableau implementation — slack columns encode the row relations,
//! infeasible basics are driven home by a *composite phase 1* (piecewise
//! infeasibility costs in `{-1, 0, +1}`, no artificial columns), nonbasic
//! variables may *bound-flip* without a basis change, and devex pricing
//! switches to Bland's rule after a run of degenerate pivots — but replaces
//! the `m × (n + m)` tableau with a *revised* formulation:
//!
//! * the constraint matrix `[A | I]` is stored once per model in compressed
//!   sparse column (CSC) form and never modified: branch and bound builds
//!   it once per tree, and every node LP borrows it and copies only its
//!   bound box;
//! * the basis inverse is represented as a product-form *eta file*: every
//!   pivot appends one elementary eta matrix, and `B⁻¹v` / `yᵀB⁻¹` are
//!   computed by [`ftran`] / [`btran`] sweeps over the file;
//! * the file is rebuilt from the basis columns (with partial pivoting)
//!   every [`REFACTOR_INTERVAL`] pivots, which bounds both fill-in and
//!   numerical drift; basic values are recomputed from scratch at each
//!   refactorization.
//!
//! On top of this sits the warm-start API used by branch and bound and by
//! the paper's binary-subdivision loop, whose successive solves differ only
//! in variable bounds or a single latency RHS:
//!
//! * [`solve_lp`] returns the optimal [`Basis`] (column statuses plus the
//!   row → column assignment);
//! * [`resolve_lp`] re-solves from a parent basis: bound/RHS changes leave
//!   the parent basis *dual feasible*, so a **dual simplex** drives the few
//!   newly infeasible basics out — typically one pivot per branching
//!   decision instead of a full cold solve;
//! * inside branch and bound a parent basis carries its factorization: the
//!   first LP that installs it factorizes it, and the node's other
//!   strong-branch probes and children copy that eta file. A factorization
//!   depends only on the set of basic columns and the matrix, so the copy
//!   is bit-identical to a fresh one;
//! * any trouble (stale basis, singular refactorization, dual stall or
//!   budget overrun) falls back to a cold primal solve, so a warm entry can
//!   never produce a different status or objective than a cold one.
//!
//! **Zero dual prices.** When every basic column's cost is zero, the
//! multipliers `y = c_B B⁻¹` are exactly zero and each reduced cost is the
//! column's own cost, so pricing skips the BTRAN and the `y·a_j` products.
//! This is exact, not an approximation: the skipped products could only
//! yield signed zeros, and no pricing decision looks at a zero's sign. The
//! check runs on every iteration from the current basis, so a model with an
//! objective still prices whenever a costed column is basic. Feasibility
//! models, which have no objective, price only in phase 1, whose basic
//! costs are ±1.

use crate::error::MilpError;
use crate::model::{effective_bounds, LinExpr, Model, Rel, Sense};
use std::cell::OnceCell;
use std::time::Instant;

/// Ratio-test pivots smaller than this are skipped as numerically unsafe.
const PIV_EPS: f64 = 1e-9;
/// Refactorization declares the basis singular below this pivot magnitude.
const SING_EPS: f64 = 1e-10;
/// Degenerate-pivot run length that triggers Bland's anti-cycling rule.
const BLAND_AFTER: usize = 60;
/// Pivots between basis refactorizations.
const REFACTOR_INTERVAL: usize = 64;
/// Dual pivots without primal-infeasibility progress before the warm solve
/// gives up and falls back to a cold primal.
const DUAL_STALL_LIMIT: usize = 1000;
/// Devex reference weights above this trigger a framework
/// reset (all weights back to 1, counted in `LpOutcome::devex_resets`).
const DEVEX_RESET_LIMIT: f64 = 1e7;
/// Row count below which eta factors always stay sparse: the dense kernel
/// only pays off when a contiguous sweep amortizes its setup.
const DENSE_ETA_MIN_M: usize = 64;
/// An eta factor whose off-pivot fill reaches `m / DENSE_ETA_FRAC` is stored
/// as a dense block.
const DENSE_ETA_FRAC: usize = 4;

/// Status of an LP relaxation solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// A wall-clock deadline fired mid-solve; no conclusion was reached.
    Interrupted,
}

/// Position of a column (structural variable or row slack) relative to the
/// current basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarStatus {
    /// In the basis; its value is determined by the constraint system.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free variable parked at zero.
    Free,
}

/// A simplex basis snapshot: enough to warm-start a re-solve after bound or
/// right-hand-side changes.
///
/// Columns are indexed structurals-first: `0..n` are the model's variables,
/// `n..n+m` the row slacks. The row → column assignment in `order` is
/// advisory — [`resolve_lp`] refactorizes on entry and may re-pair rows —
/// but the *set* of basic columns is what carries the warm-start value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Status of every column (`n` structurals followed by `m` slacks).
    pub statuses: Vec<VarStatus>,
    /// `order[i]` is the column basic in row `i`.
    pub order: Vec<usize>,
}

/// Result of an LP relaxation solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LpOutcome {
    /// Why the solve stopped.
    pub status: LpStatus,
    /// Values of the structural variables (empty unless `Optimal`).
    pub values: Vec<f64>,
    /// Objective value in the model's original sense (0 unless `Optimal`).
    pub objective: f64,
    /// Simplex iterations performed (including any warm attempt that fell
    /// back to a cold solve).
    pub iterations: usize,
    /// The optimal basis, present iff `status` is [`LpStatus::Optimal`].
    pub basis: Option<Basis>,
    /// Basis factorizations performed. A factorization copied from a basis
    /// that an earlier LP already factorized counts as none.
    pub refactorizations: usize,
    /// Devex reference-framework resets performed.
    pub devex_resets: usize,
    /// `true` if the solve ran from a supplied warm basis without falling
    /// back to a cold start.
    pub warm: bool,
}

/// Header of one elementary (eta) factor: pivot position plus where its
/// off-pivot entries live in the [`EtaFile`] arenas.
#[derive(Debug, Clone, Copy)]
struct EtaHead {
    r: u32,
    pivot: f64,
    start: u32,
    len: u32,
    dense: bool,
}

/// The product-form basis inverse as a flat arena of eta factors.
///
/// Instead of one `Vec<(usize, f64)>` allocation per factor, all sparse
/// entries share two contiguous arenas (`sp_rows`/`sp_vals`) and factors
/// whose fill crosses a sparsity threshold (`len ≥ m / DENSE_ETA_FRAC`,
/// `m ≥ DENSE_ETA_MIN_M`) are stored as full dense `m`-blocks in `dn_vals`.
/// The FTRAN/BTRAN hot loops over a dense block are straight-line sweeps
/// over contiguous `f64` slices — exactly the shape the autovectorizer
/// handles without any explicit SIMD — while near-empty factors keep the
/// cheap sparse path. The representation of each factor is a pure function
/// of its contents, so runs remain bit-identical.
#[derive(Debug, Clone, Default)]
struct EtaFile {
    m: usize,
    heads: Vec<EtaHead>,
    sp_rows: Vec<u32>,
    sp_vals: Vec<f64>,
    dn_vals: Vec<f64>,
}

impl EtaFile {
    fn new(m: usize) -> Self {
        EtaFile {
            m,
            heads: Vec::new(),
            sp_rows: Vec::new(),
            sp_vals: Vec::new(),
            dn_vals: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.heads.len()
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.sp_rows.clear();
        self.sp_vals.clear();
        self.dn_vals.clear();
    }

    /// Appends the eta for a pivot on row `r` of the ftran'd column `w`,
    /// skipping exact identity factors (slack self-pivots).
    fn push(&mut self, r: usize, w: &[f64]) {
        let nnz = w.iter().enumerate().filter(|&(i, &v)| i != r && v != 0.0).count();
        if nnz == 0 && w[r] == 1.0 {
            return;
        }
        let dense = self.m >= DENSE_ETA_MIN_M && nnz * DENSE_ETA_FRAC >= self.m;
        if dense {
            let start = self.dn_vals.len();
            self.dn_vals.extend_from_slice(w);
            self.dn_vals[start + r] = 0.0;
            self.heads.push(EtaHead {
                r: r as u32,
                pivot: w[r],
                start: start as u32,
                len: self.m as u32,
                dense: true,
            });
        } else {
            let start = self.sp_rows.len();
            for (i, &v) in w.iter().enumerate() {
                if i != r && v != 0.0 {
                    self.sp_rows.push(i as u32);
                    self.sp_vals.push(v);
                }
            }
            self.heads.push(EtaHead {
                r: r as u32,
                pivot: w[r],
                start: start as u32,
                len: nnz as u32,
                dense: false,
            });
        }
    }

    /// Applies the eta file forward: `v ← B⁻¹ v`.
    fn ftran(&self, v: &mut [f64]) {
        for h in &self.heads {
            let r = h.r as usize;
            let t = v[r];
            if t == 0.0 {
                continue;
            }
            let t = t / h.pivot;
            if h.dense {
                let blk = &self.dn_vals[h.start as usize..h.start as usize + self.m];
                for (vi, wi) in v.iter_mut().zip(blk) {
                    *vi -= wi * t;
                }
            } else {
                let s = h.start as usize;
                let e = s + h.len as usize;
                for (&i, &w) in self.sp_rows[s..e].iter().zip(&self.sp_vals[s..e]) {
                    v[i as usize] -= w * t;
                }
            }
            v[r] = t;
        }
    }

    /// Applies the eta file in reverse: `vᵀ ← vᵀ B⁻¹`.
    fn btran(&self, v: &mut [f64]) {
        for h in self.heads.iter().rev() {
            let r = h.r as usize;
            let mut t = v[r];
            if h.dense {
                let blk = &self.dn_vals[h.start as usize..h.start as usize + self.m];
                let mut acc = 0.0f64;
                for (vi, wi) in v.iter().zip(blk) {
                    acc += vi * wi;
                }
                t -= acc;
            } else {
                let s = h.start as usize;
                let e = s + h.len as usize;
                for (&i, &w) in self.sp_rows[s..e].iter().zip(&self.sp_vals[s..e]) {
                    t -= v[i as usize] * w;
                }
            }
            v[r] = t / h.pivot;
        }
    }
}

/// Outcome of a dual-simplex warm attempt.
enum DualRun {
    /// The dual loop reached a conclusion.
    Finished(LpOutcome),
    /// Numerical trouble, stall, or budget overrun: restart cold.
    Fallback,
}

/// What one model fixes for every LP over it: the CSC matrix `[A | I]`,
/// the right-hand sides, the default column bounds (the variables'
/// effective bounds, then each row's slack bounds) and the phase-2 costs.
///
/// Branch and bound builds it once per tree, and again only when a root
/// cut round changes the working model. Node LPs, strong-branch probes,
/// cold fallbacks and tableau extraction borrow it and copy only their own
/// bound box.
pub(crate) struct LpMatrix {
    n: usize,
    m: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    col_val: Vec<f64>,
    b: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    cost: Vec<f64>,
    objective: LinExpr,
}

impl LpMatrix {
    pub(crate) fn new(model: &Model) -> Self {
        let n = model.vars.len();
        let m = model.constraints.len();
        let total = n + m;

        let mut lb = vec![0.0f64; total];
        let mut ub = vec![0.0f64; total];
        for (j, v) in model.vars.iter().enumerate() {
            (lb[j], ub[j]) = effective_bounds(v);
        }
        for (i, c) in model.constraints.iter().enumerate() {
            let (lo, hi) = match c.rel {
                Rel::Le => (0.0, f64::INFINITY),
                Rel::Ge => (f64::NEG_INFINITY, 0.0),
                Rel::Eq => (0.0, 0.0),
            };
            lb[n + i] = lo;
            ub[n + i] = hi;
        }

        let sign = match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut cost = vec![0.0f64; total];
        for (v, c) in model.objective.normalized() {
            cost[v.index()] = sign * c;
        }

        // CSC of [A | I]: structural entries gathered per column, then one
        // unit entry per slack.
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        let mut b = vec![0.0f64; m];
        for (i, c) in model.constraints.iter().enumerate() {
            for (v, coeff) in c.expr.normalized() {
                entries.push((v.index(), i, coeff));
            }
            b[i] = c.rhs;
        }
        entries.sort_by_key(|e| (e.0, e.1));
        let mut col_ptr = vec![0usize; total + 1];
        let mut row_idx = Vec::with_capacity(entries.len() + m);
        let mut col_val = Vec::with_capacity(entries.len() + m);
        let mut cursor = 0usize;
        for (j, ptr) in col_ptr.iter_mut().enumerate().take(total) {
            *ptr = row_idx.len();
            if j < n {
                while cursor < entries.len() && entries[cursor].0 == j {
                    row_idx.push(entries[cursor].1);
                    col_val.push(entries[cursor].2);
                    cursor += 1;
                }
            } else {
                row_idx.push(j - n);
                col_val.push(1.0);
            }
        }
        col_ptr[total] = row_idx.len();

        LpMatrix {
            n,
            m,
            col_ptr,
            row_idx,
            col_val,
            b,
            lb,
            ub,
            cost,
            objective: model.objective.clone(),
        }
    }

    fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[s..e], &self.col_val[s..e])
    }
}

/// The factorization of a basis: its eta file and the row → column pairing
/// the factorization chose.
#[derive(Debug, Clone)]
struct Factor {
    etas: EtaFile,
    order: Vec<usize>,
}

/// A basis shared by every LP warm-started from it (a node's strong-branch
/// probes and both its children), with a slot for its factorization.
///
/// The first install factorizes the basis and fills the slot; later
/// installs copy the eta file and row pairing instead. A factorization
/// depends only on the set of basic columns and the matrix, so the copy is
/// bit-identical to a fresh one. A failed factorization is never stored.
pub(crate) struct SharedBasis {
    pub(crate) basis: Basis,
    factor: OnceCell<Factor>,
}

impl SharedBasis {
    pub(crate) fn new(basis: Basis) -> Self {
        SharedBasis { basis, factor: OnceCell::new() }
    }
}

/// FNV-1a over a basis's row → column pairing: the `milp.warm_basis`
/// failpoint key, so each installed basis trips independently.
fn basis_key(order: &[usize]) -> u64 {
    order
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &c| (h ^ c as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Revised-simplex working state over a borrowed [`LpMatrix`].
struct Solver<'a> {
    mat: &'a LpMatrix,
    n: usize,
    m: usize,
    total: usize,
    lb: Vec<f64>,
    ub: Vec<f64>,
    x: Vec<f64>,
    at_upper: Vec<bool>,
    is_basic: Vec<bool>,
    order: Vec<usize>,
    etas: EtaFile,
    pivots_since_refactor: usize,
    refactorizations: usize,
    /// `true` once the installed basis's factorization was copied from its
    /// slot rather than computed (and so not counted in `refactorizations`).
    copied_factor: bool,
    iterations: usize,
    devex_resets: usize,
    tol: f64,
}

impl<'a> Solver<'a> {
    /// Copies the matrix's bound box, with the structural bounds replaced
    /// by `bounds_override` if given. `None` when an override crosses a
    /// variable's bounds: the LP is trivially infeasible.
    fn new(mat: &'a LpMatrix, bounds_override: Option<&[(f64, f64)]>, tol: f64) -> Option<Self> {
        let (n, m) = (mat.n, mat.m);
        let total = n + m;
        let mut lb = mat.lb.clone();
        let mut ub = mat.ub.clone();
        if let Some(bounds) = bounds_override {
            for ((lo, hi), &bound) in lb.iter_mut().zip(ub.iter_mut()).zip(&bounds[..n]) {
                (*lo, *hi) = bound;
            }
        }
        if lb[..n].iter().zip(&ub[..n]).any(|(lo, hi)| lo > hi) {
            return None;
        }
        Some(Solver {
            mat,
            n,
            m,
            total,
            lb,
            ub,
            x: vec![0.0; total],
            at_upper: vec![false; total],
            is_basic: vec![false; total],
            order: (n..total).collect(),
            etas: EtaFile::new(m),
            pivots_since_refactor: 0,
            refactorizations: 0,
            copied_factor: false,
            iterations: 0,
            devex_resets: 0,
            tol,
        })
    }

    fn scatter(&self, j: usize, out: &mut [f64]) {
        let (rows, vals) = self.mat.col(j);
        for (&i, &v) in rows.iter().zip(vals) {
            out[i] += v;
        }
    }

    fn dot_col(&self, j: usize, y: &[f64]) -> f64 {
        let (rows, vals) = self.mat.col(j);
        rows.iter().zip(vals).map(|(&i, &v)| y[i] * v).sum()
    }

    fn is_fixed(&self, j: usize) -> bool {
        self.lb[j].is_finite() && self.ub[j].is_finite() && self.ub[j] - self.lb[j] <= self.tol
    }

    /// Turns the basic costs held in `y` into the simplex multipliers
    /// `y = c_B B⁻¹`. Returns `false`, skipping the BTRAN, when every basic
    /// cost is zero: `y` is then exactly zero, so each reduced cost is the
    /// column's own cost and the caller skips the `y·a_j` products too.
    fn btran_prices(&self, y: &mut [f64]) -> bool {
        if y.iter().all(|&c| c == 0.0) {
            return false;
        }
        self.etas.btran(y);
        true
    }

    /// Parks every nonbasic column at a finite bound (free columns at 0),
    /// mirroring the cold-start rule of the dense implementation.
    fn reset_nonbasic_x(&mut self) {
        for j in 0..self.total {
            if self.is_basic[j] {
                continue;
            }
            if self.lb[j].is_finite() {
                self.x[j] = self.lb[j];
                self.at_upper[j] = false;
            } else if self.ub[j].is_finite() {
                self.x[j] = self.ub[j];
                self.at_upper[j] = true;
            } else {
                self.x[j] = 0.0;
                self.at_upper[j] = false;
            }
        }
    }

    /// Solves `B x_B = b - N x_N` through the eta file and stores the basic
    /// values.
    fn compute_basic_values(&mut self) {
        let mut r = self.mat.b.clone();
        for j in 0..self.total {
            if !self.is_basic[j] && self.x[j] != 0.0 {
                let (rows, vals) = self.mat.col(j);
                for (&i, &v) in rows.iter().zip(vals.iter()) {
                    r[i] -= v * self.x[j];
                }
            }
        }
        self.etas.ftran(&mut r);
        for (&k, &value) in self.order.iter().zip(r.iter()) {
            self.x[k] = value;
        }
    }

    /// Installs the all-slack identity basis (the cold start).
    fn install_slack_basis(&mut self) {
        self.etas.clear();
        self.is_basic = vec![false; self.total];
        self.order = (self.n..self.total).collect();
        for i in 0..self.m {
            self.is_basic[self.n + i] = true;
        }
        self.reset_nonbasic_x();
        self.compute_basic_values();
        self.pivots_since_refactor = 0;
    }

    /// Installs a caller-supplied basis: validates it, takes its
    /// factorization from `slot` (factorizing and filling the slot on the
    /// first install), and recomputes the basic values. Returns `false`
    /// (leaving the solver in an unspecified state) if the basis is stale
    /// or singular.
    fn install_basis(&mut self, basis: &Basis, slot: &OnceCell<Factor>) -> bool {
        // Fault-injection site: a rejected warm basis falls back to the cold
        // start. Keyed by the basis it installs, so distinct bases trip
        // independently and every install of one basis trips alike.
        if rtr_trace::failpoint::failpoint("milp.warm_basis", basis_key(&basis.order)) {
            return false;
        }
        if basis.statuses.len() != self.total || basis.order.len() != self.m {
            return false;
        }
        let mut seen = vec![false; self.total];
        for &c in &basis.order {
            if c >= self.total || basis.statuses[c] != VarStatus::Basic || seen[c] {
                return false;
            }
            seen[c] = true;
        }
        if basis.statuses.iter().filter(|&&s| s == VarStatus::Basic).count() != self.m {
            return false;
        }
        for j in 0..self.total {
            self.is_basic[j] = basis.statuses[j] == VarStatus::Basic;
        }
        for j in 0..self.total {
            if self.is_basic[j] {
                continue;
            }
            match basis.statuses[j] {
                VarStatus::AtUpper if self.ub[j].is_finite() => {
                    self.x[j] = self.ub[j];
                    self.at_upper[j] = true;
                }
                VarStatus::AtLower | VarStatus::AtUpper if self.lb[j].is_finite() => {
                    self.x[j] = self.lb[j];
                    self.at_upper[j] = false;
                }
                VarStatus::AtLower if self.ub[j].is_finite() => {
                    self.x[j] = self.ub[j];
                    self.at_upper[j] = true;
                }
                _ => {
                    self.x[j] = 0.0;
                    self.at_upper[j] = false;
                }
            }
        }
        if let Some(factor) = slot.get() {
            self.etas.clone_from(&factor.etas);
            self.order.clone_from(&factor.order);
            self.pivots_since_refactor = 0;
            self.copied_factor = true;
        } else {
            self.order.clone_from(&basis.order);
            if !self.factorize() {
                return false;
            }
            // The slot is empty here; a filled one would hold the same bits.
            let _ = slot.set(Factor { etas: self.etas.clone(), order: self.order.clone() });
        }
        self.compute_basic_values();
        true
    }

    /// An in-solve refactorization (on cadence, or retrying after drift):
    /// [`Self::factorize`] behind the `milp.refactorize` failpoint.
    fn refactorize(&mut self) -> bool {
        // Fault-injection site: callers treat a failed refactorization as a
        // numerically singular basis and recover (retry at the next pivot,
        // or a cold restart), so a trip never yields a wrong answer. A
        // copied install counts in the key like a computed one, so sharing
        // a factorization never changes which visits trip.
        let factorizations = self.refactorizations + usize::from(self.copied_factor);
        if rtr_trace::failpoint::failpoint(
            "milp.refactorize",
            (factorizations as u64).wrapping_mul(31).wrapping_add(self.etas.len() as u64),
        ) {
            return false;
        }
        self.factorize()
    }

    /// Rebuilds the eta file from the basis columns with partial pivoting
    /// (sparsest column first, largest available pivot per column). May
    /// re-pair rows and columns; `order` is updated accordingly. Returns
    /// `false` on a (numerically) singular basis. The result depends only
    /// on the set of basic columns and the matrix.
    fn factorize(&mut self) -> bool {
        self.etas.clear();
        let m = self.m;
        let mut row_used = vec![false; m];
        let mut new_order = vec![usize::MAX; m];
        let mut cols = self.order.clone();
        cols.sort_by_key(|&c| (self.mat.col_ptr[c + 1] - self.mat.col_ptr[c], c));
        let mut w = vec![0.0f64; m];
        for &c in &cols {
            w.fill(0.0);
            self.scatter(c, &mut w);
            self.etas.ftran(&mut w);
            let mut best_row = usize::MAX;
            let mut best_abs = SING_EPS;
            for (i, used) in row_used.iter().enumerate() {
                if !used {
                    let a = w[i].abs();
                    if a > best_abs {
                        best_abs = a;
                        best_row = i;
                    }
                }
            }
            if best_row == usize::MAX {
                return false;
            }
            row_used[best_row] = true;
            new_order[best_row] = c;
            self.etas.push(best_row, &w);
        }
        self.order = new_order;
        self.pivots_since_refactor = 0;
        self.refactorizations += 1;
        true
    }

    /// Appends the pivot eta and refactorizes on cadence.
    fn after_pivot(&mut self, r: usize, w: &[f64]) {
        self.etas.push(r, w);
        rtr_trace::status::board().add(rtr_trace::Metric::LpPivots, 1);
        self.pivots_since_refactor += 1;
        if self.pivots_since_refactor >= REFACTOR_INTERVAL {
            // A refactorization failure here would be purely numerical (every
            // appended pivot was >= PIV_EPS); keep the eta file and retry at
            // the next pivot rather than aborting the solve.
            if self.refactorize() {
                self.compute_basic_values();
            }
        }
    }

    fn snapshot_basis(&self) -> Basis {
        let statuses = (0..self.total)
            .map(|j| {
                if self.is_basic[j] {
                    VarStatus::Basic
                } else if self.at_upper[j] {
                    VarStatus::AtUpper
                } else if self.lb[j].is_finite() {
                    VarStatus::AtLower
                } else if self.ub[j].is_finite() {
                    VarStatus::AtUpper
                } else {
                    VarStatus::Free
                }
            })
            .collect();
        Basis { statuses, order: self.order.clone() }
    }

    fn finished(&self, status: LpStatus, warm: bool) -> LpOutcome {
        let (values, objective, basis) = if status == LpStatus::Optimal {
            let values: Vec<f64> = self.x[..self.n].to_vec();
            let objective = self.mat.objective.eval(&values);
            (values, objective, Some(self.snapshot_basis()))
        } else {
            (Vec::new(), 0.0, None)
        };
        LpOutcome {
            status,
            values,
            objective,
            iterations: self.iterations,
            basis,
            refactorizations: self.refactorizations,
            devex_resets: self.devex_resets,
            warm,
        }
    }

    /// `true` if the current basis prices out dual feasible (no primal
    /// entering candidate exists under the phase-2 costs) — the
    /// precondition for running the dual simplex.
    fn dual_feasible(&self) -> bool {
        let mut y: Vec<f64> = self.order.iter().map(|&k| self.mat.cost[k]).collect();
        let priced = self.btran_prices(&mut y);
        for j in 0..self.total {
            if self.is_basic[j] || self.is_fixed(j) {
                continue;
            }
            let d = if priced { self.mat.cost[j] - self.dot_col(j, &y) } else { self.mat.cost[j] };
            let free = !self.lb[j].is_finite() && !self.ub[j].is_finite();
            if free {
                if d.abs() > self.tol {
                    return false;
                }
            } else if self.at_upper[j] {
                if d > self.tol {
                    return false;
                }
            } else if d < -self.tol {
                return false;
            }
        }
        true
    }

    /// Updates the devex reference weights (Forrest–Goldfarb: approximate
    /// steepest-edge weights maintained from the pivot row) for the pivot
    /// (entering column `q` on row `r`, ftran'd column `w`). Must run
    /// *before* the basis is mutated: it needs the pre-pivot eta file and
    /// nonbasic set. Weight overflow resets the framework and is counted.
    fn update_devex_weights(&mut self, weights: &mut [f64], q: usize, r: usize, w: &[f64]) {
        let alpha_q = w[r];
        if alpha_q.abs() <= PIV_EPS {
            return;
        }
        let mut rho = vec![0.0f64; self.m];
        rho[r] = 1.0;
        self.etas.btran(&mut rho);
        let gamma_q = weights[q].max(1.0);
        let mut max_w = 0.0f64;
        for (j, wj) in weights.iter_mut().enumerate() {
            if j == q || self.is_basic[j] || self.is_fixed(j) {
                continue;
            }
            let alpha_j = self.dot_col(j, &rho);
            if alpha_j == 0.0 {
                continue;
            }
            let ratio = alpha_j / alpha_q;
            let cand = ratio * ratio * gamma_q;
            if cand > *wj {
                *wj = cand;
            }
            if *wj > max_w {
                max_w = *wj;
            }
        }
        // The leaving variable re-enters the nonbasic set with the reference
        // weight induced by the pivot; the entering column's slot resets.
        let leaving = self.order[r];
        weights[leaving] = (gamma_q / (alpha_q * alpha_q)).max(1.0);
        weights[q] = 1.0;
        if max_w > DEVEX_RESET_LIMIT {
            weights.fill(1.0);
            self.devex_resets += 1;
            rtr_trace::status::board().add(rtr_trace::Metric::LpDevexResets, 1);
        }
    }

    /// The bounded-variable primal simplex with composite phase 1, run from
    /// whatever basis is currently installed.
    fn primal(
        &mut self,
        limit: usize,
        deadline: Option<Instant>,
        warm: bool,
    ) -> Result<LpOutcome, MilpError> {
        let tol = self.tol;
        // Devex starts from the unit reference framework.
        let mut weights = vec![1.0f64; self.total];
        let mut degenerate_run = 0usize;
        loop {
            if self.iterations >= limit {
                return Err(MilpError::IterationLimit { limit });
            }
            if let Some(deadline) = deadline {
                if self.iterations.is_multiple_of(16) && Instant::now() >= deadline {
                    return Ok(self.finished(LpStatus::Interrupted, warm));
                }
            }
            self.iterations += 1;

            // Phase detection and composite phase-1 costs on the basis.
            let mut phase1 = false;
            let mut c_b = vec![0.0f64; self.m];
            for (ci, &k) in c_b.iter_mut().zip(&self.order) {
                if self.x[k] < self.lb[k] - tol {
                    *ci = -1.0;
                    phase1 = true;
                } else if self.x[k] > self.ub[k] + tol {
                    *ci = 1.0;
                    phase1 = true;
                }
            }
            if !phase1 {
                for (ci, &k) in c_b.iter_mut().zip(&self.order) {
                    *ci = self.mat.cost[k];
                }
            }

            // Simplex multipliers y = c_B B⁻¹, then reduced costs per column.
            let mut y = c_b;
            let priced = self.btran_prices(&mut y);

            let use_bland = degenerate_run > BLAND_AFTER;
            let mut entering: Option<(usize, f64, f64)> = None; // (col, score, direction)
            for (j, &weight) in weights.iter().enumerate() {
                if self.is_basic[j] {
                    continue;
                }
                let cj = if phase1 { 0.0 } else { self.mat.cost[j] };
                let d = if priced { cj - self.dot_col(j, &y) } else { cj };
                let lower_finite = self.lb[j].is_finite();
                let upper_finite = self.ub[j].is_finite();
                if lower_finite && upper_finite && self.ub[j] - self.lb[j] <= tol {
                    continue; // fixed variable
                }
                let dir = if !lower_finite && !upper_finite {
                    // Free variable: move against the gradient.
                    if d < -tol {
                        1.0
                    } else if d > tol {
                        -1.0
                    } else {
                        continue;
                    }
                } else if self.at_upper[j] {
                    if d > tol {
                        -1.0
                    } else {
                        continue;
                    }
                } else if d < -tol {
                    1.0
                } else {
                    continue;
                };
                if use_bland {
                    entering = Some((j, d.abs(), dir));
                    break;
                }
                // Devex scores by d²/γ_j. Exact comparison with
                // first-lowest-index ties keeps the selection deterministic.
                let score = d * d / weight;
                match entering {
                    Some((_, best, _)) if best >= score => {}
                    _ => entering = Some((j, score, dir)),
                }
            }

            let Some((q, _, dir)) = entering else {
                if phase1 {
                    return Ok(self.finished(LpStatus::Infeasible, warm));
                }
                return Ok(self.finished(LpStatus::Optimal, warm));
            };

            // Transformed entering column w = B⁻¹ a_q.
            let mut w = vec![0.0f64; self.m];
            self.scatter(q, &mut w);
            self.etas.ftran(&mut w);

            // Ratio test: entering q moves by step >= 0 in direction `dir`;
            // basic i changes at rate -dir * w[i].
            let own_range = self.ub[q] - self.lb[q]; // may be infinite
            let mut best_step = if own_range.is_finite() { own_range } else { f64::INFINITY };
            let mut blocking: Option<(usize, f64)> = None; // (row, bound the leaving var hits)
            for (i, &alpha) in w.iter().enumerate() {
                if alpha.abs() <= PIV_EPS {
                    continue;
                }
                let rate = -dir * alpha;
                let k = self.order[i];
                let v = self.x[k];
                let (limit_bound, dist) = if rate > 0.0 {
                    // Basic increases: infeasible-low basics block when they
                    // reach their lower bound; infeasible-high basics move
                    // further out and never block (phase 1 pricing guarantees
                    // a net infeasibility decrease); feasible basics block at
                    // their upper bound.
                    if v < self.lb[k] - tol {
                        (self.lb[k], self.lb[k] - v)
                    } else if v > self.ub[k] + tol {
                        continue;
                    } else if self.ub[k].is_finite() {
                        (self.ub[k], (self.ub[k] - v).max(0.0))
                    } else {
                        continue;
                    }
                } else {
                    // Basic decreases: mirror image of the above.
                    if v > self.ub[k] + tol {
                        (self.ub[k], v - self.ub[k])
                    } else if v < self.lb[k] - tol {
                        continue;
                    } else if self.lb[k].is_finite() {
                        (self.lb[k], (v - self.lb[k]).max(0.0))
                    } else {
                        continue;
                    }
                };
                let step = dist / rate.abs();
                if step < best_step - 1e-12 {
                    best_step = step;
                    blocking = Some((i, limit_bound));
                } else if step <= best_step + 1e-12 && use_bland {
                    // Bland tie-break: prefer the lowest leaving index.
                    if let Some((bi, _)) = blocking {
                        if self.order[i] < self.order[bi] {
                            blocking = Some((i, limit_bound));
                        }
                    }
                }
            }

            if best_step.is_infinite() {
                debug_assert!(!phase1, "phase 1 must always have a blocking bound");
                return Ok(self.finished(LpStatus::Unbounded, warm));
            }

            if best_step <= tol {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }

            match blocking {
                None => {
                    // Bound flip of the entering variable.
                    let step = best_step;
                    for (i, &alpha) in w.iter().enumerate() {
                        if alpha != 0.0 {
                            self.x[self.order[i]] -= dir * step * alpha;
                        }
                    }
                    self.x[q] += dir * step;
                    self.at_upper[q] = !self.at_upper[q];
                }
                Some((r, leave_bound)) => {
                    self.update_devex_weights(&mut weights, q, r, &w);
                    let step = best_step;
                    for (i, &alpha) in w.iter().enumerate() {
                        if i == r {
                            continue;
                        }
                        if alpha != 0.0 {
                            self.x[self.order[i]] -= dir * step * alpha;
                        }
                    }
                    let leaving = self.order[r];
                    self.x[q] += dir * step;
                    self.x[leaving] = leave_bound;
                    self.at_upper[leaving] = (leave_bound - self.ub[leaving]).abs() <= tol
                        && self.ub[leaving].is_finite();
                    self.is_basic[leaving] = false;
                    self.is_basic[q] = true;
                    self.order[r] = q;
                    self.after_pivot(r, &w);
                }
            }
        }
    }

    /// Bounded-variable dual simplex from a dual-feasible basis: repeatedly
    /// kicks the most infeasible basic out at its violated bound, choosing
    /// the entering column by the dual ratio test so dual feasibility is
    /// preserved. This is the warm-start workhorse — after a branching bound
    /// change or a latency-RHS move the parent basis is dual feasible and
    /// typically one or two pivots from the child optimum.
    fn dual(&mut self, limit: usize, deadline: Option<Instant>) -> DualRun {
        let tol = self.tol;
        let mut degenerate_run = 0usize;
        let mut stall = 0usize;
        let mut best_inf = f64::INFINITY;
        let mut retried_refactor = false;
        // Pivot row, multipliers and entering column, reused every pivot.
        let mut rho = vec![0.0f64; self.m];
        let mut y = vec![0.0f64; self.m];
        let mut w = vec![0.0f64; self.m];
        loop {
            if self.iterations >= limit {
                return DualRun::Fallback;
            }
            if let Some(deadline) = deadline {
                if self.iterations.is_multiple_of(16) && Instant::now() >= deadline {
                    return DualRun::Finished(self.finished(LpStatus::Interrupted, true));
                }
            }

            // Leaving row: the most bound-violating basic (smallest variable
            // index once Bland's rule kicks in).
            let use_bland = degenerate_run > BLAND_AFTER;
            let mut r = usize::MAX;
            let mut best_viol = tol;
            let mut total_viol = 0.0f64;
            for i in 0..self.m {
                let k = self.order[i];
                let v = self.x[k];
                let viol = if v < self.lb[k] - tol {
                    self.lb[k] - v
                } else if v > self.ub[k] + tol {
                    v - self.ub[k]
                } else {
                    continue;
                };
                total_viol += viol;
                if use_bland {
                    if r == usize::MAX || k < self.order[r] {
                        r = i;
                    }
                } else if viol > best_viol {
                    best_viol = viol;
                    r = i;
                }
            }
            if r == usize::MAX {
                // Primal feasible and dual feasibility was maintained by the
                // ratio test: optimal.
                return DualRun::Finished(self.finished(LpStatus::Optimal, true));
            }
            if total_viol < best_inf - 1e-12 {
                best_inf = total_viol;
                stall = 0;
            } else {
                stall += 1;
                if stall > DUAL_STALL_LIMIT {
                    return DualRun::Fallback;
                }
            }
            self.iterations += 1;

            let k_leave = self.order[r];
            let to_lower = self.x[k_leave] < self.lb[k_leave];
            let target = if to_lower { self.lb[k_leave] } else { self.ub[k_leave] };

            // Row r of B⁻¹A via ρ = B⁻ᵀ e_r, and phase-2 multipliers for the
            // dual ratio test.
            rho.fill(0.0);
            rho[r] = 1.0;
            self.etas.btran(&mut rho);
            for (yi, &k) in y.iter_mut().zip(&self.order) {
                *yi = self.mat.cost[k];
            }
            let priced = self.btran_prices(&mut y);

            // Entering column: eligible sign, minimal dual ratio |d|/|α|;
            // ties prefer the larger pivot (smallest index under Bland).
            let mut q = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            let mut best_alpha = 0.0f64;
            for j in 0..self.total {
                if self.is_basic[j] || self.is_fixed(j) {
                    continue;
                }
                let alpha = self.dot_col(j, &rho);
                if alpha.abs() <= PIV_EPS {
                    continue;
                }
                let free = !self.lb[j].is_finite() && !self.ub[j].is_finite();
                // x_B[r] changes by -α_j per unit of x_j: pick the movement
                // direction of x_j that drives x_B[r] toward its violated
                // bound, and check that direction is allowed by j's status.
                let dxj_sign = if free {
                    if (to_lower && alpha < 0.0) || (!to_lower && alpha > 0.0) {
                        1.0
                    } else {
                        -1.0
                    }
                } else if self.at_upper[j] {
                    -1.0
                } else {
                    1.0
                };
                let movement = -alpha * dxj_sign;
                let helps = if to_lower { movement > 0.0 } else { movement < 0.0 };
                if !helps {
                    continue;
                }
                let d =
                    if priced { self.mat.cost[j] - self.dot_col(j, &y) } else { self.mat.cost[j] };
                let ratio = (d * dxj_sign).max(0.0) / alpha.abs();
                let better = if q == usize::MAX || ratio < best_ratio - 1e-12 {
                    true
                } else if ratio <= best_ratio + 1e-12 {
                    if use_bland {
                        j < q
                    } else {
                        alpha.abs() > best_alpha
                    }
                } else {
                    false
                };
                if better {
                    q = j;
                    best_ratio = best_ratio.min(ratio);
                    best_alpha = alpha.abs();
                }
            }
            if q == usize::MAX {
                // Dual unbounded: no entering column can repair row r, so the
                // primal is infeasible.
                return DualRun::Finished(self.finished(LpStatus::Infeasible, true));
            }

            w.fill(0.0);
            self.scatter(q, &mut w);
            self.etas.ftran(&mut w);
            if w[r].abs() <= PIV_EPS {
                // ρ disagreed with the ftran'd column: numerical drift.
                // Refactorize once and retry; give up to the cold path if it
                // happens again.
                if retried_refactor || !self.refactorize() {
                    return DualRun::Fallback;
                }
                self.compute_basic_values();
                retried_refactor = true;
                continue;
            }
            retried_refactor = false;

            // The leaving basic moves exactly to its violated bound.
            let t = (self.x[k_leave] - target) / w[r];
            for (i, &alpha) in w.iter().enumerate() {
                if i != r && alpha != 0.0 {
                    self.x[self.order[i]] -= alpha * t;
                }
            }
            self.x[q] += t;
            self.x[k_leave] = target;
            self.at_upper[k_leave] = !to_lower;
            self.is_basic[k_leave] = false;
            self.is_basic[q] = true;
            self.order[r] = q;
            if best_ratio <= tol {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }
            self.after_pivot(r, &w);
        }
    }
}

fn auto_limit(mat: &LpMatrix, iteration_limit: usize) -> usize {
    if iteration_limit == 0 {
        400 * (mat.m + mat.n) + 2000
    } else {
        iteration_limit
    }
}

fn trivially_infeasible(warm: bool) -> LpOutcome {
    LpOutcome {
        status: LpStatus::Infeasible,
        values: Vec::new(),
        objective: 0.0,
        iterations: 0,
        basis: None,
        refactorizations: 0,
        devex_resets: 0,
        warm,
    }
}

/// Solves the LP relaxation of `model` (integrality dropped), optionally
/// overriding the structural variable bounds (used by branch and bound).
///
/// `tol` is the feasibility/optimality tolerance; `iteration_limit` of 0
/// selects an automatic limit. On [`LpStatus::Optimal`] the outcome carries
/// the optimal [`Basis`] for warm-started re-solves via [`resolve_lp`].
///
/// # Errors
///
/// Returns [`MilpError::IterationLimit`] if the simplex fails to converge
/// within the iteration limit (typically a symptom of cycling on a badly
/// scaled model).
pub fn solve_lp(
    model: &Model,
    bounds_override: Option<&[(f64, f64)]>,
    tol: f64,
    iteration_limit: usize,
) -> Result<LpOutcome, MilpError> {
    solve_in(&LpMatrix::new(model), bounds_override, tol, iteration_limit, None)
}

/// [`solve_lp`] over a prebuilt matrix, with a wall-clock deadline checked
/// every few iterations; an expired deadline yields
/// [`LpStatus::Interrupted`].
pub(crate) fn solve_in(
    mat: &LpMatrix,
    bounds_override: Option<&[(f64, f64)]>,
    tol: f64,
    iteration_limit: usize,
    deadline: Option<Instant>,
) -> Result<LpOutcome, MilpError> {
    let limit = auto_limit(mat, iteration_limit);
    let Some(mut s) = Solver::new(mat, bounds_override, tol) else {
        return Ok(trivially_infeasible(false));
    };
    s.install_slack_basis();
    s.primal(limit, deadline, false)
}

/// Re-solves `model` starting from a parent [`Basis`], intended for the two
/// mutations the callers actually issue: tightened variable bounds (branch
/// and bound) and a moved right-hand side (the binary-subdivision latency
/// window). Both leave the parent basis dual feasible, so the solve runs a
/// **dual simplex** that is typically a handful of pivots; a basis that
/// prices out dual *infeasible* (e.g. after an objective change) is still
/// used as a primal warm start.
///
/// Falls back to a cold [`solve_lp`] — same status, objective, and values
/// as if the basis had never been supplied — when the basis is stale
/// (dimensions changed), its refactorization is singular, or the dual loop
/// stalls or exhausts its budget. `LpOutcome::warm` reports which path ran.
/// A nonzero `iteration_limit` bounds the warm attempt and the fallback
/// together; the automatic limit (0) is fresh for the fallback.
///
/// Each call builds the model's matrix and factorizes the basis. Branch and
/// bound instead builds the matrix once per tree, and factorizes each
/// parent basis once for its strong-branch probes and both children. Both
/// paths run the same pivots. While every basic column is free of cost (as
/// in a pure feasibility model), pricing skips the dual prices `y`, which
/// are then exactly zero; see the module docs for why this is exact.
///
/// # Errors
///
/// Returns [`MilpError::IterationLimit`] like [`solve_lp`] if the cold
/// fallback itself fails to converge, or if a nonzero `iteration_limit` is
/// spent before the fallback gets any of it.
pub fn resolve_lp(
    model: &Model,
    bounds_override: Option<&[(f64, f64)]>,
    basis: &Basis,
    tol: f64,
    iteration_limit: usize,
) -> Result<LpOutcome, MilpError> {
    let shared = SharedBasis::new(basis.clone());
    resolve_in(&LpMatrix::new(model), bounds_override, &shared, tol, iteration_limit, None)
}

/// [`resolve_lp`] over a prebuilt matrix from a [`SharedBasis`], whose
/// factorization slot the install fills or copies; with a wall-clock
/// deadline like [`solve_in`].
pub(crate) fn resolve_in(
    mat: &LpMatrix,
    bounds_override: Option<&[(f64, f64)]>,
    shared: &SharedBasis,
    tol: f64,
    iteration_limit: usize,
    deadline: Option<Instant>,
) -> Result<LpOutcome, MilpError> {
    let limit = auto_limit(mat, iteration_limit);
    let Some(mut s) = Solver::new(mat, bounds_override, tol) else {
        return Ok(trivially_infeasible(true));
    };
    if s.install_basis(&shared.basis, &shared.factor) {
        if s.dual_feasible() {
            match s.dual(limit, deadline) {
                DualRun::Finished(out) => return Ok(out),
                DualRun::Fallback => {}
            }
        } else {
            // Dual-infeasible parent (stale costs): still a better
            // starting vertex than the slack identity.
            match s.primal(limit, deadline, true) {
                Ok(out) => return Ok(out),
                Err(MilpError::IterationLimit { .. }) => {}
                Err(e) => return Err(e),
            }
        }
    }
    // Cold fallback. A caller's budget covers the warm attempt and the
    // fallback together; the automatic limit is fresh for the fallback, so
    // a warm entry never fails where a cold solve would have succeeded.
    let cold_limit = if iteration_limit == 0 {
        0
    } else {
        match iteration_limit.saturating_sub(s.iterations) {
            0 => return Err(MilpError::IterationLimit { limit: iteration_limit }),
            left => left,
        }
    };
    let mut out =
        solve_in(mat, bounds_override, tol, cold_limit, deadline).map_err(|e| match e {
            MilpError::IterationLimit { .. } => MilpError::IterationLimit { limit },
            e => e,
        })?;
    out.iterations += s.iterations;
    out.refactorizations += s.refactorizations;
    out.devex_resets += s.devex_resets;
    out.warm = false;
    Ok(out)
}

/// One simplex tableau row `x_B[i] + Σ ā_j x_j = b̄_i` extracted at an
/// optimal basis, in column space (structurals `0..n`, slacks `n..n+m`).
#[derive(Debug, Clone)]
pub(crate) struct TableauRow {
    /// `b̄_i`: the current value of the basic variable.
    pub rhs: f64,
    /// `(nonbasic column, ā_j)` pairs with `|ā_j| > 1e-9`, ascending.
    pub coeffs: Vec<(usize, f64)>,
}

/// Snapshot of the tableau state needed to derive Gomory cuts: the rows of
/// fractional integer basics plus the column statuses and working bounds.
#[derive(Debug, Clone)]
pub(crate) struct TableauSnapshot {
    /// Structural variable count.
    pub n: usize,
    /// Working lower bounds over all `n + m` columns (slacks included).
    pub lb: Vec<f64>,
    /// Working upper bounds over all `n + m` columns.
    pub ub: Vec<f64>,
    /// `true` for nonbasic columns parked at their upper bound.
    pub at_upper: Vec<bool>,
    /// Extracted fractional rows, most fractional first.
    pub rows: Vec<TableauRow>,
}

/// Extracts the tableau rows of fractional integer basics at `basis`
/// (re-installed and factorized over `mat`), most fractional first, up to
/// `max_rows`. Returns `None` when the basis fails to install (stale,
/// singular, or vetoed by the `milp.warm_basis` failpoint) — callers skip
/// cut separation for that round.
pub(crate) fn fractional_rows(
    mat: &LpMatrix,
    bounds_override: Option<&[(f64, f64)]>,
    basis: &Basis,
    tol: f64,
    is_int: &[bool],
    max_rows: usize,
) -> Option<TableauSnapshot> {
    let mut s = Solver::new(mat, bounds_override, tol)?;
    if !s.install_basis(basis, &OnceCell::new()) {
        return None;
    }
    let mut cand: Vec<(f64, usize, usize)> = Vec::new(); // (centrality, col, row)
    for (i, &k) in s.order.iter().enumerate() {
        if k >= s.n || !is_int[k] {
            continue;
        }
        let v = s.x[k];
        let frac = v - v.floor();
        if !(0.01..=0.99).contains(&frac) {
            continue;
        }
        // Sort key: distance of the fraction from 1/2 (most fractional
        // first), then column index — fixed, deterministic order.
        cand.push((((frac - 0.5).abs() * 1e9) as u64 as f64, k, i));
    }
    cand.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap_or(std::cmp::Ordering::Equal));
    cand.truncate(max_rows);
    let mut rows = Vec::with_capacity(cand.len());
    for &(_, k, i) in &cand {
        let mut rho = vec![0.0f64; s.m];
        rho[i] = 1.0;
        s.etas.btran(&mut rho);
        let mut coeffs = Vec::new();
        for j in 0..s.total {
            if s.is_basic[j] || s.is_fixed(j) {
                continue;
            }
            let a = s.dot_col(j, &rho);
            if a.abs() > 1e-9 {
                coeffs.push((j, a));
            }
        }
        rows.push(TableauRow { rhs: s.x[k], coeffs });
    }
    Some(TableauSnapshot { n: s.n, lb: s.lb, ub: s.ub, at_upper: s.at_upper, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Constraint, LinExpr, Model, Rel, Variable};

    const TOL: f64 = 1e-7;

    fn lp(model: &Model) -> LpOutcome {
        solve_lp(model, None, TOL, 0).expect("no iteration limit expected")
    }

    #[test]
    fn simple_maximize() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic Dantzig)
        let mut m = Model::new();
        let x = m.add_var(Variable::non_negative());
        let y = m.add_var(Variable::non_negative());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x), Rel::Le, 4.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (2.0, y), Rel::Le, 12.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (3.0, x) + (2.0, y), Rel::Le, 18.0));
        m.maximize(LinExpr::new() + (3.0, x) + (5.0, y));
        let out = lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective - 36.0).abs() < 1e-6);
        assert!((out.values[0] - 2.0).abs() < 1e-6);
        assert!((out.values[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn minimize_with_ge_rows_needs_phase1() {
        // min x + y s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0 -> (1.6, 1.2), obj 2.8
        let mut m = Model::new();
        let x = m.add_var(Variable::non_negative());
        let y = m.add_var(Variable::non_negative());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (2.0, y), Rel::Ge, 4.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (3.0, x) + (1.0, y), Rel::Ge, 6.0));
        m.minimize(LinExpr::new() + (1.0, x) + (1.0, y));
        let out = lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective - 2.8).abs() < 1e-6, "objective {}", out.objective);
        assert!((out.values[0] - 1.6).abs() < 1e-6);
        assert!((out.values[1] - 1.2).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y s.t. x + y = 10, x - y = 2 -> x=6, y=4, obj 24
        let mut m = Model::new();
        let x = m.add_var(Variable::non_negative());
        let y = m.add_var(Variable::non_negative());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Eq, 10.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (-1.0, y), Rel::Eq, 2.0));
        m.minimize(LinExpr::new() + (2.0, x) + (3.0, y));
        let out = lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.values[0] - 6.0).abs() < 1e-6);
        assert!((out.values[1] - 4.0).abs() < 1e-6);
        assert!((out.objective - 24.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new();
        let x = m.add_var(Variable::continuous(0.0, 1.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x), Rel::Ge, 2.0));
        assert_eq!(lp(&m).status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_conflicting_rows() {
        let mut m = Model::new();
        let x = m.add_var(Variable::free());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x), Rel::Ge, 5.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x), Rel::Le, 3.0));
        assert_eq!(lp(&m).status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new();
        let x = m.add_var(Variable::non_negative());
        m.maximize(LinExpr::new() + (1.0, x));
        assert_eq!(lp(&m).status, LpStatus::Unbounded);
    }

    #[test]
    fn bounded_by_variable_bounds_only() {
        // No constraints at all: optimum sits on a variable bound.
        let mut m = Model::new();
        let x = m.add_var(Variable::continuous(-3.0, 7.0));
        m.maximize(LinExpr::new() + (2.0, x));
        let out = lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.values[0] - 7.0).abs() < 1e-9);
        assert!((out.objective - 14.0).abs() < 1e-9);
    }

    #[test]
    fn free_variable_enters() {
        // min y s.t. y >= x - 2, y >= -x  with x free -> x = 1, y = -1.
        let mut m = Model::new();
        let x = m.add_var(Variable::free());
        let y = m.add_var(Variable::free());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, y) + (-1.0, x), Rel::Ge, -2.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, y) + (1.0, x), Rel::Ge, 0.0));
        m.minimize(LinExpr::new() + (1.0, y));
        let out = lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective + 1.0).abs() < 1e-6, "objective {}", out.objective);
    }

    #[test]
    fn upper_bounded_vars_flip() {
        // max x + y with x,y in [0,1], x + y <= 1.5 -> 1.5
        let mut m = Model::new();
        let x = m.add_var(Variable::continuous(0.0, 1.0));
        let y = m.add_var(Variable::continuous(0.0, 1.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Le, 1.5));
        m.maximize(LinExpr::new() + (1.0, x) + (1.0, y));
        let out = lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective - 1.5).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_le_needs_phase1() {
        // x + y <= -1 with x,y >= -5: feasible, e.g. (-5, 4). min x+y -> -10.
        let mut m = Model::new();
        let x = m.add_var(Variable::continuous(-5.0, 5.0));
        let y = m.add_var(Variable::continuous(-5.0, 5.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Le, -1.0));
        m.minimize(LinExpr::new() + (1.0, x) + (1.0, y));
        let out = lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective + 10.0).abs() < 1e-6);
    }

    #[test]
    fn bounds_override_is_respected() {
        let mut m = Model::new();
        let x = m.add_var(Variable::continuous(0.0, 10.0));
        m.maximize(LinExpr::new() + (1.0, x));
        let out = solve_lp(&m, Some(&[(0.0, 3.0)]), TOL, 0).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.values[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn crossed_override_bounds_are_infeasible() {
        let mut m = Model::new();
        let _ = m.add_var(Variable::continuous(0.0, 10.0));
        let out = solve_lp(&m, Some(&[(4.0, 3.0)]), TOL, 0).unwrap();
        assert_eq!(out.status, LpStatus::Infeasible);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Beale's classic cycling example (under Dantzig pricing without
        // safeguards); our Bland fallback must terminate it.
        let mut m = Model::new();
        let x1 = m.add_var(Variable::non_negative());
        let x2 = m.add_var(Variable::non_negative());
        let x3 = m.add_var(Variable::non_negative());
        let x4 = m.add_var(Variable::non_negative());
        m.add_constraint(Constraint::new(
            LinExpr::new() + (0.25, x1) + (-8.0, x2) + (-1.0, x3) + (9.0, x4),
            Rel::Le,
            0.0,
        ));
        m.add_constraint(Constraint::new(
            LinExpr::new() + (0.5, x1) + (-12.0, x2) + (-0.5, x3) + (3.0, x4),
            Rel::Le,
            0.0,
        ));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x3), Rel::Le, 1.0));
        m.minimize(LinExpr::new() + (-0.75, x1) + (150.0, x2) + (-0.02, x3) + (6.0, x4));
        let out = lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        // Optimum: x1 = 1, x3 = 1, x2 = x4 = 0 -> -0.75 - 0.02 = -0.77.
        assert!((out.objective + 0.77).abs() < 1e-6, "objective {}", out.objective);
    }

    #[test]
    fn fixed_variables_are_skipped() {
        let mut m = Model::new();
        let x = m.add_var(Variable::continuous(2.0, 2.0));
        let y = m.add_var(Variable::non_negative());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Le, 5.0));
        m.maximize(LinExpr::new() + (1.0, x) + (1.0, y));
        let out = lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.values[0] - 2.0).abs() < 1e-9);
        assert!((out.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn expired_deadline_interrupts() {
        let mut m = Model::new();
        let x = m.add_var(Variable::non_negative());
        let y = m.add_var(Variable::non_negative());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Le, 4.0));
        m.maximize(LinExpr::new() + (1.0, x) + (2.0, y));
        let past = std::time::Instant::now() - std::time::Duration::from_secs(1);
        let out = solve_in(&LpMatrix::new(&m), None, TOL, 0, Some(past)).unwrap();
        assert_eq!(out.status, LpStatus::Interrupted);
        assert!(out.values.is_empty());
    }

    #[test]
    fn larger_random_feasible_lp_agrees_with_known_optimum() {
        // Transportation-style LP with a known optimum: two suppliers (10, 15),
        // three consumers (8, 7, 10); costs minimize to 8*1+2*3+5*2+10*1 = 34
        // for cost matrix [[1,3,4],[4,2,1]] — verified by hand.
        let mut m = Model::new();
        let mut ship = Vec::new();
        for _ in 0..6 {
            ship.push(m.add_var(Variable::non_negative()));
        }
        let cost = [1.0, 3.0, 4.0, 4.0, 2.0, 1.0];
        // Supply rows.
        m.add_constraint(Constraint::new(
            LinExpr::new() + (1.0, ship[0]) + (1.0, ship[1]) + (1.0, ship[2]),
            Rel::Le,
            10.0,
        ));
        m.add_constraint(Constraint::new(
            LinExpr::new() + (1.0, ship[3]) + (1.0, ship[4]) + (1.0, ship[5]),
            Rel::Le,
            15.0,
        ));
        // Demand columns.
        for (j, d) in [8.0, 7.0, 10.0].iter().enumerate() {
            m.add_constraint(Constraint::new(
                LinExpr::new() + (1.0, ship[j]) + (1.0, ship[3 + j]),
                Rel::Ge,
                *d,
            ));
        }
        m.minimize(ship.iter().zip(cost).map(|(&v, c)| (c, v)).collect());
        let out = lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective - 34.0).abs() < 1e-6, "objective {}", out.objective);
    }

    #[test]
    fn optimal_outcome_carries_a_valid_basis() {
        let mut m = Model::new();
        let x = m.add_var(Variable::non_negative());
        let y = m.add_var(Variable::non_negative());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Le, 4.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (3.0, y), Rel::Le, 6.0));
        m.maximize(LinExpr::new() + (3.0, x) + (5.0, y));
        let out = lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        let basis = out.basis.expect("optimal solve returns its basis");
        assert_eq!(basis.statuses.len(), 4);
        assert_eq!(basis.order.len(), 2);
        let basics = basis.statuses.iter().filter(|&&s| s == VarStatus::Basic).count();
        assert_eq!(basics, 2);
        for &c in &basis.order {
            assert_eq!(basis.statuses[c], VarStatus::Basic);
        }
    }

    #[test]
    fn warm_resolve_after_bound_tighten_matches_cold() {
        // The branch-and-bound mutation: solve, tighten one variable's
        // bounds, re-solve warm; outcome must match a cold solve.
        let mut m = Model::new();
        let x = m.add_var(Variable::continuous(0.0, 4.0));
        let y = m.add_var(Variable::continuous(0.0, 4.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (2.0, x) + (1.0, y), Rel::Le, 7.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (3.0, y), Rel::Le, 9.0));
        m.maximize(LinExpr::new() + (4.0, x) + (5.0, y));
        let root = lp(&m);
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = root.basis.clone().unwrap();
        for tightened in [(0.0, 1.0), (2.0, 4.0), (0.0, 0.0)] {
            let bounds = [tightened, (0.0, 4.0)];
            let warm = resolve_lp(&m, Some(&bounds), &basis, TOL, 0).unwrap();
            let cold = solve_lp(&m, Some(&bounds), TOL, 0).unwrap();
            assert_eq!(warm.status, cold.status, "bounds {tightened:?}");
            assert!((warm.objective - cold.objective).abs() < 1e-6, "bounds {tightened:?}");
            assert!(warm.warm, "warm path should not have fallen back for {tightened:?}");
            assert!(
                warm.iterations <= cold.iterations,
                "warm {} > cold {} pivots for {tightened:?}",
                warm.iterations,
                cold.iterations
            );
        }
    }

    #[test]
    fn warm_resolve_detects_infeasible_child() {
        // Tightening x to an unreachable range must come back Infeasible on
        // the warm path, exactly like a cold solve.
        let mut m = Model::new();
        let x = m.add_var(Variable::continuous(0.0, 10.0));
        let y = m.add_var(Variable::continuous(0.0, 10.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Le, 4.0));
        m.maximize(LinExpr::new() + (1.0, x) + (1.0, y));
        let root = lp(&m);
        let basis = root.basis.clone().unwrap();
        let bounds = [(6.0, 10.0), (0.0, 10.0)];
        let warm = resolve_lp(&m, Some(&bounds), &basis, TOL, 0).unwrap();
        let cold = solve_lp(&m, Some(&bounds), TOL, 0).unwrap();
        assert_eq!(warm.status, LpStatus::Infeasible);
        assert_eq!(cold.status, LpStatus::Infeasible);
    }

    #[test]
    fn warm_resolve_after_rhs_change_matches_cold() {
        // The binary-subdivision mutation: only a right-hand side moves.
        let mut m = Model::new();
        let x = m.add_var(Variable::non_negative());
        let y = m.add_var(Variable::non_negative());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Le, 8.0));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (2.0, y), Rel::Le, 10.0));
        m.maximize(LinExpr::new() + (2.0, x) + (3.0, y));
        let root = lp(&m);
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = root.basis.clone().unwrap();
        for rhs in [6.0, 4.0, 2.0, 0.5] {
            let mut tightened = m.clone();
            tightened.set_rhs(0, rhs);
            let warm = resolve_lp(&tightened, None, &basis, TOL, 0).unwrap();
            let cold = solve_lp(&tightened, None, TOL, 0).unwrap();
            assert_eq!(warm.status, cold.status, "rhs {rhs}");
            assert!((warm.objective - cold.objective).abs() < 1e-6, "rhs {rhs}");
            assert!(warm.warm, "rhs {rhs} should stay on the warm path");
        }
    }

    #[test]
    fn stale_basis_falls_back_to_cold() {
        // A basis from a different model (wrong dimensions) must be
        // rejected, with the cold fallback still producing the optimum.
        let mut small = Model::new();
        let s = small.add_var(Variable::continuous(0.0, 1.0));
        small.maximize(LinExpr::new() + (1.0, s));
        let stale = lp(&small).basis.unwrap();

        let mut m = Model::new();
        let x = m.add_var(Variable::non_negative());
        let y = m.add_var(Variable::non_negative());
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Le, 4.0));
        m.maximize(LinExpr::new() + (1.0, x) + (2.0, y));
        let out = resolve_lp(&m, None, &stale, TOL, 0).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!(!out.warm, "stale basis must fall back to a cold solve");
        assert!((out.objective - 8.0).abs() < 1e-6);
    }

    #[test]
    fn warm_resolve_survives_degenerate_feasibility_model() {
        // Zero-objective (pure feasibility) LPs are maximally dual
        // degenerate — every dual ratio is 0. The anti-cycling guards must
        // still terminate the warm path with the right status.
        let mut m = Model::new();
        let vars: Vec<_> = (0..6).map(|_| m.add_var(Variable::continuous(0.0, 1.0))).collect();
        let sum: LinExpr = vars.iter().map(|&v| (1.0, v)).collect();
        m.add_constraint(Constraint::new(sum.clone(), Rel::Ge, 2.0));
        m.add_constraint(Constraint::new(sum, Rel::Le, 4.0));
        let root = lp(&m);
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = root.basis.clone().unwrap();
        for rhs in [3.0, 5.0, 1.0] {
            let mut moved = m.clone();
            moved.set_rhs(0, rhs);
            let warm = resolve_lp(&moved, None, &basis, TOL, 0).unwrap();
            let cold = solve_lp(&moved, None, TOL, 0).unwrap();
            assert_eq!(warm.status, cold.status, "rhs {rhs}");
        }
        // An unsatisfiable window must be proven infeasible warm, too.
        let mut bad = m.clone();
        bad.set_rhs(0, 7.0);
        let warm = resolve_lp(&bad, None, &basis, TOL, 0).unwrap();
        assert_eq!(warm.status, LpStatus::Infeasible);
    }

    #[test]
    fn beale_resolve_terminates_after_rhs_move() {
        // Cycling regression for the sparse + dual path: re-solve Beale's
        // example from its optimal basis after a bound move.
        let mut m = Model::new();
        let x1 = m.add_var(Variable::non_negative());
        let x2 = m.add_var(Variable::non_negative());
        let x3 = m.add_var(Variable::non_negative());
        let x4 = m.add_var(Variable::non_negative());
        m.add_constraint(Constraint::new(
            LinExpr::new() + (0.25, x1) + (-8.0, x2) + (-1.0, x3) + (9.0, x4),
            Rel::Le,
            0.0,
        ));
        m.add_constraint(Constraint::new(
            LinExpr::new() + (0.5, x1) + (-12.0, x2) + (-0.5, x3) + (3.0, x4),
            Rel::Le,
            0.0,
        ));
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x3), Rel::Le, 1.0));
        m.minimize(LinExpr::new() + (-0.75, x1) + (150.0, x2) + (-0.02, x3) + (6.0, x4));
        let root = lp(&m);
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = root.basis.clone().unwrap();
        let mut moved = m.clone();
        moved.set_rhs(2, 0.5); // x3 <= 0.5
        let warm = resolve_lp(&moved, None, &basis, TOL, 0).unwrap();
        let cold = solve_lp(&moved, None, TOL, 0).unwrap();
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!((warm.objective - cold.objective).abs() < 1e-6);
    }

    #[test]
    fn long_pivot_chains_refactorize() {
        // A chained LP that forces more pivots than the refactorization
        // interval; the counter must tick and the optimum stay exact.
        // min Σ x_i  s.t.  x_0 >= 1, x_i - x_{i-1} >= 1.
        let k = 80;
        let mut m = Model::new();
        let vars: Vec<_> = (0..k).map(|_| m.add_var(Variable::non_negative())).collect();
        m.add_constraint(Constraint::new(LinExpr::new() + (1.0, vars[0]), Rel::Ge, 1.0));
        for i in 1..k {
            m.add_constraint(Constraint::new(
                LinExpr::new() + (1.0, vars[i]) + (-1.0, vars[i - 1]),
                Rel::Ge,
                1.0,
            ));
        }
        m.minimize(vars.iter().map(|&v| (1.0, v)).collect());
        let out = lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        // x_i = i + 1  ->  Σ = k(k+1)/2.
        let expect = (k * (k + 1)) as f64 / 2.0;
        assert!((out.objective - expect).abs() < 1e-5, "objective {}", out.objective);
        assert!(out.iterations > REFACTOR_INTERVAL, "iterations {}", out.iterations);
        assert!(out.refactorizations > 0, "expected at least one refactorization");
    }

    /// A deterministic xorshift64 stream, as in `tests/proptest_brute_force.rs`.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A random bounded LP: 3–8 variables in `[0, 2..=6]` and 2–6 mixed
    /// rows that a random fractional point satisfies, with a random
    /// objective only if `costed`.
    fn random_bounded_lp(case: u64, costed: bool) -> Model {
        let mut next = stream(0x9e37_79b9_7f4a_7c15 ^ case.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let n = (next() % 6 + 3) as usize;
        let rows = (next() % 5 + 2) as usize;
        let mut m = Model::new();
        let uppers: Vec<f64> = (0..n).map(|_| (next() % 5 + 2) as f64).collect();
        let vars: Vec<_> =
            uppers.iter().map(|&u| m.add_var(Variable::continuous(0.0, u))).collect();
        let point: Vec<f64> = uppers.iter().map(|&u| u * (next() % 97 + 1) as f64 / 98.0).collect();
        for _ in 0..rows {
            let coeffs: Vec<f64> = (0..n).map(|_| (next() % 11) as f64 - 5.0).collect();
            let lhs: f64 = coeffs.iter().zip(&point).map(|(c, x)| c * x).sum();
            let slack = (next() % 4) as f64 + 0.25;
            let (rel, rhs) = match next() % 3 {
                0 => (Rel::Le, lhs + slack),
                1 => (Rel::Ge, lhs - slack),
                _ => (Rel::Eq, lhs),
            };
            let expr: LinExpr = vars.iter().zip(&coeffs).map(|(&v, &c)| (c, v)).collect();
            m.add_constraint(Constraint::new(expr, rel, rhs));
        }
        if costed {
            let obj: LinExpr = vars.iter().map(|&v| ((next() % 11) as f64 - 5.0, v)).collect();
            if next().is_multiple_of(2) {
                m.maximize(obj);
            } else {
                m.minimize(obj);
            }
        }
        m
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn shared_matrix_and_factorization_match_fresh_resolves() {
        // Branch and bound's access pattern: every child of the root
        // re-solves over one matrix from one shared basis. Each outcome must
        // equal a fresh `resolve_lp` of the same child bit for bit, and only
        // the first install may factorize.
        let (mut children, mut copied, mut priced) = (0usize, 0usize, 0usize);
        for case in 0..80u64 {
            for costed in [false, true] {
                let m = random_bounded_lp(case, costed);
                let root = lp(&m);
                let Some(basis) = root.basis.clone() else { continue };
                let mat = LpMatrix::new(&m);
                let shared = SharedBasis::new(basis.clone());
                let bounds: Vec<(f64, f64)> = m.vars.iter().map(effective_bounds).collect();
                let before = children;
                for (j, &v) in root.values.iter().enumerate() {
                    if (v - v.round()).abs() <= 1e-6 {
                        continue;
                    }
                    for up in [false, true] {
                        let mut child = bounds.clone();
                        if up {
                            child[j].0 = v.floor() + 1.0;
                        } else {
                            child[j].1 = v.floor();
                        }
                        let factored = shared.factor.get().is_some();
                        let got = resolve_in(&mat, Some(&child), &shared, TOL, 0, None).unwrap();
                        let fresh = resolve_lp(&m, Some(&child), &basis, TOL, 0).unwrap();
                        let at = format!("case {case} costed {costed} var {j} up {up}");
                        assert_eq!(got.status, fresh.status, "{at}");
                        assert_eq!(bits(&got.values), bits(&fresh.values), "{at}");
                        assert_eq!(got.objective.to_bits(), fresh.objective.to_bits(), "{at}");
                        assert_eq!(got.iterations, fresh.iterations, "{at}");
                        assert_eq!(got.basis, fresh.basis, "{at}");
                        assert_eq!(got.warm, fresh.warm, "{at}");
                        assert_eq!(got.devex_resets, fresh.devex_resets, "{at}");
                        // A copied factorization is the install's only saving.
                        let saved = usize::from(factored);
                        assert_eq!(got.refactorizations + saved, fresh.refactorizations, "{at}");
                        children += 1;
                        copied += saved;
                        priced += usize::from(costed && got.iterations > 0);
                    }
                }
                if children > before {
                    assert!(shared.factor.get().is_some(), "case {case}: slot never filled");
                }
            }
        }
        assert!(children >= 200, "only {children} children exercised");
        assert!(copied >= children / 2, "only {copied} of {children} installs copied");
        assert!(priced >= 50, "only {priced} costed children pivoted");
    }

    #[test]
    fn singular_basis_is_never_stored() {
        // x and y have identical columns, so a basis holding both is
        // singular: every install fails, the slot stays empty, and the
        // outcome is exactly the cold solve's.
        let mut m = Model::new();
        let x = m.add_var(Variable::continuous(0.0, 5.0));
        let y = m.add_var(Variable::continuous(0.0, 5.0));
        let z = m.add_var(Variable::continuous(0.0, 5.0));
        m.add_constraint(Constraint::new(
            LinExpr::new() + (1.0, x) + (1.0, y) + (1.0, z),
            Rel::Le,
            4.0,
        ));
        m.add_constraint(Constraint::new(
            LinExpr::new() + (1.0, x) + (1.0, y) + (-1.0, z),
            Rel::Ge,
            1.0,
        ));
        m.maximize(LinExpr::new() + (1.0, x) + (2.0, y) + (1.0, z));
        let singular = Basis {
            statuses: vec![
                VarStatus::Basic,
                VarStatus::Basic,
                VarStatus::AtLower,
                VarStatus::AtLower,
                VarStatus::AtUpper,
            ],
            order: vec![0, 1],
        };
        let mat = LpMatrix::new(&m);
        let shared = SharedBasis::new(singular);
        let cold = solve_lp(&m, None, TOL, 0).unwrap();
        assert_eq!(cold.status, LpStatus::Optimal);
        for attempt in 0..2 {
            let got = resolve_in(&mat, None, &shared, TOL, 0, None).unwrap();
            assert!(
                shared.factor.get().is_none(),
                "attempt {attempt}: a failed install was stored"
            );
            assert!(!got.warm, "attempt {attempt}");
            assert_eq!(bits(&got.values), bits(&cold.values), "attempt {attempt}");
            assert_eq!(got, cold, "attempt {attempt}");
        }
    }

    #[test]
    fn budgeted_fallback_shares_the_budget() {
        // Root: max Σx with every x_i basic at its row bound 5. Fixing the
        // x_i at 0 costs the dual one pivot per row but a cold solve a
        // single iteration. Under a budget smaller than the row count, the
        // warm attempt spends it all, so the fallback gets nothing.
        let k = 10;
        let mut m = Model::new();
        let vars: Vec<_> = (0..k).map(|_| m.add_var(Variable::continuous(0.0, 10.0))).collect();
        for &v in &vars {
            m.add_constraint(Constraint::new(LinExpr::new() + (1.0, v), Rel::Le, 5.0));
        }
        m.maximize(vars.iter().map(|&v| (1.0, v)).collect());
        let root = lp(&m);
        let basis = root.basis.clone().unwrap();
        let fixed = vec![(0.0, 0.0); k];
        let cold = solve_lp(&m, Some(&fixed), TOL, 0).unwrap();
        let warm = resolve_lp(&m, Some(&fixed), &basis, TOL, 0).unwrap();
        assert!(warm.warm);
        assert_eq!(warm.iterations, k);
        assert_eq!(cold.iterations, 1);
        let limit = k / 2;
        match resolve_lp(&m, Some(&fixed), &basis, TOL, limit) {
            Err(MilpError::IterationLimit { limit: reported }) => assert_eq!(reported, limit),
            other => panic!("a spent budget must stop the fallback, got {other:?}"),
        }
        // A budget the warm attempt leaves room in still reaches the optimum.
        let roomy = resolve_lp(&m, Some(&fixed), &basis, TOL, k + 1).unwrap();
        assert_eq!(roomy, warm);
    }
}
