//! Mixed-integer linear programming, built from scratch.
//!
//! This crate is the workspace's substitute for the CPLEX solver used by
//! Kaul & Vemuri (DATE 1999). It provides:
//!
//! * a model-builder API ([`Model`], [`Variable`], [`Constraint`],
//!   [`LinExpr`]) for linear programs over bounded continuous, integer, and
//!   binary variables;
//! * a sparse revised bounded-variable simplex ([`solve_lp`]) — CSC
//!   constraint matrix, eta-file basis factorization with periodic
//!   refactorization — with a composite phase 1 (no artificial variables);
//! * warm-started re-solves ([`resolve_lp`], [`solve_mip_warm`]): an
//!   optimal solve returns its [`Basis`], and a re-solve after a bound or
//!   right-hand-side change runs a dual simplex from that basis instead of
//!   a cold start — the access pattern of both branch and bound and the
//!   paper's binary-subdivision latency loop;
//! * a branch-and-bound driver for integer variables with two entry modes,
//!   matching the two ways the paper uses its solver: **feasibility** (return
//!   the first constraint-satisfying integer solution, the paper's
//!   `SolveModel()`) and **optimization** (solve to proven optimality, the
//!   paper's `Result(Optimal)` column).
//!
//! # Examples
//!
//! ```
//! use rtr_milp::{Model, Variable, Constraint, Rel, LinExpr, SolveOptions, Status};
//!
//! # fn main() -> Result<(), rtr_milp::MilpError> {
//! // maximize x + 2y  s.t.  x + y <= 4, x,y in {0..3} integer
//! let mut m = Model::new();
//! let x = m.add_var(Variable::integer(0.0, 3.0).with_name("x"));
//! let y = m.add_var(Variable::integer(0.0, 3.0).with_name("y"));
//! m.add_constraint(Constraint::new(
//!     LinExpr::new() + (1.0, x) + (1.0, y),
//!     Rel::Le,
//!     4.0,
//! ));
//! m.maximize(LinExpr::new() + (1.0, x) + (2.0, y));
//! let outcome = m.solve(&SolveOptions::optimal())?;
//! assert_eq!(outcome.status, Status::Optimal);
//! let sol = outcome.solution.unwrap();
//! assert_eq!(sol.objective, 7.0); // x = 1, y = 3
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must degrade with typed errors, never panic on inputs; the CI
// clippy gate denies these two lints for lib targets.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod branch;
mod cuts;
mod error;
mod model;
mod presolve;
mod simplex;
mod solution;

pub use branch::{solve_mip, solve_mip_warm};
pub use error::MilpError;
pub use model::{Constraint, LinExpr, Model, Rel, Sense, VarId, VarKind, Variable};
pub use presolve::{presolve, PresolveOutcome, PresolveStats};
pub use simplex::{resolve_lp, solve_lp, Basis, LpOutcome, LpStatus, VarStatus};
pub use solution::{Goal, Outcome, Solution, SolveOptions, SolveStats, Status};
