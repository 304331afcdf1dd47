//! Devex pricing against independent answers: hand-derived LP optima, a
//! classical cycling example that Bland's safety net must terminate, and a
//! knapsack whose optimum is found by enumerating every subset. Warm
//! re-solves after an RHS change must match cold ones.

use rtr_milp::{
    solve_lp, solve_mip_warm, Constraint, LinExpr, LpStatus, Model, Rel, SolveOptions, Status,
    Variable,
};

/// A small transportation-style LP with a unique optimum (netlib-flavor:
/// dense-ish rows, mixed signs, no symmetric costs).
fn transport_lp() -> Model {
    let mut m = Model::new();
    // Ship from 2 sources (capacities 40, 30) to 3 sinks (demands 20, 25, 15)
    // with distinct unit costs.
    let costs = [[4.0, 6.0, 9.0], [5.0, 3.0, 7.0]];
    let xs: Vec<Vec<_>> = (0..2)
        .map(|s| {
            (0..3)
                .map(|d| m.add_var(Variable::continuous(0.0, 60.0).with_name(format!("x{s}{d}"))))
                .collect()
        })
        .collect();
    for (s, row) in xs.iter().enumerate() {
        let cap: LinExpr = row.iter().map(|&v| (1.0, v)).collect();
        m.add_constraint(Constraint::new(cap, Rel::Le, [40.0, 30.0][s]));
    }
    for d in 0..3 {
        let dem: LinExpr = xs.iter().map(|row| (1.0, row[d])).collect();
        m.add_constraint(Constraint::new(dem, Rel::Ge, [20.0, 25.0, 15.0][d]));
    }
    m.minimize(
        xs.iter()
            .enumerate()
            .flat_map(|(s, row)| row.iter().enumerate().map(move |(d, &v)| (costs[s][d], v)))
            .collect::<LinExpr>(),
    );
    m
}

/// A degenerate LP (many tied basic feasible solutions at the optimum).
/// The optimum is 14 at `x = y = z = 2`: the multipliers `(1, 1, 0, 1)` on
/// the four rows are a dual certificate for the same bound.
fn degenerate_lp() -> Model {
    let mut m = Model::new();
    let x = m.add_var(Variable::continuous(0.0, 10.0));
    let y = m.add_var(Variable::continuous(0.0, 10.0));
    let z = m.add_var(Variable::continuous(0.0, 10.0));
    m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, y), Rel::Le, 4.0));
    m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x) + (1.0, z), Rel::Le, 4.0));
    m.add_constraint(Constraint::new(LinExpr::new() + (1.0, y) + (1.0, z), Rel::Le, 4.0));
    m.add_constraint(Constraint::new(
        LinExpr::new() + (1.0, x) + (1.0, y) + (1.0, z),
        Rel::Le,
        6.0,
    ));
    m.maximize(LinExpr::new() + (3.0, x) + (2.0, y) + (2.0, z));
    m
}

/// Beale's classical cycling example: most-negative-reduced-cost pricing
/// with a naive tie rule cycles forever on this LP; the anti-cycling guard
/// must terminate it at the optimum (-0.05).
fn beale_lp() -> Model {
    let mut m = Model::new();
    let x1 = m.add_var(Variable::continuous(0.0, f64::INFINITY));
    let x2 = m.add_var(Variable::continuous(0.0, f64::INFINITY));
    let x3 = m.add_var(Variable::continuous(0.0, f64::INFINITY));
    let x4 = m.add_var(Variable::continuous(0.0, f64::INFINITY));
    m.add_constraint(Constraint::new(
        LinExpr::new() + (0.25, x1) + (-60.0, x2) + (-0.04, x3) + (9.0, x4),
        Rel::Le,
        0.0,
    ));
    m.add_constraint(Constraint::new(
        LinExpr::new() + (0.5, x1) + (-90.0, x2) + (-0.02, x3) + (3.0, x4),
        Rel::Le,
        0.0,
    ));
    m.add_constraint(Constraint::new(LinExpr::new() + (1.0, x3), Rel::Le, 1.0));
    m.minimize(LinExpr::new() + (-0.75, x1) + (150.0, x2) + (-0.02, x3) + (6.0, x4));
    m
}

#[test]
fn lp_objectives_match_known_optima() {
    for (name, model, expected) in [
        ("transport", transport_lp(), 280.0),
        ("degenerate", degenerate_lp(), 14.0),
        ("beale", beale_lp(), -0.05),
    ] {
        let lp = solve_lp(&model, None, 1e-7, 0).unwrap();
        assert_eq!(lp.status, LpStatus::Optimal, "{name} must solve");
        assert!(
            (lp.objective - expected).abs() < 1e-6,
            "{name}: expected {expected}, got {}",
            lp.objective
        );
    }
}

#[test]
fn beale_terminates() {
    let lp = solve_lp(&beale_lp(), None, 1e-7, 5_000).unwrap();
    assert_eq!(lp.status, LpStatus::Optimal, "cycled");
    assert!(lp.iterations < 1_000, "took {} pivots", lp.iterations);
}

const WEIGHTS: [f64; 8] = [5.0, 6.0, 4.0, 3.0, 7.0, 2.0, 5.0, 4.0];
const VALUES: [f64; 8] = [10.0, 13.0, 7.0, 5.0, 16.0, 3.0, 11.0, 8.0];

/// An 8-item knapsack with the given capacity.
fn knapsack_mip(capacity: f64) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..8).map(|_| m.add_var(Variable::binary())).collect();
    m.add_constraint(Constraint::new(
        vars.iter().zip(WEIGHTS).map(|(&v, w)| (w, v)).collect::<LinExpr>(),
        Rel::Le,
        capacity,
    ));
    m.maximize(vars.iter().zip(VALUES).map(|(&v, c)| (c, v)).collect::<LinExpr>());
    m
}

/// The knapsack optimum by enumerating all 256 subsets.
fn knapsack_brute_force(capacity: f64) -> f64 {
    let total = |mask: u32, per_item: [f64; 8]| -> f64 {
        (0..8).filter(|i| mask >> i & 1 == 1).map(|i| per_item[i]).sum()
    };
    (0u32..256)
        .filter(|&mask| total(mask, WEIGHTS) <= capacity)
        .map(|mask| total(mask, VALUES))
        .fold(f64::NEG_INFINITY, f64::max)
}

#[test]
fn knapsack_matches_enumeration() {
    let value = knapsack_brute_force(17.0);
    let out = solve_mip_warm(&knapsack_mip(17.0), &SolveOptions::optimal(), None).unwrap();
    assert_eq!(out.status, Status::Optimal);
    let sol = out.solution.unwrap();
    assert!((sol.objective - value).abs() < 1e-6, "expected {value}, got {}", sol.objective);
    // Two subsets reach the optimum, so check the chosen items rather than
    // compare vectors: they must fit and be worth exactly the optimum.
    let items: Vec<f64> = sol.values.iter().map(|v| v.round()).collect();
    let weight: f64 = items.iter().zip(WEIGHTS).map(|(x, w)| x * w).sum();
    let worth: f64 = items.iter().zip(VALUES).map(|(x, v)| x * v).sum();
    assert!(weight <= 17.0, "chosen items {items:?} overflow the knapsack");
    assert_eq!(worth, value, "chosen items {items:?}");
}

#[test]
fn warm_rhs_chain_matches_cold() {
    // The paper's subdivision loop: solve, then re-solve the same model
    // warm from the returned root basis after an RHS-only change.
    // Presolve off keeps the root basis reusable.
    let opts = SolveOptions { presolve: false, ..SolveOptions::optimal() };
    let mut model = knapsack_mip(17.0);
    let first = solve_mip_warm(&model, &opts, None).unwrap();
    assert!((first.solution.unwrap().objective - knapsack_brute_force(17.0)).abs() < 1e-6);
    model.set_rhs(0, 12.0);
    let warm = solve_mip_warm(&model, &opts, first.root_basis.as_ref()).unwrap();
    let cold = solve_mip_warm(&model, &opts, None).unwrap();
    assert_eq!(warm.status, cold.status);
    let (w, c) = (warm.solution.unwrap(), cold.solution.unwrap());
    assert_eq!(w.objective, c.objective, "warm and cold must agree");
    assert!((w.objective - knapsack_brute_force(12.0)).abs() < 1e-6);
}
