//! Fault injection on the `milp.cut_separation` site: a tripped failpoint
//! skips a separation round without touching the cut pool, so faulted
//! solves degrade gracefully — same status, objective, and solution as a
//! clean run, with at most fewer cuts.
//!
//! This lives in its own integration binary because the failpoint
//! registry is process-global.

use rtr_milp::{solve_mip, Constraint, LinExpr, Model, Rel, SolveOptions, Status, Variable};
use rtr_trace::failpoint::{clear, install, FailpointConfig};

/// A knapsack whose LP relaxation is fractional at the root, so an
/// unfaulted optimality solve separates at least one cutting plane.
fn fractional_knapsack() -> Model {
    let mut m = Model::new();
    // Distinct subset values (no tied optima): the optimum {items 2, 4}
    // at value 23.5 is unique, so even solution vectors must match.
    let weights = [5.0, 6.0, 4.0, 3.0, 7.0];
    let values = [10.0, 13.0, 7.5, 5.0, 16.0];
    let vars: Vec<_> = (0..5).map(|_| m.add_var(Variable::binary())).collect();
    m.add_constraint(Constraint::new(
        vars.iter().zip(weights).map(|(&v, w)| (w, v)).collect::<LinExpr>(),
        Rel::Le,
        11.0,
    ));
    m.maximize(vars.iter().zip(values).map(|(&v, c)| (c, v)).collect::<LinExpr>());
    m
}

fn site() -> Vec<String> {
    vec!["milp.cut_separation".to_string()]
}

/// The failpoint registry is process-global; serialize the tests in this
/// binary so they cannot clobber each other's configuration.
static REGISTRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn faulted_separation_degrades_gracefully() {
    let _serial = REGISTRY_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let model = fractional_knapsack();
    let opts = SolveOptions::optimal();

    clear();
    let clean = solve_mip(&model, &opts).unwrap();
    assert_eq!(clean.status, Status::Optimal);
    assert!(
        clean.stats.cuts_generated >= 1,
        "fixture must separate cuts cleanly (got {})",
        clean.stats.cuts_generated
    );
    let clean_sol = clean.solution.as_ref().unwrap();

    // Every round faulted: no cuts at all, identical answer.
    install(FailpointConfig { seed: 1, rate: 1.0, sites: site() });
    let all_faulted = solve_mip(&model, &opts).unwrap();
    clear();
    assert_eq!(all_faulted.status, Status::Optimal);
    assert_eq!(all_faulted.stats.cuts_generated, 0, "all rounds skipped");
    assert_eq!(all_faulted.stats.cuts_active, 0, "pool stays empty");
    let faulted_sol = all_faulted.solution.as_ref().unwrap();
    assert_eq!(clean_sol.objective, faulted_sol.objective);
    assert_eq!(clean_sol.values, faulted_sol.values);

    // Partial faults across seeds: some rounds trip, some run; the pool is
    // never corrupted and the answer never moves.
    for seed in 0..16 {
        install(FailpointConfig { seed, rate: 0.5, sites: site() });
        let partial = solve_mip(&model, &opts).unwrap();
        clear();
        assert_eq!(partial.status, Status::Optimal, "seed {seed}");
        assert!(
            partial.stats.cuts_generated <= clean.stats.cuts_generated,
            "seed {seed}: faults can only suppress separation"
        );
        let sol = partial.solution.as_ref().unwrap();
        assert_eq!(clean_sol.objective, sol.objective, "seed {seed}");
        assert_eq!(clean_sol.values, sol.values, "seed {seed}");
    }
}

#[test]
fn faulted_separation_is_deterministic() {
    // The trip decision is a pure function of (seed, site, round): two
    // identically-configured solves produce identical statistics.
    let _serial = REGISTRY_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let model = fractional_knapsack();
    let opts = SolveOptions::optimal();
    install(FailpointConfig { seed: 7, rate: 0.5, sites: site() });
    let a = solve_mip(&model, &opts).unwrap();
    let b = solve_mip(&model, &opts).unwrap();
    clear();
    // Wall-clock time is the one legitimately non-deterministic statistic.
    let (mut sa, mut sb) = (a.stats, b.stats);
    sa.lp_time = std::time::Duration::ZERO;
    sb.lp_time = std::time::Duration::ZERO;
    assert_eq!(sa, sb);
    assert_eq!(a.solution.unwrap().values, b.solution.unwrap().values);
}
