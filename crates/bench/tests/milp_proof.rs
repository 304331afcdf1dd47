//! The small-window optimality proof behind `runtime_comparison`, as a CI
//! gate: the 2×2 DCT window on both table devices must be proved to
//! optimality by the exact engine, warm-started and `--cold-start` runs
//! must agree, and (because every assertion is on solver *outcomes*) the
//! whole battery must also hold under ambient `RTR_FAILPOINTS` fault
//! injection on the `milp` sites — the CI `milp-proof` job runs it both
//! ways.

use rtr_bench::DctExperiment;
use rtr_core::model::{IlpModel, ModelOptions};
use rtr_graph::Latency;
use rtr_milp::{solve_mip, SolveOptions, Status};
use rtr_workloads::dct::dct_nxn;

#[test]
fn small_window_proved_optimal_warm_and_cold() {
    let graph = dct_nxn(2).expect("2x2 DCT builds");
    let n = 2;
    let options =
        ModelOptions { minimize_latency: true, include_dmin_cut: false, ..Default::default() };
    for exp in [DctExperiment::paper(3), DctExperiment::paper(5)] {
        let arch = exp.architecture();
        let d_max = rtr_core::max_latency(&graph, &arch, n);
        let ilp = IlpModel::build(&graph, &arch, n, d_max, Latency::ZERO, &options)
            .expect("model builds");

        let warm = solve_mip(ilp.model(), &SolveOptions::optimal()).expect("warm solve runs");
        assert_eq!(warm.status, Status::Optimal, "rmax {}: no optimality proof", exp.r_max);
        assert_eq!(warm.stats.gap_ppm, 0, "rmax {}: proved optimum must close the gap", exp.r_max);

        // `--cold-start` (warm starts disabled) must reach the same proof;
        // only the pivot path may differ.
        let cold_opts = SolveOptions { warm_start: false, ..SolveOptions::optimal() };
        let cold = solve_mip(ilp.model(), &cold_opts).expect("cold solve runs");
        assert_eq!(cold.status, Status::Optimal, "rmax {}", exp.r_max);
        let (w, c) = (warm.solution.expect("optimal"), cold.solution.expect("optimal"));
        assert!(
            (w.objective - c.objective).abs() < 1e-6,
            "rmax {}: warm {} vs cold {}",
            exp.r_max,
            w.objective,
            c.objective
        );
    }
}
