//! Differential harness for the *intra-window* parallel search
//! ([`StructuredSolver::run_parallel`] and `ExploreParams::solver_threads`):
//! splitting one branch-and-bound tree across worker threads must be
//! *bit-identical* to the sequential search — same `SearchOutcome`, same
//! `Solution`, same exploration CSV — for every thread count. Dominance
//! memoization rides the same contract: toggling it may only change node
//! counts, never results.
//!
//! All cases use node-limit-only `SearchLimits` with enough headroom that no
//! limit fires: a *fired* limit under parallel search is best-effort by
//! design (which nodes the global budget covers depends on scheduling),
//! exactly like wall-clock deadlines on the sequential path.

use rtrpart::core::structured::StructuredSolver;
use rtrpart::core::SearchGoal;
use rtrpart::graph::{Area, Latency};
use rtrpart::workloads::dct::dct_4x4;
use rtrpart::workloads::random::random_layered;
use rtrpart::{validate_solution, Architecture, ExploreParams, SearchLimits, TemporalPartitioner};

mod common;
use common::{deterministic_params, instance};

const CASES: u64 = 24;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn intra_window_exploration_is_bit_identical_across_thread_counts() {
    let mut feasible = 0u64;
    for case in 0..CASES {
        let inst = instance(21, case);
        let g = random_layered(inst.seed, &inst.gp);
        let arch = Architecture::new(Area::new(inst.cap), inst.mem, Latency::from_ns(inst.ct));
        let Ok(part) = TemporalPartitioner::new(&g, &arch, deterministic_params(1)) else {
            continue;
        };
        let sequential = part.explore().unwrap();
        let reference_csv = sequential.to_csv();
        feasible += u64::from(sequential.best.is_some());
        for threads in THREAD_COUNTS {
            let part = TemporalPartitioner::new(&g, &arch, deterministic_params(threads)).unwrap();
            let parallel = part.explore().unwrap();
            assert_eq!(
                parallel.to_csv(),
                reference_csv,
                "case {case}: CSV diverged at {threads} solver threads"
            );
            assert_eq!(
                parallel.best, sequential.best,
                "case {case}: chosen solution diverged at {threads} solver threads"
            );
            assert_eq!(parallel.best_latency, sequential.best_latency, "case {case}");
            if let Some(best) = &parallel.best {
                assert!(validate_solution(&g, &arch, best).is_empty(), "case {case}");
            }
        }
    }
    // The matrix is only meaningful if a healthy share of cases is feasible.
    assert!(feasible >= CASES / 2, "only {feasible}/{CASES} cases feasible");
}

/// `solver_threads: 0` resolves a machine-dependent worker count (this is
/// what the CI `RTR_THREADS` matrix exercises), but the result must still
/// match the sequential exploration exactly.
#[test]
fn auto_solver_thread_count_matches_sequential() {
    for case in 0..8 {
        let inst = instance(22, case);
        let g = random_layered(inst.seed, &inst.gp);
        let arch = Architecture::new(Area::new(inst.cap), inst.mem, Latency::from_ns(inst.ct));
        let Ok(part) = TemporalPartitioner::new(&g, &arch, deterministic_params(1)) else {
            continue;
        };
        let sequential = part.explore().unwrap();
        let auto = TemporalPartitioner::new(&g, &arch, deterministic_params(0))
            .unwrap()
            .explore()
            .unwrap();
        assert_eq!(auto.to_csv(), sequential.to_csv(), "case {case}");
        assert_eq!(auto.best, sequential.best, "case {case}");
    }
}

/// Both layers of parallelism composed: candidate fan-out *and* intra-window
/// subtree workers, still bit-identical to the fully sequential exploration.
#[test]
fn nested_parallelism_matches_sequential() {
    for case in 0..8 {
        let inst = instance(21, case);
        let g = random_layered(inst.seed, &inst.gp);
        let arch = Architecture::new(Area::new(inst.cap), inst.mem, Latency::from_ns(inst.ct));
        let Ok(part) = TemporalPartitioner::new(&g, &arch, deterministic_params(1)) else {
            continue;
        };
        let sequential = part.explore().unwrap();
        let nested = TemporalPartitioner::new(&g, &arch, deterministic_params(4))
            .unwrap()
            .explore_parallel(4)
            .unwrap();
        assert_eq!(nested.to_csv(), sequential.to_csv(), "case {case}");
        assert_eq!(nested.best, sequential.best, "case {case}");
    }
}

/// One real optimality window on the paper's 32-task DCT: a relaxed device
/// (the search must *decide* the window, or parallel limit handling is
/// legitimately best-effort) solved to the proven optimum at every thread
/// count.
#[test]
fn dct_window_solve_is_bit_identical_across_thread_counts() {
    let g = dct_4x4();
    // Generous area so N = 2 is decidable quickly; μs-scale reconfiguration.
    let arch = Architecture::new(Area::new(2048), 512, Latency::from_us(1.0));
    let limits = SearchLimits { node_limit: 50_000_000, time_limit: None };
    let solver = StructuredSolver::new(&g, &arch, 2, 1e12, SearchGoal::Optimal, limits);
    let (sequential, seq_stats) = solver.run();
    assert!(seq_stats.exhausted, "the relaxed DCT window must be decidable");
    for threads in THREAD_COUNTS {
        let (parallel, par_stats) = solver.run_parallel(threads);
        assert!(par_stats.exhausted, "{threads} threads did not exhaust");
        assert_eq!(parallel, sequential, "DCT window diverged at {threads} threads");
    }
}

/// Fault injection on the `sched.job` site of subtree jobs is deterministic
/// *run-to-run at a fixed worker count*: the job frontier depends on how
/// many workers it has to feed, so (unlike the exploration-level sites) the
/// degradation is not comparable across counts — but at the same count, two
/// runs with the same `RTR_FAILPOINTS` seed must agree byte-for-byte on the
/// CSV, the solution summary, and the degradation report. Subprocess-based
/// for the same reason as the matrix test in `tests/parallel_determinism.rs`:
/// the registry is process-global and the env path needs coverage.
#[test]
fn subtree_job_faults_are_deterministic_run_to_run() {
    let bin = env!("CARGO_BIN_EXE_rtrpart");
    let dir = std::env::temp_dir().join(format!("rtr_fi_job_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let mut degraded = 0u64;
    for case in 0..4u64 {
        let inst = instance(21, case);
        let g = random_layered(inst.seed, &inst.gp);
        let arch = Architecture::new(Area::new(inst.cap), inst.mem, Latency::from_ns(inst.ct));
        if TemporalPartitioner::new(&g, &arch, deterministic_params(1)).is_err() {
            continue;
        }
        let graph = dir.join(format!("case{case}.tg"));
        std::fs::write(&graph, g.to_text()).expect("write graph");

        // `--threads` drives `solver_threads` in the binary, so > 1 splits
        // every window into subtree jobs, each behind `sched.job`.
        for threads in [2usize, 4] {
            let run = |tag: &str| {
                let csv = dir.join(format!("case{case}_t{threads}_{tag}.csv"));
                let out = std::process::Command::new(bin)
                    .env("RTR_FAILPOINTS", "2:0.5:sched.job")
                    .args([
                        "partition",
                        "--graph",
                        graph.to_str().unwrap(),
                        "--rmax",
                        &inst.cap.to_string(),
                        "--mmax",
                        &inst.mem.to_string(),
                        "--ct",
                        &format!("{}ns", inst.ct),
                        "--delta",
                        "100ns",
                        "--gamma",
                        "2",
                        "--solve-nodes",
                        "300000",
                        "--threads",
                        &threads.to_string(),
                        "--quiet",
                        "--csv",
                        csv.to_str().unwrap(),
                    ])
                    .output()
                    .expect("spawn rtrpart");
                assert!(
                    out.status.success(),
                    "case {case} at {threads} threads failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                (std::fs::read(&csv).expect("csv written"), out.stdout, out.stderr)
            };
            let first = run("a");
            let second = run("b");
            degraded += u64::from(!first.2.is_empty());
            assert_eq!(
                first, second,
                "case {case} at {threads} threads: two identically-seeded runs diverged"
            );
        }
    }
    assert!(degraded > 0, "no run tripped `sched.job`; the harness is dead");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dominance memoization must change node counts only — same CSV, same
/// solution, and (in aggregate over the matrix) strictly fewer nodes.
#[test]
fn dominance_memoization_preserves_results_and_prunes() {
    let mut nodes_on = 0u64;
    let mut nodes_off = 0u64;
    let mut prunes = 0u64;
    for case in 0..CASES {
        let inst = instance(23, case);
        let g = random_layered(inst.seed, &inst.gp);
        let arch = Architecture::new(Area::new(inst.cap), inst.mem, Latency::from_ns(inst.ct));
        let Ok(part) = TemporalPartitioner::new(&g, &arch, deterministic_params(1)) else {
            continue;
        };
        let with_memo = part.explore().unwrap();
        let off_params = ExploreParams { memo_limit: 0, ..deterministic_params(1) };
        let without_memo =
            TemporalPartitioner::new(&g, &arch, off_params).unwrap().explore().unwrap();
        assert_eq!(with_memo.to_csv(), without_memo.to_csv(), "case {case}: CSV diverged");
        assert_eq!(with_memo.best, without_memo.best, "case {case}: solution diverged");
        let on = with_memo.structured_totals();
        let off = without_memo.structured_totals();
        assert_eq!(off.dominance_prunes, 0, "case {case}: disabled memo still pruned");
        nodes_on += on.nodes;
        nodes_off += off.nodes;
        prunes += on.dominance_prunes;
    }
    // The DCT optimality window joins the aggregate: deep enough that the
    // memo provably fires.
    let g = dct_4x4();
    let arch = Architecture::new(Area::new(2048), 512, Latency::from_us(1.0));
    let limits = SearchLimits { node_limit: 50_000_000, time_limit: None };
    let on_solver = StructuredSolver::new(&g, &arch, 2, 1e12, SearchGoal::Optimal, limits);
    let (on_out, on) = on_solver.run();
    let off_solver =
        StructuredSolver::new(&g, &arch, 2, 1e12, SearchGoal::Optimal, limits).with_memo_limit(0);
    let (off_out, off) = off_solver.run();
    assert_eq!(on_out, off_out, "DCT optimum changed under memoization");
    nodes_on += on.nodes;
    nodes_off += off.nodes;
    prunes += on.dominance_prunes;
    // Under ambient fault injection `structured.memo_insert` drops memo
    // inserts, so the pruning differential legitimately shrinks; the
    // result-equality assertions above still had to hold.
    if std::env::var_os("RTR_FAILPOINTS").is_some() {
        return;
    }
    assert!(prunes > 0, "no dominance prunes across the whole matrix");
    assert!(nodes_on < nodes_off, "memoization did not reduce nodes: {nodes_on} vs {nodes_off}");
}
