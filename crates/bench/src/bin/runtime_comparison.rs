//! §4 runtime claim: "in none of these experiments could the optimal
//! solution process get even a single feasible solution in the same run
//! time as the iterative solution process."
//!
//! We time the iterative exploration on the DCT, then give the *faithful
//! ILP backend* (the CPLEX stand-in) an optimality run with exactly that
//! wall-clock budget and report what it produced.
//!
//! `cargo run --release -p rtr-bench --bin runtime_comparison` runs the
//! committed deterministic-budget mode (structured windows under node
//! budgets, exact-engine runs under pivot budgets) and writes
//! `BENCH_solver.json`. `--deadline` restores the historical wall-clock
//! per-solve deadlines, whose solve traces depend on machine speed, and
//! writes `BENCH_solver_deadline.json` instead.

use rtr_bench::{BenchRun, DctExperiment};
use rtr_core::model::{IlpModel, ModelOptions};
use rtr_core::structured::StructuredSolver;
use rtr_core::{Exploration, IterationResult, SearchGoal, TemporalPartitioner};
use rtr_graph::Latency;
use rtr_milp::{solve_mip, solve_mip_warm, SolveOptions, Status};
use rtr_workloads::dct::{dct_4x4, dct_nxn};
use std::time::Instant;

/// The model options of the exact-engine runs: same shape as the milp
/// backend's default (`minimize_latency` on so `Status::Optimal` means a
/// proven latency optimum, the redundant `d_min` cut off).
fn proof_options() -> ModelOptions {
    ModelOptions { minimize_latency: true, include_dmin_cut: false, ..Default::default() }
}

/// Deterministic pivot budget for each full-size exact-engine run, per
/// device. Pivots — not nodes — are what bound MILP effort here: one
/// N = 10 node LP on the R_max = 576 device costs tens of thousands of
/// pivots (each ~10x pricier than on the half-size R_max = 1024 models),
/// so a node budget alone leaves the wall clock unbounded. The R_max =
/// 1024 budget is sized past the pivot at which the search finds its
/// first incumbent; the R_max = 576 budget documents how far the same
/// engine gets on a model whose *root relaxation alone* costs more than
/// the whole R_max = 1024 tree. Like every committed-mode budget they
/// are machine-independent, so the recorded counters are bit-identical
/// everywhere.
fn ilp_pivot_budget(r_max: u64) -> usize {
    if r_max == 576 {
        30_000
    } else {
        400_000
    }
}

/// Witness propagation over every window the structured budget left
/// undecided (`IterationResult::LimitReached`): a feasible assignment
/// recorded by *any other* window of the same exploration already decides
/// an undecided window when it fits the partition cap (`eta <= N`) and the
/// latency window (`D_a <= d_max`). The subdivision solves every window
/// from scratch, so a later iteration's solution can retroactively witness
/// an earlier window the per-window node budget gave up on. Decided
/// verdicts are patched into a copy of the exploration (so the recorded
/// `limit_windows` counts only what stays undecided), each witnessed
/// window is recorded as a `window_n<N>_i<I>.witnessed` counter and their
/// number under the historical key `ilp_proved_windows`, and the patched
/// exploration is returned.
fn witness_limit_windows(ex: &Exploration, prefix: &str, bench: &mut BenchRun) -> Exploration {
    let witnesses: Vec<(Latency, u32)> = ex
        .records
        .iter()
        .filter_map(|r| match r.result {
            IterationResult::Feasible { latency, eta } => Some((latency, eta)),
            _ => None,
        })
        .collect();
    let mut audited = ex.clone();
    let mut proved = 0u64;
    for r in &mut audited.records {
        if !matches!(r.result, IterationResult::LimitReached) {
            continue;
        }
        let Some(&(latency, eta)) =
            witnesses.iter().find(|&&(l, e)| e <= r.n && l.as_ns() <= r.d_max.as_ns())
        else {
            continue;
        };
        r.result = IterationResult::Feasible { latency, eta };
        proved += 1;
        bench.counter(format!("{prefix}window_n{}_i{}.witnessed", r.n, r.iteration), 1);
        println!(
            "  audit of limit window N = {} I = {}: witnessed feasible by the \
             exploration's own D_a = {:.0} ns, η = {eta} solution",
            r.n,
            r.iteration,
            latency.as_ns()
        );
    }
    bench.counter(format!("{prefix}ilp_proved_windows"), proved);
    audited
}

fn main() {
    let deadline_mode = std::env::args().skip(1).any(|a| a == "--deadline");
    let graph = dct_4x4();
    let mut bench = BenchRun::new(if deadline_mode { "solver_deadline" } else { "solver" });
    // Context for the parallel columns: with a single host core the workers
    // time-slice and the speedup sits near (or below) 1.0 by construction.
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    bench.counter("host_cpus", cpus as u64);
    println!(
        "mode: {} ({cpus} host cpu{})",
        if deadline_mode {
            "--deadline (5 s wall-clock per solve)"
        } else {
            "deterministic node/pivot budgets"
        },
        if cpus == 1 { "" } else { "s" },
    );
    for exp in [DctExperiment::paper(3), DctExperiment::paper(5)] {
        let arch = exp.architecture();
        let params = if deadline_mode { exp.params_deadline() } else { exp.params() };
        let partitioner =
            TemporalPartitioner::new(&graph, &arch, params.clone()).expect("tasks fit");
        let start = Instant::now();
        let exploration = partitioner.explore().expect("exploration runs");
        let iterative_time = start.elapsed();
        let iterative = exploration.best_latency.expect("DCT is feasible");
        println!(
            "R_max = {}: iterative procedure found D_a = {:.0} ns in {:.2?}",
            exp.r_max,
            iterative.as_ns(),
            iterative_time
        );
        let prefix = format!("rmax{}.", exp.r_max);
        let audited = witness_limit_windows(&exploration, &prefix, &mut bench);
        bench.record_exploration(&prefix, &audited);
        bench.metric(format!("{prefix}iterative_ms"), iterative_time.as_secs_f64() * 1e3);

        // The same exploration fanned out on 4 worker threads: the relaxed
        // bounds' wall-clock-limited windows overlap instead of serializing.
        let start = Instant::now();
        let parallel = partitioner.explore_parallel(4).expect("exploration runs");
        let parallel_time = start.elapsed();
        let parallel_latency = parallel.best_latency.expect("DCT is feasible");
        let speedup = iterative_time.as_secs_f64() / parallel_time.as_secs_f64();
        println!(
            "R_max = {}: parallel (4 threads) found D_a = {:.0} ns in {:.2?} ({speedup:.2}x)",
            exp.r_max,
            parallel_latency.as_ns(),
            parallel_time
        );
        bench.metric(format!("{prefix}parallel4_ms"), parallel_time.as_secs_f64() * 1e3);
        bench.metric(format!("{prefix}parallel4_best_latency_ns"), parallel_latency.as_ns());
        if cpus > 1 {
            bench.metric(format!("{prefix}parallel4_speedup"), speedup);
        } else {
            // One core: the workers time-slice, so a "speedup" would only
            // measure scheduler noise. Record the suppression instead.
            println!("  (single host cpu: {prefix}parallel4_speedup suppressed)");
            bench.counter(format!("{prefix}parallel4_speedup_suppressed_1cpu"), 1);
        }

        // Intra-window parallelism: the same sequential relaxation loop, but
        // every structured window solve splits its assignment tree across 4
        // workers sharing one incumbent and one node budget.
        let mut intra_params = params.clone();
        intra_params.solver_threads = 4;
        let intra_partitioner =
            TemporalPartitioner::new(&graph, &arch, intra_params).expect("tasks fit");
        let start = Instant::now();
        let intra = intra_partitioner.explore().expect("exploration runs");
        let intra_time = start.elapsed();
        let intra_latency = intra.best_latency.expect("DCT is feasible");
        let intra_speedup = iterative_time.as_secs_f64() / intra_time.as_secs_f64();
        println!(
            "R_max = {}: intra-window (4 threads) found D_a = {:.0} ns in {:.2?} ({intra_speedup:.2}x)",
            exp.r_max,
            intra_latency.as_ns(),
            intra_time
        );
        bench.metric(format!("{prefix}search_parallel4_ms"), intra_time.as_secs_f64() * 1e3);
        bench.metric(format!("{prefix}search_parallel4_best_latency_ns"), intra_latency.as_ns());
        if cpus > 1 {
            bench.metric(format!("{prefix}search_parallel4_speedup"), intra_speedup);
        } else {
            println!("  (single host cpu: {prefix}search_parallel4_speedup suppressed)");
            bench.counter(format!("{prefix}search_parallel4_speedup_suppressed_1cpu"), 1);
        }

        // Both layers on the unified work-stealing pool: candidate windows
        // fan out AND each window solve splits its tree, all under one
        // 4-thread budget — a stalled window's idle workers migrate to
        // other candidates instead of honouring a static per-layer split.
        let mut sched_params = params.clone();
        sched_params.solver_threads = 4;
        let sched_partitioner =
            TemporalPartitioner::new(&graph, &arch, sched_params).expect("tasks fit");
        let start = Instant::now();
        let unified = sched_partitioner.explore_parallel(4).expect("exploration runs");
        let unified_time = start.elapsed();
        let unified_latency = unified.best_latency.expect("DCT is feasible");
        let unified_speedup = iterative_time.as_secs_f64() / unified_time.as_secs_f64();
        println!(
            "R_max = {}: unified pool (4 threads, both layers) found D_a = {:.0} ns in {:.2?} \
             ({unified_speedup:.2}x)",
            exp.r_max,
            unified_latency.as_ns(),
            unified_time
        );
        bench.metric(format!("{prefix}search_sched4_ms"), unified_time.as_secs_f64() * 1e3);
        bench.metric(format!("{prefix}search_sched4_best_latency_ns"), unified_latency.as_ns());
        if cpus > 1 {
            bench.metric(format!("{prefix}search_sched4_speedup"), unified_speedup);
        } else {
            println!("  (single host cpu: {prefix}search_sched4_speedup suppressed)");
            bench.counter(format!("{prefix}search_sched4_speedup_suppressed_1cpu"), 1);
        }

        // Optimality run on the faithful ILP with the same budget: the
        // deterministic mode runs under a per-device pivot budget;
        // `--deadline` restores the historical "same wall-clock as the
        // iterative procedure" handicap, whose outcome depends on machine
        // speed.
        let n = exploration.best.as_ref().expect("feasible").partitions_used();
        let d_max = rtr_core::max_latency(&graph, &arch, n);
        let options = proof_options();
        let ilp = IlpModel::build(&graph, &arch, n, d_max, Latency::ZERO, &options)
            .expect("model builds");
        let (solve, budget_text) = if deadline_mode {
            (
                SolveOptions::optimal().with_time_limit(iterative_time),
                format!("{iterative_time:.2?}"),
            )
        } else {
            let pivots = ilp_pivot_budget(exp.r_max);
            (SolveOptions::optimal().with_pivot_limit(pivots), format!("{pivots} pivots"))
        };
        println!(
            "  ILP-to-optimality at N = {n}: {} variables, {} constraints, budget {budget_text}",
            ilp.model().var_count(),
            ilp.model().constraint_count(),
        );
        match ilp.model().solve(&solve) {
            Ok(out) => {
                let verdict = match out.status {
                    Status::Optimal => "proved optimality (!)",
                    Status::Feasible => "found an incumbent but no proof",
                    Status::LimitReached => "found NO feasible solution in the budget",
                    Status::Infeasible => "claims infeasible",
                    Status::Unbounded => "claims unbounded",
                };
                println!(
                    "  -> {} ({} nodes, {} simplex iterations, {} cuts, gap {} ppm)\n",
                    verdict,
                    out.stats.nodes,
                    out.stats.simplex_iterations,
                    out.stats.cuts_generated,
                    out.stats.gap_ppm
                );
                bench.record_counters(&format!("{prefix}ilp."), &out.stats);
                bench.counter(
                    format!("{prefix}ilp.found_feasible"),
                    u64::from(out.status.has_solution()),
                );
            }
            Err(e) => println!("  -> solver error: {e}\n"),
        }

        // Where the ILP backend *does* deliver: a small (2x2) DCT window on
        // the same device is proved to optimality outright, and after the
        // subdivision tightens the latency window, a re-solve warm-started
        // from the parent's root basis reaches the identical outcome with
        // fewer pivots than a cold solve of the same model.
        let small = dct_nxn(2).expect("2x2 DCT builds");
        let n_small = 2;
        let d_max = rtr_core::max_latency(&small, &arch, n_small);
        let mut small_ilp = IlpModel::build(&small, &arch, n_small, d_max, Latency::ZERO, &options)
            .expect("model builds");
        // Presolve off: the chained basis indexes the unreduced model, and
        // the cold reference must solve the identical model.
        let warm_opts = SolveOptions { presolve: false, ..SolveOptions::optimal() };
        let cold_opts = SolveOptions { warm_start: false, ..warm_opts.clone() };
        let parent = solve_mip(small_ilp.model(), &warm_opts).expect("small DCT window solves");
        assert_eq!(parent.status, Status::Optimal, "2x2 DCT must be decidable");
        bench.counter(
            format!("{prefix}small.ilp.found_feasible"),
            u64::from(parent.status.has_solution()),
        );
        bench.counter(format!("{prefix}small.ilp.nodes"), parent.stats.nodes as u64);
        bench.counter(format!("{prefix}small.ilp.pivots"), parent.stats.simplex_iterations as u64);
        let objective =
            parent.solution.as_ref().map(|s| s.objective).expect("optimal has a solution");
        println!(
            "  2x2 DCT window at N = {n_small}: ILP proved optimality, objective {objective:.3} \
             ({} nodes, {} pivots)",
            parent.stats.nodes, parent.stats.simplex_iterations
        );
        let basis = parent.root_basis.expect("unreduced optimal solve returns a root basis");
        small_ilp.set_latency_window(Latency::from_ns(d_max.as_ns() * 0.75), Latency::ZERO);
        let warm = solve_mip_warm(small_ilp.model(), &warm_opts, Some(&basis))
            .expect("warm re-solve runs");
        let cold = solve_mip(small_ilp.model(), &cold_opts).expect("cold re-solve runs");
        assert_eq!(warm.status, cold.status, "warm start changed the re-solve outcome");
        println!(
            "  tightened re-solve: warm {} pivots ({} warm starts, {} saved vs in-tree price), \
             cold {} pivots",
            warm.stats.simplex_iterations,
            warm.stats.warm_starts,
            warm.stats.pivots_saved,
            cold.stats.simplex_iterations
        );
        bench.counter(format!("{prefix}lp.warm_starts"), warm.stats.warm_starts as u64);
        bench.counter(format!("{prefix}lp.cold_starts"), warm.stats.cold_starts as u64);
        bench.counter(format!("{prefix}lp.refactorizations"), warm.stats.refactorizations as u64);
        bench.counter(format!("{prefix}lp.pivots_saved"), warm.stats.pivots_saved as u64);
        bench.counter(
            format!("{prefix}lp.pivots_warm_resolve"),
            warm.stats.simplex_iterations as u64,
        );
        bench.counter(
            format!("{prefix}lp.pivots_cold_resolve"),
            cold.stats.simplex_iterations as u64,
        );
    }
    // Dominance memoization's worth, measured where it is measurable: the
    // table windows above run under a fixed node budget, so with or
    // without the memo they visit exactly one budget's worth of nodes and
    // the delta says nothing about pruning. A relaxed device makes the
    // N = 3 and N = 4 DCT windows *decidable*; the node delta between two
    // exhausted searches is pure pruning.
    let relaxed =
        rtr_core::Architecture::new(rtr_graph::Area::new(2048), 512, Latency::from_us(1.0));
    let limits = rtr_core::SearchLimits { node_limit: 200_000_000, time_limit: None };
    for n in [3u32, 4] {
        let on = StructuredSolver::new(&graph, &relaxed, n, 1e12, SearchGoal::Optimal, limits);
        let (on_out, on_stats) = on.run();
        let off = StructuredSolver::new(&graph, &relaxed, n, 1e12, SearchGoal::Optimal, limits)
            .with_memo_limit(0);
        let (off_out, off_stats) = off.run();
        assert_eq!(on_out, off_out, "memoization changed the N = {n} optimum");
        assert!(on_stats.exhausted && off_stats.exhausted, "relaxed window must be decidable");
        let reduction = 1.0 - on_stats.nodes as f64 / off_stats.nodes as f64;
        println!(
            "dominance memoization, decidable DCT window N = {n}: {} of {} nodes \
             ({:.1}% fewer, {} dominance prunes)",
            on_stats.nodes,
            off_stats.nodes,
            reduction * 1e2,
            on_stats.dominance_prunes
        );
        bench.counter(format!("dominance.n{n}.nodes"), on_stats.nodes);
        bench.counter(format!("dominance.n{n}.nodes_nomemo"), off_stats.nodes);
        bench.counter(format!("dominance.n{n}.prunes"), on_stats.dominance_prunes);
        bench.metric(format!("dominance.n{n}.node_reduction"), reduction);
    }
    // Resilience overhead: the table-3 exploration streamed into a
    // checkpoint after every completed window (the most aggressive policy
    // the CLI offers, `--checkpoint-every 0`). The per-write latency comes
    // from the `checkpoint.write` trace spans; the sum of those spans over
    // the exploration's wall time is the overhead the checkpointing layer
    // promises to keep negligible.
    let exp = DctExperiment::paper(3);
    let arch = exp.architecture();
    let partitioner = TemporalPartitioner::new(&graph, &arch, exp.params()).expect("tasks fit");
    let ck_path = std::env::temp_dir().join(format!("rtr_bench_ck_{}.json", std::process::id()));
    let policy = rtr_core::CheckpointPolicy::new(&ck_path, std::time::Duration::ZERO);
    rtr_trace::install(std::sync::Arc::new(rtr_trace::MemorySink::new()));
    let start = Instant::now();
    let (result, events) =
        rtr_trace::capture(|| partitioner.explore_resumable(1, Some(&policy), None, |_| {}));
    let ck_wall = start.elapsed();
    rtr_trace::uninstall();
    let _ = std::fs::remove_file(&ck_path);
    let exploration = result.expect("checkpointed exploration runs");

    let mut write_us: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "checkpoint.write")
        .filter_map(|e| {
            e.fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("dur_us", rtr_trace::Value::U64(us)) => Some(*us),
                _ => None,
            })
        })
        .collect();
    assert!(!write_us.is_empty(), "checkpointed exploration emitted no write spans");
    write_us.sort_unstable();
    let pct = |p: f64| write_us[((write_us.len() - 1) as f64 * p).round() as usize];
    let (p50, p99) = (pct(0.50), pct(0.99));
    let total_us: u64 = write_us.iter().sum();
    let overhead = total_us as f64 / (ck_wall.as_secs_f64() * 1e6);
    println!(
        "checkpointing every window: {} writes, p50 {p50} us, p99 {p99} us \
         ({:.3}% of the {:.2?} exploration)",
        write_us.len(),
        overhead * 1e2,
        ck_wall
    );
    assert!(
        overhead < 0.01,
        "checkpoint writes consumed {:.2}% of the exploration wall time",
        overhead * 1e2
    );
    bench.counter("resilience.checkpoint_writes", write_us.len() as u64);
    bench.metric("resilience.checkpoint_write_p50_us", p50 as f64);
    bench.metric("resilience.checkpoint_write_p99_us", p99 as f64);
    bench.metric("resilience.checkpoint_overhead_frac", overhead);
    let d = &exploration.degradation;
    bench.counter("resilience.panics_caught", d.panics_caught);
    bench.counter("resilience.jobs_retried", d.jobs_retried);
    bench.counter("resilience.subtrees_lost", d.subtrees_lost);
    bench.counter("resilience.checkpoint_failures", d.checkpoint_failures);
    assert!(d.is_clean(), "clean bench run reported degradation: {}", d.render());

    println!(
        "paper's §4 claim is about matched run time: reproduce it with --deadline (the exact \
         engine finds nothing in the iterative wall clock). The committed pivot budgets are \
         deliberately larger, so an incumbent under them does not contradict it."
    );
    bench.write_and_report();
}
