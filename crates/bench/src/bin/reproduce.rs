//! Regenerates one committed evaluation artifact:
//!
//! `cargo run --release -p rtr-bench --bin reproduce -- <artifact>`
//!
//! prints the body of `results/<artifact>.txt` on stdout and every reading
//! that depends on the clock or the thread count (solve times, node rates,
//! `runtime_comparison`'s 4-thread runs and its wall-clock-budgeted ILP)
//! on stderr. Every body comes from runs under node and pivot budgets
//! only, so it is the same on every host and every run; CI diffs it
//! against `results/`. Without an argument the binary lists the artifacts.
//!
//! Every body is made at one thread but one: `smoke`'s pool fixture runs
//! the AR filter on a pool pinned at 2 threads on both layers. It is still
//! deterministic because each of its windows is decided well inside its
//! node budget, so every verdict and the best D_a are exact facts, and the
//! pool's job and batch totals follow from the instance and the pinned
//! thread count alone. Its node counters depend on when a worker sees the
//! shared incumbent, so the fixture does not print them.

use rtr_bench::{
    node_budget_params, per_solve_limits, window_counts, DctExperiment, TABLE_NODE_LIMIT,
};
use rtr_core::baseline::suggest_relaxations;
use rtr_core::model::{IlpModel, ModelOptions};
use rtr_core::optimal::{solve_optimal, OptimalOutcome};
use rtr_core::structured::StructuredSolver;
use rtr_core::{
    Architecture, Backend, CheckpointPolicy, EnvMemoryPolicy, Exploration, ExploreParams,
    IterationResult, RefinementStrategy, SearchGoal, SearchLimits, TemporalPartitioner,
};
use rtr_graph::{Area, Latency, TaskGraph};
use rtr_milp::{solve_mip, solve_mip_warm, Outcome, SolveOptions, Status};
use rtr_sim::{simulate, simulate_with, SimOptions};
use rtr_trace::Instrument;
use rtr_workloads::dct::{dct_4x4, dct_nxn};
use rtr_workloads::random::{random_layered, RandomGraphParams};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-window node budget of the sweeps beyond the paper's tables.
const SWEEP_NODE_LIMIT: u64 = 10_000_000;

/// Every artifact, named after its `results/<artifact>.txt` file.
const ARTIFACTS: [(&str, fn()); 17] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", || dct_table(3)),
    ("table4", || dct_table(4)),
    ("table5", || dct_table(5)),
    ("table6", || dct_table(6)),
    ("table7", || dct_table(7)),
    ("table8", || dct_table(8)),
    ("ablation_ct_sweep", ablation_ct_sweep),
    ("ablation_env_policy", ablation_env_policy),
    ("ablation_formulation", ablation_formulation),
    ("ablation_strategy", ablation_strategy),
    ("scaling_dct", scaling_dct),
    ("prefetch_speedup", prefetch_speedup),
    ("workload_gallery", workload_gallery),
    ("smoke", smoke),
    ("runtime_comparison", runtime_comparison),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [name] = args.as_slice() {
        if let Some((_, run)) = ARTIFACTS.iter().find(|(artifact, _)| artifact == name) {
            let start = Instant::now();
            run();
            eprintln!("{name}: {:.2?}", start.elapsed());
            return;
        }
    }
    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    eprintln!("usage: reproduce <artifact>\nartifacts: {}", names.join(" "));
    std::process::exit(2);
}

/// Explores `graph` on `arch` at one thread, reporting the wall-clock
/// time on stderr under `label`.
fn explore(
    graph: &TaskGraph,
    arch: &Architecture,
    params: ExploreParams,
    label: &str,
) -> Exploration {
    let partitioner = TemporalPartitioner::new(graph, arch, params).expect("tasks fit");
    let start = Instant::now();
    let exploration = partitioner.explore().expect("exploration runs");
    eprintln!("{label}: {:.2?}", start.elapsed());
    exploration
}

/// Table 1: the AR-filter case study — the iterative procedure's result
/// matches the optimal solution.
fn table1() {
    let graph = rtr_workloads::ar::ar_filter().expect("static construction");
    // Size the device to about half the min-area total so the filter needs
    // 2-3 configurations, as in the paper's constrained setting.
    let r_max = graph.total_min_area().units() / 2;
    let arch = Architecture::new(Area::new(r_max), 64, Latency::from_us(1.0));
    let params = node_budget_params(20.0, 2, TABLE_NODE_LIMIT);
    let exploration = explore(&graph, &arch, params.clone(), "iterative");

    println!("Table 1 — AR filter (6 tasks), R_max = {r_max}, C_T = 1 µs, δ = 20 ns");
    println!("{:>4} {:>4} {:>12} {:>12} {:>12}", "N", "I", "Dmin(ns)", "Dmax(ns)", "Da(ns)");
    for r in &exploration.records {
        let result = match &r.result {
            IterationResult::Feasible { latency, .. } => format!("{:.1}", latency.as_ns()),
            IterationResult::Infeasible => "Inf.".to_owned(),
            IterationResult::LimitReached => "Inf.*".to_owned(),
        };
        println!(
            "{:>4} {:>4} {:>12.1} {:>12.1} {:>12}",
            r.n,
            r.iteration,
            r.d_min.as_ns(),
            r.d_max.as_ns(),
            result
        );
    }
    let iterative = exploration.best_latency.expect("AR filter is feasible").as_ns();
    println!("\nResult(Iterative): D_a = {iterative:.1} ns");

    // Result(Optimal): solve each explored bound to proven optimality and
    // take the best, the way the paper compares against CPLEX-optimal.
    let mut optimal_best = f64::INFINITY;
    for n in 1..=exploration.n_min_upper + 2 {
        match solve_optimal(&graph, &arch, n, Backend::Structured, per_solve_limits())
            .expect("structured backend cannot fail")
        {
            OptimalOutcome::Optimal(_, lat) => optimal_best = optimal_best.min(lat.as_ns()),
            OptimalOutcome::Interrupted(_) => println!("(N = {n}: optimality run interrupted)"),
            OptimalOutcome::Infeasible => {}
        }
    }
    println!("Result(Optimal):   D_a = {optimal_best:.1} ns");
    let gap = (iterative - optimal_best).abs();
    println!(
        "\npaper's claim — iterative equals optimal: {} (gap {:.1} ns, δ = 20 ns)",
        if gap <= 20.0 + 1e-6 { "REPRODUCED" } else { "NOT reproduced" },
        gap
    );

    // Cross-check with the faithful ILP backend (the CPLEX path the paper
    // actually used): the exploration must land within δ of the structured
    // backend.
    let milp = explore(&graph, &arch, ExploreParams { backend: Backend::Milp, ..params }, "milp");
    match milp.best_latency {
        Some(lat) => println!(
            "ILP-backend cross-check: D_a = {:.1} ns ({} within δ of structured)",
            lat.as_ns(),
            if (lat.as_ns() - iterative).abs() <= 20.0 + 1e-6 { "agrees" } else { "DISAGREES" }
        ),
        None => println!("ILP-backend cross-check: no solution (DISAGREES)"),
    }
}

/// Table 2: the DCT task kinds and their design points (input data of the
/// case study; reconstructed — see DESIGN.md).
fn table2() {
    let graph = dct_4x4();
    println!("Table 2 — design points for the DCT task kinds (reconstructed)");
    println!("{:<6} {:<12} {:>8} {:>12}", "Task", "Module set", "Area", "Latency(ns)");
    for (kind, name) in [("T1", "vp1_r0_c0"), ("T2", "vp2_r0_c0")] {
        let task = graph.task(graph.task_by_name(name).expect("task exists"));
        for dp in task.design_points() {
            println!(
                "{:<6} {:<12} {:>8} {:>12.0}",
                kind,
                dp.name(),
                dp.area().units(),
                dp.latency().as_ns()
            );
        }
    }
    println!("\nderived quantities (these pin the reconstruction to the paper):");
    println!("  Σ max-latency  = {:>8.0} ns (paper: 25,440)", graph.total_max_latency().as_ns());
    println!(
        "  critical path  = {:>8.0} ns (paper: 905)",
        graph.critical_path_min_latency().as_ns()
    );
    println!("  Σ min-area     = {:>8} (N_min^l: 8 @ 576, 5 @ 1024)", graph.total_min_area());
    println!("  Σ max-area     = {:>8} (N_min^u: 11 @ 576, 7 @ 1024)", graph.total_max_area());
}

/// Tables 3–8: the DCT refinement log of one paper configuration, one row
/// per `SolveModel()` call with the bounds shown *without* the `N·C_T`
/// reconfiguration overhead, like the paper's "Bound (without N×C_T)"
/// columns. Each window's solve time goes to stderr.
fn dct_table(table: u32) {
    let exp = DctExperiment::paper(table);
    let (graph, arch) = (dct_4x4(), exp.architecture());
    let exploration = explore(&graph, &arch, exp.params(), "exploration");
    println!(
        "Table {} — DCT, R_max = {}, C_T = {}, δ = {} ns, α = {}, γ = {}",
        exp.table, exp.r_max, exp.ct, exp.delta_ns, exp.alpha, exp.gamma
    );
    println!(
        "{:>4} {:>4} {:>14} {:>14} {:>14} {:>4}",
        "N", "I", "Dmin(ns)", "Dmax(ns)", "Da(ns)", "η"
    );
    for r in &exploration.records {
        // Da is shown with the same N·C_T normalization as the bound
        // columns, so Da ≤ Dmax holds row-wise; η shows how many
        // partitions the solution actually used.
        let (result, eta) = match &r.result {
            IterationResult::Feasible { latency, eta } => (
                format!("{:.0}", latency.as_ns() - (arch.reconfig_time() * r.n).as_ns()),
                eta.to_string(),
            ),
            IterationResult::Infeasible => ("Inf.".to_owned(), "-".to_owned()),
            IterationResult::LimitReached => ("Inf.*".to_owned(), "-".to_owned()),
        };
        println!(
            "{:>4} {:>4} {:>14.0} {:>14.0} {:>14} {:>4}",
            r.n,
            r.iteration,
            r.d_min_execution(&arch).as_ns(),
            r.d_max_execution(&arch).as_ns(),
            result,
            eta,
        );
        eprintln!("N = {} I = {}: {:.1?}", r.n, r.iteration, r.elapsed);
    }
    match (&exploration.best, exploration.best_latency) {
        (Some(best), Some(latency)) => println!(
            "best: D_a = {:.0} ns total ({:.0} ns execution over η = {} partitions)",
            latency.as_ns(),
            best.execution_latency(&graph).as_ns(),
            best.partitions_used()
        ),
        _ => println!("no feasible solution found"),
    }
    println!(
        "(N_min^l = {}, N_min^u = {}; `Inf.*` = search budget exhausted, treated as infeasible)",
        exploration.n_min_lower, exploration.n_min_upper
    );
}

/// Sweeps the reconfiguration overhead `C_T` on the DCT and watches the
/// chosen partition count and design points move — §2's "Area-Latency
/// Tradeoff" quantified. The crossover where minimizing partitions stops
/// being optimal is the figure of merit.
fn ablation_ct_sweep() {
    let graph = dct_4x4();
    println!("C_T sweep on the 4x4 DCT, R_max = 1024, δ = 400 ns, γ = 2");
    println!(
        "{:>12} {:>5} {:>14} {:>14} {:>16}",
        "C_T", "η", "exec (ns)", "total", "mean area/cfg"
    );
    for ct_ns in [30.0, 100.0, 300.0, 1e3, 3e3, 1e4, 1e5, 1e6, 1e7] {
        let ct = Latency::from_ns(ct_ns);
        let arch = Architecture::new(Area::new(1024), 512, ct);
        let params = node_budget_params(400.0, 2, TABLE_NODE_LIMIT);
        let best = explore(&graph, &arch, params, &ct.to_string()).best.expect("DCT is feasible");
        let eta = best.partitions_used();
        let mean_area: f64 =
            (1..=eta).map(|p| best.partition_area(&graph, p).units() as f64).sum::<f64>()
                / f64::from(eta);
        println!(
            "{:>12} {:>5} {:>14.0} {:>14} {:>16.0}",
            ct.to_string(),
            eta,
            best.execution_latency(&graph).as_ns(),
            best.total_latency(&graph, &arch).to_string(),
            mean_area
        );
    }
    println!("\nexpected shape: small C_T -> more partitions, lower execution latency;");
    println!("large C_T -> the minimum-partition packing (η = N_min^l) wins.");
}

/// The environment-memory policy (DESIGN.md substitution note): the
/// paper's constraint (3) charges environment data against `M_max` (our
/// `Resident` policy); a host that streams I/O between configurations
/// (`Streamed`) frees that memory. Measures how far the policy moves the
/// feasibility frontier on memory-tight devices.
fn ablation_env_policy() {
    let graph = dct_4x4();
    // Total env input is 16 tasks × 4 words = 64; outputs 16 × 1.
    println!("{:>8} {:>12} {:>16} {:>16}", "M_max", "policy", "feasible?", "D_a exec (ns)");
    for m_max in [16u64, 48, 80, 512] {
        for policy in [EnvMemoryPolicy::Resident, EnvMemoryPolicy::Streamed] {
            let arch = Architecture::new(Area::new(1024), m_max, Latency::from_us(1.0))
                .with_env_policy(policy);
            let params = node_budget_params(800.0, 1, SWEEP_NODE_LIMIT);
            let ex = explore(&graph, &arch, params, &format!("M_max = {m_max} {policy}"));
            let exec = ex.best.as_ref().map(|b| b.execution_latency(&graph).as_ns());
            println!(
                "{:>8} {:>12} {:>16} {:>16}",
                m_max,
                policy.to_string(),
                if ex.best.is_some() { "yes" } else { "no" },
                exec.map(|e| format!("{e:.0}")).unwrap_or_else(|| "-".into())
            );
        }
    }
    println!("\nexpected shape: at tight M_max the resident policy is infeasible (or");
    println!("forced into worse packings) while streaming remains feasible; with ample");
    println!("memory the two coincide.");
}

/// The ILP formulation choices recorded in DESIGN.md: loose vs. tight `w`
/// linearization (the extra `w ≤ …` cuts), the `D_min` lower-bound cut
/// (10) on vs. off, and greedy α/γ seeding vs. α = γ = 0.
fn ablation_formulation() {
    // Part 1: linearization tightness and the D_min cut, on a corpus of
    // seeded random instances solved by the faithful ILP backend.
    println!("== ILP formulation variants (feasibility solves, 8 random 6-task instances) ==");
    println!("{:>26} {:>10} {:>12}", "variant", "rows", "B&B nodes");
    let variants: [(&str, ModelOptions); 3] = [
        ("loose w, with Dmin cut", ModelOptions::default()),
        (
            "tight w, with Dmin cut",
            ModelOptions { tight_linearization: true, ..Default::default() },
        ),
        ("loose w, no Dmin cut", ModelOptions { include_dmin_cut: false, ..Default::default() }),
    ];
    for (name, options) in &variants {
        let mut rows = 0usize;
        let mut nodes = 0usize;
        let start = Instant::now();
        for seed in 0..8u64 {
            let g = random_layered(seed, &RandomGraphParams { tasks: 6, ..Default::default() });
            let arch = Architecture::new(Area::new(300), 64, Latency::from_us(1.0));
            let n = 3;
            let d_max = rtr_core::max_latency(&g, &arch, n);
            let mid = Latency::from_ns(
                (d_max.as_ns() + rtr_core::min_latency(&g, &arch, n).as_ns()) / 2.0,
            );
            let ilp =
                IlpModel::build(&g, &arch, n, mid, Latency::ZERO, options).expect("model builds");
            rows += ilp.model().constraint_count();
            let out = ilp.model().solve(&SolveOptions::feasibility()).expect("solves");
            nodes += out.stats.nodes;
        }
        eprintln!("{name}: {:.2?}", start.elapsed());
        println!("{:>26} {:>10} {:>12}", name, rows, nodes);
    }

    // Part 2: greedy α/γ seeding on the DCT (paper §3.2.2).
    println!("\n== α/γ seeding on the DCT (R_max = 576) ==");
    let g = dct_4x4();
    let arch = Architecture::new(Area::new(576), 512, Latency::from_us(1.0));
    let (alpha, gamma) = suggest_relaxations(&g, &arch);
    println!(
        "greedy suggests α = {alpha}, γ = {gamma} (N_min^l = {}, N_min^u = {})",
        rtr_core::min_area_partitions(&g, &arch),
        rtr_core::max_area_partitions(&g, &arch)
    );
    for (name, a, c) in [("α = γ = 0", 0, 0), ("greedy-seeded", alpha, gamma)] {
        let params = ExploreParams { alpha: a, ..node_budget_params(400.0, c, TABLE_NODE_LIMIT) };
        let ex = explore(&g, &arch, params, name);
        println!(
            "{:>14}: D_a = {:?} ns, {} solves",
            name,
            ex.best_latency.map(|l| l.as_ns()),
            ex.records.len()
        );
    }
}

/// Bisection (the paper's Figure 1) vs. aggressive descent as the
/// window-tightening strategy of `Reduce_Latency`, on the DCT.
fn ablation_strategy() {
    let graph = dct_4x4();
    for exp in [DctExperiment::paper(5), DctExperiment::paper(7)] {
        let arch = exp.architecture();
        println!(
            "DCT, R_max = {}, δ = {} ns (table {} setup):",
            exp.r_max, exp.delta_ns, exp.table
        );
        for strategy in [RefinementStrategy::Bisection, RefinementStrategy::AggressiveDescent] {
            let params = ExploreParams { strategy, ..exp.params() };
            let label = format!("table {} {strategy}", exp.table);
            let ex = explore(&graph, &arch, params, &label);
            println!(
                "  {:>18}: D_a = {:?} ns in {} solves",
                strategy.to_string(),
                ex.best_latency.map(|l| l.as_ns()),
                ex.records.len()
            );
        }
    }
    println!("\nbisection pays extra solves to recover from undecided windows;");
    println!("aggressive descent stops refining a bound at its first failure.");
}

/// Extension (not in the paper): how the iterative procedure scales with
/// task-graph size, on the `n × n` DCT generalization (`2·n²` tasks). The
/// paper claims scalability only qualitatively.
fn scaling_dct() {
    println!(
        "{:>4} {:>6} {:>6} {:>6} {:>8} {:>14}",
        "n", "tasks", "edges", "N_l", "solves", "D_a exec (ns)"
    );
    for n in 2..=6usize {
        let graph = dct_nxn(n).expect("valid size");
        let arch = Architecture::new(Area::new(1024), 4096, Latency::from_us(1.0));
        let params = node_budget_params(400.0, 1, SWEEP_NODE_LIMIT);
        let exploration = explore(&graph, &arch, params, &format!("n = {n}"));
        let exec = exploration.best.as_ref().map(|b| b.execution_latency(&graph).as_ns());
        println!(
            "{:>4} {:>6} {:>6} {:>6} {:>8} {:>14}",
            n,
            graph.task_count(),
            graph.edge_count(),
            exploration.n_min_lower,
            exploration.records.len(),
            exec.map(|e| format!("{e:.0}")).unwrap_or_else(|| "-".into()),
        );
    }
    println!("\nper-window budgets keep the wall clock bounded; larger instances spend");
    println!("their budget on fewer, harder windows (undecided windows count as Inf.*).");
}

/// Extension: configuration prefetching on a double-buffered device (the
/// behaviour of time-multiplexed FPGAs like the paper's reference \[12\]).
/// The optimizer's analytic model charges `η·C_T` for reconfiguration; a
/// prefetching device hides loads behind execution, so the *measured*
/// latency of the same solution drops — most where `C_T` is comparable to
/// per-partition execution time.
fn prefetch_speedup() {
    let graph = dct_4x4();
    println!("{:>12} {:>5} {:>14} {:>14} {:>9}", "C_T", "η", "blocking", "prefetch", "speedup");
    for ct_ns in [30.0, 100.0, 300.0, 1e3, 3e3, 1e4] {
        let ct = Latency::from_ns(ct_ns);
        let arch = Architecture::new(Area::new(1024), 512, ct);
        let params = node_budget_params(400.0, 1, SWEEP_NODE_LIMIT);
        let best = explore(&graph, &arch, params, &ct.to_string()).best.expect("DCT is feasible");
        let blocking = simulate(&graph, &arch, &best).expect("valid solution");
        let prefetch = simulate_with(&graph, &arch, &best, &SimOptions { prefetch: true })
            .expect("valid solution");
        println!(
            "{:>12} {:>5} {:>14} {:>14} {:>8.2}x",
            ct.to_string(),
            best.partitions_used(),
            blocking.total_latency.to_string(),
            prefetch.total_latency.to_string(),
            blocking.total_latency.as_ns() / prefetch.total_latency.as_ns()
        );
    }
    println!("\nthe speedup peaks where C_T is comparable to per-partition execution;");
    println!("tiny C_T has nothing to hide, huge C_T cannot be hidden.");
}

/// Partitions every built-in workload on both architecture regimes
/// (ms-scale Wildforce-class and ns-scale time-multiplexed): graphs beyond
/// the paper's two case studies.
fn workload_gallery() {
    let workloads: Vec<(&str, TaskGraph)> = vec![
        ("ar_filter", rtr_workloads::ar::ar_filter().expect("static")),
        ("dct_4x4", dct_4x4()),
        ("fft_16", rtr_workloads::fft::fft_graph(16, 4).expect("valid shape")),
        ("jpeg", rtr_workloads::jpeg::jpeg_pipeline().expect("static")),
        ("matmul_3x3", rtr_workloads::matmul::matmul_graph(3, 2).expect("valid shape")),
        ("random_20", random_layered(7, &RandomGraphParams { tasks: 20, ..Default::default() })),
    ];
    println!(
        "{:<12} {:>6} {:>6} {:>10} {:>5} {:>14} {:>14}",
        "workload", "tasks", "edges", "C_T", "η", "exec", "total"
    );
    for (name, graph) in &workloads {
        // Device sized to half the min-area total, capped sensibly.
        let r_max = (graph.total_min_area().units() / 2).max(64);
        for ct in [Latency::from_ns(100.0), Latency::from_ms(5.0)] {
            let arch = Architecture::new(Area::new(r_max), 4096, ct);
            let params = node_budget_params(50.0, 2, SWEEP_NODE_LIMIT);
            let Ok(partitioner) = TemporalPartitioner::new(graph, &arch, params) else {
                println!("{name:<12} task too large for R_max = {r_max}");
                continue;
            };
            let start = Instant::now();
            let ex = partitioner.explore().expect("exploration runs");
            eprintln!("{name} {ct}: {:.2?}", start.elapsed());
            match (&ex.best, ex.best_latency) {
                (Some(best), Some(latency)) => {
                    let eta = best.partitions_used();
                    println!(
                        "{:<12} {:>6} {:>6} {:>10} {:>5} {:>14} {:>14}",
                        name,
                        graph.task_count(),
                        graph.edge_count(),
                        ct.to_string(),
                        eta,
                        best.execution_latency(graph).to_string(),
                        latency.to_string()
                    );
                }
                _ => println!("{name:<12} no feasible solution at R_max = {r_max}"),
            }
        }
    }
    println!("\nslow-reconfiguration devices (5 ms) pin η at the packing minimum; the");
    println!("fast regime trades extra configurations for faster design points.");
}

/// The smoke fixtures: small runs whose every exact counter is printed, so
/// a change that moves any of them shows in `results/smoke.txt`. Three
/// explorations (the AR filter and a relaxed DCT at one thread, the AR
/// filter again on a 2-thread pool) and one scripted `rtrd` solve-cache
/// sequence. Node rates go to stderr.
fn smoke() {
    println!("Smoke fixtures: window counts, best D_a and exact counters");

    // AR filter on a device holding half the total minimum area: exercises
    // infeasible windows, latency/area pruning, and the dominance memo.
    let ar = rtr_workloads::ar::ar_filter().expect("static construction");
    let r_max = ar.total_min_area().units() / 2;
    let arch = Architecture::new(Area::new(r_max), 64, Latency::from_us(1.0));
    let ar_params = node_budget_params(50.0, 1, TABLE_NODE_LIMIT);
    println!("\nar: AR filter, R_max = {r_max}, C_T = 1 µs, δ = 50 ns, γ = 1, 1 thread");
    let ex = explore(&ar, &arch, ar_params.clone(), "ar");
    print_exploration("ar.", &ex);

    // Relaxed DCT: two windows are decided and three end on the node
    // budget, which stops the search after the same nodes on every host.
    let exp = DctExperiment {
        table: 0,
        r_max: 1024,
        ct: Latency::from_us(1.0),
        delta_ns: 2_000.0,
        alpha: 0,
        gamma: 0,
    };
    println!("\ndct: 4x4 DCT, R_max = 1024, C_T = 1 µs, δ = 2000 ns, γ = 0, 1 thread");
    let ex = explore(&dct_4x4(), &exp.architecture(), exp.params(), "dct");
    print_exploration("dct.", &ex);

    // The AR filter on the unified pool, 2 threads on both layers: window
    // outcomes and the pool's totals only (see the module docs).
    println!("\nsched: the ar fixture on a 2-thread pool, both layers");
    let params = ExploreParams { solver_threads: 2, ..ar_params };
    let partitioner = TemporalPartitioner::new(&ar, &arch, params).expect("AR tasks fit");
    let board = rtr_trace::status::board();
    let before = board.snapshot();
    let ex = partitioner.explore_parallel(2).expect("exploration runs");
    let after = board.snapshot();
    print_windows("sched.", &ex);
    print_value("sched.jobs", after.sched_jobs - before.sched_jobs);
    print_value("sched.batches", after.sched_batches - before.sched_batches);
    print_value("sched.nested_batches", after.sched_nested_batches - before.sched_nested_batches);
    print_value("sched.lost_jobs", after.sched_lost_jobs - before.sched_lost_jobs);

    // The rtrd solve cache under one scripted sequence against a scratch
    // directory: miss, store, hit, corrupt, evict, miss. Each counter is a
    // fact of the cache's verify-and-quarantine logic.
    println!("\nrtrd: solve cache, miss -> store -> hit -> corrupt -> evict -> miss");
    let cache_dir = std::env::temp_dir().join(format!("rtrd_smoke_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = rtrd::SolveCache::open(&cache_dir).expect("open scratch cache");
    let checkpoint = rtr_core::Checkpoint {
        version: rtr_core::checkpoint::CHECKPOINT_VERSION,
        fingerprint: 0x51,
        records: Vec::new(),
    };
    let before = board.snapshot();
    assert!(matches!(cache.load(0x51), rtrd::Lookup::Miss), "cold cache must miss");
    assert!(cache.store(0x51, &checkpoint), "store must succeed");
    assert!(matches!(cache.load(0x51), rtrd::Lookup::Hit(_)), "stored entry must hit");
    let entry = cache.dir().join(format!("{:016x}.rtrc", 0x51u64));
    let mut bytes = std::fs::read(&entry).expect("entry exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&entry, &bytes).expect("corrupt entry");
    assert!(
        matches!(cache.load(0x51), rtrd::Lookup::Evicted),
        "corrupt entry must be quarantined, never served"
    );
    assert!(matches!(cache.load(0x51), rtrd::Lookup::Miss), "quarantined entry is gone");
    let after = board.snapshot();
    let _ = std::fs::remove_dir_all(&cache_dir);
    print_value("rtrd.cache.hits", after.rtrd_cache_hits - before.rtrd_cache_hits);
    print_value("rtrd.cache.misses", after.rtrd_cache_misses - before.rtrd_cache_misses);
    print_value("rtrd.cache.evictions", after.rtrd_cache_evictions - before.rtrd_cache_evictions);
}

/// One `key value` line of the smoke body.
fn print_value(key: &str, value: impl std::fmt::Display) {
    println!("{key:<34} {value:>12}");
}

/// An exploration's window counts by outcome and its best D_a.
fn print_windows(prefix: &str, ex: &Exploration) {
    for (name, value) in window_counts(ex) {
        print_value(&format!("{prefix}{name}"), value);
    }
    let best = ex.best_latency.map_or_else(|| "-".to_owned(), |l| format!("{:.1}", l.as_ns()));
    print_value(&format!("{prefix}best_latency_ns"), best);
}

/// [`print_windows`] plus every structured-search counter, with the node
/// rate over the structured windows' wall time on stderr.
fn print_exploration(prefix: &str, ex: &Exploration) {
    print_windows(prefix, ex);
    let totals = ex.structured_totals();
    for (name, value) in totals.counters() {
        print_value(&format!("{prefix}structured.{name}"), value);
    }
    let secs: f64 = ex.records.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    eprintln!("{prefix}structured.nodes_per_sec: {:.0}", totals.nodes as f64 / secs);
}

/// §4's runtime claim: "in none of these experiments could the optimal
/// solution process get even a single feasible solution in the same run
/// time as the iterative solution process". For Tables 3 and 5 the body
/// records the iterative exploration (one thread, a checkpoint after every
/// window), the witness audit of its undecided windows, and the exact
/// engine's runs under pivot budgets: the N-partition ILP, the 2×2
/// window's optimality proof and its warm and cold re-solves. Then the
/// dominance memo's node cut on two decidable windows. Stderr gets every
/// reading that depends on the clock or the thread count: wall times, node
/// rates, the 4-thread runs, checkpoint write latencies, and the paper's
/// experiment itself, the ILP with the iterative wall time as its budget.
fn runtime_comparison() {
    let graph = dct_4x4();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("host_cpus: {cpus}");
    println!(
        "Runtime comparison (§4): the iterative procedure and the exact ILP engine on the 4x4 DCT"
    );
    for exp in [DctExperiment::paper(3), DctExperiment::paper(5)] {
        let arch = exp.architecture();
        let prefix = format!("rmax{}.", exp.r_max);
        println!(
            "\nrmax{}: Table {} setup (R_max = {}, C_T = {}, δ = {} ns, α = {}, γ = {}), \
             1 thread, a checkpoint after every window",
            exp.r_max, exp.table, exp.r_max, exp.ct, exp.delta_ns, exp.alpha, exp.gamma
        );
        let partitioner = TemporalPartitioner::new(&graph, &arch, exp.params()).expect("tasks fit");
        let (exploration, iterative, writes) = checkpointed_explore(&partitioner, &prefix);
        print_exploration(&prefix, &witness_limit_windows(&exploration, &prefix));
        print_value(&format!("{prefix}checkpoint_writes"), writes);
        let d = &exploration.degradation;
        for (name, value) in [
            ("panics_caught", d.panics_caught),
            ("jobs_retried", d.jobs_retried),
            ("subtrees_lost", d.subtrees_lost),
            ("checkpoint_failures", d.checkpoint_failures),
        ] {
            print_value(&format!("{prefix}degradation.{name}"), value);
        }

        // The same exploration on 4 threads: candidate windows fan out,
        // each window's tree splits into subtree jobs, or both share one
        // pool.
        for (candidates, solver) in [(4, 1), (1, 4), (4, 4)] {
            let params = ExploreParams { solver_threads: solver, ..exp.params() };
            let partitioner = TemporalPartitioner::new(&graph, &arch, params).expect("tasks fit");
            let start = Instant::now();
            let ex = partitioner.explore_parallel(candidates).expect("exploration runs");
            let wall = start.elapsed();
            eprintln!(
                "{prefix}{candidates} candidate x {solver} solver threads: D_a = {:.0} ns in \
                 {wall:.2?}, {:.2}x on {cpus} host cpus",
                ex.best_latency.expect("DCT is feasible").as_ns(),
                iterative.as_secs_f64() / wall.as_secs_f64()
            );
        }

        // The exact engine on the window that holds the iterative optimum.
        let n = exploration.best.as_ref().expect("DCT is feasible").partitions_used();
        let d_max = rtr_core::max_latency(&graph, &arch, n);
        let options = proof_options();
        let ilp = IlpModel::build(&graph, &arch, n, d_max, Latency::ZERO, &options)
            .expect("model builds");
        let pivots = ilp_pivot_budget(exp.r_max);
        let out = ilp
            .model()
            .solve(&SolveOptions::optimal().with_pivot_limit(pivots))
            .expect("ILP solves");
        println!(
            "ILP to optimality at N = {n} ({} variables, {} constraints), {pivots} pivots: {}",
            ilp.model().var_count(),
            ilp.model().constraint_count(),
            verdict(out.status)
        );
        print_solve(&format!("{prefix}ilp."), &out);
        // The paper's experiment: the iterative procedure's wall time as
        // the budget. Its verdict depends on the host, so it goes to
        // stderr.
        let timed = ilp
            .model()
            .solve(&SolveOptions::optimal().with_time_limit(iterative))
            .expect("ILP solves");
        eprintln!(
            "{prefix}ILP to optimality at N = {n} in the iterative wall time {iterative:.2?}: {} \
             ({} nodes, {} pivots)",
            verdict(timed.status),
            timed.stats.nodes,
            timed.stats.simplex_iterations
        );

        // Where the exact engine does deliver: a 2×2 DCT window on the
        // same device is proved optimal outright, and after the
        // subdivision tightens its latency window a re-solve warm-started
        // from the parent's root basis reaches the cold solve's outcome.
        let small = dct_nxn(2).expect("2x2 DCT builds");
        let d_max = rtr_core::max_latency(&small, &arch, 2);
        let mut small_ilp = IlpModel::build(&small, &arch, 2, d_max, Latency::ZERO, &options)
            .expect("model builds");
        // Presolve off: the chained basis indexes the unreduced model, and
        // the cold reference must solve the identical model.
        let warm_opts = SolveOptions { presolve: false, ..SolveOptions::optimal() };
        let cold_opts = SolveOptions { warm_start: false, ..warm_opts.clone() };
        let parent = solve_mip(small_ilp.model(), &warm_opts).expect("small DCT window solves");
        assert_eq!(parent.status, Status::Optimal, "2x2 DCT must be decidable");
        let objective = parent.solution.as_ref().expect("optimal has a solution").objective;
        println!("2x2 DCT window at N = 2: {}, objective {objective:.3}", verdict(parent.status));
        print_solve(&format!("{prefix}small.ilp."), &parent);
        let basis = parent.root_basis.expect("unreduced optimal solve returns a root basis");
        small_ilp.set_latency_window(Latency::from_ns(d_max.as_ns() * 0.75), Latency::ZERO);
        let warm = solve_mip_warm(small_ilp.model(), &warm_opts, Some(&basis))
            .expect("warm re-solve runs");
        let cold = solve_mip(small_ilp.model(), &cold_opts).expect("cold re-solve runs");
        assert_eq!(warm.status, cold.status, "warm start changed the re-solve outcome");
        println!("re-solve at 3/4 of D_max, warm from the root basis: {}", verdict(warm.status));
        print_solve(&format!("{prefix}small.warm."), &warm);
        println!("the same re-solve, cold: {}", verdict(cold.status));
        print_solve(&format!("{prefix}small.cold."), &cold);
    }

    // The dominance memo's worth, measured where it is measurable: the
    // table windows above end on a fixed node budget, so with or without
    // the memo they visit one budget's worth of nodes. A relaxed device
    // makes the N = 3 and N = 4 windows decidable; the node delta between
    // two exhausted searches is pure pruning.
    println!(
        "\ndominance: decidable DCT windows on a relaxed device (R_max = 2048), memo on and off"
    );
    let relaxed = Architecture::new(Area::new(2048), 512, Latency::from_us(1.0));
    let limits = SearchLimits { node_limit: 200_000_000, time_limit: None };
    for n in [3u32, 4] {
        let solver =
            || StructuredSolver::new(&graph, &relaxed, n, 1e12, SearchGoal::Optimal, limits);
        let (on_out, on) = solver().run();
        let (off_out, off) = solver().with_memo_limit(0).run();
        assert_eq!(on_out, off_out, "memoization changed the N = {n} optimum");
        assert!(on.exhausted && off.exhausted, "relaxed window must be decidable");
        print_value(&format!("dominance.n{n}.nodes"), on.nodes);
        print_value(&format!("dominance.n{n}.nodes_nomemo"), off.nodes);
        print_value(&format!("dominance.n{n}.prunes"), on.dominance_prunes);
        print_value(
            &format!("dominance.n{n}.node_reduction"),
            1.0 - on.nodes as f64 / off.nodes as f64,
        );
    }
}

/// The model options of the exact-engine runs: the milp backend's shape
/// with `minimize_latency` on, so `Status::Optimal` means a proven latency
/// optimum, and the redundant `D_min` cut off.
fn proof_options() -> ModelOptions {
    ModelOptions { minimize_latency: true, include_dmin_cut: false, ..Default::default() }
}

/// Pivot budget of each N-partition exact-engine run, per device. Pivots,
/// not nodes, bound MILP effort here: one N = 10 node LP on the R_max =
/// 576 device costs tens of thousands of pivots, so a node budget alone
/// leaves the wall clock unbounded. The R_max = 1024 budget reaches past
/// the search's first incumbent; the R_max = 576 budget shows how far the
/// engine gets on a model whose root relaxation alone costs more than the
/// whole R_max = 1024 tree.
fn ilp_pivot_budget(r_max: u64) -> usize {
    if r_max == 576 {
        30_000
    } else {
        400_000
    }
}

/// What an exact-engine run concluded.
fn verdict(status: Status) -> &'static str {
    match status {
        Status::Optimal => "proved optimality",
        Status::Feasible => "found an incumbent but no proof",
        Status::LimitReached => "found NO feasible solution in the budget",
        Status::Infeasible => "claims infeasible",
        Status::Unbounded => "claims unbounded",
    }
}

/// An exact-engine run's `found_feasible` flag and every `SolveStats`
/// counter, under `prefix`.
fn print_solve(prefix: &str, out: &Outcome) {
    print_value(&format!("{prefix}found_feasible"), u64::from(out.status.has_solution()));
    for (name, value) in out.stats.counters() {
        print_value(&format!("{prefix}{name}"), value);
    }
}

/// Explores at one thread with a checkpoint written after every window
/// (`--checkpoint-every 0`, the most aggressive policy the CLI offers) and
/// returns the exploration, its wall time and the number of checkpoint
/// writes. The degradation account must be clean. The per-write
/// latencies, from the `checkpoint.write` trace spans, and their share of
/// the wall time go to stderr; that share must stay under 1 %.
fn checkpointed_explore(
    partitioner: &TemporalPartitioner,
    prefix: &str,
) -> (Exploration, Duration, usize) {
    let path = std::env::temp_dir().join(format!("rtr_bench_ck_{}.json", std::process::id()));
    let policy = CheckpointPolicy::new(&path, Duration::ZERO);
    rtr_trace::install(Arc::new(rtr_trace::MemorySink::new()));
    let start = Instant::now();
    let (result, events) =
        rtr_trace::capture(|| partitioner.explore_resumable(1, Some(&policy), None, |_| {}));
    let wall = start.elapsed();
    rtr_trace::uninstall();
    let _ = std::fs::remove_file(&path);
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
    let overhead = write_us.iter().sum::<u64>() as f64 / (wall.as_secs_f64() * 1e6);
    eprintln!(
        "{prefix}iterative: {wall:.2?}, checkpoint writes p50 {} us, p99 {} us, {:.3}% of it",
        pct(0.50),
        pct(0.99),
        overhead * 1e2
    );
    assert!(
        overhead < 0.01,
        "checkpoint writes consumed {:.2}% of the exploration wall time",
        overhead * 1e2
    );
    let d = &exploration.degradation;
    assert!(d.is_clean(), "clean bench run reported degradation: {}", d.render());
    (exploration, wall, write_us.len())
}

/// Witness propagation over the windows the node budget left undecided: a
/// feasible solution recorded by another window of the same exploration
/// decides an undecided window when it fits the window's partition bound
/// (`η ≤ N`) and latency bound (`D_a ≤ D_max`). The subdivision solves
/// every window from scratch, so a later window's solution can witness an
/// earlier window the budget gave up on. Prints one line per witnessed
/// window and their number, and returns the exploration with those
/// windows marked feasible.
fn witness_limit_windows(ex: &Exploration, prefix: &str) -> Exploration {
    let witnesses: Vec<(Latency, u32)> = ex
        .records
        .iter()
        .filter_map(|r| match r.result {
            IterationResult::Feasible { latency, eta } => Some((latency, eta)),
            _ => None,
        })
        .collect();
    let mut audited = ex.clone();
    let mut witnessed = 0u64;
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
        witnessed += 1;
        println!(
            "audit of limit window N = {} I = {}: witnessed feasible by the exploration's own \
             D_a = {:.0} ns, η = {eta} solution",
            r.n,
            r.iteration,
            latency.as_ns()
        );
    }
    print_value(&format!("{prefix}witnessed_windows"), witnessed);
    audited
}
