//! Regenerates one committed evaluation artifact:
//!
//! `cargo run --release -p rtr-bench --bin reproduce -- <artifact>`
//!
//! prints the body of `results/<artifact>.txt` on stdout and the run's
//! wall-clock readings (per-window solve times, elapsed times) on stderr.
//! Every artifact runs under node budgets only, so its body is the same on
//! every host and every run; CI diffs it against `results/`. Without an
//! argument the binary lists the artifacts.
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
use rtr_core::{
    Architecture, Backend, EnvMemoryPolicy, Exploration, ExploreParams, IterationResult,
    RefinementStrategy, TemporalPartitioner,
};
use rtr_graph::{Area, Latency, TaskGraph};
use rtr_milp::SolveOptions;
use rtr_sim::{simulate, simulate_with, SimOptions};
use rtr_trace::Instrument;
use rtr_workloads::dct::{dct_4x4, dct_nxn};
use rtr_workloads::random::{random_layered, RandomGraphParams};
use std::time::Instant;

/// Per-window node budget of the sweeps beyond the paper's tables.
const SWEEP_NODE_LIMIT: u64 = 10_000_000;

/// Every artifact, named after its `results/<artifact>.txt` file.
const ARTIFACTS: [(&str, fn()); 16] = [
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
