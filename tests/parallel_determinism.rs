//! Differential harness for `TemporalPartitioner::explore_parallel`: on a
//! seeded matrix of random graphs, the parallel exploration must be
//! *bit-identical* to the sequential one — same CSV, same chosen solution,
//! same logical trace stream — for every thread count.
//!
//! All cases use node-limit-only `SearchLimits` and no overall time budget:
//! wall-clock deadlines are the one knob that is inherently
//! machine-dependent (on the sequential path too), so they are excluded
//! from the determinism contract and covered separately by the
//! deadline tests at the bottom.

use rtrpart::graph::{Area, Latency};
use rtrpart::workloads::random::random_layered;
use rtrpart::{validate_solution, Architecture, ExploreParams, TemporalPartitioner};
use std::process::Command;
use std::time::Duration;

mod common;
use common::{deterministic_params, instance};

const CASES: u64 = 24;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn parallel_output_is_bit_identical_across_thread_counts() {
    let mut feasible = 0u64;
    for case in 0..CASES {
        let inst = instance(11, case);
        let g = random_layered(inst.seed, &inst.gp);
        let arch = Architecture::new(Area::new(inst.cap), inst.mem, Latency::from_ns(inst.ct));
        let Ok(part) = TemporalPartitioner::new(&g, &arch, deterministic_params(1)) else {
            continue;
        };
        let sequential = part.explore().unwrap();
        let reference_csv = sequential.to_csv();
        feasible += u64::from(sequential.best.is_some());
        for threads in THREAD_COUNTS {
            let parallel = part.explore_parallel(threads).unwrap();
            assert_eq!(
                parallel.to_csv(),
                reference_csv,
                "case {case}: CSV diverged at {threads} threads"
            );
            assert_eq!(
                parallel.best, sequential.best,
                "case {case}: chosen solution diverged at {threads} threads"
            );
            assert_eq!(parallel.best_latency, sequential.best_latency, "case {case}");
            assert_eq!(parallel.n_min_lower, sequential.n_min_lower, "case {case}");
            assert_eq!(parallel.n_min_upper, sequential.n_min_upper, "case {case}");
            if let Some(best) = &parallel.best {
                assert!(validate_solution(&g, &arch, best).is_empty(), "case {case}");
            }
        }
    }
    // The matrix is only meaningful if a healthy share of cases is feasible.
    assert!(feasible >= CASES / 2, "only {feasible}/{CASES} cases feasible");
}

/// `explore_parallel(0)` resolves a machine-dependent thread count, but the
/// result must still match the sequential exploration exactly.
#[test]
fn auto_thread_count_matches_sequential() {
    for case in 0..8 {
        let inst = instance(12, case);
        let g = random_layered(inst.seed, &inst.gp);
        let arch = Architecture::new(Area::new(inst.cap), inst.mem, Latency::from_ns(inst.ct));
        let Ok(part) = TemporalPartitioner::new(&g, &arch, deterministic_params(1)) else {
            continue;
        };
        let sequential = part.explore().unwrap();
        let auto = part.explore_parallel(0).unwrap();
        assert_eq!(auto.to_csv(), sequential.to_csv(), "case {case}");
        assert_eq!(auto.best_latency, sequential.best_latency, "case {case}");
    }
}

/// The merged logical trace stream is deterministic too: the same
/// `search.iteration` events, in the same order, with the same windows and
/// outcomes, at every thread count. (Only timing differs, which the
/// comparison strips.)
#[test]
fn merged_trace_stream_matches_sequential() {
    use std::sync::Arc;

    // One deterministic feasible instance with several phase-2 candidates.
    let inst = instance(11, 0);
    let g = random_layered(inst.seed, &inst.gp);
    let arch = Architecture::new(Area::new(inst.cap), inst.mem, Latency::from_ns(inst.ct));
    let part = TemporalPartitioner::new(&g, &arch, deterministic_params(1)).unwrap();

    // A sink must be installed for events to flow at all; `capture` then
    // diverts this thread's stream (including the merge's `dispatch_all`
    // re-emissions) into a buffer, so concurrent tests cannot pollute it.
    rtrpart::trace::install(Arc::new(rtrpart::trace::MemorySink::new()));
    let logical = |threads: Option<usize>| {
        let (result, events) = rtrpart::trace::capture(|| match threads {
            None => part.explore(),
            Some(threads) => part.explore_parallel(threads),
        });
        result.unwrap();
        events
            .into_iter()
            // `sched.*` telemetry exists only on the pooled path and mixes
            // scheduling-dependent gauges (steals, parks) with deterministic
            // totals; the *logical* solver stream is what this test pins, so
            // scheduler bookkeeping is stripped wholesale.
            .filter(|e| !e.name.starts_with("sched."))
            .map(|e| {
                // Strip timing (machine-dependent by nature) and the
                // `threads` annotation the parallel span intentionally adds.
                let fields: Vec<(String, String)> = e
                    .fields
                    .into_iter()
                    .filter(|(k, _)| k != "elapsed_us" && k != "dur_us" && k != "threads")
                    .map(|(k, v)| (k, v.to_string()))
                    .collect();
                (format!("{:?}", e.kind), e.name, fields)
            })
            .collect::<Vec<_>>()
    };
    let sequential = logical(None);
    let streams: Vec<_> = THREAD_COUNTS.iter().map(|&t| logical(Some(t))).collect();
    rtrpart::trace::uninstall();

    assert!(
        sequential.iter().any(|(_, name, _)| name == "search.iteration"),
        "expected iteration events in the sequential stream"
    );
    for (threads, stream) in THREAD_COUNTS.iter().zip(streams) {
        assert_eq!(stream, sequential, "logical trace diverged at {threads} threads");
    }
}

/// The determinism contract must survive fault injection: with
/// `RTR_FAILPOINTS` arming the exploration-level panic sites at a fixed
/// seed, the final CSV *and* the degradation report on stderr are
/// byte-identical at every thread count. Runs go through the real binary in
/// a subprocess — the registry is process-global, so arming it in-process
/// would race the other tests in this binary, and the env-var path gets no
/// coverage otherwise. (`sched.job` is deliberately absent from the site
/// list: the subtree job set depends on the worker count, so it is covered
/// by the run-to-run tests in `tests/search_parallel_determinism.rs` and
/// `tests/scheduler_determinism.rs` instead.)
#[test]
fn fault_injected_runs_are_bit_identical_across_thread_counts() {
    let bin = env!("CARGO_BIN_EXE_rtrpart");
    let dir = std::env::temp_dir().join(format!("rtr_fi_matrix_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let mut degraded = 0u64;
    for case in 0..6u64 {
        let inst = instance(11, case);
        let g = random_layered(inst.seed, &inst.gp);
        let arch = Architecture::new(Area::new(inst.cap), inst.mem, Latency::from_ns(inst.ct));
        // Skip instances the partitioner rejects up front (task larger than
        // the device) — the binary would exit with an error, not explore.
        if TemporalPartitioner::new(&g, &arch, deterministic_params(1)).is_err() {
            continue;
        }
        let graph = dir.join(format!("case{case}.tg"));
        std::fs::write(&graph, g.to_text()).expect("write graph");

        // (threads, csv bytes, stdout, stderr) per run.
        type Run = (usize, Vec<u8>, Vec<u8>, Vec<u8>);
        let mut runs: Vec<Run> = Vec::new();
        for threads in [1usize, 4, 8] {
            let csv = dir.join(format!("case{case}_t{threads}.csv"));
            let out = Command::new(bin)
                .env("RTR_FAILPOINTS", "1:0.45:explore.window")
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
            let bytes = std::fs::read(&csv).expect("csv written");
            runs.push((threads, bytes, out.stdout, out.stderr));
        }
        let (_, ref_csv, ref_stdout, ref_stderr) = &runs[0];
        degraded += u64::from(!ref_stderr.is_empty());
        for (threads, csv, stdout, stderr) in &runs[1..] {
            assert_eq!(csv, ref_csv, "case {case}: degraded CSV diverged at {threads} threads");
            assert_eq!(
                stderr, ref_stderr,
                "case {case}: degradation report diverged at {threads} threads"
            );
            assert_eq!(
                stdout, ref_stdout,
                "case {case}: solution summary diverged at {threads} threads"
            );
        }
    }
    assert!(degraded > 0, "no case tripped a failpoint; the injection matrix is dead");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mid-exploration deadline must yield the best-so-far incumbent — never
/// an error — on the sequential path. A zero budget expires immediately
/// after phase 1's first `Reduce_Latency`, which is the earliest
/// deterministic deadline an exploration can hit.
#[test]
fn sequential_deadline_yields_best_so_far() {
    deadline_yields_best_so_far(|part| part.explore().unwrap());
}

/// Same contract on the parallel path: workers observe the expired budget,
/// unevaluated candidates stay unmerged, and the incumbent survives.
#[test]
fn parallel_deadline_yields_best_so_far() {
    deadline_yields_best_so_far(|part| part.explore_parallel(4).unwrap());
}

fn deadline_yields_best_so_far(run: impl Fn(&TemporalPartitioner) -> rtrpart::Exploration) {
    let mut exercised = 0u64;
    for case in 0..CASES {
        let inst = instance(13, case);
        let g = random_layered(inst.seed, &inst.gp);
        let arch = Architecture::new(Area::new(inst.cap), inst.mem, Latency::from_ns(inst.ct));
        let params = ExploreParams { time_budget: Some(Duration::ZERO), ..deterministic_params(1) };
        let Ok(part) = TemporalPartitioner::new(&g, &arch, params) else { continue };
        let ex = run(&part);
        // Expired straight after the first bound: every record shares the
        // first record's N, and any phase-1 incumbent is still reported.
        if let Some(first) = ex.records.first() {
            assert!(ex.records.iter().all(|r| r.n == first.n), "case {case}");
        }
        if let Some(best) = &ex.best {
            exercised += 1;
            assert!(validate_solution(&g, &arch, best).is_empty(), "case {case}");
            assert_eq!(ex.best_latency.unwrap(), best.total_latency(&g, &arch), "case {case}");
        }
    }
    assert!(exercised >= CASES / 3, "only {exercised}/{CASES} cases hit the deadline feasibly");
}
