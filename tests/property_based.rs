//! Randomized tests over the whole stack, driven by seeded random task
//! graphs. The cases are deterministic (SplitMix64 streams), so failures
//! reproduce exactly; to widen coverage, raise `CASES`.

use rtrpart::graph::{Area, Latency};
use rtrpart::workloads::random::{random_layered, RandomGraphParams};
use rtrpart::{
    validate_solution, Architecture, EnvMemoryPolicy, ExploreParams, SearchLimits,
    TemporalPartitioner,
};
use std::time::Duration;

mod common;
use common::instance;

const CASES: u64 = 48;

/// Every solution the exploration produces satisfies every constraint,
/// and the simulator realizes exactly the analytic latency.
#[test]
fn explored_solutions_are_always_valid() {
    for case in 0..CASES {
        let inst = instance(1, case);
        let g = random_layered(inst.seed, &inst.gp);
        let arch = Architecture::new(Area::new(inst.cap), inst.mem, Latency::from_ns(inst.ct));
        let params = ExploreParams {
            delta: Latency::from_ns(100.0),
            gamma: 1,
            limits: SearchLimits {
                node_limit: 300_000,
                time_limit: Some(Duration::from_millis(300)),
            },
            time_budget: Some(Duration::from_secs(5)),
            ..Default::default()
        };
        let Ok(part) = TemporalPartitioner::new(&g, &arch, params) else {
            // Some task cannot fit the device at all: a legal outcome.
            continue;
        };
        let ex = part.explore().unwrap();
        if let Some(best) = &ex.best {
            assert!(validate_solution(&g, &arch, best).is_empty(), "case {case}");
            let lat = best.total_latency(&g, &arch);
            assert_eq!(ex.best_latency.unwrap(), lat, "case {case}");
            let report = rtrpart::sim::simulate(&g, &arch, best).unwrap();
            assert!(
                (report.total_latency.as_ns() - lat.as_ns()).abs() < 1e-6,
                "case {case}: simulator disagrees: {} vs {}",
                report.total_latency,
                lat
            );
            // Latency decomposition is consistent.
            let eta = best.partitions_used();
            assert!(eta >= 1 && eta <= best.n_bound(), "case {case}");
            let decomposed =
                best.execution_latency(&g).as_ns() + (arch.reconfig_time() * eta).as_ns();
            assert!(
                (lat.as_ns() - decomposed).abs() < 1e-6,
                "case {case}: decomposition drifted: {} vs {}",
                lat.as_ns(),
                decomposed
            );
        }
    }
}

/// Feasible iterations never report a latency above their window, and
/// windows only shrink within one partition bound.
#[test]
fn iteration_records_are_well_formed() {
    for case in 0..CASES {
        let inst = instance(2, case);
        let g = random_layered(inst.seed, &inst.gp);
        let arch = Architecture::new(Area::new(inst.cap), inst.mem, Latency::from_ns(inst.ct));
        let params = ExploreParams {
            delta: Latency::from_ns(50.0),
            limits: SearchLimits {
                node_limit: 300_000,
                time_limit: Some(Duration::from_millis(300)),
            },
            time_budget: Some(Duration::from_secs(5)),
            ..Default::default()
        };
        let Ok(part) = TemporalPartitioner::new(&g, &arch, params) else { continue };
        let ex = part.explore().unwrap();
        for r in &ex.records {
            assert!(r.d_min <= r.d_max, "case {case}");
            if let rtrpart::IterationResult::Feasible { latency, .. } = r.result {
                assert!(latency.as_ns() <= r.d_max.as_ns() + 1e-6, "case {case}");
            }
        }
        let mut last_n = 0;
        for r in &ex.records {
            assert!(r.n >= last_n, "case {case}: partition bounds never shrink");
            last_n = r.n;
        }
    }
}

/// Regression ported from the proptest era (seed
/// `3ec69589e8cb215be1bba0b84aee33c1dde9bf013a862b0da1effc49ebbb9e5e`,
/// removed with proptest in PR 1): a 6-task chain on a 68-unit device with
/// only 8 memory units and a tiny `C_T`. The shrunken case exercised the
/// boundary-memory accounting on deep chains; keep it green forever, on the
/// sequential and the parallel path alike.
#[test]
fn proptest_regression_deep_chain_with_tight_memory() {
    let gp = RandomGraphParams {
        tasks: 6,
        max_layer_width: 1,
        edge_probability: 0.5,
        design_points: (1, 3),
        area_range: (20, 60),
        latency_range: (50.0, 600.0),
        data_range: (1, 3),
    };
    let g = random_layered(4083985647177036957, &gp);
    let arch = Architecture::new(Area::new(68), 8, Latency::from_ns(10.0));
    // Node-limit-only limits: deterministic, so the sequential and the
    // parallel run below are comparable outcome-for-outcome.
    let params = ExploreParams {
        delta: Latency::from_ns(100.0),
        gamma: 1,
        limits: SearchLimits { node_limit: 300_000, time_limit: None },
        time_budget: None,
        ..Default::default()
    };
    let Ok(part) = TemporalPartitioner::new(&g, &arch, params) else {
        panic!("the regression instance admits a partitioner");
    };
    let ex = part.explore().unwrap();
    if let Some(best) = &ex.best {
        assert!(validate_solution(&g, &arch, best).is_empty());
        assert_eq!(ex.best_latency.unwrap(), best.total_latency(&g, &arch));
    }
    for r in &ex.records {
        assert!(r.d_min <= r.d_max);
        if let rtrpart::IterationResult::Feasible { latency, .. } = r.result {
            assert!(latency.as_ns() <= r.d_max.as_ns() + 1e-6);
        }
    }
    // The parallel path must reach the same verdict on the regression.
    let par = part.explore_parallel(4).unwrap();
    assert_eq!(par.best_latency, ex.best_latency);
    if let Some(best) = &par.best {
        assert!(validate_solution(&g, &arch, best).is_empty());
    }
}

/// The greedy baseline, when it succeeds, always produces valid
/// solutions.
#[test]
fn greedy_baseline_is_valid() {
    use rtrpart::core::baseline::{greedy_partition, DesignPointPicker};
    for case in 0..CASES {
        let inst = instance(3, case);
        let g = random_layered(inst.seed, &inst.gp);
        let arch = Architecture::new(Area::new(inst.cap), inst.mem, Latency::from_ns(inst.ct));
        let n_cap = g.task_count() as u32;
        for picker in
            [DesignPointPicker::MinArea, DesignPointPicker::MaxArea, DesignPointPicker::MinLatency]
        {
            if let Some(sol) = greedy_partition(&g, &arch, picker, n_cap) {
                assert!(validate_solution(&g, &arch, &sol).is_empty(), "case {case}");
            }
        }
    }
}

/// Boundary memory is monotone under the Resident policy relative to
/// Streamed: the resident accounting can only add occupancy.
#[test]
fn resident_memory_dominates_streamed() {
    use rtrpart::core::baseline::{greedy_partition, DesignPointPicker};
    for case in 0..CASES {
        let inst = instance(4, case);
        let g = random_layered(inst.seed, &inst.gp);
        let arch =
            Architecture::new(Area::new(inst.cap), inst.mem.max(1024), Latency::from_ns(inst.ct));
        if let Some(sol) =
            greedy_partition(&g, &arch, DesignPointPicker::MinArea, g.task_count() as u32)
        {
            let resident = sol.boundary_memory(&g, EnvMemoryPolicy::Resident);
            let streamed = sol.boundary_memory(&g, EnvMemoryPolicy::Streamed);
            for (r, s) in resident.iter().zip(&streamed) {
                assert!(r >= s, "case {case}");
            }
        }
    }
}

/// The paper's bounds really bound: MinLatency(N) ≤ any achieved
/// latency ≤ MaxLatency(N) for solutions under partition bound N.
#[test]
fn latency_bounds_bracket_solutions() {
    for case in 0..CASES {
        let inst = instance(5, case);
        let g = random_layered(inst.seed, &inst.gp);
        let arch = Architecture::new(Area::new(inst.cap), inst.mem, Latency::from_ns(inst.ct));
        let params = ExploreParams {
            limits: SearchLimits {
                node_limit: 300_000,
                time_limit: Some(Duration::from_millis(300)),
            },
            time_budget: Some(Duration::from_secs(5)),
            ..Default::default()
        };
        let Ok(part) = TemporalPartitioner::new(&g, &arch, params) else { continue };
        let ex = part.explore().unwrap();
        if let Some(best) = &ex.best {
            let n = best.partitions_used();
            let lo = rtrpart::min_latency(&g, &arch, n);
            let hi = rtrpart::max_latency(&g, &arch, n);
            let lat = best.total_latency(&g, &arch);
            assert!(lat >= lo, "case {case}: latency {lat} below MinLatency {lo}");
            assert!(lat <= hi, "case {case}: latency {lat} above MaxLatency {hi}");
        }
    }
}
