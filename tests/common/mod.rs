//! Shared helpers for the root integration tests: the seeded random
//! instance generator and the deterministic exploration parameters the
//! determinism, fault-injection and property batteries sweep.

#![allow(dead_code)] // each test binary uses a subset

use rtrpart::graph::Latency;
use rtrpart::workloads::random::RandomGraphParams;
use rtrpart::workloads::rng::Rng;
use rtrpart::{ExploreParams, SearchLimits};

/// One random instance: a layered task graph's seed and shape, plus the
/// device it is partitioned onto.
pub struct Instance {
    pub seed: u64,
    pub gp: RandomGraphParams,
    pub cap: u64,
    pub mem: u64,
    pub ct: f64,
}

/// One deterministic random instance per case index (`salt` decorrelates
/// the streams between tests).
pub fn instance(salt: u64, case: u64) -> Instance {
    let mut r = Rng::new(salt.wrapping_mul(0x9e37_79b9).wrapping_add(case));
    Instance {
        seed: r.next_u64(),
        gp: RandomGraphParams {
            tasks: r.range_usize(2, 9),
            max_layer_width: r.range_usize(1, 3),
            design_points: (1, 3),
            area_range: (20, 60),
            latency_range: (50.0, 600.0),
            data_range: (1, 3),
            ..Default::default()
        },
        cap: r.range_u64(60, 239),
        mem: r.range_u64(8, 63),
        ct: r.range_f64(10.0, 100_000.0),
    }
}

/// Deterministic exploration parameters: node limit only, no deadlines.
/// `gamma = 2` widens phase 2 so several candidate bounds actually fan
/// out; `solver_threads` sets the intra-window search's threads.
pub fn deterministic_params(solver_threads: usize) -> ExploreParams {
    ExploreParams {
        delta: Latency::from_ns(100.0),
        gamma: 2,
        limits: SearchLimits { node_limit: 300_000, time_limit: None },
        time_budget: None,
        solver_threads,
        ..Default::default()
    }
}
