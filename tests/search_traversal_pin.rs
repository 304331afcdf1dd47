//! Pins the structured search's traversal. Three small explorations run
//! under per-window node budgets, and each asserts its `to_csv()` digest
//! and every counter of `structured_totals()`, depth buckets included. A
//! change that only makes a node cheaper leaves every number here as it
//! is; a change to the order in which the search visits nodes, or to a
//! dominance-memo decision, moves them.
//!
//! Every test clears fault injection first: dropping memo inserts at the
//! `structured.memo_insert` site loses later prunes, which legitimately
//! moves node counts.

use rtrpart::core::checkpoint::fnv1a;
use rtrpart::core::structured::SearchStats;
use rtrpart::graph::{Area, DesignPoint, Latency, TaskGraph, TaskGraphBuilder};
use rtrpart::workloads::dct::{dct_4x4, dct_nxn};
use rtrpart::workloads::random::{random_layered, RandomGraphParams};
use rtrpart::{Architecture, EnvMemoryPolicy, ExploreParams, SearchLimits, TemporalPartitioner};

/// Per-window node budget: small enough that the file runs in seconds in
/// a debug build, large enough that the memo prunes.
const NODE_LIMIT: u64 = 20_000;

/// An exploration's CSV digest and structured-search totals.
struct Pin {
    csv_fnv1a: u64,
    totals: SearchStats,
}

/// The 4×4 DCT on Table 3's device (`R_max` = 576, `C_T` = 1 µs): 20
/// windows, most of them ending on their budget.
const DCT_TABLE3: Pin = Pin {
    csv_fnv1a: 0x3c99_0496_6eae_94ea,
    totals: SearchStats {
        nodes: 300_698,
        latency_prunes: 28_743,
        area_prunes: 25_090,
        memory_rejects: 0,
        dominance_prunes: 4_138,
        panics_caught: 0,
        jobs_retried: 0,
        subtrees_lost: 0,
        incumbent_updates: 2,
        nodes_by_depth: [658, 4_245, 1_380, 10_451, 15_078, 60_447, 94_117, 114_322],
        prunes_by_depth: [12, 147, 10, 277, 3_469, 19_320, 23_540, 11_196],
        exhausted: false,
    },
};

/// [`memory_bound_graph`] with host I/O resident on the board.
const MEMORY_RESIDENT: Pin = Pin {
    csv_fnv1a: 0xca38_bbc7_81ed_dfc1,
    totals: SearchStats {
        nodes: 89_766,
        latency_prunes: 16_423,
        area_prunes: 247,
        memory_rejects: 23_797,
        dominance_prunes: 139,
        panics_caught: 0,
        jobs_retried: 0,
        subtrees_lost: 0,
        incumbent_updates: 3,
        nodes_by_depth: [22, 87, 1_482, 4_368, 35_443, 15_242, 24_127, 8_995],
        prunes_by_depth: [0, 0, 2, 9, 23_578, 3_332, 10_470, 3_215],
        exhausted: false,
    },
};

/// [`memory_bound_graph`] with host I/O streamed between configurations.
const MEMORY_STREAMED: Pin = Pin {
    csv_fnv1a: 0x17a7_33eb_53fc_c766,
    totals: SearchStats {
        nodes: 154_806,
        latency_prunes: 60_726,
        area_prunes: 4_010,
        memory_rejects: 14,
        dominance_prunes: 691,
        panics_caught: 0,
        jobs_retried: 0,
        subtrees_lost: 0,
        incumbent_updates: 2,
        nodes_by_depth: [35, 340, 6_722, 18_883, 45_629, 60_527, 20_989, 1_681],
        prunes_by_depth: [0, 8, 1_589, 10_451, 19_943, 25_192, 8_141, 117],
        exhausted: false,
    },
};

/// [`multiplier_dct`] on a device with 6 multipliers and 4 adders per
/// configuration.
const SECONDARY_CLASSES: Pin = Pin {
    csv_fnv1a: 0xf45b_8606_6c93_4ae7,
    totals: SearchStats {
        nodes: 239_511,
        latency_prunes: 33_708,
        area_prunes: 475,
        memory_rejects: 0,
        dominance_prunes: 2_342,
        panics_caught: 0,
        jobs_retried: 0,
        subtrees_lost: 0,
        incumbent_updates: 8,
        nodes_by_depth: [112, 137, 666, 3_869, 60_687, 81_422, 73_166, 19_452],
        prunes_by_depth: [0, 0, 0, 42, 7_489, 12_748, 12_641, 3_605],
        exhausted: false,
    },
};

/// Explores on one thread under [`NODE_LIMIT`] with no deadline and
/// checks the result against `pin`.
fn check(name: &str, graph: &TaskGraph, arch: &Architecture, delta_ns: f64, gamma: u32, pin: &Pin) {
    rtrpart::trace::failpoint::clear();
    let params = ExploreParams {
        delta: Latency::from_ns(delta_ns),
        gamma,
        limits: SearchLimits { node_limit: NODE_LIMIT, time_limit: None },
        time_budget: None,
        ..Default::default()
    };
    let ex = TemporalPartitioner::new(graph, arch, params).unwrap().explore().unwrap();
    assert_eq!(ex.structured_totals(), pin.totals, "{name}: structured totals");
    assert_eq!(fnv1a(ex.to_csv().as_bytes()), pin.csv_fnv1a, "{name}: CSV digest");
}

/// A 14-task random graph with 2–6 data words per edge; the 28 words of
/// memory its device gets bind.
fn memory_bound_graph() -> TaskGraph {
    let gp = RandomGraphParams {
        tasks: 14,
        max_layer_width: 4,
        data_range: (2, 6),
        ..Default::default()
    };
    random_layered(7, &gp)
}

/// The 3×3 DCT whose design points also use dedicated multipliers and
/// adders (secondary classes 0 and 1), as their names say: `1mul-1add`,
/// `2mul-1add`, `4mul-3add`.
fn multiplier_dct() -> TaskGraph {
    let dct = dct_nxn(3).unwrap();
    let mut b = TaskGraphBuilder::new();
    for task in dct.tasks() {
        let points =
            task.design_points().iter().zip([[1, 1], [2, 1], [4, 3]]).map(|(dp, usage)| {
                DesignPoint::new(dp.name(), dp.area(), dp.latency()).with_secondary(usage.to_vec())
            });
        b.add_task(task.name())
            .design_points(points)
            .env_input(task.env_input())
            .env_output(task.env_output())
            .finish();
    }
    for e in dct.edges() {
        b.add_edge(e.src(), e.dst(), e.data()).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn dct_on_the_table3_device() {
    let arch = Architecture::new(Area::new(576), 512, Latency::from_us(1.0));
    check("dct", &dct_4x4(), &arch, 200.0, 0, &DCT_TABLE3);
}

#[test]
fn memory_bound_graph_under_both_env_policies() {
    let g = memory_bound_graph();
    for (policy, pin) in [
        (EnvMemoryPolicy::Resident, &MEMORY_RESIDENT),
        (EnvMemoryPolicy::Streamed, &MEMORY_STREAMED),
    ] {
        let arch =
            Architecture::new(Area::new(400), 28, Latency::from_ns(200.0)).with_env_policy(policy);
        check(&format!("memory, {policy}"), &g, &arch, 50.0, 1, pin);
    }
}

#[test]
fn secondary_resource_classes() {
    let arch = Architecture::new(Area::new(576), 64, Latency::from_ns(300.0))
        .with_secondary_capacities(vec![6, 4]);
    check("secondary", &multiplier_dct(), &arch, 50.0, 1, &SECONDARY_CLASSES);
}

/// Every prune and reject branch of the search fires in some pinned
/// instance, so the pins cover each of them.
#[test]
fn the_pins_cover_every_prune_kind() {
    let pins =
        [&DCT_TABLE3, &MEMORY_RESIDENT, &MEMORY_STREAMED, &SECONDARY_CLASSES].map(|p| p.totals);
    for (kind, counts) in [
        ("dominance_prunes", pins.map(|t| t.dominance_prunes)),
        ("memory_rejects", pins.map(|t| t.memory_rejects)),
        ("area_prunes", pins.map(|t| t.area_prunes)),
        ("latency_prunes", pins.map(|t| t.latency_prunes)),
    ] {
        assert!(counts.iter().any(|&n| n > 0), "no pin exercises {kind}");
    }
}
