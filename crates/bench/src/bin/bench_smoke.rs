//! Deterministic smoke bench: the fixture behind the CI regression gate.
//!
//! Runs two small explorations — the AR filter on a tight device and a
//! relaxed 4×4 DCT — **sequentially, under pure node budgets**, so every
//! counter in the resulting `BENCH_smoke.json` is a deterministic solver
//! fact: identical on every machine running the same code. CI regenerates
//! this file and diffs it against the committed baseline
//! (`crates/bench/baselines/BENCH_smoke.json`) with
//! `rtr-bench-diff --counters-only`; an intentional solver change ships
//! with a refreshed baseline.
//!
//! `RTR_THREADS` is deliberately ignored: the fixture pins one thread so
//! the gate's counters never depend on the runner's CPU count.

use rtr_bench::{per_solve_limits, BenchRun, DctExperiment};
use rtr_core::{Architecture, ExploreParams, TemporalPartitioner};
use rtr_graph::{Area, Latency};
use rtr_workloads::{ar::ar_filter, dct::dct_4x4};

fn main() {
    let mut bench = BenchRun::new("smoke");

    // AR filter on a device holding half the total minimum area: exercises
    // infeasible windows, latency/area pruning, and the dominance memo.
    let ar = ar_filter().expect("static construction");
    let arch =
        Architecture::new(Area::new(ar.total_min_area().units() / 2), 64, Latency::from_us(1.0));
    let params = ExploreParams {
        delta: Latency::from_ns(50.0),
        gamma: 1,
        limits: per_solve_limits(),
        ..Default::default()
    };
    let partitioner = TemporalPartitioner::new(&ar, &arch, params).expect("AR tasks fit");
    let ex = partitioner.explore().expect("exploration runs");
    bench.record_exploration("ar.", &ex);
    println!("ar: {} windows, best {:?}", ex.records.len(), ex.best_latency.map(|l| l.as_ns()));

    // Relaxed DCT: two windows are decided and three end on the node
    // budget. A budget-limited window is still deterministic at one
    // thread, because the search stops after the same nodes on every
    // machine, so its counters gate like a decided window's.
    let dct = dct_4x4();
    let exp = DctExperiment {
        table: 0,
        r_max: 1024,
        ct: Latency::from_us(1.0),
        delta_ns: 2_000.0,
        alpha: 0,
        gamma: 0,
    };
    let dct_arch = exp.architecture();
    let partitioner =
        TemporalPartitioner::new(&dct, &dct_arch, exp.params()).expect("DCT tasks fit");
    let ex = partitioner.explore().expect("exploration runs");
    bench.record_exploration("dct.", &ex);
    println!("dct: {} windows, best {:?}", ex.records.len(), ex.best_latency.map(|l| l.as_ns()));

    // AR filter again, through the unified work-stealing pool at a pinned
    // 2 threads on both layers. Window *outcomes* and the pool's job/batch
    // totals are deterministic at a fixed thread count (the job lists are a
    // pure function of the instance), so they gate as counters; steal/pop/
    // park splits depend on OS scheduling and are recorded as metrics only.
    // Node counters are omitted: under parallel incumbent sharing they are
    // schedule-dependent.
    let sched_params = ExploreParams {
        delta: Latency::from_ns(50.0),
        gamma: 1,
        limits: per_solve_limits(),
        solver_threads: 2,
        ..Default::default()
    };
    let partitioner = TemporalPartitioner::new(&ar, &arch, sched_params).expect("AR tasks fit");
    let board = rtr_trace::status::board();
    let before = board.snapshot();
    let ex = partitioner.explore_parallel(2).expect("exploration runs");
    let after = board.snapshot();
    let mut count = |key: &str, v: u64| bench.counter(format!("sched.{key}"), v);
    count("jobs", after.sched_jobs - before.sched_jobs);
    count("batches", after.sched_batches - before.sched_batches);
    count("nested_batches", after.sched_nested_batches - before.sched_nested_batches);
    count("lost_jobs", after.sched_lost_jobs - before.sched_lost_jobs);
    bench.record_windows("sched.", &ex);
    bench.metric("sched.steals", (after.sched_steals - before.sched_steals) as f64);
    bench.metric("sched.local_pops", (after.sched_local_pops - before.sched_local_pops) as f64);
    bench.metric("sched.idle_parks", (after.sched_idle_parks - before.sched_idle_parks) as f64);
    bench.metric("sched.queue_depth_max", after.sched_queue_depth_max as f64);
    println!("sched: {} windows, best {:?}", ex.records.len(), ex.best_latency.map(|l| l.as_ns()));

    // rtrd solve-cache fixture: one scripted miss → hit → corruption →
    // eviction → miss sequence against a scratch cache. Every counter is a
    // deterministic fact of the cache's verify/quarantine logic, so the
    // `rtrd.cache.*` deltas gate alongside the solver counters.
    let cache_dir = std::env::temp_dir().join(format!("rtrd_bench_cache_{}", std::process::id()));
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
    bench.counter("rtrd.cache.hits", after.rtrd_cache_hits - before.rtrd_cache_hits);
    bench.counter("rtrd.cache.misses", after.rtrd_cache_misses - before.rtrd_cache_misses);
    bench.counter("rtrd.cache.evictions", after.rtrd_cache_evictions - before.rtrd_cache_evictions);
    let _ = std::fs::remove_dir_all(&cache_dir);
    println!(
        "rtrd cache: {} hits, {} misses, {} evictions",
        after.rtrd_cache_hits - before.rtrd_cache_hits,
        after.rtrd_cache_misses - before.rtrd_cache_misses,
        after.rtrd_cache_evictions - before.rtrd_cache_evictions
    );

    bench.write_and_report();
}
