//! The four workloads: which instances each one submits, under which
//! parameters, and how the seed selects them.
//!
//! The solver workloads submit a fixed set of jobs in a seed-determined
//! order. Their end-to-end metrics are percentiles over a few dozen jobs,
//! and drawing the jobs per seed moved the median job by 14 % between
//! seeds, more than any bound a change could be held to.
//!
//! `rtrd_mix` draws its fresh graphs per seed from a fixed, numbered pool,
//! so the committed reference results (see [`crate::reference`]) cover
//! every job of every seed. Solve times of random graphs are heavy-tailed,
//! so the draw is stratified: the pool is ranked by the reference run's
//! deterministic work and cut into strata, and the seed draws members
//! round by round, one from each stratum per round. Every seed then submits
//! the same distribution of work.

use crate::reference::References;
use rtr_core::{Architecture, Backend, ExploreParams, SearchLimits};
use rtr_graph::{Area, Latency, TaskGraph};
use rtr_milp::SolveOptions;
use rtr_workloads::random::{random_layered, RandomGraphParams};
use rtr_workloads::rng::Rng;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's DCT Tables 3–8, sequential, under a node budget.
    DctPaper,
    /// Every workload generator on both C_T regimes, on a two-thread pool.
    SuitePool2,
    /// Small random graphs through the faithful ILP backend.
    MilpExact,
    /// A closed-loop job mix against an in-process `rtrd` server.
    RtrdMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::DctPaper, Workload::SuitePool2, Workload::MilpExact, Workload::RtrdMix];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DctPaper => "dct_paper",
            Workload::SuitePool2 => "suite_pool2",
            Workload::MilpExact => "milp_exact",
            Workload::RtrdMix => "rtrd_mix",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Compute threads the workload keeps busy: pool workers for
    /// `suite_pool2`, server workers for `rtrd_mix` (its two client threads
    /// mostly wait), one otherwise.
    pub fn threads(self) -> usize {
        match self {
            Workload::SuitePool2 => SUITE_THREADS,
            Workload::RtrdMix => RTRD_WORKERS,
            Workload::DctPaper | Workload::MilpExact => 1,
        }
    }
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured workloads.
    Full,
    /// Two jobs per pass under tiny budgets: the same code paths, cheap
    /// enough for a debug-build test. Results do not match the references.
    Tiny,
}

impl Scale {
    fn node_budget(self, full: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Tiny => 5_000,
        }
    }

    fn truncate<T>(self, mut items: Vec<T>) -> Vec<T> {
        if self == Scale::Tiny {
            items.truncate(2);
        }
        items
    }
}

/// Window node budget of the structured solver workloads. A node budget,
/// not a deadline, so every window decides the same way on any machine.
/// Tables 3–8 give the same `to_csv()` trajectories at 2 M as at 4 M nodes
/// in half the time, and reproduce the paper's headline D_a values.
pub const STRUCTURED_NODE_BUDGET: u64 = 2_000_000;

/// Window pivot budget of `milp_exact` (deterministic, like the node budget).
pub const MILP_PIVOT_BUDGET: usize = 200_000;

/// Random graphs `milp_exact` submits per pass.
pub const MILP_GRAPHS: u64 = 60;

/// Task counts of `suite_pool2`'s random graphs.
pub const SUITE_RANDOM_SIZES: [usize; 3] = [16, 24, 28];
/// Random graphs per task count in `suite_pool2`, each deciding in well
/// under the fixed generators' time.
pub const SUITE_RANDOM_PER_SIZE: u64 = 8;
/// Pool threads of `suite_pool2`: both the phase-2 candidates and each
/// window's subtree jobs share them.
pub const SUITE_THREADS: usize = 2;

/// Worker threads of `rtrd_mix`'s server.
pub const RTRD_WORKERS: usize = 2;
/// Closed-loop clients of `rtrd_mix`.
pub const RTRD_CLIENTS: usize = 2;
/// Admission bound of `rtrd_mix`'s server.
pub const RTRD_QUEUE_CAP: usize = 8;
/// Pool of fresh `rtrd_mix` graphs.
pub const RTRD_POOL: u64 = 1_200;
/// Node budget of `rtrd_mix`'s fresh jobs (`solve_nodes` in the request).
pub const RTRD_SOLVE_NODES: u64 = 2_000_000;
/// Deadline of `rtrd_mix`'s slow jobs.
pub const RTRD_DEADLINE_MS: u64 = 100;
/// Every block of this many `rtrd_mix` script entries holds exactly
/// [`RTRD_BLOCK_SLOW`] slow jobs, [`RTRD_BLOCK_FRESH`] fresh graphs and
/// resubmits for the rest.
pub const RTRD_BLOCK: usize = 20;
/// Slow jobs per script block. At 15 % of the jobs they hold the 90th
/// percentile of latency: with 5 %, it fell on the 10 ms steps of the
/// server's accept loop among the slower misses, and moved by a whole step
/// whenever a busier host slowed the solves.
pub const RTRD_BLOCK_SLOW: usize = 3;
/// Fresh graphs per script block, one per work stratum.
pub const RTRD_BLOCK_FRESH: usize = 8;

/// One exploration: an instance and the parameters it is explored under.
#[derive(Debug, Clone)]
pub struct Job {
    /// Stable identity, the key of the reference results.
    pub key: String,
    /// The task graph.
    pub graph: TaskGraph,
    /// The target device.
    pub arch: Architecture,
    /// Exploration parameters.
    pub params: ExploreParams,
}

/// The paper's headline results the `dct_paper` workload must reproduce
/// exactly: `(job key, total D_a in ns)`.
pub const DCT_HEADLINES: [(&str, f64); 3] =
    [("table3", 16_535.0), ("table5", 9_105.0), ("table7", 8_630.0)];

fn node_limits(node_limit: u64) -> SearchLimits {
    SearchLimits { node_limit, time_limit: None }
}

/// A device sized to half the graph's minimum total area, but never below
/// its largest task, so every instance is admissible and needs several
/// configurations.
fn half_area_device(graph: &TaskGraph, memory: u64, ct: Latency) -> Architecture {
    let largest = graph.tasks().iter().map(|t| t.min_area_point().area().units()).max();
    let r_max = (graph.total_min_area().units() / 2).max(largest.unwrap_or(1)).max(64);
    Architecture::new(Area::new(r_max), memory, ct)
}

/// `dct_paper`'s jobs: Tables 3–8 of the paper.
fn dct_paper_jobs(scale: Scale) -> Vec<Job> {
    let graph = rtr_workloads::dct::dct_4x4();
    // (table, R_max, C_T, δ, α)
    let tables: [(u32, u64, Latency, f64, u32); 6] = [
        (3, 576, Latency::from_us(1.0), 200.0, 0),
        (4, 576, Latency::from_ms(10.0), 200.0, 0),
        (5, 1024, Latency::from_us(1.0), 800.0, 1),
        (6, 1024, Latency::from_ms(10.0), 800.0, 0),
        (7, 1024, Latency::from_us(1.0), 100.0, 1),
        (8, 1024, Latency::from_ms(10.0), 100.0, 0),
    ];
    tables
        .into_iter()
        .map(|(table, r_max, ct, delta_ns, alpha)| Job {
            key: format!("table{table}"),
            graph: graph.clone(),
            arch: Architecture::new(Area::new(r_max), 512, ct),
            params: ExploreParams {
                delta: Latency::from_ns(delta_ns),
                alpha,
                gamma: 1,
                limits: node_limits(scale.node_budget(STRUCTURED_NODE_BUDGET)),
                time_budget: None,
                ..ExploreParams::default()
            },
        })
        .collect()
}

fn seeded(seed: u64, salt: u64) -> Rng {
    Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range_usize(0, i));
    }
}

/// The members of `pool`, ranked by reference work, without the heaviest
/// 5 %, cut into `strata` contiguous strata and drawn round by round: each
/// round takes one not-yet-drawn member of every stratum, in a
/// seed-determined order. The first `strata` members are therefore one per
/// stratum.
///
/// The trimmed members are outliers of a heavy-tailed pool (in `rtrd_mix`'s
/// pool, 4 % of the graphs take 64 % of the solve time): drawn or not, they
/// would set a run's totals by themselves.
pub fn stratified_order(
    pool: &[u64],
    strata: usize,
    refs: &References,
    key: impl Fn(u64) -> String,
    rng: &mut Rng,
) -> Vec<u64> {
    let mut ranked = pool.to_vec();
    ranked.sort_by_key(|&i| (refs.get(&key(i)).map_or(0, |r| r.work), i));
    ranked.truncate(ranked.len() - ranked.len().div_ceil(20));
    let n = ranked.len();
    let strata = strata.clamp(1, n.max(1));
    let mut cut: Vec<Vec<u64>> =
        (0..strata).map(|k| ranked[k * n / strata..(k + 1) * n / strata].to_vec()).collect();
    for stratum in &mut cut {
        shuffle(stratum, rng);
    }
    let rounds = cut.iter().map(Vec::len).max().unwrap_or(0);
    let mut order = Vec::with_capacity(n);
    for round in 0..rounds {
        let mut members: Vec<u64> = cut.iter().filter_map(|s| s.get(round).copied()).collect();
        shuffle(&mut members, rng);
        order.extend(members);
    }
    order
}

/// The `suite_pool2` random graph with pool index `index` and `tasks` tasks.
fn suite_random_graph(tasks: usize, index: u64) -> TaskGraph {
    random_layered(
        1_000 * tasks as u64 + index,
        &RandomGraphParams { tasks, ..RandomGraphParams::default() },
    )
}

/// The fixed `suite_pool2` graphs: every generator of `rtr-workloads`.
fn suite_fixed_graphs() -> Vec<(String, TaskGraph)> {
    let fixed = [
        ("ar", rtr_workloads::ar::ar_filter().map_err(|e| e.to_string())),
        ("jpeg", rtr_workloads::jpeg::jpeg_pipeline().map_err(|e| e.to_string())),
        ("fft16", rtr_workloads::fft::fft_graph(16, 4).map_err(|e| e.to_string())),
        ("matmul3", rtr_workloads::matmul::matmul_graph(3, 2).map_err(|e| e.to_string())),
        ("dct3", rtr_workloads::dct::dct_nxn(3).map_err(|e| e.to_string())),
    ];
    fixed
        .into_iter()
        .map(|(name, graph)| {
            (name.to_owned(), graph.unwrap_or_else(|e| panic!("static {name} graph: {e}")))
        })
        .collect()
}

/// Both C_T regimes of one `suite_pool2` graph.
fn suite_jobs(name: &str, graph: &TaskGraph, scale: Scale) -> Vec<Job> {
    [("fast", Latency::from_ns(100.0)), ("slow", Latency::from_ms(5.0))]
        .into_iter()
        .map(|(regime, ct)| Job {
            key: format!("{name}.{regime}"),
            arch: half_area_device(graph, 4096, ct),
            graph: graph.clone(),
            params: ExploreParams {
                delta: Latency::from_ns(50.0),
                limits: node_limits(scale.node_budget(STRUCTURED_NODE_BUDGET)),
                time_budget: None,
                solver_threads: SUITE_THREADS,
                ..ExploreParams::default()
            },
        })
        .collect()
}

/// Every `suite_pool2` job: the fixed generators and the random graphs,
/// each on both C_T regimes.
fn suite_pool2_all(scale: Scale) -> Vec<Job> {
    let mut graphs = suite_fixed_graphs();
    for tasks in SUITE_RANDOM_SIZES {
        for index in 0..SUITE_RANDOM_PER_SIZE {
            graphs.push((format!("rand{tasks}_{index}"), suite_random_graph(tasks, index)));
        }
    }
    graphs.iter().flat_map(|(name, graph)| suite_jobs(name, graph, scale)).collect()
}

fn milp_params(delta_ns: f64, gamma: u32, scale: Scale) -> ExploreParams {
    let pivots = match scale {
        Scale::Full => MILP_PIVOT_BUDGET,
        Scale::Tiny => 2_000,
    };
    ExploreParams {
        delta: Latency::from_ns(delta_ns),
        gamma,
        backend: Backend::Milp,
        milp_options: SolveOptions::feasibility().with_pivot_limit(pivots),
        time_budget: None,
        ..ExploreParams::default()
    }
}

/// The `milp_exact` pool member `index`: a random graph of 6–10 tasks.
fn milp_job(index: u64, scale: Scale) -> Job {
    let tasks = 6 + (index % 5) as usize;
    let graph = random_layered(
        2_000_000 + index,
        &RandomGraphParams { tasks, max_layer_width: 3, ..RandomGraphParams::default() },
    );
    Job {
        key: format!("g{index}"),
        arch: half_area_device(&graph, 64, Latency::from_us(1.0)),
        graph,
        params: milp_params(50.0, 1, scale),
    }
}

/// Table 1's AR filter: δ = 20 ns, γ = 2, the device at half the minimum
/// total area.
fn milp_ar_job(scale: Scale) -> Job {
    let graph = rtr_workloads::ar::ar_filter().unwrap_or_else(|e| panic!("static AR graph: {e}"));
    let arch =
        Architecture::new(Area::new(graph.total_min_area().units() / 2), 64, Latency::from_us(1.0));
    Job { key: "ar_table1".to_owned(), graph, arch, params: milp_params(20.0, 2, scale) }
}

/// `milp_exact`'s jobs: the AR filter and [`MILP_GRAPHS`] random graphs.
fn milp_exact_all(scale: Scale) -> Vec<Job> {
    let mut jobs = vec![milp_ar_job(scale)];
    jobs.extend((0..MILP_GRAPHS).map(|i| milp_job(i, scale)));
    jobs
}

/// The submit body of fresh pool member `index`: a random graph of 10–20
/// tasks under a node budget.
pub fn rtrd_fresh_body(index: u64, scale: Scale) -> String {
    let tasks = 10 + (index % 11) as usize;
    let params = RandomGraphParams { tasks, ..RandomGraphParams::default() };
    let graph = random_layered(3_000_000 + index, &params);
    let arch = half_area_device(&graph, 512, Latency::from_us(1.0));
    format!(
        "{{\"graph\":\"{}\",\"arch\":{{\"rmax\":{},\"mmax\":512,\"ct_ns\":1000.0}},\
         \"params\":{{\"delta_ns\":50.0,\"solve_nodes\":{}}}}}",
        rtrd::jobs::escape_json(&graph.to_text()),
        arch.resource_capacity().units(),
        scale.node_budget(RTRD_SOLVE_NODES)
    )
}

/// The submit body of the `ordinal`-th slow job: the 4×4 DCT with a
/// refinement that runs far past [`RTRD_DEADLINE_MS`], so the deadline ends
/// it with the best-so-far result. Each slow job gets its own δ, hence its
/// own fingerprint: two identical requests in flight at once would write
/// the same in-flight checkpoint file.
pub fn rtrd_deadline_body(ordinal: usize) -> String {
    format!(
        "{{\"graph\":\"{}\",\"arch\":{{\"rmax\":576,\"mmax\":512,\"ct_ns\":1000.0}},\
         \"params\":{{\"gamma\":2,\"delta_ns\":{},\"solve_nodes\":40000000,\
         \"deadline_ms\":{RTRD_DEADLINE_MS}}}}}",
        rtrd::jobs::escape_json(&rtr_workloads::dct::dct_4x4().to_text()),
        100 + ordinal
    )
}

/// The job a submit body describes, parsed exactly as the server parses it.
///
/// # Panics
///
/// Panics if the body does not parse; the bodies are generated here.
pub fn request_job(key: String, body: &str) -> Job {
    let request = rtrd::JobRequest::from_json(body)
        .unwrap_or_else(|e| panic!("generated request {key} does not parse: {e}"));
    Job { key, graph: request.graph, arch: request.arch, params: request.params }
}

/// The reference key of fresh pool member `index`.
pub fn rtrd_key(index: u64) -> String {
    format!("f{index}")
}

/// One entry of the `rtrd_mix` request script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// A first submission of fresh pool member `index`: a cache miss.
    Fresh(u64),
    /// A resubmission of the fresh entry at this script position: a hit.
    Resubmit(usize),
    /// The `n`-th slow job, which its deadline cuts short.
    Deadline(usize),
}

/// The `rtrd_mix` request script of `len` entries, drawn from the seed in
/// blocks of [`RTRD_BLOCK`]: each block holds [`RTRD_BLOCK_SLOW`] slow jobs,
/// [`RTRD_BLOCK_FRESH`] fresh graphs (one per work stratum) and resubmits of
/// fresh graphs from earlier blocks, in a seeded order. The first block,
/// with nothing to resubmit yet, holds fresh graphs instead. Fixed shares
/// per block keep the mix, and with it a run's throughput, from depending
/// on the seed.
pub fn rtrd_script(seed: u64, len: usize, refs: &References) -> Vec<Request> {
    let mut rng = seeded(seed, 0x7d);
    let pool: Vec<u64> = (0..RTRD_POOL).collect();
    let mut fresh = stratified_order(&pool, RTRD_BLOCK_FRESH, refs, rtrd_key, &mut rng).into_iter();
    let mut script = Vec::with_capacity(len);
    let mut fresh_at: Vec<usize> = Vec::new();
    let mut deadlines = 0;
    while script.len() < len {
        let start = script.len();
        let earlier = fresh_at.len();
        let mut kinds: Vec<u8> = (0..RTRD_BLOCK)
            .map(|k| {
                u8::from(k >= RTRD_BLOCK_SLOW) + u8::from(k >= RTRD_BLOCK_SLOW + RTRD_BLOCK_FRESH)
            })
            .collect();
        shuffle(&mut kinds, &mut rng);
        for (k, kind) in kinds.into_iter().enumerate().take(len - start) {
            let entry = if kind == 0 {
                deadlines += 1;
                Request::Deadline(deadlines - 1)
            } else if kind == 2 && earlier > 0 {
                Request::Resubmit(fresh_at[rng.range_usize(0, earlier - 1)])
            } else if let Some(index) = fresh.next() {
                fresh_at.push(start + k);
                Request::Fresh(index)
            } else {
                Request::Resubmit(fresh_at[rng.range_usize(0, fresh_at.len() - 1)])
            };
            script.push(entry);
        }
    }
    script
}

/// The jobs of a solver workload in the order of `seed` (`rtrd_mix` has a
/// request script instead, see [`rtrd_script`]).
pub fn solver_jobs(workload: Workload, seed: u64, scale: Scale) -> Vec<Job> {
    let mut jobs = match workload {
        Workload::DctPaper => dct_paper_jobs(scale),
        Workload::SuitePool2 => suite_pool2_all(scale),
        Workload::MilpExact => milp_exact_all(scale),
        Workload::RtrdMix => Vec::new(),
    };
    shuffle(&mut jobs, &mut seeded(seed, 0x5017e));
    scale.truncate(jobs)
}

/// Every job the reference results must cover for `workload`.
pub fn reference_pool(workload: Workload) -> Vec<Job> {
    match workload {
        Workload::DctPaper => dct_paper_jobs(Scale::Full),
        Workload::SuitePool2 => suite_pool2_all(Scale::Full),
        Workload::MilpExact => milp_exact_all(Scale::Full),
        Workload::RtrdMix => (0..RTRD_POOL)
            .map(|i| request_job(rtrd_key(i), &rtrd_fresh_body(i, Scale::Full)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_order_trims_the_heaviest_and_draws_each_stratum_once_per_round() {
        // Without references every member has work 0 and ranks by index.
        let refs = References::new();
        let pool: Vec<u64> = (0..21).collect();
        let order = stratified_order(&pool, 5, &refs, |i| i.to_string(), &mut seeded(1, 0));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..19).collect::<Vec<u64>>(), "the heaviest 5 % are left out");
        let stratum = |i: u64| [3, 7, 11, 15, 19].iter().position(|&end| i < end);
        let mut first: Vec<usize> = order[..5].iter().filter_map(|&i| stratum(i)).collect();
        first.sort_unstable();
        assert_eq!(first, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn script_blocks_have_fixed_shares_and_resubmit_earlier_blocks() {
        let script = rtrd_script(3, 400, &References::new());
        assert_eq!(script.len(), 400);
        for (b, block) in script.chunks(RTRD_BLOCK).enumerate().skip(1) {
            let count = |pred: fn(&Request) -> bool| block.iter().filter(|e| pred(e)).count();
            assert_eq!(count(|e| matches!(e, Request::Deadline(_))), RTRD_BLOCK_SLOW);
            assert_eq!(count(|e| matches!(e, Request::Fresh(_))), RTRD_BLOCK_FRESH);
            for entry in block {
                if let Request::Resubmit(p) = entry {
                    assert!(*p < b * RTRD_BLOCK, "block {b} resubmits {p}");
                    assert!(matches!(script[*p], Request::Fresh(_)));
                }
            }
        }
    }
}
