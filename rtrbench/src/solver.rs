//! The solver workloads (`dct_paper`, `suite_pool2`, `milp_exact`): whole
//! passes over a fixed job list, each job one call into the partitioner.
//!
//! A run sets up several times and reports the median, then runs whole
//! passes while at least half of the next one is expected to fit in the
//! run's seconds. Every exploration is checked when its pass ends, outside
//! the timed region. The traced run alternates untraced and traced passes;
//! the traced ones record spans around each explore call and each window.

use crate::check::{check_exploration, CheckCost};
use crate::layers::{self, Explored};
use crate::pace::Pacer;
use crate::reference::{self, csv_digest, References};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{geomean, median, share};
use crate::trace::{Ledger, Recorder, Span};
use crate::workload::{self, Job, Scale, Workload, DCT_HEADLINES};
use crate::RunOptions;
use rtr_core::{Exploration, IterationResult, TemporalPartitioner};
use std::time::{Duration, Instant};

/// On one thread, the pace is also sampled inside a job, from the observer
/// callback between windows, once this much work has passed since the last
/// sample: a burst that starts or ends during a long job then shows in that
/// job's pace, not only in the samples at its ends.
const PACE_EVERY: Duration = Duration::from_millis(100);

/// One explore call of a pass.
#[derive(Debug)]
struct JobRun {
    /// Time in the explore call, less the pace samples taken inside it.
    elapsed: Duration,
    /// Seconds at the nominal pace (see [`crate::pace`]).
    paced: f64,
    result: Result<Exploration, String>,
    /// Window time the observer callback saw (threads-1 traced passes).
    observed_window_s: Option<f64>,
}

/// One pass over the job list.
#[derive(Debug)]
struct Pass {
    wall: Duration,
    jobs: Vec<JobRun>,
}

/// What the observer callback saw during a traced job, in order.
enum Seen {
    Window { at: Instant, elapsed: Duration, structured: bool },
    Pace { start: Instant, end: Instant },
}

/// A job's work, timed in segments between pace samples; each segment is
/// divided by the mean pace of the samples around it.
struct Segments<'p> {
    pacer: &'p mut Pacer,
    pace: f64,
    from: Instant,
    raw: f64,
    paced: f64,
}

impl Segments<'_> {
    /// Ends the current segment with a pace sample and starts the next one
    /// after it; returns when the sample ran.
    fn sample(&mut self) -> (Instant, Instant) {
        let start = Instant::now();
        let pace = self.pacer.sample();
        let end = Instant::now();
        let work = start.duration_since(self.from).as_secs_f64();
        self.raw += work;
        self.paced += work * 2.0 / (self.pace + pace);
        self.pace = pace;
        self.from = end;
        (start, end)
    }
}

/// Explores every job once, sampling the pace between jobs and, on one
/// thread, between windows. With a recorder, window spans come from
/// timestamps taken in the observer callback: each window ends when the
/// callback sees its record and lasts the record's `elapsed`.
fn pass(
    parts: &[TemporalPartitioner<'_>],
    threads: usize,
    pacer: &mut Pacer,
    mut recorder: Option<&mut Recorder>,
) -> Pass {
    let started = Instant::now();
    let mut pace = pacer.sample();
    if let Some(rec) = recorder.as_deref_mut() {
        rec.begin_at("pass", 0, started);
        rec.record("pace", 0, started, Instant::now());
    }
    let traced = recorder.is_some();
    let mut jobs = Vec::with_capacity(parts.len());
    for (i, p) in parts.iter().enumerate() {
        let job_id = i as u64 + 1;
        let t = Instant::now();
        let mut seg = Segments { pacer: &mut *pacer, pace, from: t, raw: 0.0, paced: 0.0 };
        let mut seen = Vec::new();
        let result = if threads > 1 {
            p.explore_parallel(threads)
        } else {
            p.explore_with_observer(|r| {
                let at = Instant::now();
                if traced {
                    let structured = r.stats.structured.is_some();
                    seen.push(Seen::Window { at, elapsed: r.elapsed, structured });
                }
                if at.duration_since(seg.from) >= PACE_EVERY {
                    let (start, end) = seg.sample();
                    seen.push(Seen::Pace { start, end });
                }
            })
        };
        let done = Instant::now();
        let (after_start, after_end) = seg.sample();
        pace = seg.pace;
        let (elapsed, paced) = (Duration::from_secs_f64(seg.raw), seg.paced);
        let mut observed_window_s = None;
        if let Some(rec) = recorder.as_deref_mut() {
            rec.begin_at("search.explore", job_id, t);
            let mut floor = t;
            let mut covered = 0.0;
            for event in seen {
                match event {
                    Seen::Window { at, elapsed, structured } => {
                        let start = at.checked_sub(elapsed).unwrap_or(floor).max(floor);
                        let name = if structured { "structured.window" } else { "milp.window" };
                        rec.record(name, job_id, start, at);
                        covered += at.duration_since(start).as_secs_f64();
                        floor = at;
                    }
                    Seen::Pace { start, end } => {
                        rec.record("pace", job_id, start, end);
                        floor = end;
                    }
                }
            }
            if threads <= 1 {
                observed_window_s = Some(covered);
            }
            rec.end_at(done);
            rec.record("pace", 0, after_start, after_end);
        }
        jobs.push(JobRun {
            elapsed,
            paced,
            result: result.map_err(|e| e.to_string()),
            observed_window_s,
        });
    }
    let wall = started.elapsed();
    if let Some(rec) = recorder {
        rec.end_at(started + wall);
    }
    Pass { wall, jobs }
}

fn partitioners<'j>(jobs: &'j [Job]) -> Result<Vec<TemporalPartitioner<'j>>, String> {
    jobs.iter()
        .map(|j| {
            TemporalPartitioner::new(&j.graph, &j.arch, j.params.clone())
                .map_err(|e| format!("{}: {e}", j.key))
        })
        .collect()
}

/// Setup timings: the whole setup at the nominal pace, input generation,
/// and each partitioner's construction.
#[derive(Debug, Default)]
struct Setup {
    paced_s: Vec<f64>,
    generate_s: Vec<f64>,
    construct_s: Vec<f64>,
}

/// Generates the job list and constructs its partitioners `repeats` times,
/// timing each; the last job list is returned.
fn set_up(
    workload: Workload,
    opts: &RunOptions,
    pacer: &mut Pacer,
) -> Result<(Vec<Job>, Setup), String> {
    let mut setup = Setup::default();
    let mut jobs = Vec::new();
    for _ in 0..opts.setup_repeats() {
        let (built, _, paced) = pacer.time(|| -> Result<Vec<Job>, String> {
            let t = Instant::now();
            let jobs = workload::solver_jobs(workload, opts.seed, opts.scale);
            setup.generate_s.push(t.elapsed().as_secs_f64());
            for job in &jobs {
                let c = Instant::now();
                let p = TemporalPartitioner::new(&job.graph, &job.arch, job.params.clone())
                    .map_err(|e| format!("{}: {e}", job.key))?;
                setup.construct_s.push(c.elapsed().as_secs_f64());
                std::hint::black_box(p);
            }
            Ok(jobs)
        });
        jobs = built?;
        setup.paced_s.push(paced);
    }
    Ok((jobs, setup))
}

/// What the passes of one kind measured and what checking them found,
/// beyond the failures it records. Passes are checked and dropped as they
/// end, so the process holds one pass's results at a time and its peak
/// memory does not grow with the number of passes.
#[derive(Debug, Default)]
struct Tally {
    /// Seconds of each job at the nominal pace, one entry per pass.
    times: Vec<Vec<f64>>,
    /// Raw seconds of the jobs, all passes.
    raw_s: f64,
    passes: usize,
    /// Sum of the pass walls.
    wall_s: f64,
    quality: Vec<f64>,
    drift: usize,
    windows: usize,
    limit_windows: usize,
    cost: CheckCost,
}

impl Tally {
    /// Each job's median time at the nominal pace over the passes.
    fn per_job(&self) -> Vec<f64> {
        self.times.iter().map(|t| median(t)).collect()
    }

    /// Records one pass and checks every exploration in it: an error, a
    /// solution the validator or simulator rejects, an unclean degradation
    /// account, no solution where the reference has one, and (for
    /// `dct_paper`) a missed headline D_a each fail the job. Reference
    /// comparisons apply only to the full-scale workloads the references
    /// were made for.
    fn add(
        &mut self,
        outcome: &mut Outcome,
        jobs: &[Job],
        pass: &Pass,
        refs: &References,
        scale: Scale,
    ) {
        self.passes += 1;
        self.wall_s += pass.wall.as_secs_f64();
        self.times.resize(jobs.len(), Vec::new());
        for ((job, run), times) in jobs.iter().zip(&pass.jobs).zip(&mut self.times) {
            times.push(run.paced);
            self.raw_s += run.elapsed.as_secs_f64();
            outcome.attempted += 1;
            let ex = match &run.result {
                Ok(ex) => ex,
                Err(e) => {
                    outcome.fail(&job.key, e);
                    continue;
                }
            };
            if let Err(e) = check_exploration(&job.graph, &job.arch, ex, false, &mut self.cost) {
                outcome.fail(&job.key, e);
            }
            self.windows += ex.records.len();
            self.limit_windows +=
                ex.records.iter().filter(|r| r.result == IterationResult::LimitReached).count();
            if scale == Scale::Tiny {
                continue;
            }
            let Some(reference) = refs.get(&job.key) else {
                outcome.fail(&job.key, "no committed reference for this job");
                continue;
            };
            let latency = ex.best_latency.map(|l| l.as_ns());
            match (latency, reference.latency_ns) {
                (Some(got), Some(want)) => self.quality.push(got / want),
                (None, Some(want)) => {
                    outcome.fail(&job.key, format!("no solution; reference D_a {want} ns"))
                }
                _ => {}
            }
            if csv_digest(ex) != reference.csv_digest {
                self.drift += 1;
            }
            if let Some((_, want)) = DCT_HEADLINES.iter().find(|(key, _)| *key == job.key) {
                if latency != Some(*want) {
                    outcome
                        .fail(&job.key, format!("D_a {latency:?} ns, the paper reports {want} ns"));
                }
            }
        }
    }
}

/// Runs a solver workload.
///
/// # Errors
///
/// A malformed reference table or a job the partitioner rejects: faults
/// of the benchmark itself, not of a measured run.
pub fn run(workload: Workload, opts: &RunOptions) -> Result<Outcome, String> {
    let refs = reference::load(workload)?;
    let mut pacer = Pacer::new(workload.threads());
    let (jobs, setup) = set_up(workload, opts, &mut pacer)?;
    let parts = partitioners(&jobs)?;
    let threads = workload.threads();
    // Another pass starts while at least half of it is expected to fit,
    // so a run lasts about `seconds`, give or take half a pass.
    let started = Instant::now();
    let time_is_up = |last: Duration| started.elapsed() + last / 2 > opts.seconds;

    let mut outcome = Outcome::default();
    if !opts.traced {
        let mut tally = Tally::default();
        loop {
            let p = pass(&parts, threads, &mut pacer, None);
            tally.add(&mut outcome, &jobs, &p, &refs, opts.scale);
            if time_is_up(p.wall) {
                break;
            }
        }
        let per_job = tally.per_job();
        outcome.set("setup_s", median(&setup.paced_s), "s", setup.paced_s.len());
        outcome.set(
            "jobs_per_s",
            share(per_job.len() as f64, per_job.iter().sum()),
            "1/s",
            per_job.len(),
        );
        outcome.set_timing("job", &per_job, "ms", 1e3, true);
        outcome.set("quality_ratio", quality(&tally.quality), "ratio", tally.quality.len());
        outcome.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
        let attempted = outcome.attempted as usize;
        outcome.set_extra("passes", tally.passes as f64, "count", 1);
        outcome.set_extra("wall_s", per_job.iter().sum(), "s", per_job.len());
        outcome.set_extra("raw_jobs_per_s", share(attempted as f64, tally.raw_s), "1/s", attempted);
        outcome.set_extra(
            "failed_frac",
            share(outcome.failures.len() as f64, attempted as f64),
            "frac",
            attempted,
        );
        outcome.set_extra(
            "undecided_frac",
            share(tally.limit_windows as f64, tally.windows as f64),
            "frac",
            tally.windows,
        );
        outcome.set_extra("csv_drift", tally.drift as f64, "count", attempted);
        return Ok(outcome);
    }

    // Traced: untraced and traced passes alternate, each going first in
    // turn, so both see the same machine state. The first traced pass
    // carries the per-layer counters; the spans of all of them the times.
    let mut recorder = Recorder::new(Instant::now());
    let (mut untraced, mut traced) = (Tally::default(), Tally::default());
    let mut first = None;
    loop {
        let untraced_first = untraced.passes % 2 == 0;
        let u = untraced_first.then(|| pass(&parts, threads, &mut pacer, None));
        let before = rtr_trace::status::board().snapshot();
        let t = pass(&parts, threads, &mut pacer, Some(&mut recorder));
        let after = rtr_trace::status::board().snapshot();
        let u = u.unwrap_or_else(|| pass(&parts, threads, &mut pacer, None));
        untraced.add(&mut outcome, &jobs, &u, &refs, opts.scale);
        traced.add(&mut outcome, &jobs, &t, &refs, opts.scale);
        let last = u.wall + t.wall;
        first.get_or_insert((t, before, after));
        if time_is_up(last) {
            break;
        }
    }
    let (first, before, after) = first.ok_or("no traced pass")?;
    let speedup = if threads > 1 {
        let sequential: Vec<Job> = jobs
            .iter()
            .map(|j| Job {
                params: rtr_core::ExploreParams { solver_threads: 1, ..j.params.clone() },
                ..j.clone()
            })
            .collect();
        let one = pass(&partitioners(&sequential)?, 1, &mut pacer, None);
        share(one.jobs.iter().map(|j| j.paced).sum(), untraced.per_job().iter().sum())
    } else {
        1.0
    };
    let spans = recorder.into_spans();

    let explored: Vec<Explored<'_>> = jobs
        .iter()
        .zip(&first.jobs)
        .filter_map(|(job, run)| {
            Some(Explored {
                graph: &job.graph,
                arch: &job.arch,
                params: &job.params,
                exploration: run.result.as_ref().ok()?,
                explore_s: run.elapsed.as_secs_f64(),
                observed_window_s: run.observed_window_s,
            })
        })
        .collect();
    outcome.set("search.jobs", explored.len() as f64, "count", explored.len());
    outcome.set("search.setup_us", median(&setup.construct_s) * 1e6, "us", setup.construct_s.len());
    layers::search_metrics(&mut outcome, &explored, threads);
    layers::model_metrics(&mut outcome, &explored);
    layers::sched_metrics(&mut outcome, &before, &after, speedup);
    outcome.set("check.csv_drift", traced.drift as f64, "count", traced.passes * jobs.len());
    layers::check_metrics(&mut outcome, &traced.cost);
    outcome.set("setup.generate_ms", median(&setup.generate_s) * 1e3, "ms", setup.generate_s.len());

    let explore_s: f64 =
        spans.iter().filter(|s| s.name == "search.explore").map(Span::seconds).sum();
    let inside_s: f64 = spans
        .iter()
        .filter(|s| s.name.ends_with(".window") || (s.name == "pace" && s.job > 0))
        .map(Span::seconds)
        .sum();
    if threads <= 1 {
        outcome.set("search.loop_self_frac", share(explore_s - inside_s, explore_s), "frac", 1);
    }
    let ledger = Ledger::from_spans(&spans, traced.wall_s, &["pass"]);
    if ledger.gap() > 0.01 {
        outcome.fail("trace", format!("ledger does not add up: {}", ledger.render()));
    }
    let overhead =
        traced.per_job().iter().sum::<f64>() / untraced.per_job().iter().sum::<f64>() - 1.0;
    layers::trace_metrics(&mut outcome, &ledger, overhead, spans.len());
    outcome.ledger = Some(ledger);
    outcome.spans = spans;
    Ok(outcome)
}

/// The geometric mean of the quality ratios; `1` when no job has a
/// reference latency to compare with.
pub fn quality(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        1.0
    } else {
        geomean(ratios)
    }
}
