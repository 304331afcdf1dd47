//! The `rtrd_mix` workload: a closed loop of clients against an
//! in-process `rtrd` server over loopback HTTP.
//!
//! Each client holds one connection at a time: it submits the next script
//! entry, polls the job's status every millisecond, fetches the result,
//! and only then takes the next entry. A job's latency runs from submit to
//! result. Every served result is checked afterwards, outside the timed
//! region.
//!
//! The traced run measures an untraced and a traced slice of the script,
//! each on a fresh server, and then replays the traced slice's jobs
//! in-process, in script order, through the server's own steps
//! (`JobRequest::from_json`, the fingerprint, `SolveCache::load`,
//! `explore_resumable`) to time each layer. A job's HTTP residual is its
//! latency minus those layer times.

use crate::check::{check_hit, check_served, parse_served, CheckCost, Served};
use crate::layers::{self, Explored};
use crate::pace::Pacer;
use crate::reference::{self, References};
use crate::report::{peak_rss_mb, Outcome};
use crate::solver::quality;
use crate::stats::{median, share};
use crate::trace::{Ledger, Recorder, Span};
use crate::workload::{self, Request, Scale, Workload, RTRD_CLIENTS, RTRD_QUEUE_CAP, RTRD_WORKERS};
use crate::RunOptions;
use rtr_core::checkpoint::CheckpointPolicy;
use rtr_core::{Exploration, TemporalPartitioner};
use rtr_trace::{parse_value, JsonValue, StatusSnapshot};
use rtrd::{JobRequest, Lookup, SolveCache};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A job answered later than this misses the service-level objective.
pub const SLO: Duration = Duration::from_millis(250);

/// Status poll interval of the clients.
const POLL: Duration = Duration::from_millis(1);

/// A job not answered within this is abandoned as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// One HTTP exchange on a fresh connection: the status code and body.
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(JOB_TIMEOUT)).map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(response).map_err(|_| "response is not UTF-8")?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("response without a header end")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("bad status line: {head}"))?;
    Ok((status, body.to_owned()))
}

/// One job as a client saw it.
#[derive(Debug)]
struct JobLog {
    position: usize,
    start: Instant,
    latency: Duration,
    polls: u32,
    served: Result<Served, String>,
}

/// Submit, poll until finished, fetch the result.
fn submit_and_wait(
    addr: SocketAddr,
    body: &str,
    polls: &mut u32,
    rec: Option<&mut Recorder>,
    job: u64,
) -> Result<Served, String> {
    let mut rec = rec;
    let span = |rec: &mut Option<&mut Recorder>, name: &'static str, from: Instant| {
        if let Some(r) = rec.as_deref_mut() {
            r.record(name, job, from, Instant::now());
        }
    };
    let t = Instant::now();
    let (status, reply) = exchange(addr, "POST", "/v1/jobs", body)?;
    span(&mut rec, "http.submit", t);
    if status != 202 {
        return Err(format!("submit answered {status}: {reply}"));
    }
    let id = parse_value(&reply)
        .ok()
        .and_then(|v| v.get("job").and_then(JsonValue::as_f64))
        .ok_or_else(|| format!("submit reply without a job id: {reply}"))?;
    let t = Instant::now();
    loop {
        std::thread::sleep(POLL);
        *polls += 1;
        let (status, reply) = exchange(addr, "GET", &format!("/v1/jobs/{id}"), "")?;
        if status != 200 {
            return Err(format!("status answered {status}: {reply}"));
        }
        let state = parse_value(&reply)
            .ok()
            .and_then(|v| v.get("state").and_then(JsonValue::as_str).map(str::to_owned));
        match state.as_deref() {
            Some("done" | "failed") => break,
            Some("queued" | "running") if t.elapsed() < JOB_TIMEOUT => {}
            _ => return Err(format!("job {id} stuck or unknown: {reply}")),
        }
    }
    span(&mut rec, "http.wait", t);
    let t = Instant::now();
    let (status, reply) = exchange(addr, "GET", &format!("/v1/jobs/{id}/result"), "")?;
    span(&mut rec, "http.result", t);
    if status != 200 {
        return Err(format!("result answered {status}: {reply}"));
    }
    parse_served(&reply)
}

/// A slice of the script run by the closed-loop clients.
#[derive(Debug)]
struct Slice {
    /// Jobs in script order.
    logs: Vec<JobLog>,
    /// Each client's wall time, from the slice start to its last job's end.
    client_walls: Vec<Duration>,
    /// From the slice start to the last job's end.
    wall: Duration,
    spans: Vec<Span>,
    board: (StatusSnapshot, StatusSnapshot),
}

/// Runs the script on `server` with [`RTRD_CLIENTS`] closed-loop clients
/// until `seconds` have passed or the script ends. A client holding a
/// resubmit first waits until the job it repeats has finished: a slow job
/// on one client can fall far behind the other, and a repeat of a job still
/// in flight would be a second miss rather than a hit.
fn closed_loop(addr: SocketAddr, script: &Script, seconds: Duration, traced: bool) -> Slice {
    let next = AtomicUsize::new(0);
    let finished: Vec<AtomicBool> = script.entries.iter().map(|_| AtomicBool::new(false)).collect();
    let before = rtr_trace::status::board().snapshot();
    let started = Instant::now();
    let per_client: Vec<(Vec<JobLog>, Duration, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RTRD_CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut recorder = traced.then(|| Recorder::new(started));
                    if let Some(r) = recorder.as_mut() {
                        r.begin_at("client", 0, started);
                    }
                    let mut logs = Vec::new();
                    while started.elapsed() < seconds {
                        let position = next.fetch_add(1, Ordering::SeqCst);
                        let Some(body) = script.bodies.get(position) else { break };
                        if let Request::Resubmit(p) = script.entries[position] {
                            let waiting = Instant::now();
                            while !finished[p].load(Ordering::SeqCst)
                                && waiting.elapsed() < JOB_TIMEOUT
                            {
                                std::thread::sleep(POLL);
                            }
                        }
                        let job = position as u64 + 1;
                        let start = Instant::now();
                        if let Some(r) = recorder.as_mut() {
                            r.begin_at("rtrd.job", job, start);
                        }
                        let mut polls = 0;
                        let served =
                            submit_and_wait(addr, body, &mut polls, recorder.as_mut(), job);
                        let latency = start.elapsed();
                        if let Some(r) = recorder.as_mut() {
                            r.end_at(start + latency);
                        }
                        finished[position].store(true, Ordering::SeqCst);
                        logs.push(JobLog { position, start, latency, polls, served });
                    }
                    let wall =
                        logs.last().map_or(Duration::ZERO, |l| l.start + l.latency - started);
                    let spans = recorder.map_or_else(Vec::new, |mut r| {
                        r.end_at(started + wall);
                        r.into_spans()
                    });
                    (logs, wall, spans)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    });
    let after = rtr_trace::status::board().snapshot();
    let mut logs = Vec::new();
    let mut client_walls = Vec::new();
    let mut parts = Vec::new();
    for (client_logs, wall, spans) in per_client {
        logs.extend(client_logs);
        client_walls.push(wall);
        parts.push(spans);
    }
    logs.sort_by_key(|l| l.position);
    let wall = client_walls.iter().copied().max().unwrap_or_default();
    Slice { logs, client_walls, wall, spans: crate::trace::merge(parts), board: (before, after) }
}

/// The script and its submit bodies.
#[derive(Debug)]
struct Script {
    entries: Vec<Request>,
    bodies: Vec<String>,
}

fn script(opts: &RunOptions, refs: &References) -> Script {
    let len = match opts.scale {
        // Generous for the fastest closed loop seen (about 60 jobs/s);
        // a run that exhausts it stops early and says so.
        Scale::Full => 100 * opts.seconds.as_secs().max(2) as usize,
        Scale::Tiny => 6,
    };
    let entries = workload::rtrd_script(opts.seed, len, refs);
    let mut bodies: Vec<String> = Vec::with_capacity(len);
    for entry in &entries {
        let body = match *entry {
            Request::Fresh(index) => workload::rtrd_fresh_body(index, opts.scale),
            Request::Resubmit(position) => bodies[position].clone(),
            Request::Deadline(ordinal) => workload::rtrd_deadline_body(ordinal),
        };
        bodies.push(body);
    }
    Script { entries, bodies }
}

fn start_server(dir: &Path) -> Result<rtrd::Server, String> {
    rtrd::Server::start(rtrd::Config {
        listen: "127.0.0.1:0".to_owned(),
        cache_dir: dir.to_path_buf(),
        queue_cap: RTRD_QUEUE_CAP,
        workers: RTRD_WORKERS,
    })
    .map_err(|e| format!("starting rtrd in {}: {e}", dir.display()))
}

/// Runs one slice on a fresh server in `dir`.
fn slice(
    script: &Script,
    dir: &Path,
    server: Option<rtrd::Server>,
    seconds: Duration,
    traced: bool,
) -> Result<Slice, String> {
    let server = match server {
        Some(s) => s,
        None => start_server(dir)?,
    };
    let result = closed_loop(server.local_addr(), script, seconds, traced);
    server.shutdown();
    if result.logs.len() == script.bodies.len() {
        eprintln!("warning: the rtrd_mix script ran out before the slice's time did");
    }
    Ok(result)
}

/// What checking a slice found, beyond the failures it records.
#[derive(Debug, Default)]
struct Checked {
    quality: Vec<f64>,
    drift: usize,
    cost: CheckCost,
}

fn entry_key(entries: &[Request], position: usize) -> String {
    match entries[position] {
        Request::Fresh(index) => workload::rtrd_key(index),
        Request::Resubmit(p) => entry_key(entries, p),
        Request::Deadline(n) => format!("deadline{n}"),
    }
}

/// Checks every served result: the job must finish; its solution must pass
/// the validator and the simulator at the reported D_a; its degradation
/// account must be clean (or only cancelled, for a deadline job); and a
/// resubmit must serve the bytes of the fresh job it repeats.
fn check_slice(
    outcome: &mut Outcome,
    script: &Script,
    slice: &Slice,
    refs: &References,
    scale: Scale,
) -> Checked {
    let mut checked = Checked::default();
    let by_position: std::collections::BTreeMap<usize, &JobLog> =
        slice.logs.iter().map(|l| (l.position, l)).collect();
    for log in &slice.logs {
        outcome.attempted += 1;
        let key = format!("{}@{}", entry_key(&script.entries, log.position), log.position);
        let served = match &log.served {
            Ok(s) => s,
            Err(e) => {
                outcome.fail(&key, e);
                continue;
            }
        };
        let request = match JobRequest::from_json(&script.bodies[log.position]) {
            Ok(r) => r,
            Err(e) => {
                outcome.fail(&key, format!("generated request does not parse: {e}"));
                continue;
            }
        };
        let entry = script.entries[log.position];
        let deadline = matches!(entry, Request::Deadline(_));
        if let Err(e) =
            check_served(&request.graph, &request.arch, served, deadline, &mut checked.cost)
        {
            outcome.fail(&key, e);
        }
        if let Request::Resubmit(p) = entry {
            if let Some(Ok(miss)) = by_position.get(&p).map(|l| &l.served) {
                if let Err(e) = check_hit(miss, served) {
                    outcome.fail(&key, e);
                }
            }
        }
        if deadline || scale == Scale::Tiny {
            continue;
        }
        let reference_key = entry_key(&script.entries, log.position);
        let Some(reference) = refs.get(&reference_key) else {
            outcome.fail(&key, "no committed reference for this job");
            continue;
        };
        match (served.latency_ns, reference.latency_ns) {
            (Some(got), Some(want)) => checked.quality.push(got / want),
            (None, Some(want)) => {
                outcome.fail(&key, format!("no solution; reference D_a {want} ns"))
            }
            _ => {}
        }
        if rtr_core::checkpoint::fnv1a(served.csv.as_bytes()) != reference.csv_digest {
            checked.drift += 1;
        }
    }
    checked
}

/// The `rtrd.*` hit and miss latency split, the share of jobs answered
/// within the [`SLO`] (a failed job misses it), and polls per job.
fn classes(script: &Script, slice: &Slice) -> Outcome {
    let latency = |pred: &dyn Fn(&JobLog) -> bool| -> Vec<f64> {
        slice.logs.iter().filter(|l| pred(l)).map(|l| l.latency.as_secs_f64()).collect()
    };
    let cached = |l: &JobLog| l.served.as_ref().is_ok_and(|s| s.cached);
    let deadline = |l: &JobLog| matches!(script.entries[l.position], Request::Deadline(_));
    let jobs = slice.logs.len();
    let within = slice.logs.iter().filter(|l| l.served.is_ok() && l.latency <= SLO).count();
    let polls: f64 = slice.logs.iter().map(|l| f64::from(l.polls)).sum();
    let mut split = Outcome::default();
    split.set_timing("rtrd.hit", &latency(&cached), "ms", 1e3, true);
    let misses = latency(&|l| !cached(l) && !deadline(l) && l.served.is_ok());
    split.set_timing("rtrd.miss", &misses, "ms", 1e3, true);
    split.set("rtrd.slo_attain", share(within as f64, jobs as f64), "frac", jobs);
    split.set("rtrd.polls_per_job", share(polls, jobs as f64), "count", jobs);
    split
}

/// Setup timings: the whole setup at the nominal pace, script
/// generation, and server start.
#[derive(Debug, Default)]
struct Setup {
    paced_s: Vec<f64>,
    generate_s: Vec<f64>,
    server_start_s: Vec<f64>,
}

/// Generates the script and starts a server on a fresh cache directory,
/// `repeats` times; the last script and server are returned.
fn set_up(opts: &RunOptions, refs: &References) -> Result<(Script, rtrd::Server, Setup), String> {
    let mut setup = Setup::default();
    let mut pacer = Pacer::new(1);
    let mut last = None;
    for k in 0..opts.setup_repeats() {
        let (built, _, paced) = pacer.time(|| -> Result<_, String> {
            let t = Instant::now();
            let script = script(opts, refs);
            setup.generate_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let server = start_server(&opts.work_dir.join(format!("setup-{k}")))?;
            setup.server_start_s.push(t.elapsed().as_secs_f64());
            Ok((script, server))
        });
        setup.paced_s.push(paced);
        if let Some((_, old)) = last.replace(built?) {
            old.shutdown();
        }
    }
    let (script, server) = last.ok_or("no setup repetitions")?;
    Ok((script, server, setup))
}

/// Runs `rtrd_mix`.
///
/// # Errors
///
/// A malformed reference table or a server that does not start.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let refs = reference::load(Workload::RtrdMix)?;
    let (script, server, setup) = set_up(opts, &refs)?;
    let mut outcome = Outcome::default();
    if !opts.traced {
        let s = slice(&script, &opts.work_dir, Some(server), opts.seconds, false)?;
        let checked = check_slice(&mut outcome, &script, &s, &refs, opts.scale);
        let times: Vec<f64> = s.logs.iter().map(|l| l.latency.as_secs_f64()).collect();
        outcome.set("setup_s", median(&setup.paced_s), "s", setup.paced_s.len());
        outcome.set(
            "jobs_per_s",
            share(s.logs.len() as f64, s.wall.as_secs_f64()),
            "1/s",
            s.logs.len(),
        );
        outcome.set_timing("job", &times, "ms", 1e3, true);
        outcome.set("quality_ratio", quality(&checked.quality), "ratio", checked.quality.len());
        outcome.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
        let mut split = classes(&script, &s);
        outcome.extra.append(&mut split.metrics);
        outcome.extra.append(&mut split.extra);
        let attempted = outcome.attempted as usize;
        outcome.set_extra(
            "failed_frac",
            share(outcome.failures.len() as f64, attempted as f64),
            "frac",
            attempted,
        );
        outcome.set_extra("csv_drift", checked.drift as f64, "count", attempted);
        return Ok(outcome);
    }

    // Traced: an untraced and a traced slice, each a third of the time on
    // a fresh server, then the in-process replay of the traced slice.
    let third = opts.seconds / 3;
    let untraced = slice(&script, &opts.work_dir.join("untraced"), Some(server), third, false)?;
    let traced_dir = opts.work_dir.join("traced");
    let traced = slice(&script, &traced_dir, None, third, true)?;
    check_slice(&mut outcome, &script, &untraced, &refs, opts.scale);
    let checked = check_slice(&mut outcome, &script, &traced, &refs, opts.scale);
    let mut split = classes(&script, &traced);
    outcome.metrics.append(&mut split.metrics);
    outcome.extra.append(&mut split.extra);
    let (b, a) = &traced.board;
    let n = traced.logs.len();
    for (name, after, before) in [
        ("rtrd.cache.hits", a.rtrd_cache_hits, b.rtrd_cache_hits),
        ("rtrd.cache.misses", a.rtrd_cache_misses, b.rtrd_cache_misses),
        ("rtrd.cache.evictions", a.rtrd_cache_evictions, b.rtrd_cache_evictions),
        ("rtrd.rejected", a.rtrd_rejected, b.rtrd_rejected),
        ("rtrd.cancelled", a.rtrd_cancelled, b.rtrd_cancelled),
    ] {
        outcome.set(name, after.saturating_sub(before) as f64, "count", n);
    }
    outcome.set("check.csv_drift", checked.drift as f64, "count", n);
    layers::check_metrics(&mut outcome, &checked.cost);
    outcome.set("setup.generate_ms", median(&setup.generate_s) * 1e3, "ms", setup.generate_s.len());
    outcome.set(
        "setup.server_start_ms",
        median(&setup.server_start_s) * 1e3,
        "ms",
        setup.server_start_s.len(),
    );

    let replay = replay(&script, &traced, &opts.work_dir.join("replay"))?;
    for (key, why) in &replay.failures {
        outcome.fail(key, why);
    }
    let by_job = |name: &str| -> std::collections::BTreeMap<u64, f64> {
        let mut sums = std::collections::BTreeMap::new();
        for s in replay.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.job).or_insert(0.0) += s.seconds();
        }
        sums
    };
    let layer_names =
        ["rtrd.parse", "rtrd.fingerprint", "rtrd.cache_load", "rtrd.replay", "rtrd.solve"];
    let per_layer: Vec<_> = layer_names.iter().map(|name| by_job(name)).collect();
    let values = |i: usize| -> Vec<f64> { per_layer[i].values().copied().collect() };
    outcome.set("rtrd.parse_us", median(&values(0)) * 1e6, "us", per_layer[0].len());
    outcome.set("rtrd.fingerprint_us", median(&values(1)) * 1e6, "us", per_layer[1].len());
    outcome.set("rtrd.cache_load_us", median(&values(2)) * 1e6, "us", per_layer[2].len());
    outcome.set("rtrd.replay_ms", median(&values(3)) * 1e3, "ms", per_layer[3].len());
    outcome.set("rtrd.solve_ms", median(&values(4)) * 1e3, "ms", per_layer[4].len());

    // The ledger, in client-seconds: each job's latency splits into the
    // replayed layer times and the HTTP residual; client time outside jobs
    // is the explicit residual.
    let mut layer_s = vec![0.0; layer_names.len()];
    let mut residuals = Vec::with_capacity(n);
    for log in &traced.logs {
        let job = log.position as u64 + 1;
        let mut inside = 0.0;
        for (i, sums) in per_layer.iter().enumerate() {
            let s = sums.get(&job).copied().unwrap_or(0.0);
            layer_s[i] += s;
            inside += s;
        }
        residuals.push(log.latency.as_secs_f64() - inside);
    }
    outcome.set("rtrd.http_residual_ms", median(&residuals) * 1e3, "ms", residuals.len());
    let job_span_s: f64 =
        traced.spans.iter().filter(|s| s.name == "rtrd.job").map(Span::seconds).sum();
    let client_span_s: f64 =
        traced.spans.iter().filter(|s| s.name == "client").map(Span::seconds).sum();
    let mut ledger = Ledger {
        wall_s: traced.client_walls.iter().map(Duration::as_secs_f64).sum(),
        layers: layer_names.iter().zip(&layer_s).map(|(n, s)| ((*n).to_owned(), *s)).collect(),
        residual_s: client_span_s - job_span_s,
    };
    ledger.layers.push(("rtrd.http_residual".to_owned(), residuals.iter().sum()));
    if ledger.gap() > 0.01 {
        outcome.fail("trace", format!("ledger does not add up: {}", ledger.render()));
    }
    let rate = |s: &Slice| share(s.logs.len() as f64, s.wall.as_secs_f64());
    let spans = traced.spans.len() + replay.spans.len();
    layers::trace_metrics(&mut outcome, &ledger, rate(&untraced) / rate(&traced) - 1.0, spans);
    outcome.ledger = Some(ledger);

    // The fresh solves, each timed by its replay span (which includes the
    // every-window checkpoint writes the server makes).
    let solve_s = &per_layer[4];
    let requests: Vec<(JobRequest, &Exploration, f64)> = replay
        .solved
        .iter()
        .filter_map(|(position, ex)| {
            let request = JobRequest::from_json(&script.bodies[*position]).ok()?;
            Some((request, ex, solve_s.get(&(*position as u64 + 1)).copied().unwrap_or(0.0)))
        })
        .collect();
    let explored: Vec<Explored<'_>> = requests
        .iter()
        .map(|(request, ex, explore_s)| Explored {
            graph: &request.graph,
            arch: &request.arch,
            params: &request.params,
            exploration: ex,
            explore_s: *explore_s,
            observed_window_s: None,
        })
        .collect();
    outcome.set("search.jobs", explored.len() as f64, "count", explored.len());
    layers::search_metrics(&mut outcome, &explored, 1);
    let failures = layers::checkpoint_metrics(&mut outcome, &replay.checkpoints, &opts.work_dir);
    for (key, why) in failures {
        outcome.fail(&key, why);
    }
    outcome.spans = traced.spans;
    outcome.spans.extend(replay.spans);
    Ok(outcome)
}

/// The in-process replay of a traced slice.
#[derive(Debug, Default)]
struct Replay {
    spans: Vec<Span>,
    /// Fresh solves (misses), by script position.
    solved: Vec<(usize, Exploration)>,
    /// The checkpoints the fresh solves left in the replay's cache.
    checkpoints: Vec<(String, rtr_core::Checkpoint)>,
    failures: Vec<(String, String)>,
}

/// Replays the slice's jobs in script order through the server's steps on
/// a fresh cache in `dir`, timing each step as a span of the job.
fn replay(script: &Script, slice: &Slice, dir: &Path) -> Result<Replay, String> {
    let cache =
        SolveCache::open(dir).map_err(|e| format!("replay cache {}: {e}", dir.display()))?;
    let mut rec = Recorder::new(Instant::now());
    let mut out = Replay::default();
    for log in &slice.logs {
        let job = log.position as u64 + 1;
        let key = format!("replay@{}", log.position);
        let t = Instant::now();
        let request = JobRequest::from_json(&script.bodies[log.position]);
        rec.record("rtrd.parse", job, t, Instant::now());
        let request = match request {
            Ok(r) => r,
            Err(e) => {
                out.failures.push((key, e.to_string()));
                continue;
            }
        };
        let t = Instant::now();
        let partitioner =
            TemporalPartitioner::new(&request.graph, &request.arch, request.params.clone()).map(
                |p| {
                    let fingerprint = p.fingerprint();
                    (p, fingerprint)
                },
            );
        rec.record("rtrd.fingerprint", job, t, Instant::now());
        let (partitioner, fingerprint) = match partitioner {
            Ok(found) => found,
            Err(e) => {
                out.failures.push((key, e.to_string()));
                continue;
            }
        };
        let t = Instant::now();
        let lookup = cache.load(fingerprint);
        rec.record("rtrd.cache_load", job, t, Instant::now());
        let t = Instant::now();
        let miss = !matches!(lookup, Lookup::Hit(_));
        let explored = match lookup {
            Lookup::Hit(checkpoint) => {
                let r = partitioner.explore_resumable(1, None, Some(&checkpoint), |_| {});
                rec.record("rtrd.replay", job, t, Instant::now());
                r
            }
            Lookup::Miss | Lookup::Evicted => {
                let policy =
                    CheckpointPolicy::new(cache.job_checkpoint_path(fingerprint), Duration::ZERO);
                // The server's deadline watchdog, for the slow jobs.
                let r = std::thread::scope(|scope| {
                    let cancel = request.params.cancel.clone();
                    let watchdog = request.deadline.map(|limit| {
                        scope.spawn(move || {
                            std::thread::sleep(limit);
                            cancel.cancel();
                        })
                    });
                    let r =
                        partitioner.explore_resumable(request.threads, Some(&policy), None, |_| {});
                    if let Some(handle) = watchdog {
                        let _ = handle.join();
                    }
                    r
                });
                if r.as_ref().is_ok_and(|ex| !ex.degradation.cancelled) {
                    cache.promote_job_checkpoint(fingerprint);
                }
                rec.record("rtrd.solve", job, t, Instant::now());
                r
            }
        };
        match explored {
            Ok(ex) if miss && matches!(script.entries[log.position], Request::Fresh(_)) => {
                if let Lookup::Hit(checkpoint) = cache.load(fingerprint) {
                    out.checkpoints.push((key, checkpoint));
                }
                out.solved.push((log.position, ex));
            }
            Ok(_) => {}
            Err(e) => out.failures.push((key, e.to_string())),
        }
    }
    out.spans = rec.into_spans();
    Ok(out)
}
