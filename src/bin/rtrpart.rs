//! `rtrpart` — command-line front end for the temporal partitioner.
//!
//! ```text
//! rtrpart partition --graph design.tg --rmax 576 --mmax 512 --ct 1us [options]
//! rtrpart bounds    --graph design.tg --rmax 576 --mmax 512 --ct 1us
//! rtrpart demo dct|ar|fft|jpeg|matmul [--out file.tg]
//! rtrpart simulate  --graph design.tg --rmax ... (partitions, then simulates)
//! ```
//!
//! Run `rtrpart help` for the full option list. Graphs use the text format
//! of `rtr_graph::TaskGraph::{to_text, from_text}`.

use rtrpart::graph::{Area, Latency, TaskGraph};
use rtrpart::{
    Architecture, Backend, Checkpoint, CheckpointPolicy, EnvMemoryPolicy, ExploreParams,
    SearchLimits, TemporalPartitioner,
};
use std::process::ExitCode;
use std::time::Duration;

const HELP: &str = "\
rtrpart — temporal partitioning with design space exploration

USAGE:
    rtrpart <COMMAND> [OPTIONS]

COMMANDS:
    partition    explore partitionings of a task graph and print the best
    bounds       print N_min^l / N_min^u and the latency bounds
    simulate     partition, then run the result on the device simulator
    demo         write a built-in workload (dct | ar | fft | jpeg | matmul) as a .tg file
    trace-report aggregate a --trace JSONL file into a run report
    trace-export convert a --trace JSONL file to Chrome/Perfetto trace JSON
    help         print this text

OPTIONS (partition / bounds / simulate):
    --graph <file>        task graph in .tg text format (required)
    --rmax <units>        device area per configuration (required)
    --mmax <units>        on-board memory in data units   [default: 512]
    --ct <time>           reconfiguration time, e.g. 30ns, 1us, 10ms (required)
    --delta <time>        latency tolerance δ             [default: 100ns]
    --alpha <n>           starting partition relaxation α [default: 0]
    --gamma <n>           ending partition relaxation γ, at most the
                          graph's task count              [default: 1]
    --backend <name>      structured | milp               [default: structured]
    --cold-start          disable MILP warm starts (milp backend; results
                          are unchanged, only pivot counts grow)
    --strategy <name>     bisection | aggressive          [default: bisection]
    --env-policy <name>   resident | streamed             [default: resident]
    --dsp <a,b,...>       secondary resource capacities per class
    --solve-seconds <s>   per-window time budget          [default: 5]
    --solve-nodes <n>     per-window node budget instead of a wall-clock
                          one; makes runs machine-independent and byte-
                          reproducible (used by checkpoint/resume tests)
    --threads <n>         worker threads, at most 64; 0 = auto (RTR_THREADS
                          env var, else CPU count; also at most 64)
                          [default: 1]. One global
                          work-stealing pool schedules candidate windows and
                          each window's structured subtrees under a single
                          thread budget; results are identical at any count
                          unless a window ends on its budget, which is
                          best-effort above one thread (see the determinism
                          envelope in DESIGN.md)
    --csv <file>          write the refinement log as CSV (timing-free; byte-
                          identical across runs, and across thread counts
                          unless a window ends on its budget)
    --timed-csv <file>    refinement log CSV with wall-clock columns
    --checkpoint <file>   stream completed solve windows into a versioned
                          JSON checkpoint (atomic temp-file + rename writes)
    --checkpoint-every <s> minimum seconds between checkpoint writes
                          [default: 30; 0 = write after every window]
    --resume <file>       resume from a checkpoint written by --checkpoint;
                          cached windows are validated and replayed, the
                          rest are solved, and the final results are byte-
                          identical to an uninterrupted run
    --dot <file>          write the task graph as Graphviz DOT
    --out-solution <file> write the best solution as text
    --trace <file>        write a structured trace of the run as JSONL
    --trace-export <fmt>  also export the trace when the run finishes;
                          `perfetto` writes <file>.perfetto.json for
                          chrome://tracing / ui.perfetto.dev (needs --trace)
    --status-file <file>  write a live status heartbeat (one JSON line per
                          interval: nodes, prunes, incumbent, windows, LP
                          pivots, checkpoint age) while the solve runs
    --status-every <ms>   heartbeat interval in milliseconds [default: 1000;
                          must be > 0]
    --quiet               only print the final solution

ENVIRONMENT:
    RTR_FAILPOINTS=<seed>:<rate>[:<site,...>]
                          deterministic fault injection for resilience
                          testing (see DESIGN.md); off unless set

OPTIONS (demo):
    --out <file>          output path [default: <name>.tg]

EXAMPLE (tracing):
    rtrpart partition --graph dct.tg --rmax 576 --ct 1us --trace run.jsonl
    rtrpart trace-report run.jsonl
    rtrpart trace-export run.jsonl run.perfetto.json

EXAMPLE (live status board):
    rtrpart partition --graph dct.tg --rmax 576 --ct 1us \\
        --status-file status.jsonl --status-every 500 &
    tail -f status.jsonl
";

fn main() -> ExitCode {
    // Under fault injection the injected panics are expected and caught;
    // keep them out of stderr so degradation reports stay comparable
    // across runs (genuine panics still print normally).
    if std::env::var_os("RTR_FAILPOINTS").is_some() {
        rtrpart::trace::failpoint::silence_injected_panics();
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `rtrpart help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("partition") => partition_cmd(&args[1..], false),
        Some("simulate") => partition_cmd(&args[1..], true),
        Some("bounds") => bounds_cmd(&args[1..]),
        Some("demo") => demo_cmd(&args[1..]),
        Some("trace-report") => trace_report_cmd(&args[1..]),
        Some("trace-export") => trace_export_cmd(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

/// Minimal option scanner: `--key value` pairs plus boolean flags.
struct Options<'a> {
    args: &'a [String],
}

impl<'a> Options<'a> {
    fn value(&self, key: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.args.iter().any(|a| a == key)
    }

    fn required(&self, key: &str) -> Result<&'a str, String> {
        self.value(key).ok_or_else(|| format!("missing required option `{key}`"))
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            Some(v) => v.parse().map_err(|_| format!("invalid value for `{key}`: `{v}`")),
            None => Ok(default),
        }
    }
}

fn parse_time(s: &str) -> Result<Latency, String> {
    // The unit is a suffix, so exponent notation (`1e3ns`) parses; `s`
    // comes last because it ends every other unit.
    let unit = ["ns", "us", "µs", "ms", "s"]
        .into_iter()
        .find(|unit| s.ends_with(unit))
        .ok_or_else(|| format!("time `{s}` needs a unit (ns, us, ms, s)"))?;
    let number = &s[..s.len() - unit.len()];
    let value: f64 = number.parse().map_err(|_| {
        format!("invalid time `{s}`: expected a number followed by ns, us, ms or s")
    })?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("time `{s}` must be finite and non-negative"));
    }
    let ns = match unit {
        "ns" => value,
        "us" | "µs" => value * 1e3,
        "ms" => value * 1e6,
        _ => value * 1e3 * 1e6,
    };
    if !ns.is_finite() {
        return Err(format!("time `{s}` is too large to represent in nanoseconds"));
    }
    Ok(Latency::from_ns(ns))
}

fn load_graph(opts: &Options) -> Result<TaskGraph, String> {
    let path = opts.required("--graph")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    TaskGraph::from_text(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))
}

fn load_arch(opts: &Options) -> Result<Architecture, String> {
    let rmax: u64 = opts.required("--rmax")?.parse().map_err(|_| "invalid `--rmax`".to_owned())?;
    if rmax == 0 {
        return Err("`--rmax` must be positive: a zero-area device admits no tasks".to_owned());
    }
    let mmax: u64 = opts.parsed("--mmax", 512)?;
    let ct = parse_time(opts.required("--ct")?)?;
    let env = match opts.value("--env-policy").unwrap_or("resident") {
        "resident" => EnvMemoryPolicy::Resident,
        "streamed" => EnvMemoryPolicy::Streamed,
        other => return Err(format!("unknown env policy `{other}`")),
    };
    let mut arch = Architecture::new(Area::new(rmax), mmax, ct).with_env_policy(env);
    if let Some(list) = opts.value("--dsp") {
        let caps: Result<Vec<u64>, _> = list.split(',').map(str::parse).collect();
        arch = arch
            .with_secondary_capacities(caps.map_err(|_| format!("invalid `--dsp` list `{list}`"))?);
    }
    Ok(arch)
}

/// `--threads` under the service's ceiling (`rtrd::request::check_threads`):
/// the pool starts every thread up front. `0` keeps its meaning, auto.
fn load_threads(opts: &Options) -> Result<usize, String> {
    rtrpart::service::request::check_threads(opts.parsed("--threads", 1)?)
        .map_err(|e| format!("invalid value for `--threads`: {e}"))
}

/// The exploration options of a graph with `tasks` tasks; `--gamma` obeys
/// the service's rule (`rtrd::request::check_gamma`).
fn load_params(opts: &Options, tasks: usize) -> Result<ExploreParams, String> {
    let delta = match opts.value("--delta") {
        Some(v) => parse_time(v)?,
        None => Latency::from_ns(100.0),
    };
    let backend = match opts.value("--backend").unwrap_or("structured") {
        "structured" => Backend::Structured,
        "milp" => Backend::Milp,
        other => return Err(format!("unknown backend `{other}`")),
    };
    let strategy = match opts.value("--strategy").unwrap_or("bisection") {
        "bisection" => rtrpart::core::RefinementStrategy::Bisection,
        "aggressive" => rtrpart::core::RefinementStrategy::AggressiveDescent,
        other => return Err(format!("unknown strategy `{other}`")),
    };
    let solve_seconds: u64 = opts.parsed("--solve-seconds", 5)?;
    // `--solve-nodes` swaps the wall-clock window budget for a node-count
    // budget, which is machine-independent: two runs (or an interrupted
    // run resumed from a checkpoint) then produce byte-identical output.
    let limits = match opts.value("--solve-nodes") {
        Some(v) => {
            let node_limit: u64 =
                v.parse().map_err(|_| format!("invalid value for `--solve-nodes`: `{v}`"))?;
            SearchLimits { node_limit, time_limit: None }
        }
        None => SearchLimits {
            node_limit: 40_000_000,
            time_limit: Some(Duration::from_secs(solve_seconds)),
        },
    };
    let mut milp_options = ExploreParams::default().milp_options;
    // Warm starts never change results (stale or troubled bases fall back
    // to cold solves); the flag exists to reproduce historical pivot
    // counts and to A/B the warm-start machinery itself.
    milp_options.warm_start = !opts.flag("--cold-start");
    Ok(ExploreParams {
        delta,
        alpha: opts.parsed("--alpha", 0)?,
        gamma: rtrpart::service::request::check_gamma(opts.parsed("--gamma", 1)?, tasks)
            .map_err(|e| format!("invalid value for `--gamma`: {e}"))?,
        backend,
        strategy,
        limits,
        milp_options,
        ..Default::default()
    })
}

fn partition_cmd(args: &[String], simulate: bool) -> Result<(), String> {
    let opts = Options { args };
    let export = match opts.value("--trace-export") {
        Some("perfetto") if opts.value("--trace").is_some() => Some("perfetto"),
        Some("perfetto") => {
            return Err("`--trace-export` requires `--trace <file>`".to_owned());
        }
        Some(other) => {
            return Err(format!("unknown trace export format `{other}` (expected `perfetto`)"));
        }
        None => None,
    };
    let tracing = match opts.value("--trace") {
        Some(path) => {
            let sink = rtrpart::trace::JsonlSink::create(path)
                .map_err(|e| format!("cannot create trace file `{path}`: {e}"))?;
            rtrpart::trace::install(std::sync::Arc::new(sink));
            Some(path)
        }
        None => None,
    };
    let status = match opts.value("--status-file") {
        Some(path) => {
            let every: u64 = opts.parsed("--status-every", 1000)?;
            // Every run's counters start from zero — the board is
            // process-global, so clear whatever an earlier in-process run
            // (or test) left behind.
            rtrpart::trace::status::board().reset();
            let writer = rtrpart::trace::StatusWriter::spawn(path, Duration::from_millis(every))
                .map_err(|e| format!("cannot start status heartbeat: {e}"))?;
            Some(writer)
        }
        None if opts.value("--status-every").is_some() => {
            return Err("`--status-every` requires `--status-file <file>`".to_owned());
        }
        None => None,
    };
    let result = partition_body(&opts, simulate);
    if let Some(writer) = status {
        // Writes one final snapshot so the file always ends on the
        // completed totals.
        writer.stop();
    }
    if let Some(path) = tracing {
        // Flushes the JSONL sink.
        rtrpart::trace::uninstall();
        if result.is_ok() && !opts.flag("--quiet") {
            println!("\ntrace written to {path} (inspect with `rtrpart trace-report {path}`)");
        }
        if export.is_some() {
            let out = format!("{path}.perfetto.json");
            export_trace(path, &out)?;
            if result.is_ok() && !opts.flag("--quiet") {
                println!("perfetto timeline written to {out} (open in ui.perfetto.dev)");
            }
        }
    }
    result
}

/// Converts a JSONL trace file into a Chrome/Perfetto trace-event JSON
/// document at `out`.
fn export_trace(input: &str, out: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read `{input}`: {e}"))?;
    let events =
        rtrpart::trace::parse_jsonl(&text).map_err(|e| format!("cannot parse `{input}`: {e}"))?;
    let json = rtrpart::trace::RunReport::to_perfetto_json(&events);
    std::fs::write(out, json).map_err(|e| format!("cannot write `{out}`: {e}"))
}

fn partition_body(opts: &Options, simulate: bool) -> Result<(), String> {
    let graph = load_graph(opts)?;
    let arch = load_arch(opts)?;
    let mut params = load_params(opts, graph.task_count())?;
    let quiet = opts.flag("--quiet");

    if let Some(path) = opts.value("--dot") {
        std::fs::write(path, graph.to_dot()).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }

    let threads = load_threads(opts)?;
    // `--threads` is the single global budget: one work-stealing pool
    // schedules phase-2 candidate windows *and* every window's structured
    // subtree jobs, so a stalled window's idle workers migrate to other
    // candidates instead of sitting on a static per-layer split.
    params.solver_threads = threads;
    let partitioner = TemporalPartitioner::new(&graph, &arch, params)
        .map_err(|e| format!("partitioner rejected the instance: {e}"))?;
    if !quiet {
        println!("{:>4} {:>4} {:>14} {:>14}   result", "N", "I", "Dmin", "Dmax");
    }
    let print_record = |r: &rtrpart::IterationRecord| {
        if quiet {
            return;
        }
        let result = match &r.result {
            rtrpart::IterationResult::Feasible { latency, eta } => {
                format!("feasible: {latency} over {eta} partitions")
            }
            rtrpart::IterationResult::Infeasible => "infeasible".to_owned(),
            rtrpart::IterationResult::LimitReached => "undecided (budget)".to_owned(),
        };
        println!(
            "{:>4} {:>4} {:>14} {:>14}   {result}",
            r.n,
            r.iteration,
            r.d_min.to_string(),
            r.d_max.to_string()
        );
    };
    let policy = match opts.value("--checkpoint") {
        Some(path) => {
            let secs: u64 = opts.parsed("--checkpoint-every", 30)?;
            Some(CheckpointPolicy::new(path, Duration::from_secs(secs)))
        }
        None if opts.value("--checkpoint-every").is_some() => {
            return Err("`--checkpoint-every` requires `--checkpoint <file>`".to_owned());
        }
        None => None,
    };
    let resume = match opts.value("--resume") {
        Some(path) => {
            let loaded = Checkpoint::load(std::path::Path::new(path))
                .map_err(|e| format!("cannot resume from `{path}`: {e}"))?;
            Some(loaded)
        }
        None => None,
    };

    let exploration = partitioner
        .explore_resumable(threads, policy.as_ref(), resume.as_ref(), print_record)
        .map_err(|e| format!("exploration failed: {e}"))?;
    if !quiet {
        println!();
    }
    if !exploration.degradation.is_clean() {
        // One grep-able block: worker panics were isolated, and this is the
        // record of what was retried or lost.
        eprint!("{}", exploration.degradation.render());
    }

    if let Some(path) = opts.value("--csv") {
        std::fs::write(path, exploration.to_csv())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    if let Some(path) = opts.value("--timed-csv") {
        std::fs::write(path, exploration.to_csv_timed())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }

    match &exploration.best {
        Some(best) => {
            println!("{}", best.summary(&graph, &arch));
            if !quiet {
                let analysis = rtrpart::core::SolutionAnalysis::analyze(&graph, &arch, best);
                println!("\n{}", analysis.render());
            }
            if let Some(path) = opts.value("--out-solution") {
                std::fs::write(path, best.to_text(&graph))
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            }
            if simulate {
                let report = rtrpart::sim::simulate(&graph, &arch, best)
                    .map_err(|e| format!("simulation rejected the solution: {e}"))?;
                println!("\nsimulated timeline:\n{}", report.timeline());
                println!("\n{}", report.gantt(64));
            }
            Ok(())
        }
        None => Err("no feasible partitioning found".to_owned()),
    }
}

fn bounds_cmd(args: &[String]) -> Result<(), String> {
    let opts = Options { args };
    let graph = load_graph(&opts)?;
    let arch = load_arch(&opts)?;
    // The partitioner's own checks at γ = 0, whose largest bound is the
    // last N printed below: `bounds` refuses what `partition` refuses.
    TemporalPartitioner::new(&graph, &arch, ExploreParams { gamma: 0, ..Default::default() })
        .map_err(|e| format!("partitioner rejected the instance: {e}"))?;
    let n_l = rtrpart::min_area_partitions(&graph, &arch);
    let n_u = rtrpart::max_area_partitions(&graph, &arch);
    println!("{}", graph.stats());
    println!("N_min^l (MinAreaPartitions) = {n_l}");
    println!("N_min^u (MaxAreaPartitions) = {n_u}");
    for n in n_l..=n_u {
        println!(
            "N = {n}: MinLatency = {}, MaxLatency = {}",
            rtrpart::min_latency(&graph, &arch, n),
            rtrpart::max_latency(&graph, &arch, n)
        );
    }
    Ok(())
}

fn trace_report_cmd(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .map(String::as_str)
        .ok_or("trace-report needs a JSONL trace file (from `partition --trace <file>`)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let events =
        rtrpart::trace::parse_jsonl(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))?;
    let report = rtrpart::trace::RunReport::from_events(&events);
    print!("{}", report.render());
    Ok(())
}

fn trace_export_cmd(args: &[String]) -> Result<(), String> {
    let [input, out] = args else {
        return Err("trace-export needs <in.jsonl> <out.json> (the input comes from \
             `partition --trace <file>`)"
            .to_owned());
    };
    export_trace(input, out)?;
    println!("perfetto timeline written to {out} (open in ui.perfetto.dev)");
    Ok(())
}

fn demo_cmd(args: &[String]) -> Result<(), String> {
    let opts = Options { args: &args[1..] };
    let name = args
        .first()
        .map(String::as_str)
        .ok_or("demo needs a workload name (dct | ar | fft | jpeg | matmul)")?;
    let graph = match name {
        "dct" => rtrpart::workloads::dct::dct_4x4(),
        "ar" => {
            rtrpart::workloads::ar::ar_filter().map_err(|e| format!("AR synthesis failed: {e}"))?
        }
        "fft" => rtrpart::workloads::fft::fft_graph(16, 4)
            .map_err(|e| format!("FFT synthesis failed: {e}"))?,
        "jpeg" => rtrpart::workloads::jpeg::jpeg_pipeline()
            .map_err(|e| format!("JPEG synthesis failed: {e}"))?,
        "matmul" => rtrpart::workloads::matmul::matmul_graph(3, 2)
            .map_err(|e| format!("matmul synthesis failed: {e}"))?,
        other => {
            return Err(format!("unknown demo `{other}` (expected dct | ar | fft | jpeg | matmul)"))
        }
    };
    let default = format!("{name}.tg");
    let out = opts.value("--out").unwrap_or(&default);
    std::fs::write(out, graph.to_text()).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!("wrote {} tasks / {} edges to {out}", graph.task_count(), graph.edge_count());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parse_time_units() {
        assert_eq!(parse_time("30ns").unwrap().as_ns(), 30.0);
        assert_eq!(parse_time("1.5us").unwrap().as_ns(), 1500.0);
        assert_eq!(parse_time("10ms").unwrap().as_ns(), 1e7);
        assert_eq!(parse_time("2s").unwrap().as_ns(), 2e9);
        assert!(parse_time("10").is_err());
        assert!(parse_time("xns").is_err());
        assert!(parse_time("5weeks").is_err());
        assert!(parse_time("-1ms").is_err());
        // Finite as a number of seconds, infinite in nanoseconds.
        assert!(parse_time(&format!("1{}s", "0".repeat(300))).is_err());
        assert_eq!(parse_time("1e3ns").unwrap().as_ns(), 1000.0);
        assert_eq!(parse_time("1.5e-3ms").unwrap().as_ns(), 1500.0);
        assert!(parse_time("1e400ns").is_err());
    }

    #[test]
    fn bounds_refuses_a_latency_bound_that_overflows() {
        let dir = std::env::temp_dir().join(format!("rtrpart_bounds_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ar.tg");
        let graph = path.to_str().unwrap();
        run(&strs(&["demo", "ar", "--out", graph])).unwrap();
        let bounds =
            |ct: &str| run(&strs(&["bounds", "--graph", graph, "--rmax", "241", "--ct", ct]));
        assert!(bounds("1us").is_ok());
        for ct in [format!("1{}ns", "0".repeat(308)), "1e308ns".to_owned()] {
            let err = bounds(&ct).unwrap_err();
            assert!(err.contains("not finite"), "{ct}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn threads_and_gamma_follow_the_service_rules() {
        // Validation only: no partition ever runs with these values.
        let threads = |v: &str| load_threads(&Options { args: &strs(&["--threads", v]) });
        assert_eq!(threads("0"), Ok(0));
        assert_eq!(threads("64"), Ok(64));
        assert!(threads("65").is_err());
        assert!(threads("100000").unwrap_err().contains("--threads"));
        let gamma =
            |v: &str| load_params(&Options { args: &strs(&["--gamma", v]) }, 6).map(|p| p.gamma);
        assert_eq!(gamma("6"), Ok(6));
        assert!(gamma("7").is_err());
        assert!(gamma(&u32::MAX.to_string()).unwrap_err().contains("--gamma"));
    }

    #[test]
    fn options_scanner() {
        let args = strs(&["--rmax", "576", "--quiet", "--ct", "1us"]);
        let opts = Options { args: &args };
        assert_eq!(opts.value("--rmax"), Some("576"));
        assert_eq!(opts.value("--ct"), Some("1us"));
        assert!(opts.flag("--quiet"));
        assert!(!opts.flag("--dot"));
        assert!(opts.required("--mmax").is_err());
        assert_eq!(opts.parsed("--alpha", 7u32).unwrap(), 7);
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&strs(&["frobnicate"])).is_err());
        assert!(run(&strs(&["help"])).is_ok());
        assert!(run(&[]).is_ok());
    }

    #[test]
    fn arch_parsing_including_dsp_classes() {
        let args = strs(&[
            "--rmax",
            "576",
            "--ct",
            "1us",
            "--mmax",
            "64",
            "--dsp",
            "4,2",
            "--env-policy",
            "streamed",
        ]);
        let opts = Options { args: &args };
        let arch = load_arch(&opts).unwrap();
        assert_eq!(arch.resource_capacity().units(), 576);
        assert_eq!(arch.memory_capacity(), 64);
        assert_eq!(arch.secondary_capacities(), &[4, 2]);
        assert_eq!(arch.env_policy(), EnvMemoryPolicy::Streamed);
    }

    #[test]
    fn bad_backend_and_policy_rejected() {
        let args = strs(&["--rmax", "1", "--ct", "1ns", "--env-policy", "psychic"]);
        assert!(load_arch(&Options { args: &args }).is_err());
        let args = strs(&["--backend", "quantum"]);
        assert!(load_params(&Options { args: &args }, 6).is_err());
    }
}
