//! The `rtrbench` command line: `run`, `compare` and `reference`.

use rtr_benchmark::compare::{self, RunResult};
use rtr_benchmark::reference::{self, Reference};
use rtr_benchmark::report::{self, Environment, RunInfo};
use rtr_benchmark::spec::Spec;
use rtr_benchmark::workload::{self, Scale, Workload, SUITE_THREADS};
use rtr_benchmark::{trace, RunOptions};
use rtr_core::TemporalPartitioner;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

const USAGE: &str = "\
usage:
  rtrbench run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
      Runs one workload (default seed 1, default seconds from BENCHMARK.json),
      checks its outputs, writes a result file under .rtrbench/results/, and
      prints every metric; the last line is the JSON summary. --trace 1 (or
      --traced) is the separate traced run that reports per-layer metrics.
  rtrbench compare <parent results...> -- <change results...>
      Compares end-to-end result files pair by pair, per workload.
  rtrbench reference --workload <name>
      Prints the reference table of every job the workload can submit.
workloads: dct_paper, suite_pool2, milp_exact, rtrd_mix";

/// Where runs write their result files and scratch directories, relative
/// to the working directory.
const OUT_DIR: &str = ".rtrbench";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("reference") => reference(&args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(format!("expected a command\n{USAGE}")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

/// The value following `--name`, if given.
fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => args.get(i + 1).map(|v| Some(v.as_str())).ok_or(format!("{name} needs a value")),
        None => Ok(None),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)?.map(|v| v.parse().map_err(|_| format!("{name}: bad value `{v}`"))).transpose()
}

fn workload_arg(args: &[String]) -> Result<Workload, String> {
    let name = flag(args, "--workload")?.ok_or("--workload is required")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))
}

/// Removes a run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err("rtrbench run measures optimized builds only; build with --release".to_owned());
    }
    let spec = Spec::builtin();
    let workload = workload_arg(args)?;
    let seed = parsed(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(spec.run_seconds as f64);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds: bad value {seconds}"));
    }
    let traced = args.iter().any(|a| a == "--traced")
        || match parsed::<u8>(args, "--trace")? {
            None | Some(0) => false,
            Some(1) => true,
            Some(other) => return Err(format!("--trace: expected 0 or 1, got {other}")),
        };
    let env = Environment::probe();
    if workload.threads() > env.host_cpus {
        eprintln!(
            "warning: {} keeps {} threads busy on {} CPUs; its times measure contention",
            workload.name(),
            workload.threads(),
            env.host_cpus
        );
    }

    let stamp = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis());
    let scratch =
        ScratchDir(Path::new(OUT_DIR).join(format!("work-{}-{stamp}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let opts = RunOptions {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        traced,
        scale: Scale::Full,
        work_dir: scratch.0.clone(),
    };
    let outcome = rtr_benchmark::run(workload, &opts, &spec)?;
    let declared = if traced { &spec.per_layer } else { &spec.end_to_end };
    let problems = outcome.mismatches(declared);
    if !problems.is_empty() {
        return Err(format!(
            "the run's metrics disagree with BENCHMARK.json: {}",
            problems.join("; ")
        ));
    }

    let results = Path::new(OUT_DIR).join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let mode = if traced { "traced" } else { "e2e" };
    let base = results.join(format!("{}-{mode}-seed{seed}-{stamp}", workload.name()));
    let info = RunInfo {
        workload: workload.name(),
        seed,
        seconds,
        traced,
        threads: workload.threads(),
        env: &env,
    };
    let file = base.with_extension("json");
    std::fs::write(&file, report::result_json(&info, &outcome))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    if traced {
        let spans = base.with_extension("spans.jsonl");
        std::fs::write(&spans, trace::to_jsonl(&outcome.spans))
            .map_err(|e| format!("{}: {e}", spans.display()))?;
    }

    println!(
        "rtrbench {} seed {seed} ({mode}, {seconds} s, {} threads on {} CPUs, {} build, rustc {}, revision {})",
        workload.name(),
        workload.threads(),
        env.host_cpus,
        env.profile,
        env.rustc,
        env.git_revision
    );
    print!("{}", report::render_table(&outcome, &spec));
    if let Some(ledger) = &outcome.ledger {
        print!("{}", ledger.render());
    }
    println!("result: {}", file.display());
    println!("{}", report::summary_line(&outcome));
    Ok(if outcome.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare: separate parent and change runs with --")?;
    let load = |files: &[String]| -> Result<Vec<RunResult>, String> {
        files
            .iter()
            .map(|f| {
                let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
                RunResult::parse(&text).map_err(|e| format!("{f}: {e}"))
            })
            .collect()
    };
    let (parent, change) = (load(&args[..split])?, load(&args[split + 1..])?);
    let rows = compare::compare(&Spec::builtin(), &parent, &change);
    if rows.is_empty() {
        return Err("no workload has runs on both sides".to_owned());
    }
    print!("{}", compare::render(&rows));
    Ok(ExitCode::SUCCESS)
}

fn reference(args: &[String]) -> Result<ExitCode, String> {
    let workload = workload_arg(args)?;
    let mut rows = Vec::new();
    for job in workload::reference_pool(workload) {
        let p = TemporalPartitioner::new(&job.graph, &job.arch, job.params.clone())
            .map_err(|e| format!("{}: {e}", job.key))?;
        let explored = if workload == Workload::SuitePool2 {
            p.explore_parallel(SUITE_THREADS)
        } else {
            p.explore()
        };
        let exploration = explored.map_err(|e| format!("{}: {e}", job.key))?;
        eprintln!("{} D_a {:?}", job.key, exploration.best_latency.map(|l| l.as_ns()));
        rows.push((job.key.clone(), Reference::of(&exploration)));
    }
    print!("{}", reference::render(workload, &rows));
    Ok(ExitCode::SUCCESS)
}
