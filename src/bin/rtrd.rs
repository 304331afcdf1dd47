//! `rtrd` — the temporal-partitioning daemon.
//!
//! ```text
//! rtrd --listen 127.0.0.1:7171 --cache-dir ./rtrd-cache [--queue-cap 8] [--workers 2]
//! ```
//!
//! A long-running HTTP/JSON job server over the `rtrpart` solver stack:
//! submit task-graph + device-parameter solve jobs, poll status, cancel,
//! fetch results. See the `rtrd` crate docs (and DESIGN.md "Service") for
//! the endpoint list, admission policy, cache key, and determinism
//! envelope. SIGTERM drains gracefully: admission stops, in-flight jobs
//! finish or checkpoint, then the process exits 0.

use std::process::ExitCode;
use std::time::Duration;

const HELP: &str = "\
rtrd — crash-safe temporal-partitioning service

USAGE:
    rtrd [OPTIONS]

OPTIONS:
    --listen <addr>      bind address               [default: 127.0.0.1:7171]
    --cache-dir <dir>    durable solve cache root   [default: rtrd-cache]
    --queue-cap <n>      max queued + running jobs  [default: 8]
    --workers <n>        worker threads, at most 64 [default: 2]
    --help               print this text

ENDPOINTS:
    POST /v1/jobs             submit a solve job (JSON body)
    GET  /v1/jobs/<id>        job status
    POST /v1/jobs/<id>/cancel cooperative cancel (best-so-far result)
    GET  /v1/jobs/<id>/result rendered result once done
    GET  /v1/status           live status-board snapshot
    POST /v1/drain            stop admitting (graceful drain)

ENVIRONMENT:
    RTR_FAILPOINTS=<seed>:<rate>[:<site,...>]
                         deterministic fault injection (rtrd.admission,
                         rtrd.cache.read, rtrd.cache.write, rtrd.handler,
                         rtrd.worker); off unless set

SIGNALS:
    SIGTERM              graceful drain, then exit 0
";

fn main() -> ExitCode {
    if std::env::var_os("RTR_FAILPOINTS").is_some() {
        rtrpart::trace::failpoint::silence_injected_panics();
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h" || a == "help") {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `rtrd --help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match value(args, key) {
        Some(v) => v.parse().map_err(|_| format!("invalid value for `{key}`: `{v}`")),
        None => Ok(default),
    }
}

/// The daemon's configuration from its arguments. `--workers` obeys the
/// solver's thread ceiling (`rtrd::request::check_threads`), checked here,
/// before anything binds or starts.
fn config(args: &[String]) -> Result<rtrd::Config, String> {
    Ok(rtrd::Config {
        listen: value(args, "--listen").unwrap_or("127.0.0.1:7171").to_owned(),
        cache_dir: value(args, "--cache-dir").unwrap_or("rtrd-cache").into(),
        queue_cap: parsed(args, "--queue-cap", 8usize)?,
        workers: rtrd::request::check_threads(parsed(args, "--workers", 2u64)?)
            .map_err(|e| format!("invalid value for `--workers`: {e}"))?,
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let config = config(args)?;
    rtrd::signal::install_sigterm_latch();
    let server = rtrd::Server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    println!("rtrd listening on {}", server.local_addr());
    // Line-buffered stdout under a pipe: make sure the address reaches
    // whoever spawned us (the lifecycle tests parse it).
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // The accept thread and workers do the serving; the main thread only
    // waits for SIGTERM.
    rtrd::signal::wait_for_sigterm();
    println!("rtrd: SIGTERM received; draining");
    server.drain();
    server.wait_idle(Duration::from_secs(3600));
    server.shutdown();
    println!("rtrd: drained; bye");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn workers_obey_the_thread_ceiling() {
        // Parsing only: no server starts with these values.
        let workers = |v: &str| config(&strs(&["--workers", v])).map(|c| c.workers);
        assert_eq!(workers("64"), Ok(64));
        assert_eq!(workers("0"), Ok(0));
        assert!(workers("65").unwrap_err().contains("--workers"));
        assert!(workers("18446744073709551615").unwrap_err().contains("ceiling"));
        assert!(workers("-1").is_err());
        assert_eq!(config(&[]).map(|c| c.workers), Ok(2));
    }
}
