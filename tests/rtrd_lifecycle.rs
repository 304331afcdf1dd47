//! Daemon lifecycle contract, exercised through the real `rtrd` binary:
//!
//! * a daemon SIGKILLed mid-job leaves durable state (every-window job
//!   checkpoints, atomically written cache entries) from which a restarted
//!   daemon serves a result **byte-identical** to an uninterrupted
//!   single-threaded run;
//! * a resubmit after completion is a cache hit with the same bytes;
//! * SIGTERM drains gracefully: admission stops, in-flight work finishes,
//!   the process exits 0.
//!
//! All runs use pure node budgets (`solve_nodes`) so the exploration is a
//! machine-independent fact and byte-comparisons are meaningful.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_rtrd");

struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("rtrd_life_{}_{label}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A spawned daemon plus the parsed address it printed on startup.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn spawn(cache_dir: &std::path::Path) -> Daemon {
        let mut child = Command::new(BIN)
            .args([
                "--listen",
                "127.0.0.1:0",
                "--cache-dir",
                cache_dir.to_str().expect("utf-8 cache dir"),
                "--workers",
                "1",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rtrd");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read startup line");
        let addr = line
            .trim()
            .strip_prefix("rtrd listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .parse()
            .expect("parse listen address");
        Daemon { child, addr, stdout }
    }

    /// SIGKILL: no drain, no cleanup — the crash the cache must survive.
    fn kill(self) {
        drop(self);
    }

    /// SIGTERM, then wait for exit; returns (exit-success, stdout rest).
    fn terminate(mut self) -> (bool, String) {
        let pid = self.child.id().to_string();
        let status = Command::new("kill").args(["-TERM", &pid]).status().expect("send SIGTERM");
        assert!(status.success(), "kill -TERM failed");
        let deadline = Instant::now() + Duration::from_secs(120);
        let exit = loop {
            if let Some(exit) = self.child.try_wait().expect("poll daemon") {
                break exit;
            }
            assert!(Instant::now() < deadline, "daemon did not exit after SIGTERM");
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        (exit.success(), rest)
    }
}

/// Every daemon dies with its handle, so a failing assertion never leaks
/// one: SIGKILL (a no-op once it has exited), then reap.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to rtrd");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: rtrd\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header block");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {head}"));
    (status, body.to_owned())
}

/// The DCT job the checkpoint tests use: multiple windows, a pure node
/// budget, sequential solve — slow enough to kill mid-run, deterministic
/// enough to byte-compare.
fn dct_job() -> String {
    let graph = rtrpart::workloads::dct::dct_4x4().to_text();
    format!(
        "{{\"graph\":\"{}\",\"arch\":{{\"rmax\":576,\"mmax\":512,\"ct_ns\":1000.0}},\
         \"params\":{{\"gamma\":2,\"solve_nodes\":150000}}}}",
        rtrpart::service::jobs::escape_json(&graph)
    )
}

fn submit(addr: SocketAddr, body: &str) -> u64 {
    let (status, response) = http(addr, "POST", "/v1/jobs", body);
    assert_eq!(status, 202, "submit rejected: {response}");
    response
        .split_once("\"job\":")
        .expect("job id")
        .1
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric job id")
}

fn wait_result(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "status poll: {body}");
        if body.contains("\"state\":\"done\"") {
            let (status, result) = http(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
            assert_eq!(status, 200, "result fetch: {result}");
            return result;
        }
        assert!(!body.contains("\"state\":\"failed\""), "job failed: {body}");
        assert!(Instant::now() < deadline, "job did not finish: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Everything from `"result":` on — the deterministic tail (job ids and
/// cache provenance live before it).
fn result_tail(body: &str) -> &str {
    &body[body.find("\"result\":").expect("result object")..]
}

#[test]
fn sigkill_mid_job_then_restart_serves_byte_identical_result() {
    let scratch = Scratch::new("sigkill");
    let job = dct_job();

    // Reference: one uninterrupted daemon, one clean solve.
    let reference = {
        let daemon = Daemon::spawn(&scratch.path("ref-cache"));
        let id = submit(daemon.addr, &job);
        let result = wait_result(daemon.addr, id);
        daemon.kill();
        result
    };
    assert!(reference.contains("\"feasible\":true"), "reference must solve: {reference}");

    // Victim: same job against a fresh cache, SIGKILLed once its in-flight
    // checkpoint holds at least one completed window.
    let cache = scratch.path("cache");
    let victim = Daemon::spawn(&cache);
    let victim_addr = victim.addr;
    submit(victim_addr, &job);
    let jobs_dir = cache.join("jobs");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let has_window = fs::read_dir(&jobs_dir)
            .ok()
            .into_iter()
            .flatten()
            .filter_map(Result::ok)
            .any(|e| fs::read_to_string(e.path()).is_ok_and(|t| t.contains("\"n\":")));
        if has_window {
            break;
        }
        // If the solve outruns the poll, the entry is already promoted —
        // the restart below then serves from the cache instead; both paths
        // are the crash-recovery contract.
        if fs::read_dir(&cache)
            .expect("cache dir exists")
            .filter_map(Result::ok)
            .any(|e| e.path().extension().and_then(|x| x.to_str()) == Some("rtrc"))
        {
            break;
        }
        assert!(Instant::now() < deadline, "victim never wrote durable state");
        std::thread::sleep(Duration::from_millis(5));
    }
    victim.kill();

    // Restart over the same cache directory: the recovery scan picks up
    // the interrupted checkpoint (or the promoted entry) and the resubmit
    // must produce the reference bytes.
    let revived = Daemon::spawn(&cache);
    let id = submit(revived.addr, &job);
    let recovered = wait_result(revived.addr, id);
    assert_eq!(
        result_tail(&reference),
        result_tail(&recovered),
        "post-crash result differs from the uninterrupted run"
    );

    // And once complete, the next resubmit is a pure cache hit with the
    // same bytes again.
    let id = submit(revived.addr, &job);
    let cached = wait_result(revived.addr, id);
    assert!(cached.contains("\"cached\":true"), "resubmit must hit the cache: {cached}");
    assert_eq!(result_tail(&reference), result_tail(&cached));
    revived.kill();
}

#[test]
fn sigterm_drains_gracefully_and_exits_zero() {
    let scratch = Scratch::new("sigterm");
    let daemon = Daemon::spawn(&scratch.path("cache"));
    let addr = daemon.addr;

    // Leave real work in flight so the drain has something to finish.
    let id = submit(addr, &dct_job());
    let (clean_exit, stdout) = daemon.terminate();
    assert!(clean_exit, "SIGTERM must exit 0; stdout: {stdout}");
    assert!(
        stdout.contains("rtrd: SIGTERM received; draining"),
        "drain was not announced: {stdout}"
    );
    assert!(stdout.contains("rtrd: drained; bye"), "drain did not complete: {stdout}");

    // The drained daemon either finished the job (promoted cache entry) or
    // left its durable in-flight checkpoint — never nothing. `id` was
    // admitted before the signal, so durable state must exist.
    let cache = scratch.path("cache");
    let promoted = fs::read_dir(&cache)
        .expect("cache dir")
        .filter_map(Result::ok)
        .any(|e| e.path().extension().and_then(|x| x.to_str()) == Some("rtrc"));
    let checkpointed = fs::read_dir(cache.join("jobs"))
        .ok()
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .any(|e| e.path().extension().and_then(|x| x.to_str()) == Some("ckpt"));
    assert!(
        promoted || checkpointed,
        "job {id} left no durable state behind after a graceful drain"
    );
}
