//! The request path waits on events, never on a poll tick: the accept loop
//! blocks in `accept`, shutdown wakes it, a job's deadline watchdog ends
//! the moment its job does, and a hostile request costs time linear in its
//! size. This binary runs alone, so no other test's solver competes with
//! the latency it measures.

mod common;

use common::{http, job_id, job_json, tiny_graph_text, wait_result, Scratch};
use rtrd::{Config, Server};
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn server(scratch: &Scratch) -> Server {
    Server::start(Config {
        listen: "127.0.0.1:0".to_owned(),
        cache_dir: scratch.path("cache"),
        queue_cap: 4,
        workers: 1,
    })
    .expect("start server")
}

/// Runs `f` on its own thread and fails the test if it takes longer than
/// `limit` (or panics): the operations checked here used to wait on
/// timers, and a regression must fail, not hang.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done, wait) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = done.send(f());
    });
    let value = wait.recv_timeout(limit).unwrap_or_else(|e| panic!("{what} within {limit:?}: {e}"));
    handle.join().expect("the timed thread panicked");
    value
}

#[test]
fn back_to_back_requests_are_served_without_a_poll_tick() {
    let scratch = Scratch::new("wake_accept");
    let server = server(&scratch);
    let addr = server.local_addr();
    // Each request connects right after the previous one was answered,
    // when a polling accept loop has just found no connection and gone to
    // sleep for a whole tick.
    let mut times: Vec<Duration> = (0..21)
        .map(|_| {
            let t = Instant::now();
            assert_eq!(http(addr, "GET", "/v1/status", "").status, 200);
            t.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(median < Duration::from_millis(5), "median request took {median:?}: {times:?}");
    server.shutdown();
}

#[test]
fn shutdown_wakes_the_blocked_accept_loop() {
    let scratch = Scratch::new("wake_shutdown");
    let server = server(&scratch);
    // No client ever connects: the accept loop sits blocked in `accept`
    // and only the shutdown's own wake-up connection can release it.
    within(Duration::from_secs(10), "shutdown", move || server.shutdown());
}

#[test]
fn a_job_ending_before_its_deadline_releases_its_watchdog_at_once() {
    let scratch = Scratch::new("wake_watchdog");
    let server = server(&scratch);
    let addr = server.local_addr();
    // An hour-long deadline on a job that solves in milliseconds: the
    // worker joins the watchdog before it publishes the result, so a
    // watchdog that waited out its deadline would hold the job for an hour.
    let body = job_json(&tiny_graph_text(3), 200_000, ",\"deadline_ms\":3600000");
    let submit = http(addr, "POST", "/v1/jobs", &body);
    assert_eq!(submit.status, 202, "submit rejected: {}", submit.body);
    let id = job_id(&submit.body);
    let result = within(Duration::from_secs(30), "the job", move || {
        wait_result(addr, id, Duration::from_secs(30))
    });
    assert!(result.contains("\"state\":\"done\""), "job did not finish: {result}");
    assert!(result.contains("\"cancelled\":false"), "the deadline must not fire: {result}");
    within(Duration::from_secs(10), "shutdown", move || server.shutdown());
}

#[test]
fn an_unterminated_header_block_does_not_stall_the_server() {
    let scratch = Scratch::new("wake_header");
    let server = server(&scratch);
    let addr = server.local_addr();
    // Just over the 8 MiB request bound, with no blank line to end the
    // headers: the server must read it, give up, and move on. Searching
    // the whole buffer again after every 4 KiB read took seconds here.
    let started = Instant::now();
    let mut hostile = TcpStream::connect(addr).expect("connect to rtrd");
    // The server hangs up once the bound is passed; the tail of the write
    // may then fail, which is the expected outcome.
    let _ = hostile.write_all(&vec![b'a'; 8 * 1024 * 1024 + 8192]);
    drop(hostile);
    assert_eq!(http(addr, "GET", "/v1/status", "").status, 200);
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(3), "the server was held for {elapsed:?}");
    server.shutdown();
}
