//! End-to-end HTTP API contract over a real in-process server: submit,
//! poll, fetch, cache hits, bounded-queue rejections, cooperative cancel,
//! deadline expiry, drain, and the client-error paths.

mod common;

use common::{
    http, job_id, job_json, result_tail, slow_job_json, tiny_graph_text, wait_result, Scratch,
};
use rtrd::{Config, Server};
use std::time::Duration;

fn server(scratch: &Scratch, queue_cap: usize, workers: usize) -> Server {
    Server::start(Config {
        listen: "127.0.0.1:0".to_owned(),
        cache_dir: scratch.path("cache"),
        queue_cap,
        workers,
    })
    .expect("start server")
}

#[test]
fn submit_solve_fetch_and_cache_hit() {
    let scratch = Scratch::new("roundtrip");
    let server = server(&scratch, 8, 2);
    let addr = server.local_addr();
    let body = job_json(&tiny_graph_text(0), 200_000, "");

    let submit = http(addr, "POST", "/v1/jobs", &body);
    assert_eq!(submit.status, 202, "submit rejected: {}", submit.body);
    assert!(submit.body.contains("\"fingerprint\":\""), "no fingerprint: {}", submit.body);
    let first = wait_result(addr, job_id(&submit.body), Duration::from_secs(60));
    assert!(first.contains("\"state\":\"done\""), "job failed: {first}");
    assert!(first.contains("\"feasible\":true"), "expected a feasible solve: {first}");
    assert!(first.contains("\"cached\":false"), "first solve cannot be cached: {first}");
    assert!(first.contains("\"cancelled\":false"), "uncancelled job: {first}");

    // Same request again: a cache hit, served by verified replay, with a
    // byte-identical result object. Under ambient `rtrd.cache.*` fault
    // injection the hit may legitimately degrade to a re-solve, so the
    // provenance flag is only asserted in clean runs — the byte identity
    // is the contract that must survive faults.
    let submit = http(addr, "POST", "/v1/jobs", &body);
    assert_eq!(submit.status, 202);
    let second = wait_result(addr, job_id(&submit.body), Duration::from_secs(60));
    if std::env::var_os("RTR_FAILPOINTS").is_none() {
        assert!(second.contains("\"cached\":true"), "second solve must hit the cache: {second}");
    }
    assert_eq!(result_tail(&first), result_tail(&second), "cache hit changed the result bytes");

    server.shutdown();
}

#[test]
fn overload_answers_bounded_queue_rejections() {
    let scratch = Scratch::new("overload");
    let server = server(&scratch, 2, 1);
    let addr = server.local_addr();
    let board = rtr_trace::status::board();
    let rejected_before = board.snapshot().rtrd_rejected;

    // Long-running jobs (large node budget, distinct fingerprints) with a
    // deadline so the test always terminates. With one worker and a cap of
    // 2, the third concurrent submit must bounce.
    let mut accepted = Vec::new();
    let mut rejections = 0u32;
    for salt in 0..6u64 {
        let body = slow_job_json(salt, 100_000_000, ",\"deadline_ms\":2000");
        let response = http(addr, "POST", "/v1/jobs", &body);
        match response.status {
            202 => accepted.push(job_id(&response.body)),
            429 => {
                rejections += 1;
                assert!(
                    response.body.contains("\"retry_after_ms\":"),
                    "429 body lacks retry_after_ms: {}",
                    response.body
                );
                let retry = response.header("retry-after").expect("429 carries Retry-After");
                assert!(retry.parse::<u64>().expect("numeric Retry-After") >= 1);
            }
            other => panic!("unexpected submit status {other}: {}", response.body),
        }
    }
    assert!(rejections >= 1, "a full bounded queue must reject");
    assert!(accepted.len() >= 2, "the queue admits up to its cap");
    assert!(
        board.snapshot().rtrd_rejected >= rejected_before + u64::from(rejections),
        "rejections must be counted"
    );

    // Cancelled stragglers still come back well-formed (best-so-far).
    for &id in &accepted {
        assert_eq!(http(addr, "POST", &format!("/v1/jobs/{id}/cancel"), "").status, 200);
    }
    for &id in &accepted {
        let result = wait_result(addr, id, Duration::from_secs(60));
        assert!(result.contains("\"state\":\"done\""), "cancelled job not done: {result}");
    }
    server.shutdown();
}

#[test]
fn cancel_mid_solve_returns_best_so_far() {
    let scratch = Scratch::new("cancel");
    let server = server(&scratch, 4, 1);
    let addr = server.local_addr();

    // A job that would run far longer than this test: huge node budget.
    let body = slow_job_json(70, 100_000_000, "");
    let submit = http(addr, "POST", "/v1/jobs", &body);
    assert_eq!(submit.status, 202, "submit rejected: {}", submit.body);
    let id = job_id(&submit.body);

    // Let it get claimed, then cancel.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let status = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        if status.body.contains("\"state\":\"running\"")
            || status.body.contains("\"state\":\"done\"")
        {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job never started: {}", status.body);
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(http(addr, "POST", &format!("/v1/jobs/{id}/cancel"), "").status, 200);

    let result = wait_result(addr, id, Duration::from_secs(60));
    assert!(result.contains("\"state\":\"done\""), "cancel must yield a result: {result}");
    assert!(result.contains("\"cancelled\":true"), "cancel flag must be reported: {result}");
    assert!(result.contains("\"clean\":false"), "a cancelled run is not clean: {result}");
    assert!(result.contains("cancelled=true"), "degradation account must record it: {result}");
    server.shutdown();
}

#[test]
fn deadline_expiry_cancels_cooperatively() {
    let scratch = Scratch::new("deadline");
    let server = server(&scratch, 4, 1);
    let addr = server.local_addr();

    let body = slow_job_json(80, 100_000_000, ",\"deadline_ms\":150");
    let submit = http(addr, "POST", "/v1/jobs", &body);
    assert_eq!(submit.status, 202, "submit rejected: {}", submit.body);
    let result = wait_result(addr, job_id(&submit.body), Duration::from_secs(60));
    assert!(result.contains("\"state\":\"done\""), "deadline must yield a result: {result}");
    assert!(result.contains("\"cancelled\":true"), "expiry must report cancellation: {result}");
    server.shutdown();
}

#[test]
fn drain_stops_admission_but_finishes_queued_work() {
    let scratch = Scratch::new("drain");
    let server = server(&scratch, 4, 1);
    let addr = server.local_addr();

    let body = job_json(&tiny_graph_text(0), 200_000, "");
    let submit = http(addr, "POST", "/v1/jobs", &body);
    assert_eq!(submit.status, 202);
    let id = job_id(&submit.body);

    let drain = http(addr, "POST", "/v1/drain", "");
    assert_eq!(drain.status, 200);
    let refused = http(addr, "POST", "/v1/jobs", &body);
    assert_eq!(refused.status, 503, "draining server must refuse submits: {}", refused.body);

    let status = http(addr, "GET", "/v1/status", "");
    assert_eq!(status.status, 200);
    assert!(status.body.contains("\"draining\":true"), "status must show drain: {}", status.body);
    assert!(status.body.contains("\"queue_depth\":"), "status lacks queue depth: {}", status.body);

    // The already-admitted job still completes.
    let result = wait_result(addr, id, Duration::from_secs(60));
    assert!(result.contains("\"state\":\"done\""), "queued job must finish: {result}");
    server.shutdown();
}

#[test]
fn status_carries_every_board_counter_and_the_server_fields() {
    let scratch = Scratch::new("status");
    let server = server(&scratch, 4, 1);
    let status = http(server.local_addr(), "GET", "/v1/status", "");
    assert_eq!(status.status, 200);
    let body = rtr_trace::parse_value(&status.body).expect("status body is JSON");
    let rtr_trace::JsonValue::Obj(fields) = body else { panic!("not an object: {}", status.body) };
    let board_keys = rtr_trace::Metric::ALL.iter().map(|m| m.name());
    let other_keys = [
        "ts_us",
        "incumbent_latency_ns",
        "checkpoint_age_us",
        "windows_done",
        "queue_depth",
        "draining",
        "resumable",
    ];
    let expected: Vec<&str> = board_keys.chain(other_keys).collect();
    for key in &expected {
        assert!(fields.iter().any(|(k, _)| k == key), "status lacks {key}: {}", status.body);
    }
    assert_eq!(fields.len(), expected.len(), "unexpected status keys: {}", status.body);
    server.shutdown();
}

#[test]
fn client_errors_are_typed_not_fatal() {
    let scratch = Scratch::new("errors");
    let server = server(&scratch, 4, 1);
    let addr = server.local_addr();

    let bad = http(addr, "POST", "/v1/jobs", "this is not json");
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("\"error\":"), "400 must carry a message: {}", bad.body);

    // 100,000 nested arrays must not overflow the accept thread's stack.
    let deep = http(addr, "POST", "/v1/jobs", &"[".repeat(100_000));
    assert_eq!(deep.status, 400, "deep nesting is a client error: {}", deep.body);

    let missing = http(addr, "POST", "/v1/jobs", "{\"arch\":{\"rmax\":10,\"ct_ns\":1.0}}");
    assert_eq!(missing.status, 400);
    assert!(
        missing.body.contains("graph"),
        "missing-field error names the field: {}",
        missing.body
    );

    assert_eq!(http(addr, "GET", "/v1/jobs/999", "").status, 404);
    assert_eq!(http(addr, "GET", "/v1/jobs/not-a-number", "").status, 400);
    assert_eq!(http(addr, "GET", "/v1/nope", "").status, 404);

    // A job whose instance is invalid (a task too big for the device).
    let oversized = "task big env_in=0 env_out=0\n  dp only area=9999 latency_ns=10\n";
    let body = job_json(oversized, 1000, "");
    let invalid = http(addr, "POST", "/v1/jobs", &body);
    assert_eq!(invalid.status, 400, "invalid instance must be a client error: {}", invalid.body);

    // A reconfiguration time whose latency bound overflows to infinity: the
    // tiny graph needs two partitions, and 2 × 1e308 ns is not finite.
    let body = job_json(&tiny_graph_text(0), 1000, "").replace("ct_ns\":1000.0", "ct_ns\":1e308");
    let overflow = http(addr, "POST", "/v1/jobs", &body);
    assert_eq!(overflow.status, 400, "an overflowing C_T is a client error: {}", overflow.body);

    // The server survives all of the above and still solves.
    let submit = http(addr, "POST", "/v1/jobs", &job_json(&tiny_graph_text(0), 200_000, ""));
    assert_eq!(submit.status, 202);
    let result = wait_result(addr, job_id(&submit.body), Duration::from_secs(60));
    assert!(result.contains("\"state\":\"done\""));
    server.shutdown();
}
