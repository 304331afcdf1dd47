//! Property test: the job-request parser never panics on corrupted input.
//!
//! The submit body is the service's primary untrusted input. Each round
//! takes a valid request, applies a deterministic stack of byte-level
//! mutations (flip, truncate, duplicate, insert, delete, swap — the same
//! scheme as the workspace-wide `tests/parser_robustness.rs`), and feeds
//! it to [`rtrd::JobRequest::from_json`]. The parser must return `Ok` or a
//! typed [`rtrd::RequestError`]; a panic aborts the test binary.

mod common;

use rtr_workloads::rng::Rng;
use rtrd::JobRequest;

const ROUNDS: u64 = 400;

/// One deterministic mutation stack; invalid UTF-8 produced along the way
/// is replaced lossily, exactly what a network read would hand the parser.
fn mutate(valid: &str, rng: &mut Rng) -> String {
    let mut bytes = valid.as_bytes().to_vec();
    if bytes.is_empty() {
        bytes.push(rng.range_u64(0, 255) as u8);
        return String::from_utf8_lossy(&bytes).into_owned();
    }
    for _ in 0..=rng.range_usize(0, 3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.range_usize(0, bytes.len() - 1);
        match rng.range_u64(0, 5) {
            0 => bytes[at] = rng.range_u64(0, 255) as u8,
            1 => bytes.truncate(at),
            2 => {
                let b = bytes[at];
                bytes.insert(at, b);
            }
            3 => bytes.insert(at, rng.range_u64(0, 255) as u8),
            4 => {
                bytes.remove(at);
            }
            _ => {
                let other = rng.range_usize(0, bytes.len() - 1);
                bytes.swap(at, other);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn job_request_parser_never_panics() {
    let valid = common::job_json(&common::tiny_graph_text(0), 200_000, ",\"deadline_ms\":500");
    assert!(JobRequest::from_json(&valid).is_ok(), "fixture must be valid");
    let mut rng = Rng::new(0x7274_7264);
    for _ in 0..ROUNDS {
        let corrupt = mutate(&valid, &mut rng);
        let _ = JobRequest::from_json(&corrupt);
    }
    // The uncorrupted request still parses after all that.
    assert!(JobRequest::from_json(&valid).is_ok());
}

/// The spot-checkable half of the property: specific corruptions map to
/// their specific typed errors, so clients get actionable 400s.
#[test]
fn typed_errors_name_the_problem() {
    let text = common::tiny_graph_text(0);
    let escaped = rtrd::jobs::escape_json(&text);

    assert!(matches!(JobRequest::from_json("[1,2,3]"), Err(rtrd::RequestError::NotAnObject)));
    assert!(matches!(
        JobRequest::from_json("{\"arch\":{\"rmax\":10,\"ct_ns\":1.0}}"),
        Err(rtrd::RequestError::MissingField("graph"))
    ));
    assert!(matches!(
        JobRequest::from_json(&format!("{{\"graph\":\"{escaped}\"}}")),
        Err(rtrd::RequestError::MissingField("arch"))
    ));
    assert!(matches!(
        JobRequest::from_json(&format!(
            "{{\"graph\":\"{escaped}\",\"arch\":{{\"rmax\":-1,\"ct_ns\":1.0}}}}"
        )),
        Err(rtrd::RequestError::BadField { field: "rmax", .. })
    ));
    assert!(matches!(
        JobRequest::from_json("{\"graph\":\"task oops\",\"arch\":{\"rmax\":10,\"ct_ns\":1.0}}"),
        Err(rtrd::RequestError::Graph(_))
    ));
    assert!(matches!(JobRequest::from_json("not json at all"), Err(rtrd::RequestError::Json(_))));
    // A body nested 100,000 deep is a typed error, not a stack overflow.
    assert!(matches!(
        JobRequest::from_json(&"[".repeat(100_000)),
        Err(rtrd::RequestError::Json(_))
    ));
    // γ beyond the graph's 3 tasks would only allocate partition bounds no
    // solution can use (4 billion of them at u32::MAX); threads beyond the
    // ceiling would be spawned up front. Neither parses, so neither runs.
    let with_params = |params: &str| {
        JobRequest::from_json(&format!(
            "{{\"graph\":\"{escaped}\",\"arch\":{{\"rmax\":150,\"ct_ns\":1.0}},\
             \"params\":{{{params}}}}}"
        ))
    };
    for (params, field) in [
        ("\"gamma\":4294967295", "gamma"),
        ("\"gamma\":4", "gamma"),
        ("\"threads\":65", "threads"),
        ("\"threads\":18446744073709551615", "threads"),
    ] {
        match with_params(params) {
            Err(rtrd::RequestError::BadField { field: f, .. }) => assert_eq!(f, field, "{params}"),
            other => panic!("{params}: expected a bad `{field}`, got {other:?}"),
        }
    }
    let at_limits = with_params("\"gamma\":3,\"threads\":64").expect("limits are inclusive");
    assert_eq!((at_limits.params.gamma, at_limits.threads), (3, 64));
}
