//! A minimal HTTP/1.1 server for the job API — std-only, close-per-request.
//!
//! The accept loop runs on its own thread, blocked in `accept` until a
//! connection arrives, so no request waits on a poll tick; each connection
//! is read with a timeout, parsed, routed, answered in a single write, and
//! closed (`Connection: close`). Handlers run under `catch_unwind` with
//! the `rtrd.handler` failpoint inside: a panicking handler (injected or
//! genuine) costs that one connection a 500 response — never the accept
//! loop, never another request, never a running job.
//!
//! ## Endpoints
//!
//! | Method & path            | Purpose                                     |
//! |--------------------------|---------------------------------------------|
//! | `POST /v1/jobs`          | submit (body: job request JSON)             |
//! | `GET /v1/jobs/<id>`      | job status                                  |
//! | `POST /v1/jobs/<id>/cancel` | cooperative cancel                       |
//! | `GET /v1/jobs/<id>/result`  | rendered result once `done`              |
//! | `GET /v1/status`         | status-board snapshot + server fields       |
//! | `POST /v1/drain`         | stop admitting (graceful drain)             |
//!
//! Responses are JSON. Backpressure is explicit: a full queue answers
//! `429` with a `Retry-After` header; a draining server answers `503`.

use crate::jobs::{JobState, JobTable, SubmitError};
use crate::request::JobRequest;
use rtr_trace::Escaped;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Largest accepted request body (a million-task graph text is far below
/// this; anything bigger is a client error, not an allocation).
const MAX_BODY: usize = 8 * 1024 * 1024;

/// Per-connection read timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Monotonic connection ordinal, the `rtrd.handler` failpoint key.
static CONNECTION_SEQ: AtomicU64 = AtomicU64::new(0);

/// One parsed request.
struct Request {
    method: String,
    path: String,
    body: String,
}

/// One response to serialize.
pub(crate) struct Response {
    status: u16,
    reason: &'static str,
    body: String,
    retry_after_ms: Option<u64>,
}

impl Response {
    fn json(status: u16, reason: &'static str, body: String) -> Response {
        Response { status, reason, body, retry_after_ms: None }
    }

    fn error(status: u16, reason: &'static str, message: &str) -> Response {
        Response::json(status, reason, format!("{{\"error\":\"{}\"}}", Escaped(message)))
    }

    fn write_to(&self, stream: &mut TcpStream) {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
            self.status,
            self.reason,
            self.body.len()
        );
        if let Some(ms) = self.retry_after_ms {
            // Retry-After is in seconds; round up so "500ms" never reads 0.
            out.push_str(&format!("retry-after: {}\r\n", ms.div_ceil(1000)));
        }
        out.push_str("connection: close\r\n\r\n");
        out.push_str(&self.body);
        // One write: the head and body leave in the same segments, so the
        // body never waits on Nagle's algorithm for the head's ACK. The
        // client may already be gone; a failed write only ends this
        // connection.
        let _ = stream.write_all(out.as_bytes());
    }
}

/// Reads one HTTP request off the stream. `None` on any protocol problem
/// (the connection is simply dropped, like any minimal server).
fn read_request(stream: &mut TcpStream) -> Option<Request> {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // Each read only scans the new bytes (plus three carried over, for a
    // terminator split across reads), so a long header block costs linear
    // time, not a rescan of everything read so far per chunk.
    let mut scanned = 0;
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf[scanned..]) {
            break scanned + pos;
        }
        if buf.len() > MAX_BODY {
            return None;
        }
        scanned = buf.len().saturating_sub(3);
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end]).ok()?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next()?;
    let mut parts = request_line.split(' ');
    let method = parts.next()?.to_owned();
    let path = parts.next()?.to_owned();
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().ok()?;
        }
    }
    if content_length > MAX_BODY {
        return None;
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).ok()?;
    Some(Request { method, path, body })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Serves one accepted connection: parse, route under `catch_unwind`,
/// answer. Never propagates a panic to the accept loop.
pub(crate) fn serve_connection(table: &Arc<JobTable>, mut stream: TcpStream) {
    let Some(request) = read_request(&mut stream) else { return };
    let seq = CONNECTION_SEQ.fetch_add(1, Ordering::Relaxed);
    let response = catch_unwind(AssertUnwindSafe(|| {
        // Failpoint: a panicking handler must cost exactly this request.
        rtr_trace::failpoint::panic_if("rtrd.handler", seq);
        route(table, &request)
    }))
    .unwrap_or_else(|_| Response::error(500, "Internal Server Error", "handler panicked; retry"));
    response.write_to(&mut stream);
}

fn route(table: &Arc<JobTable>, request: &Request) -> Response {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("POST", "/v1/jobs") => submit(table, &request.body),
        ("GET", "/v1/status") => status(table),
        ("POST", "/v1/drain") => {
            table.drain();
            Response::json(200, "OK", "{\"draining\":true}".to_owned())
        }
        ("GET", _) if path.starts_with("/v1/jobs/") && path.ends_with("/result") => {
            match parse_id(path, Some("/result")) {
                Some(id) => result(table, id),
                None => Response::error(400, "Bad Request", "malformed job id"),
            }
        }
        ("POST", _) if path.starts_with("/v1/jobs/") && path.ends_with("/cancel") => {
            match parse_id(path, Some("/cancel")) {
                Some(id) if table.cancel(id) => {
                    Response::json(200, "OK", format!("{{\"job\":{id},\"cancelled\":true}}"))
                }
                Some(_) => Response::error(404, "Not Found", "no such job"),
                None => Response::error(400, "Bad Request", "malformed job id"),
            }
        }
        ("GET", _) if path.starts_with("/v1/jobs/") => match parse_id(path, None) {
            Some(id) => job_status(table, id),
            None => Response::error(400, "Bad Request", "malformed job id"),
        },
        _ => Response::error(404, "Not Found", "unknown endpoint"),
    }
}

fn parse_id(path: &str, suffix: Option<&str>) -> Option<u64> {
    let rest = path.strip_prefix("/v1/jobs/")?;
    let id = match suffix {
        Some(s) => rest.strip_suffix(s)?,
        None => rest,
    };
    id.parse().ok()
}

fn submit(table: &Arc<JobTable>, body: &str) -> Response {
    let request = match JobRequest::from_json(body) {
        Ok(r) => r,
        Err(e) => return Response::error(400, "Bad Request", &e.to_string()),
    };
    match table.submit(request) {
        Ok((id, fingerprint)) => Response::json(
            202,
            "Accepted",
            format!("{{\"job\":{id},\"fingerprint\":\"{fingerprint:016x}\"}}"),
        ),
        Err(SubmitError::Draining) => {
            Response::error(503, "Service Unavailable", "server is draining")
        }
        Err(SubmitError::QueueFull { retry_after_ms }) => Response {
            status: 429,
            reason: "Too Many Requests",
            body: format!(
                "{{\"error\":\"job queue is full\",\"retry_after_ms\":{retry_after_ms}}}"
            ),
            retry_after_ms: Some(retry_after_ms),
        },
        Err(SubmitError::Invalid(detail)) => Response::error(400, "Bad Request", &detail),
    }
}

fn job_status(table: &Arc<JobTable>, id: u64) -> Response {
    match table.state(id) {
        Some(state) => {
            let fingerprint = table.fingerprint(id).unwrap_or(0);
            Response::json(
                200,
                "OK",
                format!(
                    "{{\"job\":{id},\"state\":\"{}\",\"fingerprint\":\"{fingerprint:016x}\"}}",
                    state.name()
                ),
            )
        }
        None => Response::error(404, "Not Found", "no such job"),
    }
}

fn result(table: &Arc<JobTable>, id: u64) -> Response {
    match table.state(id) {
        Some(JobState::Done { result, cached, resumed }) => {
            let fingerprint = table.fingerprint(id).unwrap_or(0);
            Response::json(
                200,
                "OK",
                format!(
                    "{{\"job\":{id},\"state\":\"done\",\"fingerprint\":\"{fingerprint:016x}\",\
                     \"cached\":{cached},\"resumed\":{resumed},\"result\":{result}}}"
                ),
            )
        }
        Some(JobState::Failed { error }) => Response::json(
            200,
            "OK",
            format!("{{\"job\":{id},\"state\":\"failed\",\"error\":\"{}\"}}", Escaped(&error)),
        ),
        Some(state) => {
            Response::error(409, "Conflict", &format!("job is {}; result not ready", state.name()))
        }
        None => Response::error(404, "Not Found", "no such job"),
    }
}

fn status(table: &Arc<JobTable>) -> Response {
    let snapshot = rtr_trace::status::board().snapshot().to_json();
    // Splice the server-level fields into the board snapshot object.
    let mut body = snapshot;
    debug_assert!(body.ends_with('}'));
    body.pop();
    body.push_str(&format!(
        ",\"queue_depth\":{},\"draining\":{},\"resumable\":{}}}",
        table.queue_depth(),
        table.is_draining(),
        table.resumable_count()
    ));
    Response::json(200, "OK", body)
}
