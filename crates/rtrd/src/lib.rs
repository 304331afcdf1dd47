//! # rtrd — the crash-safe temporal-partitioning service
//!
//! A std-only HTTP/JSON daemon (ROADMAP item 1) that turns the batch
//! exploration of `rtr-core` into a resident control plane: clients
//! submit task-graph + device-parameter solve jobs, poll status, cancel,
//! and fetch results, while the robustness machinery makes sure a stuck,
//! oversized, or crashing job can never take the service — or another
//! tenant's job — down with it. The design follows Nguyen & Hoe's
//! partial-reconfiguration runtime (PAPERS.md): one compute engine, many
//! requests, and a control plane whose first duty is to stay up.
//!
//! ## Robustness model
//!
//! * **Admission control** — a bounded queue; overload answers HTTP 429
//!   with `Retry-After` and the `rtrd.rejected` counter, never unbounded
//!   memory ([`jobs`]).
//! * **Deadlines & cancellation** — one [`rtr_trace::CancelFlag`] per job,
//!   threaded through `ExploreParams` into the structured search's node
//!   cadence and the milp branch-and-bound head; cancel or deadline expiry
//!   yields the best-so-far result with `degradation.cancelled = true`.
//! * **Durable solve cache** — checkpoint entries keyed by the
//!   instance+parameter fingerprint, written atomically with file *and*
//!   directory fsync, checksum-verified on read, corrupt entries
//!   quarantined and re-solved, hits served by verified deterministic
//!   replay ([`cache`]).
//! * **Drain & recovery** — SIGTERM stops admission and lets in-flight
//!   jobs finish or checkpoint ([`signal`]); restart scans the cache and
//!   the interrupted-job checkpoints, marking the latter resumable.
//! * **Deterministic failpoints** — `rtrd.admission`, `rtrd.cache.read`,
//!   `rtrd.cache.write`, `rtrd.handler`, `rtrd.worker` join the
//!   `RTR_FAILPOINTS` registry; the differential suite proves served
//!   results are bit-identical with and without these outcome-invariant
//!   faults.
//!
//! ## Quickstart
//!
//! ```text
//! rtrd --listen 127.0.0.1:7171 --cache-dir /var/cache/rtrd
//! curl -s -X POST 127.0.0.1:7171/v1/jobs -d @job.json
//! curl -s 127.0.0.1:7171/v1/jobs/1/result
//! ```
//!
//! In-process use (tests, embedding):
//!
//! ```no_run
//! let server = rtrd::Server::start(rtrd::Config {
//!     listen: "127.0.0.1:0".into(),
//!     cache_dir: "/tmp/rtrd-cache".into(),
//!     ..rtrd::Config::default()
//! }).expect("start server");
//! println!("listening on {}", server.local_addr());
//! server.shutdown();
//! ```

#![warn(missing_docs)]
// Service code must degrade with typed errors, never panic on inputs.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod http;
pub mod jobs;
pub mod request;
pub mod signal;

pub use cache::{Lookup, RecoveryReport, SolveCache};
pub use jobs::{JobState, JobTable, SubmitError, RETRY_AFTER_MS};
pub use request::{JobRequest, RequestError};

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bind address, e.g. `127.0.0.1:7171` (`:0` picks a free port).
    pub listen: String,
    /// Root of the durable solve cache (created if missing).
    pub cache_dir: PathBuf,
    /// Admission bound: maximum queued + running jobs.
    pub queue_cap: usize,
    /// Worker threads draining the job queue.
    pub workers: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            listen: "127.0.0.1:0".to_owned(),
            cache_dir: PathBuf::from("rtrd-cache"),
            queue_cap: 8,
            workers: 2,
        }
    }
}

/// A running server: accept loop + worker pool over one [`JobTable`].
pub struct Server {
    table: Arc<JobTable>,
    addr: SocketAddr,
    stop_accept: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Opens the cache (running the crash-recovery scan), binds the
    /// listener, and spawns the accept loop and worker pool.
    ///
    /// # Errors
    ///
    /// Cache-directory or socket errors.
    pub fn start(config: Config) -> io::Result<Server> {
        let cache = SolveCache::open(&config.cache_dir)?;
        let recovery = cache.recover();
        if recovery.quarantined > 0 || !recovery.resumable.is_empty() {
            rtr_trace::counter("rtrd.recovery.quarantined", recovery.quarantined);
            rtr_trace::counter("rtrd.recovery.resumable", recovery.resumable.len() as u64);
        }
        let table = Arc::new(JobTable::new(cache, config.queue_cap.max(1), recovery.resumable));

        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let stop_accept = Arc::new(AtomicBool::new(false));

        // The accept loop blocks in `accept`, so a connection is served the
        // moment it arrives; shutdown sets the stop flag and then wakes the
        // loop with a connection of its own.
        let accept_table = Arc::clone(&table);
        let accept_stop = Arc::clone(&stop_accept);
        let accept_thread =
            std::thread::Builder::new().name("rtrd-accept".to_owned()).spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Ok(stream) = stream {
                        http::serve_connection(&accept_table, stream);
                    }
                }
            })?;

        let mut worker_threads = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let worker_table = Arc::clone(&table);
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("rtrd-worker-{i}"))
                    .spawn(move || worker_table.worker_loop())?,
            );
        }

        Ok(Server { table, addr, stop_accept, accept_thread: Some(accept_thread), worker_threads })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared job table (for in-process drivers and tests).
    pub fn table(&self) -> &Arc<JobTable> {
        &self.table
    }

    /// Graceful drain: stop admitting; queued and running jobs proceed.
    pub fn drain(&self) {
        self.table.drain();
    }

    /// Blocks until no job is queued or running, up to `timeout`.
    pub fn wait_idle(&self, timeout: Duration) {
        self.table.wait_idle(timeout);
    }

    /// Stops the accept loop and the workers (after their current job)
    /// and joins every thread. Call [`drain`](Self::drain) +
    /// [`wait_idle`](Self::wait_idle) first for a graceful exit that
    /// finishes the queue.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop_accept.store(true, Ordering::SeqCst);
        self.table.stop();
        // Running jobs wind down cooperatively to best-so-far; their
        // every-window checkpoints are already durable on disk.
        self.table.cancel_all();
        if let Some(handle) = self.accept_thread.take() {
            // Wake the blocked `accept`; it sees the stop flag and returns.
            // Should the wake-up fail to connect, the thread is left to end
            // with the process rather than joined forever.
            if TcpStream::connect(wake_addr(self.addr)).is_ok() {
                let _ = handle.join();
            }
        }
        for handle in self.worker_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Where shutdown connects to wake the accept loop: the bound address, or
/// the loopback address of its family when bound to all interfaces.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.worker_threads.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_turns_a_wildcard_bind_into_loopback() {
        let wake = |s: &str| wake_addr(s.parse().expect("socket address")).to_string();
        assert_eq!(wake("0.0.0.0:7171"), "127.0.0.1:7171");
        assert_eq!(wake("[::]:7171"), "[::1]:7171");
        assert_eq!(wake("10.1.2.3:80"), "10.1.2.3:80");
    }
}
