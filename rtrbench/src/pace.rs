//! The host's pace: how fast a fixed compute kernel runs right now,
//! relative to its nominal time.
//!
//! On a shared host, other tenants slow a core down in bursts that last
//! from a second to about an hour; the same exploration then takes up to
//! twice as long, and a whole run can fall inside one burst. The kernel
//! below shares no code with the program, so a change to the program does
//! not move it, while a burst does. The solver workloads divide each job's
//! and each set-up's time by the pace measured around it, which reports
//! the time the work would take at the kernel's nominal pace.
//!
//! The bursts contend for the shared last-level cache, so the kernel
//! updates a table of that size. On a 2-vCPU Xeon host at 2.0 GHz, over
//! four minutes of bursts, its slowdown tracked a DCT exploration's with
//! correlation 0.81 and a MILP exploration's with 0.69; the same kernel on
//! an L2-sized table reached only 0.31.

use std::time::{Duration, Instant};

/// Kernel rounds: about 5 ms on the host above when it is quiet.
const ROUNDS: u64 = 1_000_000;

/// The kernel's time at pace 1.
const NOMINAL: Duration = Duration::from_millis(5);

/// Table entries the kernel updates: 4 MiB, a last-level-cache-sized
/// working set.
const TABLE: usize = 512 * 1024;

/// Samples the host's pace.
#[derive(Debug)]
pub struct Pacer {
    tables: Vec<Vec<u64>>,
}

/// One kernel run over `table`: its time over the nominal time.
fn kernel(table: &mut [u64]) -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x % TABLE as u64) as usize];
        *slot = slot.wrapping_mul(31).wrapping_add(x);
    }
    std::hint::black_box(&*table);
    started.elapsed().as_secs_f64() / NOMINAL.as_secs_f64()
}

impl Pacer {
    /// A pacer for work that keeps `threads` threads busy: it runs one
    /// kernel per thread at once, so a burst on any of their cores shows.
    pub fn new(threads: usize) -> Pacer {
        Pacer { tables: vec![vec![1; TABLE]; threads.max(1)] }
    }

    /// Runs the kernels once and returns their mean time over the nominal
    /// time: `1` at the nominal pace, `2` when the host runs at half speed.
    pub fn sample(&mut self) -> f64 {
        if let [table] = self.tables.as_mut_slice() {
            return kernel(table);
        }
        let n = self.tables.len() as f64;
        std::thread::scope(|s| {
            let runs: Vec<_> = self.tables.iter_mut().map(|t| s.spawn(|| kernel(t))).collect();
            runs.into_iter().map(|r| r.join().expect("the pace kernel panicked")).sum::<f64>() / n
        })
    }

    /// Times `work`, dividing its seconds by the mean pace sampled just
    /// before and just after it. Returns the result, the raw seconds and
    /// the paced seconds.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.sample();
        let started = Instant::now();
        let result = work();
        let raw = started.elapsed().as_secs_f64();
        let after = self.sample();
        (result, raw, raw * 2.0 / (before + after))
    }
}
