//! SIGTERM latch for graceful drain.
//!
//! The daemon's contract on SIGTERM is *drain*: stop admitting, let
//! in-flight jobs finish (or checkpoint via their every-window durable
//! writes), then exit. The handler itself does only async-signal-safe
//! work: it sets a flag and, the first time, writes one byte to a
//! self-pipe. The main thread blocks in [`wait_for_sigterm`], reading that
//! pipe, and performs the drain in ordinary code as soon as it wakes.
//!
//! The registration, the pipe and its reads and writes use the C
//! `signal(2)`, `pipe(2)`, `read(2)` and `write(2)` entry points directly —
//! the workspace is zero-dependency, so there is no `libc` crate to lean
//! on. On non-Unix targets the latch exists but never fires.

#[cfg(unix)]
use std::sync::atomic::AtomicI32;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static SIGTERM: AtomicBool = AtomicBool::new(false);

/// The self-pipe's read and write ends, `-1` until
/// [`install_sigterm_latch`] made it.
#[cfg(unix)]
static PIPE: [AtomicI32; 2] = [AtomicI32::new(-1), AtomicI32::new(-1)];

/// `SIGTERM` on every Unix the workspace targets.
#[cfg(unix)]
const SIGTERM_NO: i32 = 15;

#[cfg(unix)]
extern "C" fn on_sigterm(_signum: i32) {
    // Async-signal-safe: an atomic swap and at most one `write(2)`. Only
    // the first SIGTERM writes, so the pipe can never fill and block the
    // handler, and one byte into a pipe with room cannot fail, so `errno`
    // stays as the interrupted code left it.
    if !SIGTERM.swap(true, Ordering::Relaxed) {
        let fd = PIPE[1].load(Ordering::Acquire);
        if fd >= 0 {
            // SAFETY: `fd` is the pipe's write end, open for the life of
            // the process, and the buffer is one valid byte.
            unsafe {
                write(fd, &1u8, 1);
            }
        }
    }
}

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn pipe(fds: *mut i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// Installs the latch for SIGTERM. Idempotent; later installations keep
/// the same behavior.
pub fn install_sigterm_latch() {
    #[cfg(unix)]
    {
        static MADE: std::sync::Once = std::sync::Once::new();
        MADE.call_once(|| {
            let mut fds = [-1i32; 2];
            // SAFETY: `fds` has room for the two descriptors `pipe(2)`
            // writes. Both ends stay open for the life of the process.
            if unsafe { pipe(fds.as_mut_ptr()) } == 0 {
                PIPE[0].store(fds[0], Ordering::Release);
                PIPE[1].store(fds[1], Ordering::Release);
            }
        });
        // SAFETY: `on_sigterm` is async-signal-safe (an atomic swap and
        // one `write(2)`) and has the exact `extern "C" fn(i32)` ABI
        // `signal(2)` expects.
        unsafe {
            signal(SIGTERM_NO, on_sigterm as *const () as usize);
        }
    }
}

/// `true` once a SIGTERM arrived after [`install_sigterm_latch`].
pub fn sigterm_received() -> bool {
    SIGTERM.load(Ordering::Relaxed)
}

/// Blocks until a SIGTERM arrives after [`install_sigterm_latch`], or
/// returns at once if one already has. It sleeps in `read(2)` on the
/// self-pipe, retrying when another signal interrupts the read, so it
/// wakes as soon as the handler writes. The handler writes one byte, which
/// wakes one blocked reader: the daemon's main thread is the only one.
/// Without a pipe (`pipe(2)` failed) it polls the latch every 50 ms; on
/// non-Unix targets it never returns.
pub fn wait_for_sigterm() {
    #[cfg(unix)]
    {
        let fd = PIPE[0].load(Ordering::Acquire);
        let mut byte = 0u8;
        while fd >= 0 && !sigterm_received() {
            // SAFETY: `fd` is the pipe's read end, open for the life of
            // the process, and the buffer is one valid byte.
            let n = unsafe { read(fd, &mut byte, 1) };
            let interrupted =
                n < 0 && std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted;
            if n <= 0 && !interrupted {
                break;
            }
        }
    }
    while !sigterm_received() {
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The only test that raises SIGTERM: the latch is process-wide, so a
    /// second one would race the `!sigterm_received()` precondition.
    #[test]
    #[cfg(unix)]
    fn latch_observes_a_raised_sigterm() {
        install_sigterm_latch();
        assert!(!sigterm_received());
        let waiter = std::thread::spawn(wait_for_sigterm);
        // SAFETY: raising a signal at our own process; the handler above
        // only sets the latch and writes to the self-pipe.
        unsafe {
            extern "C" {
                fn raise(signum: i32) -> i32;
            }
            raise(SIGTERM_NO);
        }
        assert!(sigterm_received());
        waiter.join().expect("the waiter returns once SIGTERM arrives");
    }
}
