//! Deterministic fault-injection registry.
//!
//! A *failpoint* is a named site in the solver stack where a fault can be
//! injected on demand: a worker panic, a singular basis, a failed
//! checkpoint write. With no configuration installed every call is two
//! atomic loads and an immediate return, so production runs pay a branch
//! per site visit and never write shared memory.
//!
//! Faults are injected **deterministically**: the decision for a visit is
//! a pure function of `(seed, site, key)`, where `key` is a stable
//! caller-chosen identity for the visit (a window's `(n, iteration)`, a
//! job index, a pivot ordinal) — never a global hit counter. That makes
//! injection independent of thread interleaving: the same seed trips the
//! same visits whether the exploration runs on one thread or eight, which
//! is what lets the differential tests compare degraded runs across
//! thread counts.
//!
//! Configuration comes from the `RTR_FAILPOINTS` environment variable —
//! `<seed>:<rate>[:<site,site,...>]`, e.g. `RTR_FAILPOINTS=7:0.2` or
//! `RTR_FAILPOINTS=7:1.0:sched.job` — or programmatically via
//! [`install`] / [`clear`] for tests. `rate` is the per-visit trip
//! probability in `[0, 1]`; an empty site list means every registered
//! site participates.
//!
//! The decision function is the SplitMix64 output mixer (Steele, Lea &
//! Flood, OOPSLA 2014) over `seed`, an FNV-1a hash of the site name, and
//! the visit key — the same generator family the rest of the workspace
//! uses for seeded workloads, inlined here so this crate stays
//! dependency-free.

use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Panic payload carried by [`panic_if`] so handlers can tell injected
/// faults apart from genuine bugs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The failpoint site that tripped.
    pub site: &'static str,
}

/// An installed fault-injection configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FailpointConfig {
    /// Seed for the deterministic trip decision.
    pub seed: u64,
    /// Per-visit trip probability in `[0, 1]`.
    pub rate: f64,
    /// Sites that participate; empty means all sites.
    pub sites: Vec<String>,
}

impl FailpointConfig {
    /// Parses the `RTR_FAILPOINTS` syntax: `<seed>:<rate>[:<site,...>]`.
    ///
    /// Returns `None` for empty or malformed strings (malformed
    /// configurations are ignored rather than trusted to fail a run).
    pub fn parse(spec: &str) -> Option<FailpointConfig> {
        let spec = spec.trim();
        if spec.is_empty() {
            return None;
        }
        let mut parts = spec.splitn(3, ':');
        let seed = parts.next()?.trim().parse::<u64>().ok()?;
        let rate = parts.next()?.trim().parse::<f64>().ok()?;
        if !(0.0..=1.0).contains(&rate) {
            return None;
        }
        let sites = match parts.next() {
            Some(list) => list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect(),
            None => Vec::new(),
        };
        Some(FailpointConfig { seed, rate, sites })
    }
}

/// `true` once any configuration has ever been installed; lets the hot
/// path skip the mutex entirely in unconfigured processes.
static ARMED: AtomicBool = AtomicBool::new(false);

/// `true` after the first [`failpoint`] call has consulted the
/// environment, so the env variable is parsed at most once.
static ENV_CHECKED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Option<FailpointConfig>> {
    static REGISTRY: OnceLock<Mutex<Option<FailpointConfig>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(None))
}

/// Installs a fault-injection configuration for the whole process
/// (overriding any `RTR_FAILPOINTS` environment setting).
pub fn install(config: FailpointConfig) {
    let mut guard = registry().lock().unwrap_or_else(PoisonError::into_inner);
    *guard = Some(config);
    ENV_CHECKED.store(true, Ordering::Release);
    ARMED.store(true, Ordering::Release);
}

/// Removes any installed configuration; subsequent [`failpoint`] calls
/// are no-ops (the environment is *not* re-consulted).
pub fn clear() {
    let mut guard = registry().lock().unwrap_or_else(PoisonError::into_inner);
    *guard = None;
    ENV_CHECKED.store(true, Ordering::Release);
    // Leave ARMED set: the fast path must keep checking the registry
    // because a test may re-install later; an unconfigured registry
    // still returns quickly.
}

/// The SplitMix64 output mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the site name, so each site gets an independent stream.
fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn decide(config: &FailpointConfig, site: &str, key: u64) -> bool {
    if config.rate <= 0.0 {
        return false;
    }
    if !config.sites.is_empty() && !config.sites.iter().any(|s| s == site) {
        return false;
    }
    let draw = mix(config.seed ^ site_hash(site) ^ mix(key));
    // 53 mantissa bits -> uniform in [0, 1); matches rtr-workloads.
    let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
    unit < config.rate
}

/// Returns `true` if the fault at `site` should trip for this visit.
///
/// `key` is a stable identity for the visit (window id, job index, retry
/// attempt); the decision is a pure function of `(seed, site, key)` and
/// therefore independent of scheduling. With no configuration installed
/// (and no `RTR_FAILPOINTS` in the environment) this is two atomic loads
/// once the first call has consulted the environment.
pub fn failpoint(site: &str, key: u64) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        // Plain load first: once the environment has been read, an
        // unarmed visit never writes the shared flag. Only callers that
        // still see `false` race on the swap, and exactly one wins. The
        // Acquire pairs with the Release stores in `install` and `clear`,
        // as the swap's does.
        if ENV_CHECKED.load(Ordering::Acquire) || ENV_CHECKED.swap(true, Ordering::AcqRel) {
            return false;
        }
        // First call in this process: consult the environment once.
        match std::env::var("RTR_FAILPOINTS").ok().as_deref().and_then(FailpointConfig::parse) {
            Some(config) => install(config),
            None => return false,
        }
    }
    let guard = registry().lock().unwrap_or_else(PoisonError::into_inner);
    match guard.as_ref() {
        Some(config) => decide(config, site, key),
        None => false,
    }
}

/// Panics with an [`InjectedFault`] payload if the fault at `site`
/// should trip for this visit. [`isolate`] catches the panic; a handler
/// may downcast the payload to confirm its origin.
pub fn panic_if(site: &'static str, key: u64) {
    if failpoint(site, key) {
        panic_any(InjectedFault { site });
    }
}

/// Times [`isolate`] retries a unit whose every attempt panics before it
/// gives the unit up.
pub const RETRY_LIMIT: u32 = 2;

/// Runs one isolated unit of work: `attempt` under `catch_unwind`, up to
/// `RETRY_LIMIT + 1` times, each try preceded by a visit to `site` with
/// key `key ^ try` (so a retried unit draws a fresh decision; callers keep
/// the low byte of `key` zero). Returns the first value an attempt
/// returned without panicking (`None` once every attempt panicked) and the
/// number of panics caught. An attempt that unwinds leaves whatever state
/// it borrowed mid-update, so `attempt` must not rely on state a previous
/// attempt could have left half-written.
pub fn isolate<R>(
    site: &'static str,
    key: u64,
    mut attempt: impl FnMut() -> R,
) -> (Option<R>, u32) {
    let mut panics = 0;
    while panics <= RETRY_LIMIT {
        let run = catch_unwind(AssertUnwindSafe(|| {
            panic_if(site, key ^ u64::from(panics));
            attempt()
        }));
        match run {
            Ok(value) => return (Some(value), panics),
            Err(_) => panics += 1,
        }
    }
    (None, panics)
}

/// Installs a process-wide panic hook that suppresses the default
/// backtrace printing for [`InjectedFault`] panics (they are expected
/// and caught) while leaving every other panic's output untouched.
/// Idempotent; intended for fault-injection tests.
pub fn silence_injected_panics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_and_rejects() {
        let c = FailpointConfig::parse("7:0.25").expect("valid spec");
        assert_eq!(c.seed, 7);
        assert!((c.rate - 0.25).abs() < 1e-12);
        assert!(c.sites.is_empty());

        let c = FailpointConfig::parse("42:1.0:sched.job, explore.window").expect("with sites");
        assert_eq!(c.sites, vec!["sched.job", "explore.window"]);

        assert!(FailpointConfig::parse("").is_none());
        assert!(FailpointConfig::parse("x:0.5").is_none());
        assert!(FailpointConfig::parse("7:1.5").is_none());
        assert!(FailpointConfig::parse("7:-0.1").is_none());
        assert!(FailpointConfig::parse("7").is_none());
    }

    #[test]
    fn decisions_are_deterministic_and_site_independent() {
        let config = FailpointConfig { seed: 99, rate: 0.5, sites: Vec::new() };
        let mut trips = 0;
        for key in 0..1000 {
            let a = decide(&config, "a.site", key);
            assert_eq!(a, decide(&config, "a.site", key), "pure in key");
            trips += u64::from(a);
        }
        assert!((300..700).contains(&trips), "rate 0.5 tripped {trips}/1000");

        // Different sites see different streams.
        let same = (0..256)
            .filter(|&k| decide(&config, "a.site", k) == decide(&config, "b.site", k))
            .count();
        assert!(same < 256, "site hash decorrelates streams");
    }

    #[test]
    fn site_filter_and_rate_edges() {
        let only_a = FailpointConfig { seed: 1, rate: 1.0, sites: vec!["a".into()] };
        assert!(decide(&only_a, "a", 0));
        assert!(!decide(&only_a, "b", 0));
        let off = FailpointConfig { seed: 1, rate: 0.0, sites: Vec::new() };
        assert!(!decide(&off, "a", 0));
    }

    /// Serializes tests that touch the process-global registry.
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn install_clear_roundtrip() {
        let _guard = global_lock();
        install(FailpointConfig { seed: 3, rate: 1.0, sites: vec!["only.this".into()] });
        assert!(failpoint("only.this", 0));
        assert!(!failpoint("other.site", 0));
        clear();
        assert!(!failpoint("only.this", 0));
    }

    #[test]
    fn isolate_retries_up_to_the_limit() {
        let _guard = global_lock();
        silence_injected_panics();
        install(FailpointConfig { seed: 5, rate: 0.0, sites: vec!["isolate.unit".into()] });
        assert_eq!(isolate("isolate.unit", 0, || 7), (Some(7), 0));

        install(FailpointConfig { seed: 5, rate: 1.0, sites: vec!["isolate.unit".into()] });
        let mut calls = 0;
        let lost = isolate("isolate.unit", 0, || calls += 1);
        assert_eq!(lost, (None, RETRY_LIMIT + 1));
        assert_eq!(calls, 0, "an injected fault trips before the attempt runs");
        clear();

        let mut calls = 0;
        let lost = isolate("isolate.unit", 0, || {
            calls += 1;
            panic_any(InjectedFault { site: "isolate.unit" })
        });
        assert_eq!(lost, (None::<()>, RETRY_LIMIT + 1));
        assert_eq!(calls, RETRY_LIMIT + 1);

        let mut calls = 0;
        let once = isolate("isolate.unit", 0, || {
            calls += 1;
            if calls == 1 {
                panic_any(InjectedFault { site: "isolate.unit" });
            }
            calls
        });
        assert_eq!(once, (Some(2), 1));
    }

    #[test]
    fn panic_payload_is_typed() {
        let _guard = global_lock();
        install(FailpointConfig { seed: 5, rate: 1.0, sites: vec!["typed.payload".into()] });
        silence_injected_panics();
        let caught = std::panic::catch_unwind(|| panic_if("typed.payload", 9));
        clear();
        let payload = caught.expect_err("should have tripped");
        let fault = payload.downcast_ref::<InjectedFault>().expect("typed payload");
        assert_eq!(fault.site, "typed.payload");
    }
}
