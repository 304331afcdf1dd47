//! Sinks and the global dispatch point.
//!
//! The global sink defaults to *none*: every emission site first checks one
//! relaxed atomic load, so an untraced run pays a single predictable branch
//! per potential event and allocates nothing.

use crate::event::{Event, EventKind, Value};
use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// A destination for trace events.
///
/// Implementations must be thread-safe: the solver stack emits from
/// whatever thread is running a solve.
pub trait Sink: Send + Sync {
    /// Records one event.
    fn record(&self, event: Event);

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static PANIC_FLUSH: OnceLock<()> = OnceLock::new();

/// Flushes the installed sink, if any. Uses `try_read` so it is safe from
/// a panic hook even if the panic fired while the sink slot was held.
fn flush_installed() {
    if let Ok(slot) = SINK.try_read() {
        if let Some(sink) = slot.as_ref() {
            sink.flush();
        }
    }
}

/// Registers (once per process) a panic hook that flushes the installed
/// sink before the previous hook runs, so a crashed or fault-injected run
/// still leaves a readable trace tail on disk. The hook chains: normal
/// panic reporting is unchanged.
fn install_panic_flush() {
    PANIC_FLUSH.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flush_installed();
            previous(info);
        }));
    });
}

/// `true` when a sink is installed. The hot-path guard: a relaxed atomic
/// load and a branch, nothing else.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the process trace epoch (the first trace activity).
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Installs `sink` as the global event destination, replacing and
/// returning any previous one.
pub fn install(sink: Arc<dyn Sink>) -> Option<Arc<dyn Sink>> {
    // Touch the epoch first so timestamps are relative to installation of
    // the first sink rather than the first event.
    let _ = EPOCH.get_or_init(Instant::now);
    install_panic_flush();
    let mut slot = SINK.write().unwrap_or_else(PoisonError::into_inner);
    let previous = slot.replace(sink);
    ENABLED.store(true, Ordering::Relaxed);
    previous
}

/// Removes the global sink (flushing it) and returns it, if any.
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    let mut slot = SINK.write().unwrap_or_else(PoisonError::into_inner);
    ENABLED.store(false, Ordering::Relaxed);
    let sink = slot.take();
    if let Some(sink) = &sink {
        sink.flush();
    }
    sink
}

thread_local! {
    /// Per-thread capture buffer (see [`capture`]). When present, events
    /// emitted by this thread are diverted here instead of the global sink.
    static CAPTURE: RefCell<Option<Vec<Event>>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's trace events diverted into a buffer and
/// returns them alongside `f`'s result.
///
/// This is how parallel drivers keep a deterministic event stream: each
/// worker thread captures its own events, and the coordinator re-emits the
/// buffers in a deterministic order with [`dispatch_all`] after joining.
/// Timestamps are assigned at the original emission time, so captured
/// events record when work actually happened, not when they were merged.
///
/// When no sink is installed ([`enabled`] is `false`) the emission helpers
/// produce nothing, so `f` runs at full speed and the returned buffer is
/// empty. Calls may nest; each `capture` sees only the events of its own
/// scope. If `f` unwinds, its events are dropped and the enclosing buffer
/// is put back, so a caller that catches the panic keeps capturing.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    /// Puts the enclosing buffer back when dropped, on return or unwind.
    struct Restore(Option<Vec<Event>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            CAPTURE.with(|c| *c.borrow_mut() = previous);
        }
    }
    let _restore = Restore(CAPTURE.with(|c| c.borrow_mut().replace(Vec::new())));
    let result = f();
    let events = CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default();
    (result, events)
}

/// Re-emits already-captured events (from [`capture`]) through the normal
/// dispatch path, preserving their original timestamps and order.
pub fn dispatch_all(events: Vec<Event>) {
    for event in events {
        dispatch(event);
    }
}

/// Sends `event` to this thread's capture buffer if one is active (see
/// [`capture`]), otherwise to the installed sink, if any.
pub fn dispatch(event: Event) {
    if !enabled() {
        return;
    }
    let event = match CAPTURE.with(|c| {
        let mut slot = c.borrow_mut();
        match slot.as_mut() {
            Some(buffer) => {
                buffer.push(event);
                None
            }
            None => Some(event),
        }
    }) {
        Some(event) => event,
        None => return,
    };
    let slot = SINK.read().unwrap_or_else(PoisonError::into_inner);
    if let Some(sink) = slot.as_ref() {
        sink.record(event);
    }
}

/// Emits a counter increment `name += value`.
#[inline]
pub fn counter(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    dispatch(Event::new(EventKind::Counter, name).with("value", value));
}

/// Emits a gauge sample `name = value`.
#[inline]
pub fn gauge(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    dispatch(Event::new(EventKind::Gauge, name).with("value", value));
}

/// Emits a structured point event with the fields produced by `fields`.
/// The closure only runs when tracing is enabled, so field construction
/// costs nothing on untraced runs.
#[inline]
pub fn event<F>(name: &str, fields: F)
where
    F: FnOnce() -> Vec<(String, Value)>,
{
    if !enabled() {
        return;
    }
    let mut e = Event::new(EventKind::Event, name);
    e.fields = fields();
    dispatch(e);
}

/// An in-flight span. Created by [`span`]; emits one
/// [`EventKind::Span`] event with a `dur_us` field when dropped (or
/// [`finish`](Span::finish)ed). Disarmed spans (tracing disabled at
/// creation) never touch the clock or allocate.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    fields: Vec<(String, Value)>,
}

impl Span {
    /// Attaches a field to the eventual span event.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        if self.start.is_some() {
            self.fields.push((key.into(), value.into()));
        }
        self
    }

    /// Attaches a field in place (for fields known only mid-span).
    pub fn add(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        if self.start.is_some() {
            self.fields.push((key.into(), value.into()));
        }
    }

    /// `true` when this span will emit an event.
    pub fn armed(&self) -> bool {
        self.start.is_some()
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else { return };
        let mut e = Event::new(EventKind::Span, self.name);
        e.fields = std::mem::take(&mut self.fields);
        e.fields.push(("dur_us".to_owned(), Value::U64(start.elapsed().as_micros() as u64)));
        dispatch(e);
    }
}

/// Opens a span named `name`. Returns a disarmed no-op guard when tracing
/// is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { name, start: None, fields: Vec::new() };
    }
    Span { name, start: Some(Instant::now()), fields: Vec::new() }
}

/// An in-memory sink: a mutex-guarded vector of events.
///
/// The critical section is one `Vec::push`, so contention stays negligible
/// even when many solver threads emit concurrently.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, event: Event) {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).push(event);
    }
}

/// A sink that appends one JSON object per event to a file (JSONL).
///
/// Lines are buffered; [`flush`](Sink::flush) (called by
/// [`uninstall`]) or dropping the sink writes them out.
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink { out: Mutex::new(BufWriter::new(file)) })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: Event) {
        let mut line = String::with_capacity(128);
        crate::json::write_event(&mut line, &event);
        line.push('\n');
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        // A full disk is not worth panicking a solver over; drop the line.
        let _ = out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap_or_else(PoisonError::into_inner).flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-state tests share one process; serialize them.
    static GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_by_default_and_emission_is_a_noop() {
        let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        uninstall();
        assert!(!enabled());
        counter("x", 1);
        gauge("y", 2.0);
        event("z", || vec![("a".into(), Value::U64(1))]);
        let s = span("untraced");
        assert!(!s.armed());
        drop(s);
        // Nothing to observe: the point is that none of the above panicked
        // or needed a sink.
    }

    #[test]
    fn install_uninstall_round_trip() {
        let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let sink = Arc::new(MemorySink::new());
        assert!(install(sink.clone()).is_none());
        assert!(enabled());
        counter("nodes", 5);
        {
            let mut sp = span("phase").with("n", 3u32);
            sp.add("extra", true);
            assert!(sp.armed());
        }
        let removed = uninstall().expect("was installed");
        assert!(!enabled());
        drop(removed);
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Counter);
        assert_eq!(events[0].u64_field("value"), Some(5));
        assert_eq!(events[1].kind, EventKind::Span);
        assert_eq!(events[1].u64_field("n"), Some(3));
        assert!(events[1].duration().is_some());
        assert!(sink.is_empty());
    }

    #[test]
    fn capture_diverts_this_threads_events_and_forwards_on_dispatch_all() {
        let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        counter("before", 1);
        let ((), captured) = capture(|| {
            counter("inside", 2);
            let _sp = span("inner.phase").with("n", 7u32);
        });
        counter("after", 3);
        // Nothing from the capture scope reached the sink directly.
        let direct: Vec<String> = sink.snapshot().iter().map(|e| e.name.clone()).collect();
        assert_eq!(direct, vec!["before", "after"]);
        assert_eq!(captured.len(), 2);
        assert_eq!(captured[0].name, "inside");
        assert_eq!(captured[1].name, "inner.phase");
        // Forwarding preserves the events verbatim.
        dispatch_all(captured);
        uninstall();
        let names: Vec<String> = sink.take().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["before", "after", "inside", "inner.phase"]);
    }

    #[test]
    fn capture_nests_and_is_empty_when_disabled() {
        let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        uninstall();
        let ((), events) = capture(|| counter("ghost", 1));
        assert!(events.is_empty(), "disabled tracing captures nothing");

        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        let ((), outer) = capture(|| {
            counter("outer.a", 1);
            let ((), inner) = capture(|| counter("inner.only", 2));
            assert_eq!(inner.len(), 1);
            assert_eq!(inner[0].name, "inner.only");
            counter("outer.b", 3);
        });
        uninstall();
        let names: Vec<&str> = outer.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["outer.a", "outer.b"]);
        assert!(sink.take().is_empty());
    }

    #[test]
    fn a_panic_in_a_nested_capture_leaves_the_outer_capture_intact() {
        let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        let ((), outer) = capture(|| {
            counter("outer.before", 1);
            let caught = std::panic::catch_unwind(|| {
                capture(|| {
                    counter("inner.lost", 2);
                    // Unwinds without running the panic hook.
                    std::panic::resume_unwind(Box::new("job died"));
                })
            });
            assert!(caught.is_err());
            counter("outer.after", 3);
        });
        uninstall();
        let names: Vec<&str> = outer.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["outer.before", "outer.after"]);
        assert!(sink.take().is_empty());
    }

    #[test]
    fn spans_created_while_disabled_stay_silent_after_enable() {
        let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        uninstall();
        let quiet = span("pre");
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        drop(quiet); // was disarmed at creation
        uninstall();
        assert!(sink.is_empty());
    }
}
