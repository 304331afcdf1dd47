//! End-to-end sink tests: emit through the global dispatch, round-trip
//! through a JSONL file, and aggregate into a report. These tests install
//! the process-global sink, so they serialize on a mutex.

use rtr_trace::{
    counter, event, gauge, install, parse_jsonl, span, uninstall, JsonlSink, MemorySink, RunReport,
    Value,
};
use std::sync::{Arc, Mutex, PoisonError};

/// Serializes tests that touch the process-global sink.
static GUARD: Mutex<()> = Mutex::new(());

#[test]
fn jsonl_file_round_trips_into_a_report() {
    let _guard = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    let path = std::env::temp_dir().join(format!("rtr_trace_rt_{}.jsonl", std::process::id()));

    let sink = JsonlSink::create(&path).expect("temp file");
    install(Arc::new(sink));
    {
        let mut s = span("phase.work").with("size", 3u64);
        s.add("flag", true);
        s.finish();
    }
    counter("work.items", 7);
    counter("work.items", 5);
    gauge("window.width", 2.5);
    event("search.iteration", || {
        vec![
            ("n".to_owned(), Value::U64(4)),
            ("result".to_owned(), Value::Str("feasible".to_owned())),
        ]
    });
    uninstall().expect("sink was installed");

    let text = std::fs::read_to_string(&path).expect("trace file exists");
    let _ = std::fs::remove_file(&path);
    let events = parse_jsonl(&text).expect("well-formed JSONL");
    assert_eq!(events.len(), 5);

    let report = RunReport::from_events(&events);
    assert_eq!(report.event_total, 5);
    assert_eq!(report.counter("work.items"), 12);
    assert_eq!(report.span("phase.work").unwrap().count, 1);
    assert_eq!(report.iterations_per_n.get(&4), Some(&1));
    assert_eq!(report.outcomes.get("feasible"), Some(&1));
    let g = report.gauges.get("window.width").unwrap();
    assert_eq!(g.last, 2.5);

    // The rendered report names everything that was emitted.
    let rendered = report.render();
    for needle in ["phase.work", "work.items", "window.width", "N = 4", "feasible"] {
        assert!(rendered.contains(needle), "missing {needle} in:\n{rendered}");
    }
}

#[test]
fn nothing_is_recorded_without_a_sink() {
    let _guard = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    assert!(!rtr_trace::enabled());
    // All emission paths must be safe no-ops.
    counter("orphan", 1);
    gauge("orphan", 1.0);
    event("orphan", Vec::new);
    let s = span("orphan");
    assert!(!s.armed());
    s.finish();
}

#[test]
fn concurrent_emission_is_lossless() {
    let _guard = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 250;

    let sink = Arc::new(MemorySink::new());
    install(sink.clone());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter("smoke.increments", 1);
                    if i == 0 {
                        span(if t % 2 == 0 { "smoke.even" } else { "smoke.odd" }).finish();
                    }
                }
            });
        }
    });
    uninstall().expect("sink was installed");

    let report = RunReport::from_events(&sink.take());
    assert_eq!(report.counter("smoke.increments"), THREADS * PER_THREAD);
    let spans: u64 =
        ["smoke.even", "smoke.odd"].iter().filter_map(|n| report.span(n)).map(|s| s.count).sum();
    assert_eq!(spans, THREADS);
}
