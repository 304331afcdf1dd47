//! Chrome / Perfetto trace-event export.
//!
//! Turns a captured event stream into the JSON trace-event format that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly: `{"traceEvents": [...]}` with complete-duration (`"X"`),
//! counter (`"C"`), instant (`"i"`), and thread-metadata (`"M"`) records.
//!
//! The solver stack is logically concurrent in two places, and both carry
//! their identity as event fields rather than OS thread ids (the capture /
//! replay machinery deliberately erases physical threads to keep traces
//! deterministic — see `DESIGN.md`, "Parallel exploration"). The exporter
//! reconstructs timeline *tracks* from those fields:
//!
//! * spans with an `n` field (phase-2 candidate explorations,
//!   `search.reduce_latency`) map to one track per partition bound;
//! * spans with a `job` field (intra-window subtree jobs,
//!   `structured.subtree`) map to one track per job slot;
//! * everything else lands on the main track.
//!
//! Counters accumulate into running totals so the timeline shows growth
//! curves rather than per-emission deltas; gauges pass through as sampled
//! values. All output records are sorted by start timestamp, so each
//! track's timestamps are monotone — the property the round-trip test
//! pins down.

use crate::event::{Event, EventKind, Value};
use crate::json::{write_string, write_value};
use std::collections::BTreeMap;

/// The synthetic process id every track lives under.
const PID: u64 = 1;
/// Track id of the main (un-attributed) stream.
const MAIN_TID: u64 = 0;
/// Track ids `CANDIDATE_BASE + n` hold candidate explorations.
const CANDIDATE_BASE: u64 = 1_000;
/// Track ids `SUBTREE_BASE + job` hold intra-window subtree jobs.
const SUBTREE_BASE: u64 = 1_000_000;

/// One output record, pre-serialization, keyed for deterministic order.
struct Record {
    ts_us: u64,
    tid: u64,
    body: String,
}

fn args_object(fields: &[(String, Value)], skip: &[&str]) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for (key, value) in fields {
        if skip.contains(&key.as_str()) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        write_string(&mut out, key);
        out.push(':');
        write_value(&mut out, value);
    }
    out.push('}');
    out
}

/// The track an event belongs to, from its identity fields.
fn track_of(event: &Event) -> u64 {
    if let Some(job) = event.u64_field("job") {
        return SUBTREE_BASE + job;
    }
    if event.kind == EventKind::Span {
        if let Some(n) = event.u64_field("n") {
            return CANDIDATE_BASE + n;
        }
    }
    MAIN_TID
}

fn track_name(tid: u64) -> String {
    if tid >= SUBTREE_BASE {
        format!("subtree job {}", tid - SUBTREE_BASE)
    } else if tid >= CANDIDATE_BASE {
        format!("candidate N={}", tid - CANDIDATE_BASE)
    } else {
        "explore".to_owned()
    }
}

/// Converts an event stream into a Chrome trace-event JSON document.
///
/// Every event kind maps to a trace-event phase: spans to `"X"` (complete
/// events, placed at their start time), counters to cumulative `"C"`
/// records, gauges to sampled `"C"` records, and point events to `"i"`
/// instants. Thread-name metadata (`"M"`) describes each reconstructed
/// track. The output is valid for an empty stream too
/// (`{"traceEvents": []}`).
pub fn to_chrome_trace<'a, I>(events: I) -> String
where
    I: IntoIterator<Item = &'a Event>,
{
    let mut records: Vec<Record> = Vec::new();
    let mut tracks: BTreeMap<u64, ()> = BTreeMap::new();
    let mut counter_totals: BTreeMap<&str, u64> = BTreeMap::new();
    for event in events {
        let tid = track_of(event);
        tracks.entry(tid).or_insert(());
        let mut body = String::with_capacity(128);
        let ts_us = match event.kind {
            EventKind::Span => {
                let dur = event.u64_field("dur_us").unwrap_or(0);
                let start = event.ts_us.saturating_sub(dur);
                body.push_str("\"ph\":\"X\",\"name\":");
                write_string(&mut body, &event.name);
                body.push_str(&format!(",\"dur\":{dur},\"args\":"));
                body.push_str(&args_object(&event.fields, &["dur_us"]));
                start
            }
            EventKind::Counter => {
                let total = counter_totals.entry(event.name.as_str()).or_insert(0);
                *total = total.saturating_add(event.u64_field("value").unwrap_or(0));
                body.push_str("\"ph\":\"C\",\"name\":");
                write_string(&mut body, &event.name);
                body.push_str(&format!(",\"args\":{{\"total\":{total}}}"));
                event.ts_us
            }
            EventKind::Gauge => {
                body.push_str("\"ph\":\"C\",\"name\":");
                write_string(&mut body, &event.name);
                body.push_str(",\"args\":{\"value\":");
                let value = event.f64_field("value").unwrap_or(f64::NAN);
                write_value(&mut body, &Value::F64(value));
                body.push('}');
                event.ts_us
            }
            EventKind::Event => {
                body.push_str("\"ph\":\"i\",\"s\":\"t\",\"name\":");
                write_string(&mut body, &event.name);
                body.push_str(",\"args\":");
                body.push_str(&args_object(&event.fields, &[]));
                event.ts_us
            }
        };
        records.push(Record { ts_us, tid, body });
    }
    // Start-time order makes every track's timestamps monotone; the stable
    // sort keeps equal-timestamp records in emission order.
    records.sort_by_key(|r| r.ts_us);

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push_record = |out: &mut String, line: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n  ");
        out.push_str(&line);
    };
    for (&tid, ()) in &tracks {
        let mut line = format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{PID},\"tid\":{tid},\"args\":{{\"name\":"
        );
        write_string(&mut line, &track_name(tid));
        line.push_str("}}");
        push_record(&mut out, line);
    }
    for r in records {
        push_record(
            &mut out,
            format!("{{{},\"pid\":{PID},\"tid\":{},\"ts\":{}}}", r.body, r.tid, r.ts_us),
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_value, JsonValue};

    fn event(kind: EventKind, name: &str, ts: u64, fields: Vec<(String, Value)>) -> Event {
        Event { ts_us: ts, kind, name: name.into(), fields }
    }

    fn parse_trace(doc: &str) -> Vec<JsonValue> {
        match parse_value(doc).expect("export is valid JSON").get("traceEvents") {
            Some(JsonValue::Arr(items)) => items.clone(),
            other => panic!("traceEvents is not an array: {other:?}"),
        }
    }

    fn num(item: &JsonValue, key: &str) -> Option<f64> {
        item.get(key).and_then(JsonValue::as_f64)
    }

    fn text(item: &JsonValue, key: &str) -> Option<String> {
        item.get(key).and_then(JsonValue::as_str).map(str::to_owned)
    }

    #[test]
    fn empty_stream_exports_valid_json() {
        let doc = to_chrome_trace(std::iter::empty());
        assert!(parse_trace(&doc).is_empty());
    }

    #[test]
    fn tracks_phases_and_monotone_timestamps() {
        let events = vec![
            event(
                EventKind::Span,
                "search.reduce_latency",
                900,
                vec![("n".into(), Value::U64(3)), ("dur_us".into(), Value::U64(800))],
            ),
            event(
                EventKind::Span,
                "structured.subtree",
                500,
                vec![
                    ("job".into(), Value::U64(7)),
                    ("depth".into(), Value::U64(2)),
                    ("dur_us".into(), Value::U64(300)),
                ],
            ),
            event(
                EventKind::Counter,
                "structured.nodes",
                250,
                vec![("value".into(), Value::U64(10))],
            ),
            event(
                EventKind::Counter,
                "structured.nodes",
                600,
                vec![("value".into(), Value::U64(5))],
            ),
            event(EventKind::Gauge, "lp.objective", 700, vec![("value".into(), Value::F64(2.5))]),
            event(
                EventKind::Event,
                "search.iteration",
                650,
                vec![("n".into(), Value::U64(3)), ("result".into(), Value::Str("feasible".into()))],
            ),
        ];
        let doc = to_chrome_trace(&events);
        let items = parse_trace(&doc);

        // Three tracks (main, candidate N=3, subtree job 7), named via "M".
        let names: Vec<String> = items
            .iter()
            .filter(|f| text(f, "ph").as_deref() == Some("M"))
            .map(|f| text(f.get("args").expect("metadata args"), "name").expect("thread name"))
            .collect();
        assert_eq!(names, vec!["explore", "candidate N=3", "subtree job 7"]);

        // Spans land at their start time with their duration.
        let span = items
            .iter()
            .find(|f| text(f, "name").as_deref() == Some("search.reduce_latency"))
            .expect("candidate span exported");
        assert_eq!(text(span, "ph").as_deref(), Some("X"));
        assert_eq!(num(span, "ts"), Some(100.0));
        assert_eq!(num(span, "dur"), Some(800.0));
        assert_eq!(num(span, "tid"), Some(1_003.0));
        let subtree = items
            .iter()
            .find(|f| text(f, "name").as_deref() == Some("structured.subtree"))
            .expect("subtree span exported");
        assert_eq!(num(subtree, "tid"), Some(1_000_007.0));

        // Counters accumulate; the second sample reports the running total.
        let totals: Vec<f64> = items
            .iter()
            .filter(|f| text(f, "name").as_deref() == Some("structured.nodes"))
            .map(|f| num(f.get("args").expect("counter args"), "total").expect("counter total"))
            .collect();
        assert_eq!(totals, vec![10.0, 15.0]);

        // The instant survives with its fields.
        let instant =
            items.iter().find(|f| text(f, "ph").as_deref() == Some("i")).expect("instant exported");
        assert_eq!(text(instant, "name").as_deref(), Some("search.iteration"));

        // Per-track monotone timestamps (the round-trip guarantee).
        let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
        for f in items.iter().filter(|f| text(f, "ph").as_deref() != Some("M")) {
            let tid = num(f, "tid").expect("tid") as u64;
            let ts = num(f, "ts").expect("ts");
            if let Some(prev) = last_ts.insert(tid, ts) {
                assert!(ts >= prev, "track {tid} went backwards: {prev} -> {ts}\n{doc}");
            }
        }
    }

    #[test]
    fn string_fields_are_escaped() {
        let events = vec![event(
            EventKind::Event,
            "odd\"name",
            1,
            vec![("label".into(), Value::Str("tab\there".into()))],
        )];
        let doc = to_chrome_trace(&events);
        let items = parse_trace(&doc);
        let instant = items.last().expect("one event");
        assert_eq!(text(instant, "name").as_deref(), Some("odd\"name"));
    }
}
