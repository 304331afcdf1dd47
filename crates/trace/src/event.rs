//! Structured events: the unit of everything the trace layer records.

use std::borrow::Cow;
use std::fmt;
use std::time::Duration;

/// A dynamically typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer (counters, ids, node totals).
    U64(u64),
    /// Floating point (latencies in ns, objective values).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text (outcome labels, backend names).
    Str(String),
}

impl Value {
    /// The value as `u64`, if it is an integer (or an integral float).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            Value::F64(v) if v.fract() == 0.0 && *v >= 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(v) => Some(*v as f64),
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if textual.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => f.write_str(v),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v.into())
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Duration> for Value {
    fn from(v: Duration) -> Self {
        Value::U64(v.as_micros() as u64)
    }
}

/// What kind of record an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A closed span: a named stretch of wall-clock time. Carries a
    /// `dur_us` field with its duration in microseconds.
    Span,
    /// A monotonic counter increment. Carries a `value` field.
    Counter,
    /// A point-in-time level sample. Carries a `value` field.
    Gauge,
    /// A structured point event with arbitrary fields.
    Event,
}

impl EventKind {
    /// The canonical serialized label.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Event => "event",
        }
    }

    /// Parses a serialized label.
    pub fn from_label(label: &str) -> Option<Self> {
        Some(match label {
            "span" => EventKind::Span,
            "counter" => EventKind::Counter,
            "gauge" => EventKind::Gauge,
            "event" => EventKind::Event,
            _ => return None,
        })
    }
}

/// One structured trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the process trace epoch (first trace activity).
    pub ts_us: u64,
    /// Record kind.
    pub kind: EventKind,
    /// Dotted name, e.g. `milp.solve` or `search.iteration`.
    pub name: String,
    /// Key/value payload, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Builds an event with the current trace timestamp.
    pub fn new(kind: EventKind, name: impl Into<String>) -> Self {
        Event { ts_us: crate::sink::now_us(), kind, name: name.into(), fields: Vec::new() }
    }

    /// Builder-style field append.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Looks a field up by key (first match wins).
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A `u64` field, if present and integral.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(Value::as_u64)
    }

    /// An `f64` field, if present and numeric.
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(Value::as_f64)
    }

    /// A string field, if present and textual.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.field(key).and_then(Value::as_str)
    }

    /// The span duration, for [`EventKind::Span`] records.
    pub fn duration(&self) -> Option<Duration> {
        if self.kind != EventKind::Span {
            return None;
        }
        self.u64_field("dur_us").map(Duration::from_micros)
    }
}

/// Types that can describe themselves as trace metrics — implemented by the
/// solver-statistics structs across the workspace so each layer lists its
/// counters once, for the trace stream and for the `reproduce` bodies
/// alike.
pub trait Instrument {
    /// Every exact counter — a deterministic work unit such as nodes,
    /// pivots or prunes — as `(name, value)`, in emission order.
    fn counters(&self) -> Vec<(Cow<'static, str>, u64)>;

    /// Emits [`counters`](Self::counters) under the dotted `scope` prefix
    /// (e.g. scope `milp.solve` yields counters `milp.solve.nodes`, ...).
    /// Does nothing while tracing is off.
    fn emit_metrics(&self, scope: &str) {
        if !crate::enabled() {
            return;
        }
        for (name, value) in self.counters() {
            crate::counter(&format!("{scope}.{name}"), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3u32), Value::U64(3));
        assert_eq!(Value::from(-2i64), Value::I64(-2));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(Duration::from_millis(2)), Value::U64(2000));
        assert_eq!(Value::U64(7).as_f64(), Some(7.0));
        assert_eq!(Value::F64(7.0).as_u64(), Some(7));
        assert_eq!(Value::F64(7.5).as_u64(), None);
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
        assert_eq!(Value::Bool(true).as_u64(), None);
    }

    #[test]
    fn event_field_lookup() {
        let e = Event::new(EventKind::Event, "x").with("a", 1u64).with("b", "s");
        assert_eq!(e.u64_field("a"), Some(1));
        assert_eq!(e.str_field("b"), Some("s"));
        assert!(e.field("c").is_none());
        assert!(e.duration().is_none());
    }

    #[test]
    fn kind_labels_round_trip() {
        for k in [EventKind::Span, EventKind::Counter, EventKind::Gauge, EventKind::Event] {
            assert_eq!(EventKind::from_label(k.label()), Some(k));
        }
        assert_eq!(EventKind::from_label("nope"), None);
    }
}
