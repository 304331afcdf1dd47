//! The workspace's JSON codec.
//!
//! The workspace builds offline with zero external dependencies, so JSON is
//! implemented here, once: a recursive-descent reader ([`parse_value`]) for
//! standard JSON (objects, arrays, strings with escapes, numbers, booleans,
//! null), and the writing pieces every hand-rolled writer shares — string
//! escaping ([`Escaped`], [`write_string`]) and field values
//! ([`write_value`]). Trace JSONL, checkpoints and `rtrd` solve-cache
//! entries, `rtrd` requests and responses, heartbeat lines and Perfetto
//! exports all go through this module.
//!
//! The reader takes network input (`rtrd` submit bodies), so two guards
//! keep it total: nesting deeper than [`MAX_DEPTH`] levels is an error
//! rather than a stack overflow, and a number literal that does not fit
//! an `f64` (`1e999`) is an error rather than infinity.

use crate::event::{Event, EventKind, Value};
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse_value`] accepts. Every document
/// the workspace writes nests at most five levels; the bound exists so a
/// body of 100,000 `[` characters costs a [`ParseError`], not the stack.
pub const MAX_DEPTH: usize = 64;

/// Serializes one event as a single-line JSON object:
///
/// ```text
/// {"ts_us":12,"kind":"span","name":"milp.solve","fields":{"nodes":4,"dur_us":88}}
/// ```
pub fn write_event(out: &mut String, event: &Event) {
    out.push_str("{\"ts_us\":");
    out.push_str(&event.ts_us.to_string());
    out.push_str(",\"kind\":\"");
    out.push_str(event.kind.label());
    out.push_str("\",\"name\":");
    write_string(out, &event.name);
    out.push_str(",\"fields\":{");
    for (i, (key, value)) in event.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(out, key);
        out.push(':');
        write_value(out, value);
    }
    out.push_str("}}");
}

/// Displays a string with JSON escaping applied, without the surrounding
/// quotes, for splicing into a `format!` template: `"`, `\`, `\n`, `\r`
/// and `\t` get their short escapes, other control characters `\u00XX`,
/// and everything else passes through.
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Copy runs of plain text in one write; every escaped character is
        // ASCII, so each run ends on a character boundary.
        let mut run = 0;
        for (i, c) in self.0.char_indices() {
            if c >= ' ' && c != '"' && c != '\\' {
                continue;
            }
            f.write_str(&self.0[run..i])?;
            run = i + 1;
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c => write!(f, "\\u{:04x}", c as u32)?,
            }
        }
        f.write_str(&self.0[run..])
    }
}

/// Appends `s` to `out` as a quoted JSON string.
pub fn write_string(out: &mut String, s: &str) {
    let _ = write!(out, "\"{}\"", Escaped(s));
}

/// Appends one field value to `out`. Finite floats always carry a fraction
/// (`4.0`, not `4`) so they re-parse as floats; non-finite ones, which JSON
/// cannot express, become `null`.
pub fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::F64(v) if v.is_finite() => {
            let s = format!("{v}");
            out.push_str(&s);
            if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                out.push_str(".0");
            }
        }
        Value::F64(_) => out.push_str("null"),
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::Str(v) => write_string(out, v),
    }
}

/// Why a line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A parsed JSON value: what [`parse_value`] returns, so every consumer
/// (trace JSONL, checkpoints, `rtrd` requests, heartbeat readers) decodes
/// from one parser.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; the flag records whether the literal had a fraction or
    /// exponent (so integral floats stay recognizable as floats).
    Num(f64, bool),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v, _) => Some(*v),
            _ => None,
        }
    }

    /// The value as a count, id or size: a non-negative integral number no
    /// larger than `u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v, _) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one complete JSON document into a [`JsonValue`].
///
/// # Errors
///
/// Returns [`ParseError`] on malformed JSON, trailing characters, nesting
/// deeper than [`MAX_DEPTH`], or a number literal outside `f64`'s range.
pub fn parse_value(text: &str) -> Result<JsonValue, ParseError> {
    let mut parser = Parser::new(text);
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return parser.err("trailing characters after the JSON value");
    }
    Ok(value)
}

use JsonValue as Json;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { at: self.pos, message: message.into() })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", byte as char))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(&open @ (b'{' | b'[')) => self.nested(open),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn nested(&mut self, open: u8) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let value = if open == b'{' { self.object() } else { self.array() };
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.err(format!("expected `{text}`"))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let mut fractional = false;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.bytes.get(self.pos) {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ParseError { at: start, message: "invalid utf-8".into() })?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v, fractional)),
            Ok(_) => {
                Err(ParseError { at: start, message: format!("number `{text}` overflows f64") })
            }
            Err(_) => Err(ParseError { at: start, message: format!("bad number `{text}`") }),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next quote
                    // or backslash in one go. Both are ASCII, so the run
                    // ends on a character boundary of the UTF-8 input.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    let Some(run) = self.text.get(self.pos..end) else {
                        return self.err("invalid utf-8");
                    };
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }
}

fn json_to_value(json: &Json) -> Value {
    match json {
        Json::Null => Value::F64(f64::NAN),
        Json::Bool(b) => Value::Bool(*b),
        Json::Num(v, fractional) => match json.as_u64() {
            Some(u) if !fractional => Value::U64(u),
            _ if !fractional && v.fract() == 0.0 && *v >= i64::MIN as f64 => Value::I64(*v as i64),
            _ => Value::F64(*v),
        },
        Json::Str(s) => Value::Str(s.clone()),
        // Events carry flat fields; containers degrade to their JSON text.
        Json::Arr(_) | Json::Obj(_) => Value::Str(format!("{json:?}")),
    }
}

/// Parses one JSONL line into an [`Event`].
///
/// # Errors
///
/// Returns [`ParseError`] on malformed JSON or a JSON shape that is not a
/// trace event.
pub fn parse_event(line: &str) -> Result<Event, ParseError> {
    let Json::Obj(entries) = parse_value(line)? else {
        return Err(ParseError { at: 0, message: "event line is not an object".into() });
    };
    let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let ts_us = match get("ts_us") {
        Some(Json::Num(v, _)) if *v >= 0.0 => *v as u64,
        _ => return Err(ParseError { at: 0, message: "missing numeric `ts_us`".into() }),
    };
    let kind = match get("kind") {
        Some(Json::Str(s)) => EventKind::from_label(s)
            .ok_or_else(|| ParseError { at: 0, message: format!("unknown kind `{s}`") })?,
        _ => return Err(ParseError { at: 0, message: "missing string `kind`".into() }),
    };
    let name = match get("name") {
        Some(Json::Str(s)) => s.clone(),
        _ => return Err(ParseError { at: 0, message: "missing string `name`".into() }),
    };
    let fields = match get("fields") {
        Some(Json::Obj(fields)) => {
            fields.iter().map(|(k, v)| (k.clone(), json_to_value(v))).collect()
        }
        None => Vec::new(),
        _ => return Err(ParseError { at: 0, message: "`fields` is not an object".into() }),
    };
    Ok(Event { ts_us, kind, name, fields })
}

/// Parses a whole JSONL document, skipping blank lines.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered, annotated with nothing
/// more than its in-line byte offset — trace files are line-oriented, so
/// callers can enumerate lines for context.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    text.lines().map(str::trim).filter(|l| !l.is_empty()).map(parse_event).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(event: &Event) -> Event {
        let mut line = String::new();
        write_event(&mut line, event);
        parse_event(&line).expect("writer output parses")
    }

    #[test]
    fn event_round_trips_exactly() {
        let e = Event {
            ts_us: 123,
            kind: EventKind::Span,
            name: "milp.solve".into(),
            fields: vec![
                ("nodes".into(), Value::U64(42)),
                ("obj".into(), Value::F64(-1.5)),
                ("neg".into(), Value::I64(-7)),
                ("ok".into(), Value::Bool(true)),
                ("label".into(), Value::Str("weird \"quotes\"\nand\ttabs".into())),
            ],
        };
        assert_eq!(round_trip(&e), e);
    }

    #[test]
    fn integral_floats_stay_floats() {
        let e = Event {
            ts_us: 0,
            kind: EventKind::Gauge,
            name: "g".into(),
            fields: vec![("value".into(), Value::F64(4.0))],
        };
        assert_eq!(round_trip(&e).field("value"), Some(&Value::F64(4.0)));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event {
            ts_us: 0,
            kind: EventKind::Gauge,
            name: "g".into(),
            fields: vec![("value".into(), Value::F64(f64::INFINITY))],
        };
        let mut line = String::new();
        write_event(&mut line, &e);
        assert!(line.contains("null"));
        let parsed = parse_event(&line).unwrap();
        match parsed.field("value") {
            Some(Value::F64(v)) => assert!(v.is_nan()),
            other => panic!("expected NaN stand-in, got {other:?}"),
        }
    }

    #[test]
    fn parser_accepts_foreign_json_and_rejects_junk() {
        let line = r#" { "ts_us" : 1 , "kind" : "event", "name": "x",
            "fields": { "a": [1, 2], "b": { "c": null } } } "#
            .replace('\n', " ");
        let parsed = parse_event(&line).unwrap();
        assert_eq!(parsed.name, "x");
        assert_eq!(parsed.fields.len(), 2);

        assert!(parse_event("").is_err());
        assert!(parse_event("{}").is_err());
        assert!(parse_event("[1]").is_err());
        assert!(parse_event("{\"ts_us\":1}").is_err());
        assert!(parse_event("{\"ts_us\":1,\"kind\":\"blah\",\"name\":\"x\"}").is_err());
        assert!(parse_event("{\"ts_us\":1,\"kind\":\"event\",\"name\":\"x\"} extra").is_err());
        assert!(parse_event("{\"ts_us\":1,\"kind\":\"event\",\"name\":\"x\"").is_err());
        assert!(parse_event("{\"ts_us\":1,\"kind\":\"event\",\"name\":\"\\q\"}").is_err());
    }

    #[test]
    fn jsonl_documents() {
        let mut doc = String::new();
        for i in 0..3u64 {
            let e = Event {
                ts_us: i,
                kind: EventKind::Counter,
                name: format!("c{i}"),
                fields: vec![("value".into(), Value::U64(i))],
            };
            write_event(&mut doc, &e);
            doc.push('\n');
        }
        doc.push('\n'); // blank line is fine
        let events = parse_jsonl(&doc).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].u64_field("value"), Some(2));
        assert!(parse_jsonl("not json").is_err());
        let err = parse_event("nope").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn strings_mix_plain_runs_escapes_and_multibyte_text() {
        let text = r#"{"s":"a\"b\\c→d\u00e9\n€end","t":"","u":"π"}"#;
        let parsed = parse_value(text).unwrap();
        assert_eq!(parsed.get("s").and_then(JsonValue::as_str), Some("a\"b\\c→d\u{e9}\n€end"));
        assert_eq!(parsed.get("t").and_then(JsonValue::as_str), Some(""));
        assert_eq!(parsed.get("u").and_then(JsonValue::as_str), Some("π"));
        assert!(parse_value(r#""unterminated→"#).is_err());
    }

    #[test]
    fn values_parse_and_junk_is_rejected() {
        assert_eq!(parse_value("\"a\\n\\u0041π\"").unwrap(), JsonValue::Str("a\nAπ".into()));
        assert!(parse_value("[1, [2, [3]]] ").is_ok());
        // Number literals must fit an f64: `1e999` is an error, not infinity.
        for bad in [
            "{\"a\" 1}",
            "[1 2]",
            "tru",
            "\"\\x\"",
            "\"unterminated",
            "[[[[",
            "-",
            "1e999",
            "[-1e400]",
        ] {
            assert!(parse_value(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_value(&nest(MAX_DEPTH)).is_ok());
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse_value(&objects).is_ok());
        let err = parse_value(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // 100,000 levels: a hostile request body, not a stack overflow.
        assert!(parse_value(&nest(100_000)).is_err());
        assert!(parse_value(&"[".repeat(100_000)).is_err());
        assert!(parse_event(&format!("{}{}", "{\"a\":".repeat(100_000), "1")).is_err());
    }

    #[test]
    fn as_u64_takes_non_negative_integral_numbers_only() {
        let u = |text: &str| parse_value(text).unwrap().as_u64();
        assert_eq!(u("0"), Some(0));
        assert_eq!(u("42"), Some(42));
        assert_eq!(u("7.0"), Some(7));
        assert_eq!(u("18446744073709551615"), Some(u64::MAX));
        assert_eq!(u("-1"), None);
        assert_eq!(u("1.5"), None);
        assert_eq!(u("1e20"), None);
        assert_eq!(u("\"3\""), None);
        assert_eq!(u("null"), None);
    }

    #[test]
    fn escaping_matches_the_reader() {
        let text = "quote\" back\\ nl\n cr\r tab\t bell\u{7} del\u{7f} π→€";
        assert_eq!(
            Escaped(text).to_string(),
            "quote\\\" back\\\\ nl\\n cr\\r tab\\t bell\\u0007 del\u{7f} π→€"
        );
        let mut quoted = String::new();
        write_string(&mut quoted, text);
        assert_eq!(parse_value(&quoted).unwrap(), JsonValue::Str(text.into()));
        assert_eq!(Escaped("").to_string(), "");
        assert_eq!(Escaped("plain").to_string(), "plain");
    }

    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        // Request bodies carry whole task graphs as one string, so string
        // parsing must stay linear: a quadratic scan would take hours here.
        let long: String = "task a→b ".repeat(1 << 17);
        let doc = format!("{{\"graph\":\"{long}\"}}");
        let parsed = parse_value(&doc).unwrap();
        assert_eq!(parsed.get("graph").and_then(JsonValue::as_str), Some(long.as_str()));
    }

    #[test]
    fn unicode_and_u_escapes() {
        let e = Event {
            ts_us: 5,
            kind: EventKind::Event,
            name: "η→latency".into(),
            fields: vec![("s".into(), Value::Str("π ≈ 3".into()))],
        };
        assert_eq!(round_trip(&e), e);
        let line = r#"{"ts_us":1,"kind":"event","name":"\u0041","fields":{}}"#;
        assert_eq!(parse_event(line).unwrap().name, "A");
    }
}
