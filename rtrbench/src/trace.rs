//! The traced run's spans and the ledger built from them.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; nothing inside the program is instrumented, so a traced run
//! executes the same program code as an untraced one. Spans stay in memory
//! and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `search.explore`.
    pub name: &'static str,
    /// Start, in µs since the run's epoch.
    pub start_us: f64,
    /// End, in µs since the run's epoch.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one job (`0` outside jobs).
    pub job: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// One thread's span recorder. Untraced passes run without one.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder { epoch, spans: Vec::new(), open: Vec::new() }
    }

    fn micros(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span that started at `at`, as a child of the innermost open
    /// one.
    pub fn begin_at(&mut self, name: &'static str, job: u64, at: Instant) {
        let start_us = self.micros(at);
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, start_us, end_us: start_us, parent, job });
    }

    /// Closes the innermost open span at `at`.
    pub fn end_at(&mut self, at: Instant) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_us = self.micros(at);
        }
    }

    /// Records an already finished span, as a child of the innermost open
    /// one.
    pub fn record(&mut self, name: &'static str, job: u64, start: Instant, end: Instant) {
        let parent = self.open.last().copied();
        let (start_us, end_us) = (self.micros(start), self.micros(end));
        self.spans.push(Span { name, start_us, end_us, parent, job });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates several threads' spans, re-basing parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for part in parts {
        let base = all.len();
        all.extend(part.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }));
    }
    all
}

/// Self time per span name, in seconds: each span's duration minus the
/// part its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] -= span.seconds();
        }
    }
    let mut by_name = BTreeMap::new();
    for (span, seconds) in spans.iter().zip(own) {
        *by_name.entry(span.name).or_insert(0.0) += seconds;
    }
    by_name
}

/// Where the traced wall time went: named layers plus an explicit
/// residual that no layer accounts for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// The traced wall time, in seconds.
    pub wall_s: f64,
    /// Seconds per layer.
    pub layers: Vec<(String, f64)>,
    /// Seconds no layer accounts for.
    pub residual_s: f64,
}

impl Ledger {
    /// Builds a ledger from span self times: spans named in `residual`
    /// (the pass and job envelopes) count toward the residual, every other
    /// name is a layer.
    pub fn from_spans(spans: &[Span], wall_s: f64, residual: &[&str]) -> Ledger {
        let mut ledger = Ledger { wall_s, ..Ledger::default() };
        for (name, seconds) in self_times(spans) {
            if residual.contains(&name) {
                ledger.residual_s += seconds;
            } else {
                ledger.layers.push((name.to_owned(), seconds));
            }
        }
        ledger
    }

    /// `|Σ layers + residual − wall| / wall`: how far the ledger is from
    /// adding up.
    pub fn gap(&self) -> f64 {
        let total: f64 = self.layers.iter().map(|(_, s)| s).sum::<f64>() + self.residual_s;
        crate::stats::share((total - self.wall_s).abs(), self.wall_s)
    }

    /// A printable table.
    pub fn render(&self) -> String {
        let mut out = format!("ledger (traced wall {:.3} s):\n", self.wall_s);
        for (name, seconds) in &self.layers {
            let share = crate::stats::share(*seconds, self.wall_s);
            let _ = writeln!(out, "  {name:<22} {seconds:>10.4} s {:>6.2} %", share * 100.0);
        }
        let share = crate::stats::share(self.residual_s, self.wall_s);
        let _ = writeln!(
            out,
            "  {:<22} {:>10.4} s {:>6.2} %",
            "residual",
            self.residual_s,
            share * 100.0
        );
        out
    }
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"job\":{}}}",
            s.name, s.start_us, s.end_us, s.job
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_and_the_ledger_adds_up() {
        let spans = vec![
            Span { name: "pass", start_us: 0.0, end_us: 100.0, parent: None, job: 0 },
            Span { name: "search.explore", start_us: 10.0, end_us: 90.0, parent: Some(0), job: 1 },
            Span {
                name: "structured.window",
                start_us: 20.0,
                end_us: 60.0,
                parent: Some(1),
                job: 1,
            },
        ];
        let own = self_times(&spans);
        assert!((own["pass"] - 20e-6).abs() < 1e-12);
        assert!((own["search.explore"] - 40e-6).abs() < 1e-12);
        let ledger = Ledger::from_spans(&spans, 100e-6, &["pass"]);
        assert!(ledger.gap() < 1e-9, "{ledger:?}");
        assert!((ledger.residual_s - 20e-6).abs() < 1e-12);
    }
}
