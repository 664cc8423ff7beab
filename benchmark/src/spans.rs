//! In-memory span recorder, written out as Chrome trace-event JSON.
//!
//! Every phase of a cell (generation, preparation, the event loop, the
//! checkpoint, the report) is a span, in traced and untraced runs alike: the
//! spans *are* the phase timings, a handful per cell, so recording them costs
//! nothing measurable. Only a traced run writes them to a file, which opens
//! offline in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed interval: its name, bounds relative to the recorder's epoch,
/// the span open when it began, and counters attached to it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (a public call or phase).
    pub name: String,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// End, relative to the recorder's epoch (equal to `start` while open).
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Counters recorded at this boundary.
    pub args: Vec<(String, f64)>,
}

impl Span {
    /// Span duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Records nested spans against one monotonic epoch.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name: name.into(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
            args: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Attaches a counter to span `id`.
    pub fn arg(&mut self, id: usize, key: impl Into<String>, value: f64) {
        self.spans[id].args.push((key.into(), value));
    }

    /// Total seconds spent in spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.secs())
    }

    /// The recorded spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span on a
    /// single thread lane, so nesting renders as a flame stack; each event
    /// names its parent and carries its counters in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "  {{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"parent\": {}",
                json_str(&s.name),
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                match s.parent {
                    Some(p) => json_str(&self.spans[p].name),
                    None => "null".into(),
                }
            );
            for (k, v) in &s.args {
                let _ = write!(out, ", {}: {}", json_str(k), json_num(*v));
            }
            out.push_str("}}");
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

/// A JSON string literal (the names written here are plain ASCII, but
/// quotes and backslashes are escaped regardless).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatter
/// gives; non-finite values, which JSON cannot hold, become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_render() {
        let mut s = Spans::new();
        let outer = s.begin("cell");
        s.time("generate", || std::hint::black_box(1 + 1));
        s.arg(outer, "steps", 3.0);
        s.end(outer);
        assert_eq!(s.spans()[1].parent, Some(outer));
        assert!(s.secs("cell") >= s.secs("generate"));
        let json = s.chrome_json();
        assert!(json.contains("\"parent\": \"cell\""));
        assert!(json.contains("\"steps\": 3"));
    }
}
