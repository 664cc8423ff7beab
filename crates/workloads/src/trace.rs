//! Block I/O traces: container, statistics, and a plain-text codec.

use core::fmt;
use std::str::FromStr;

use nssd_host::{IoOp, IoRequest};
use nssd_sim::SimTime;

/// An ordered block-level I/O trace.
///
/// # Examples
///
/// ```
/// use nssd_host::{IoOp, IoRequest};
/// use nssd_sim::SimTime;
/// use nssd_workloads::Trace;
///
/// let mut t = Trace::new("demo");
/// t.push(IoRequest::new(IoOp::Write, 0, 4096, SimTime::ZERO));
/// t.push(IoRequest::new(IoOp::Read, 0, 4096, SimTime::from_us(10)));
/// assert_eq!(t.len(), 2);
/// assert!((t.read_fraction() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    name: String,
    records: Vec<IoRequest>,
}

impl Trace {
    /// Creates an empty named trace.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            records: Vec::new(),
        }
    }

    /// The trace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics if the record's arrival time precedes the previous record's
    /// (traces are time-ordered).
    pub fn push(&mut self, r: IoRequest) {
        if let Some(last) = self.records.last() {
            assert!(r.at >= last.at, "trace records must be time-ordered");
        }
        self.records.push(r);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records in arrival order.
    pub fn records(&self) -> &[IoRequest] {
        &self.records
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, IoRequest> {
        self.records.iter()
    }

    /// Fraction of requests that are reads (0 when empty).
    pub fn read_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.op.is_read()).count() as f64 / self.records.len() as f64
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.len as u64).sum()
    }

    /// Arrival span from first to last record.
    pub fn duration(&self) -> SimTime {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => b.at - a.at,
            _ => SimTime::ZERO,
        }
    }

    /// Highest byte address touched plus one (the footprint bound).
    pub fn footprint_bytes(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.offset + r.len as u64)
            .max()
            .unwrap_or(0)
    }

    /// Interleaves two traces in a fixed `a_run`/`b_run` round-robin
    /// pattern, ignoring timestamps (all records arrive at t = 0; intended
    /// for closed-loop driving, e.g. a 70/30 read/write mix built from two
    /// pure generators).
    ///
    /// # Panics
    ///
    /// Panics if both run lengths are zero.
    pub fn interleave(
        name: impl Into<String>,
        a: &Trace,
        a_run: usize,
        b: &Trace,
        b_run: usize,
    ) -> Trace {
        assert!(a_run + b_run > 0, "at least one run length must be nonzero");
        let mut out = Trace::new(name);
        let (ra, rb) = (a.records(), b.records());
        let (mut ia, mut ib) = (0usize, 0usize);
        while ia < ra.len() || ib < rb.len() {
            for _ in 0..a_run {
                if ia < ra.len() {
                    let mut r = ra[ia];
                    r.at = nssd_sim::SimTime::ZERO;
                    out.push(r);
                    ia += 1;
                }
            }
            for _ in 0..b_run {
                if ib < rb.len() {
                    let mut r = rb[ib];
                    r.at = nssd_sim::SimTime::ZERO;
                    out.push(r);
                    ib += 1;
                }
            }
        }
        out
    }

    /// Serializes to the plain-text trace format: a `# name` header line
    /// followed by `<ns> <R|W> <offset> <len>` lines.
    pub fn to_text(&self) -> String {
        let mut s = format!("# {}\n", self.name);
        for r in &self.records {
            s.push_str(&format!(
                "{} {} {} {}\n",
                r.at.as_ns(),
                r.op,
                r.offset,
                r.len
            ));
        }
        s
    }
}

impl FromStr for Trace {
    type Err = TraceParseError;

    /// Parses the plain-text format produced by [`Trace::to_text`].
    fn from_str(s: &str) -> Result<Self, TraceParseError> {
        let mut name = String::from("unnamed");
        let mut named = false;
        let mut records = Vec::new();
        for (idx, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                if !named {
                    name = rest.trim().to_string();
                    named = true;
                }
                continue;
            }
            let mut parts = line.split_whitespace();
            let mut next = |field: &'static str| {
                parts.next().ok_or(TraceParseError::MissingField {
                    line: idx + 1,
                    field,
                })
            };
            let at: u64 = next("time")?
                .parse()
                .map_err(|_| TraceParseError::BadNumber { line: idx + 1 })?;
            let op = match next("op")? {
                "R" | "r" => IoOp::Read,
                "W" | "w" => IoOp::Write,
                _ => return Err(TraceParseError::BadOp { line: idx + 1 }),
            };
            let offset: u64 = next("offset")?
                .parse()
                .map_err(|_| TraceParseError::BadNumber { line: idx + 1 })?;
            let len: u32 = next("len")?
                .parse()
                .map_err(|_| TraceParseError::BadNumber { line: idx + 1 })?;
            if len == 0 {
                return Err(TraceParseError::BadNumber { line: idx + 1 });
            }
            records.push(IoRequest::new(op, offset, len, SimTime::from_ns(at)));
        }
        records.sort_by_key(|r| r.at);
        let mut t = Trace::new(name);
        for r in records {
            t.push(r);
        }
        Ok(t)
    }
}

/// Errors from parsing the plain-text trace format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceParseError {
    /// A line had too few fields.
    MissingField {
        /// 1-based line number.
        line: usize,
        /// The missing field's name.
        field: &'static str,
    },
    /// A numeric field failed to parse or was zero where nonzero is needed.
    BadNumber {
        /// 1-based line number.
        line: usize,
    },
    /// The op field was not `R`/`W`.
    BadOp {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::MissingField { line, field } => {
                write!(f, "line {line}: missing field `{field}`")
            }
            TraceParseError::BadNumber { line } => write!(f, "line {line}: invalid number"),
            TraceParseError::BadOp { line } => write!(f, "line {line}: op must be R or W"),
        }
    }
}

impl std::error::Error for TraceParseError {}

/// Consumes the trace into its arrival-ordered record list without
/// copying: the zero-clone path into an engine for traces generated per run.
impl From<Trace> for Vec<IoRequest> {
    fn from(trace: Trace) -> Self {
        trace.records
    }
}

/// Copies the records, for a trace that feeds many runs.
impl From<&Trace> for Vec<IoRequest> {
    fn from(trace: &Trace) -> Self {
        trace.records.clone()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a IoRequest;
    type IntoIter = std::slice::Iter<'a, IoRequest>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("sample");
        t.push(IoRequest::new(IoOp::Write, 0, 16384, SimTime::ZERO));
        t.push(IoRequest::new(
            IoOp::Read,
            16384,
            32768,
            SimTime::from_us(5),
        ));
        t.push(IoRequest::new(IoOp::Read, 0, 16384, SimTime::from_us(9)));
        t
    }

    #[test]
    fn stats() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!((t.read_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.total_bytes(), 65536);
        assert_eq!(t.duration(), SimTime::from_us(9));
        assert_eq!(t.footprint_bytes(), 49152);
    }

    #[test]
    fn vec_from_trace_preserves_order_and_content() {
        let t = sample();
        let copied = Vec::from(&t);
        assert_eq!(copied, t.records());
        assert_eq!(Vec::from(t), copied);
    }

    #[test]
    fn text_roundtrip() {
        let t = sample();
        let text = t.to_text();
        let back: Trace = text.parse().unwrap();
        assert_eq!(back, t);
        assert_eq!(back.name(), "sample");
    }

    #[test]
    fn parse_tolerates_comments_and_blank_lines() {
        let text = "# demo\n\n# comment\n100 R 0 4096\n";
        let t: Trace = text.parse().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.name(), "demo");
    }

    #[test]
    fn parse_sorts_out_of_order_records() {
        let text = "# x\n200 R 0 512\n100 W 0 512\n";
        let t: Trace = text.parse().unwrap();
        assert_eq!(t.records()[0].op, IoOp::Write);
    }

    #[test]
    fn parse_errors_are_located() {
        let bad: Result<Trace, _> = "# x\n100 Q 0 512\n".parse();
        assert_eq!(bad.unwrap_err(), TraceParseError::BadOp { line: 2 });
        let bad: Result<Trace, _> = "100 R 0\n".parse();
        assert!(matches!(
            bad.unwrap_err(),
            TraceParseError::MissingField {
                line: 1,
                field: "len"
            }
        ));
        let bad: Result<Trace, _> = "abc R 0 512\n".parse();
        assert_eq!(bad.unwrap_err(), TraceParseError::BadNumber { line: 1 });
    }

    #[test]
    fn interleave_round_robins_and_exhausts_both() {
        let mut a = Trace::new("a");
        let mut b = Trace::new("b");
        for i in 0..7u64 {
            a.push(IoRequest::new(
                IoOp::Read,
                i * 512,
                512,
                SimTime::from_ns(i),
            ));
        }
        for i in 0..3u64 {
            b.push(IoRequest::new(
                IoOp::Write,
                i * 512,
                512,
                SimTime::from_ns(i),
            ));
        }
        let m = Trace::interleave("mix", &a, 2, &b, 1);
        assert_eq!(m.len(), 10);
        // Pattern: R R W R R W R R W R (b exhausted after 3 rounds).
        let ops: String = m
            .iter()
            .map(|r| if r.op.is_read() { 'R' } else { 'W' })
            .collect();
        assert_eq!(ops, "RRWRRWRRWR");
        assert!(m.iter().all(|r| r.at == SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "run length")]
    fn interleave_rejects_zero_runs() {
        let t = Trace::new("x");
        Trace::interleave("m", &t, 0, &t, 0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_rejected() {
        let mut t = Trace::new("x");
        t.push(IoRequest::new(IoOp::Read, 0, 512, SimTime::from_us(5)));
        t.push(IoRequest::new(IoOp::Read, 0, 512, SimTime::ZERO));
    }
}
