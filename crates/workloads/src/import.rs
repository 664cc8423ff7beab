//! Importers for public block-trace formats.
//!
//! The paper's traces come from enterprise collections that ship in
//! CSV-like formats; the most common publicly-available equivalent is the
//! MSR Cambridge format, supported here so users can replay real traces:
//!
//! ```text
//! Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//! 128166372003061629,usr,0,Read,7014609920,24576,41286
//! ```
//!
//! `Timestamp` is a Windows FILETIME (100 ns ticks since 1601); offsets and
//! sizes are bytes. Timestamps are rebased so the first record arrives at
//! t = 0.

use core::fmt;

use nssd_host::{IoOp, IoRequest};
use nssd_sim::SimTime;

use crate::Trace;

/// Errors from MSR-format parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsrParseError {
    /// A line had fewer than 6 comma-separated fields.
    MissingFields {
        /// 1-based line number.
        line: usize,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// Field name.
        field: &'static str,
    },
    /// The Type field was neither `Read` nor `Write`.
    BadType {
        /// 1-based line number.
        line: usize,
        /// The offending value.
        value: String,
    },
    /// No records were found.
    Empty,
}

impl fmt::Display for MsrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsrParseError::MissingFields { line } => {
                write!(f, "line {line}: expected at least 6 comma-separated fields")
            }
            MsrParseError::BadNumber { line, field } => {
                write!(f, "line {line}: invalid number in field `{field}`")
            }
            MsrParseError::BadType { line, value } => {
                write!(f, "line {line}: type must be Read or Write, got `{value}`")
            }
            MsrParseError::Empty => f.write_str("no records in MSR input"),
        }
    }
}

impl std::error::Error for MsrParseError {}

/// Options controlling an MSR import.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MsrImportOptions {
    /// Keep only this disk number (`None` = all disks, offsets as-is).
    pub disk: Option<u32>,
    /// Wrap offsets into this many bytes (`None` = keep raw offsets; set
    /// this to the simulated device's logical capacity).
    pub wrap_bytes: Option<u64>,
    /// Cap the number of records imported.
    pub max_records: Option<usize>,
}

/// Parses MSR Cambridge CSV text into a [`Trace`].
///
/// # Errors
///
/// Returns [`MsrParseError`] on malformed input or when nothing matches
/// the filter.
///
/// # Examples
///
/// ```
/// use nssd_workloads::{import_msr, MsrImportOptions};
///
/// let csv = "\
/// 128166372003061629,usr,0,Read,7014609920,24576,41286
/// 128166372005000000,usr,0,Write,1048576,8192,1000";
/// let trace = import_msr(csv, "usr-0", MsrImportOptions::default())?;
/// assert_eq!(trace.len(), 2);
/// // First record rebased to t=0; second ~193.8 µs later.
/// assert_eq!(trace.records()[0].at.as_ns(), 0);
/// # Ok::<(), nssd_workloads::MsrParseError>(())
/// ```
pub fn import_msr(
    text: &str,
    name: &str,
    options: MsrImportOptions,
) -> Result<Trace, MsrParseError> {
    let mut records = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Skip a header row if present.
        if idx == 0 && line.to_ascii_lowercase().starts_with("timestamp") {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 6 {
            return Err(MsrParseError::MissingFields { line: line_no });
        }
        let ticks: u64 = fields[0]
            .trim()
            .parse()
            .map_err(|_| MsrParseError::BadNumber {
                line: line_no,
                field: "Timestamp",
            })?;
        let disk: u32 = fields[2]
            .trim()
            .parse()
            .map_err(|_| MsrParseError::BadNumber {
                line: line_no,
                field: "DiskNumber",
            })?;
        if let Some(want) = options.disk {
            if disk != want {
                continue;
            }
        }
        let op = match fields[3].trim() {
            t if t.eq_ignore_ascii_case("read") => IoOp::Read,
            t if t.eq_ignore_ascii_case("write") => IoOp::Write,
            other => {
                return Err(MsrParseError::BadType {
                    line: line_no,
                    value: other.to_string(),
                })
            }
        };
        let offset: u64 = fields[4]
            .trim()
            .parse()
            .map_err(|_| MsrParseError::BadNumber {
                line: line_no,
                field: "Offset",
            })?;
        // A request length must fit a `u32`; a larger size is malformed.
        let size: u32 = fields[5]
            .trim()
            .parse()
            .map_err(|_| MsrParseError::BadNumber {
                line: line_no,
                field: "Size",
            })?;
        if size == 0 {
            continue; // zero-length records occur in some collections
        }
        records.push((ticks, line_no, op, offset, size));
        if let Some(max) = options.max_records {
            if records.len() >= max {
                break;
            }
        }
    }
    if records.is_empty() {
        return Err(MsrParseError::Empty);
    }
    records.sort_by_key(|r| r.0);
    let t0 = records[0].0;
    let mut trace = Trace::new(name);
    for (ticks, line, op, mut offset, size) in records {
        // FILETIME ticks are 100 ns; a timestamp too far past the first
        // one to fit in nanoseconds is malformed.
        let ns = (ticks - t0)
            .checked_mul(100)
            .ok_or(MsrParseError::BadNumber {
                line,
                field: "Timestamp",
            })?;
        if let Some(wrap) = options.wrap_bytes {
            offset %= wrap.saturating_sub(u64::from(size)).max(1);
        }
        trace.push(IoRequest::new(op, offset, size, SimTime::from_ns(ns)));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
128166372003061629,usr,0,Read,7014609920,24576,41286
128166372003500000,usr,1,Write,4096,4096,900
128166372005000000,usr,0,Write,1048576,8192,1000
128166372004000000,usr,0,Read,2097152,4096,800";

    #[test]
    fn parses_and_rebases_time() {
        let t = import_msr(SAMPLE, "usr", MsrImportOptions::default()).unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.records()[0].at, SimTime::ZERO);
        // Sorted by timestamp: the out-of-order read lands third.
        assert_eq!(t.records()[2].offset, 2097152);
        // 100ns ticks: (5000000-3061629)... delta of record 2 vs 1.
        assert!(t.duration().as_ns() > 0);
    }

    #[test]
    fn disk_filter() {
        let t = import_msr(
            SAMPLE,
            "usr-0",
            MsrImportOptions {
                disk: Some(0),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(t.len(), 3);
        let t1 = import_msr(
            SAMPLE,
            "usr-1",
            MsrImportOptions {
                disk: Some(1),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(t1.len(), 1);
    }

    #[test]
    fn wrap_confines_offsets() {
        let t = import_msr(
            SAMPLE,
            "usr",
            MsrImportOptions {
                wrap_bytes: Some(1 << 20),
                ..Default::default()
            },
        )
        .unwrap();
        for r in &t {
            assert!(r.offset + r.len as u64 <= (1 << 20) + r.len as u64);
            assert!(r.offset < 1 << 20);
        }
    }

    #[test]
    fn max_records_caps() {
        let t = import_msr(
            SAMPLE,
            "usr",
            MsrImportOptions {
                max_records: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn header_and_comments_skipped() {
        let text =
            format!("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n# c\n{SAMPLE}");
        let t = import_msr(&text, "usr", MsrImportOptions::default()).unwrap();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn errors_are_located() {
        assert_eq!(
            import_msr("1,h,0,Flush,0,512,1", "x", Default::default()),
            Err(MsrParseError::BadType {
                line: 1,
                value: "Flush".into()
            })
        );
        assert_eq!(
            import_msr("abc,h,0,Read,0,512,1", "x", Default::default()),
            Err(MsrParseError::BadNumber {
                line: 1,
                field: "Timestamp"
            })
        );
        assert_eq!(
            import_msr("1,h,0,Read\n", "x", Default::default()),
            Err(MsrParseError::MissingFields { line: 1 })
        );
        assert_eq!(
            import_msr("", "x", Default::default()),
            Err(MsrParseError::Empty)
        );
    }

    #[test]
    fn oversized_record_is_refused_not_clamped() {
        let text = "1,h,0,Read,0,512,1\n2,h,0,Write,0,4294967296,1";
        assert_eq!(
            import_msr(text, "x", Default::default()),
            Err(MsrParseError::BadNumber {
                line: 2,
                field: "Size"
            })
        );
        let t = import_msr("1,h,0,Read,0,4294967295,1", "x", Default::default()).unwrap();
        assert_eq!(t.records()[0].len, u32::MAX);
    }

    #[test]
    fn timestamp_overflowing_nanoseconds_is_located() {
        // Record 3 is the earliest, so the far timestamp on line 2 is the
        // one whose offset overflows once scaled to nanoseconds.
        let text = "5,h,0,Read,0,512,1\n18446744073709551615,h,0,Read,0,512,1\n0,h,0,Read,0,512,1";
        assert_eq!(
            import_msr(text, "x", Default::default()),
            Err(MsrParseError::BadNumber {
                line: 2,
                field: "Timestamp"
            })
        );
    }

    #[test]
    fn missing_fields_message_matches_the_check() {
        // Six fields are enough (ResponseTime is optional); five are not.
        assert!(import_msr("1,h,0,Read,0,512", "x", Default::default()).is_ok());
        let err = import_msr("1,h,0,Read,0", "x", Default::default()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 1: expected at least 6 comma-separated fields"
        );
    }
}
