//! Plain-text table rendering for experiment output.

use core::fmt;

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use nssd_bench::Table;
///
/// let mut t = Table::new(vec!["workload", "speedup"]);
/// t.row(vec!["exchange-1".into(), "1.82".into()]);
/// let s = t.to_string();
/// assert!(s.contains("exchange-1"));
/// assert!(s.contains("speedup"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, for programmatic consumption.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders as RFC-4180-ish CSV (quotes cells containing commas or
    /// quotes), for plotting pipelines.
    pub fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut s = String::new();
        s.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        s.push('\n');
        for r in &self.rows {
            s.push_str(&r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            s.push('\n');
        }
        s
    }

    /// Renders as Markdown (for EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        s.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for r in &self.rows {
            s.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        s
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let print_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, c) in cells.iter().enumerate() {
                write!(f, "{:<w$}  ", c, w = widths[i])?;
            }
            writeln!(f)
        };
        print_row(f, &self.headers)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        print_row(f, &rule)?;
        for r in &self.rows {
            print_row(f, r)?;
        }
        Ok(())
    }
}

/// Formats a ratio as `1.23x`.
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats nanoseconds as microseconds with two decimals.
pub fn fmt_us(ns: u64) -> String {
    format!("{:.2}us", ns as f64 / 1000.0)
}

/// Formats optional nanoseconds like [`fmt_us`], or `-` when absent.
pub(crate) fn fmt_opt_us(ns: Option<u64>) -> String {
    ns.map_or_else(|| "-".into(), fmt_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["xxxxxxxx".into(), "1".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("--------"));
    }

    #[test]
    fn markdown_shape() {
        let mut t = Table::new(vec!["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("| x | y |\n|---|---|\n"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(vec!["only"]);
        t.row(vec!["a".into(), "b".into()]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ratio(1.5), "1.50x");
        assert_eq!(fmt_us(1500), "1.50us");
        assert_eq!(fmt_opt_us(Some(1500)), "1.50us");
        assert_eq!(fmt_opt_us(None), "-");
        assert!(Table::new(vec!["h"]).is_empty());
    }
}
