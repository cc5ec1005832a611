//! Lightweight result tables: named rows of named numeric columns, with
//! aligned console printing and CSV export.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// One experiment output table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title (figure/table id plus description).
    pub title: String,
    /// Column headers (not counting the leading row-label column).
    pub columns: Vec<String>,
    /// Rows: label plus one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "column count mismatch");
        self.rows.push((label.into(), values));
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let label_w =
            self.rows.iter().map(|(l, _)| l.len()).chain(std::iter::once(9)).max().unwrap_or(9);
        let col_w: Vec<usize> = self.columns.iter().map(|c| c.len().max(9)).collect();
        let _ = write!(out, "{:label_w$}", "");
        for (c, w) in self.columns.iter().zip(&col_w) {
            let _ = write!(out, "  {c:>w$}");
        }
        let _ = writeln!(out);
        for (label, vals) in &self.rows {
            let _ = write!(out, "{label:label_w$}");
            for (v, w) in vals.iter().zip(&col_w) {
                let _ = write!(out, "  {v:>w$.4}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Writes the table as CSV to `dir/<slug>.csv`, creating `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        let slug: String = self
            .title
            .chars()
            .map(|c| if c.is_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>()
            .join("_");
        let mut csv = String::new();
        let _ = write!(csv, "label");
        for c in &self.columns {
            let _ = write!(csv, ",{c}");
        }
        let _ = writeln!(csv);
        for (label, vals) in &self.rows {
            let _ = write!(csv, "{label}");
            for v in vals {
                let _ = write!(csv, ",{v}");
            }
            let _ = writeln!(csv);
        }
        fs::write(dir.join(format!("{slug}.csv")), csv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_everything() {
        let mut t = Table::new("Fig X: demo", &["a", "b"]);
        t.push("row1", vec![1.0, 2.0]);
        let s = t.render();
        assert!(s.contains("Fig X: demo"));
        assert!(s.contains("row1"));
        assert!(s.contains("1.0000"));
        assert!(s.contains("2.0000"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new("t", &["a"]);
        t.push("r", vec![1.0, 2.0]);
    }

    #[test]
    fn csv_round_trip() {
        let mut t = Table::new("Fig 99 csv test", &["x"]);
        t.push("r", vec![3.5]);
        let dir = std::env::temp_dir().join("oram_bench_csv_test");
        t.write_csv(&dir).unwrap();
        let body = std::fs::read_to_string(dir.join("fig_99_csv_test.csv")).unwrap();
        assert!(body.contains("label,x"));
        assert!(body.contains("r,3.5"));
    }
}
