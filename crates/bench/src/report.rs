//! Aligned console tables and CSV files for experiment output.
//!
//! Every experiment binary prints one or more [`Table`]s and mirrors them
//! as CSV under `target/experiments/` so plots can be regenerated without
//! re-running simulations. The JSON artifacts live beside their records:
//! traces and run summaries in `np_engine::metrics`, the `BENCH_*.json`
//! perf trajectories in `np_sweep::report`.

use std::fmt::Display;
use std::io::Write;
use std::path::{Path, PathBuf};

use np_sweep::report::workspace_root;

/// A simple column-aligned table.
///
/// # Example
///
/// ```
/// use np_bench::report::Table;
///
/// let mut t = Table::new("demo", &["n", "rounds"]);
/// t.push_row(&[&1024, &42.5]);
/// let text = t.render();
/// assert!(text.contains("rounds"));
/// assert!(t.to_csv().starts_with("n,rounds\n"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends one row; each cell is rendered with `Display`.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the number of columns.
    pub fn push_row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Renders the table as CSV (header + rows, comma-separated; cells
    /// containing commas or quotes are quoted).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| csv_cell(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(
                &row.iter()
                    .map(|c| csv_cell(c))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to `dir/<name>.csv`, creating the
    /// directory if needed, and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or the write.
    pub fn save_csv(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }

    /// Convenience wrapper: prints the table and saves it under
    /// [`experiments_dir`]`()/<name>.csv`, reporting the path on stdout.
    /// I/O failures are reported but not fatal (the console output is the
    /// primary artifact).
    pub fn emit(&self, name: &str) {
        self.print();
        match self.save_csv(&experiments_dir(), name) {
            Ok(path) => println!("[csv] {}\n", path.display()),
            Err(e) => println!("[csv] write failed: {e}\n"),
        }
    }
}

fn csv_cell(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The standard output directory for experiment CSVs:
/// `target/experiments/` relative to the workspace root (falls back to the
/// current directory's `target/experiments`).
pub fn experiments_dir() -> PathBuf {
    workspace_root().join("target").join("experiments")
}

/// Formats an `f64` with a sensible number of digits for tables.
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_columns_panics() {
        let _ = Table::new("t", &[]);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn wrong_row_width_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(&[&1]);
    }

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "v"]);
        t.push_row(&[&"x", &1]);
        t.push_row(&[&"longer", &22]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        let lines: Vec<&str> = r.lines().collect();
        // Title, header, separator, two rows.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.title(), "demo");
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new("t", &["a"]);
        t.push_row(&[&"plain"]);
        t.push_row(&[&"with,comma"]);
        t.push_row(&[&"with\"quote"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
        assert!(csv.starts_with("a\n"));
    }

    #[test]
    fn save_csv_roundtrip() {
        let dir = std::env::temp_dir().join("np_bench_report_test");
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(&[&1, &2]);
        let path = t.save_csv(&dir, "unit").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fmt_f64_ranges() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.12345), "0.1235");
        assert_eq!(fmt_f64(6.54321), "6.54");
        assert_eq!(fmt_f64(123.456), "123.5");
        assert_eq!(fmt_f64(-0.5), "-0.5000");
    }

    #[test]
    fn experiments_dir_ends_correctly() {
        let d = experiments_dir();
        assert!(d.ends_with("target/experiments"));
    }
}
