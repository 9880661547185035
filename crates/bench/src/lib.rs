//! The experiment harness: result tables and their TSV goldens, the
//! paper's figures that have no spec ([`figures`], written by the
//! `figures` binary), and the TSV diff behind golden mismatches.

#![warn(missing_docs)]

pub mod figures;

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use cimloop_core::CoreError;
use cimloop_dse::{DesignReport, DesignSpace, Explorer};
use cimloop_workload::Workload;

/// Whether a write to stdout has failed: its reader has gone.
static STDOUT_GONE: AtomicBool = AtomicBool::new(false);

/// Writes `text` to stdout as given; every line the tables, the `figures`
/// binary and `cimloop` print goes through here (a line through
/// [`outln!`]). `print!` panics when the reader of stdout has gone
/// (`cimloop … | head -1`), which in a daemon fails the request that
/// printed and in a batch run stops it before its TSV is written. This
/// stops printing at the first failed write instead, so a daemon keeps
/// serving and a batch run finishes with its exit code.
pub fn print_stdout(text: std::fmt::Arguments<'_>) {
    if STDOUT_GONE.load(Ordering::Relaxed) {
        return;
    }
    let mut stdout = io::stdout().lock();
    let written = stdout.write_fmt(text).and_then(|()| stdout.flush());
    if written.is_err() {
        STDOUT_GONE.store(true, Ordering::Relaxed);
    }
}

/// `println!` through [`print_stdout`]: one line to stdout, and no panic
/// once its reader has gone.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::print_stdout(::std::format_args!("{}\n", ::std::format_args!($($arg)*)))
    };
}

/// A simple experiment table: prints aligned columns to stdout and writes a
/// TSV copy into `results/`, where the committed copies are goldens.
#[derive(Debug)]
pub struct ExperimentTable {
    name: String,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Starts a table for experiment `name` (e.g., `fig07`).
    pub fn new(name: &str, title: &str, headers: &[&str]) -> Self {
        ExperimentTable {
            name: name.to_owned(),
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Prints the table and writes `results/<name>.tsv`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write, naming the file.
    pub fn finish(&self) -> io::Result<()> {
        self.finish_to(&results_dir())
    }

    fn print(&self) {
        outln!("\n=== {} — {} ===", self.name, self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let print_row = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect();
            outln!("  {}", line.join("  "));
        };
        print_row(&self.headers);
        for row in &self.rows {
            print_row(row);
        }
    }

    /// The table as TSV bytes — exactly what [`Self::finish`] writes to
    /// `results/<name>.tsv`. Exposed so alternative front-ends (the
    /// `cimloop` CLI) and tests can produce/compare the same bytes
    /// without touching the filesystem.
    pub fn to_tsv(&self) -> String {
        let mut tsv = String::new();
        tsv.push_str(&self.headers.join("\t"));
        tsv.push('\n');
        for row in &self.rows {
            tsv.push_str(&row.join("\t"));
            tsv.push('\n');
        }
        tsv
    }

    /// The table's name (the TSV file stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Prints the table and writes `<dir>/<name>.tsv`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write, naming the file.
    pub fn finish_to(&self, dir: &Path) -> io::Result<()> {
        self.print();
        let path = write_tsv(dir, &self.name, self.to_tsv().as_bytes())?;
        outln!("  [written {}]", path.display());
        Ok(())
    }
}

/// Writes `tsv` to `<dir>/<name>.tsv`, creating `dir` first, and returns
/// the file's path. Every result TSV, batch or served, is written here.
///
/// # Errors
///
/// Returns the I/O error of creating `dir` or writing the file, with the
/// file's path in its message.
pub fn write_tsv(dir: &Path, name: &str, tsv: &[u8]) -> io::Result<PathBuf> {
    let path = dir.join(format!("{name}.tsv"));
    fs::create_dir_all(dir)
        .and_then(|()| fs::write(&path, tsv))
        .map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))?;
    Ok(path)
}

/// Parses a result TSV into a reflected [`cimloop_spec::Value`]:
/// `{ columns: [..], rows: [ { column: cell, .. }, .. ] }`, with each
/// row keyed by its column header so a structural diff reports the
/// changed field by name (`rows[3].energy (J)`), not by byte offset.
/// Repeated headers (the fig07/fig08 `err` columns) disambiguate as
/// `err`, `err#2`, ….
pub fn tsv_value(text: &str) -> cimloop_spec::Value {
    use cimloop_spec::Value;
    let mut lines = text.lines();
    let headers: Vec<String> = lines
        .next()
        .map(|line| line.split('\t').map(str::to_owned).collect())
        .unwrap_or_default();
    let mut keys: Vec<String> = Vec::with_capacity(headers.len());
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for header in &headers {
        let n = counts.entry(header.as_str()).or_insert(0);
        *n += 1;
        keys.push(if *n == 1 {
            header.clone()
        } else {
            format!("{header}#{n}")
        });
    }
    let mut value = Value::map();
    value.insert(
        "columns",
        Value::List(headers.iter().map(|h| Value::scalar(h)).collect()),
    );
    let mut rows = Vec::new();
    for line in lines {
        let mut row = Value::map();
        for (i, cell) in line.split('\t').enumerate() {
            let key = keys
                .get(i)
                .cloned()
                .unwrap_or_else(|| format!("column{}", i + 1));
            row.insert(&key, Value::scalar(cell));
        }
        rows.push(row);
    }
    value.insert("rows", Value::List(rows));
    value
}

/// A field-level structural report of what changed between two result
/// TSVs — the diagnostic behind golden mismatches: instead of "bytes
/// differ", each line names the row, the column, and both values.
/// Returns an empty string when the tables are structurally identical.
pub fn diff_tsv(old: &str, new: &str) -> String {
    cimloop_spec::render_diff(&cimloop_spec::diff(&tsv_value(old), &tsv_value(new)))
}

/// Explores `space` on `workload` and returns *every* evaluated design's
/// report in id order (not just the Pareto front) — the shape of a
/// row-per-design table. Small grids only; big sweeps should stream
/// through [`Explorer::explore`] instead.
///
/// # Errors
///
/// Propagates exploration errors.
pub fn explore_collect(
    explorer: &Explorer,
    space: &DesignSpace,
    workload: &Workload,
) -> Result<Vec<DesignReport>, CoreError> {
    let rows = Mutex::new(Vec::new());
    explorer.explore_with(space, workload, |report| {
        rows.lock()
            .expect("rows lock poisoned")
            .push(report.clone());
    })?;
    let mut rows = rows.into_inner().expect("rows lock poisoned");
    rows.sort_by_key(|r| r.point.id());
    Ok(rows)
}

/// The `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Formats a float with 3 significant-ish decimals.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Relative error `|model − reference| / reference`.
pub fn rel_err(model: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        return 0.0;
    }
    (model - reference).abs() / reference.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = ExperimentTable::new("test_table", "unit test", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.finish().unwrap();
        let path = results_dir().join("test_table.tsv");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("a\tb"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(123.4), "123");
        assert_eq!(fmt(1.234), "1.23");
        assert_eq!(fmt(0.1234), "0.1234");
        assert_eq!(pct(0.123), "12.3%");
        assert!((rel_err(11.0, 10.0) - 0.1).abs() < 1e-12);
        assert_eq!(rel_err(1.0, 0.0), 0.0);
    }

    #[test]
    fn tsv_diff_names_the_mutated_cell() {
        let old = "layer\tenergy (J)\nconv1\t1.5e-3\nconv2\t2.5e-3\n";
        let new = "layer\tenergy (J)\nconv1\t1.5e-3\nconv2\t2.6e-3\n";
        assert_eq!(diff_tsv(old, old), "");
        let report = diff_tsv(old, new);
        assert!(report.contains("rows[1].energy (J)"), "{report}");
        assert!(report.contains("2.5e-3"), "{report}");
        assert!(report.contains("2.6e-3"), "{report}");
        // Unchanged cells stay out of the report.
        assert!(!report.contains("conv1"), "{report}");
    }

    #[test]
    fn tsv_value_disambiguates_repeated_headers() {
        let old = "macro\terr\terr\nA\t1%\t2%\n";
        let new = "macro\terr\terr\nA\t1%\t3%\n";
        let report = diff_tsv(old, new);
        assert!(report.contains("rows[0].err#2"), "{report}");
        assert!(!report.contains("rows[0].err:"), "{report}");
    }
}
