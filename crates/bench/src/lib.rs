//! Shared harness utilities for the experiment binaries in `src/bin`
//! (one per table/figure of the paper) and the criterion benches.

#![warn(missing_docs)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use cimloop_core::{CoreError, EnergyTableCache, NoiseSpec};
use cimloop_dse::{DesignReport, DesignSpace, Explorer};
use cimloop_macros::{base_macro, ArrayMacro};
use cimloop_sim::{mc_layer, McConfig};
use cimloop_workload::{models, Workload};

/// Freezes a macro's calibration: computes the energy/latency scales at the
/// *published default* configuration once and bakes them in, so design
/// sweeps explore variations around the calibrated design instead of
/// re-anchoring every variant to the same headline number (which would
/// erase the differences under study).
pub fn frozen(m: &ArrayMacro) -> ArrayMacro {
    m.frozen()
        .expect("calibration of the default configuration")
}

/// A simple experiment table: prints aligned columns to stdout and writes a
/// TSV copy into `results/` so EXPERIMENTS.md can reference stable outputs.
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
        println!("\n=== {} — {} ===", self.name, self.title);
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
            println!("  {}", line.join("  "));
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
        println!("  [written {}]", path.display());
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

/// The cell-variation sigmas of the `fig_mc_accuracy` validation grid,
/// the same levels `examples/specs/fig09_noise.yaml` sweeps
/// (0 = ideal programming; 0.20 = poorly-programmed NVM).
pub const NOISE_VARIATIONS: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// The ADC resolutions of the `fig_mc_accuracy` validation grid (a
/// subset of the `adc_bits` axis of `examples/specs/fig09_noise.yaml`:
/// the MC engine resamples every cell, so the grid trades breadth for
/// trials).
pub const MC_ACCURACY_ADC_BITS: [u32; 2] = [8, 6];

/// Monte-Carlo trials per `fig_mc_accuracy` grid cell — enough for
/// ~0.1 dB standard error on the empirical SNR, and fixed so the golden
/// is byte-stable.
pub const MC_ACCURACY_TRIALS: u64 = 16_384;

/// One cell of the `fig_mc_accuracy` validation grid: the analytic SNR
/// prediction next to the Monte-Carlo empirical measurement of the same
/// macro configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McAccuracyRow {
    /// Relative cell programming-variation sigma.
    pub variation: f64,
    /// Output ADC resolution, bits.
    pub adc_bits: u32,
    /// The analytic (`NoiseAnalysis`) SNR prediction, dB.
    pub analytic_snr_db: f64,
    /// The sampled (noise-injection) empirical SNR, dB.
    pub mc_snr_db: f64,
    /// `|analytic − empirical|`, dB.
    pub deviation_db: f64,
    /// Fraction of sampled readouts that survive the ADC bit-exactly.
    pub task_accuracy: f64,
}

/// The `fig_mc_accuracy` validation grid: the analytic accuracy chain
/// cross-checked by repeated noise-injected inference on the 64×64 ReRAM
/// base macro driving a matched matrix-vector layer. The Monte-Carlo
/// side runs [`MC_ACCURACY_TRIALS`] trials at the pinned default seed,
/// so the grid — like the analytic side — is deterministic and
/// `results/fig_mc_accuracy.tsv` is a golden. The agreement contract
/// (tolerance, seeding) is documented in `docs/accuracy.md`.
pub fn mc_accuracy_rows() -> Vec<McAccuracyRow> {
    let cache = EnergyTableCache::new();
    let cfg = McConfig::new(MC_ACCURACY_TRIALS);
    let mut rows = Vec::new();
    for &variation in &NOISE_VARIATIONS {
        for &adc_bits in &MC_ACCURACY_ADC_BITS {
            let m = base_macro()
                .uncalibrated()
                .with_array(64, 64)
                .with_adc_bits(adc_bits)
                .with_noise(NoiseSpec::new().with_cell_variation(variation));
            let evaluator = m.evaluator().expect("evaluator");
            let layer = models::mvm(m.rows(), m.cols()).layers()[0].clone();
            let report = evaluator
                .evaluate_layer_cached(&layer, &m.representation(), &cache)
                .expect("evaluation");
            let analytic = report
                .noise()
                .expect("analog readout always carries a noise report");
            let empirical = mc_layer(&m, &layer, &cfg).expect("monte-carlo run");
            rows.push(McAccuracyRow {
                variation,
                adc_bits,
                analytic_snr_db: analytic.snr_db,
                mc_snr_db: empirical.snr_db,
                deviation_db: (analytic.snr_db - empirical.snr_db).abs(),
                task_accuracy: empirical.task_accuracy,
            });
        }
    }
    rows
}

/// Explores `space` on `workload` and returns *every* evaluated design's
/// report in id order (not just the Pareto front) — the shape the figure
/// binaries need for their row-per-design tables. Small grids only; big
/// sweeps should stream through [`Explorer::explore`] instead.
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
