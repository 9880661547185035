//! The paper's qualitative claims, asserted on the committed goldens.
//! `golden_files.rs` pins those bytes, and `cimloop evaluate
//! examples/specs/<name>.yaml` regenerates them, so these checks read
//! the TSVs instead of re-running the experiments.
//!
//! - `fig09_noise`: accuracy degrades monotonically as ADC resolution
//!   drops, and degrades faster (further below the noise-free curve) at
//!   higher variation.
//! - `fig12`: ResNet18's lowest-energy output reuse is 3 columns per
//!   output, because its 3×3 kernels map at high utilization.
//! - `fig02b`: co-optimizing circuits and architecture ties optimizing
//!   the architecture alone within 2%, and beats both 128×128 designs.

use cimloop_spec::Value;

/// The rows of `results/<name>`, each a map from column header to cell.
fn golden_rows(name: &str) -> Vec<Value> {
    let path = cimloop_bench::results_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden {} must exist: {e}", path.display()));
    cimloop_bench::tsv_value(&text)
        .get("rows")
        .and_then(Value::items)
        .expect("a parsed TSV has a row list")
        .to_vec()
}

fn text<'a>(row: &'a Value, column: &str) -> &'a str {
    row.get(column)
        .and_then(Value::raw)
        .unwrap_or_else(|| panic!("row has no `{column}` cell: {row:?}"))
}

fn num(row: &Value, column: &str) -> f64 {
    let cell = text(row, column);
    cell.parse()
        .unwrap_or_else(|e| panic!("`{column}` cell {cell:?} is not a number: {e}"))
}

/// One cell of the `fig09_noise` grid.
struct NoiseCell {
    variation: f64,
    adc_bits: u32,
    snr_db: f64,
    enob: f64,
}

fn noise_grid() -> Vec<NoiseCell> {
    golden_rows("fig09_noise.tsv")
        .iter()
        .map(|row| NoiseCell {
            variation: num(row, "variation"),
            adc_bits: num(row, "ADC bits") as u32,
            snr_db: num(row, "SNR (dB)"),
            enob: num(row, "ENOB"),
        })
        .collect()
}

/// The distinct values of one grid axis, in sweep order.
fn axis<T: PartialEq>(grid: &[NoiseCell], key: impl Fn(&NoiseCell) -> T) -> Vec<T> {
    let mut values = Vec::new();
    for value in grid.iter().map(key) {
        if !values.contains(&value) {
            values.push(value);
        }
    }
    values
}

fn snr(grid: &[NoiseCell], variation: f64, bits: u32) -> f64 {
    grid.iter()
        .find(|c| c.variation == variation && c.adc_bits == bits)
        .expect("grid covers every (variation, bits) cell")
        .snr_db
}

#[test]
fn accuracy_degrades_monotonically_as_adc_resolution_drops() {
    let grid = noise_grid();
    let adc_bits = axis(&grid, |c| c.adc_bits);
    for variation in axis(&grid, |c| c.variation) {
        for pair in adc_bits.windows(2) {
            let (hi, lo) = (pair[0], pair[1]);
            assert!(
                snr(&grid, variation, hi) >= snr(&grid, variation, lo) - 1e-9,
                "variation {variation}: SNR rose when dropping {hi}b -> {lo}b"
            );
        }
        // And the degradation across the whole sweep is real, not flat.
        assert!(
            snr(&grid, variation, adc_bits[0])
                > snr(&grid, variation, adc_bits[adc_bits.len() - 1]) + 3.0,
            "variation {variation}: dropping 12b -> 4b should cost several dB"
        );
    }
}

#[test]
fn accuracy_degrades_faster_at_higher_variation() {
    let grid = noise_grid();
    let variations = axis(&grid, |c| c.variation);
    let adc_bits = axis(&grid, |c| c.adc_bits);
    let ideal = variations[0];
    let noisy = variations[variations.len() - 1];
    for &bits in &adc_bits {
        let baseline = snr(&grid, ideal, bits);
        let mut last_loss = 0.0;
        for &variation in &variations[1..] {
            // Degradation relative to the noise-free curve grows with
            // variation at every resolution: noisier cells always sit
            // further below the quantization-limited ceiling.
            let loss = baseline - snr(&grid, variation, bits);
            assert!(
                loss > last_loss - 1e-9,
                "at {bits}b, loss {loss:.3} dB did not grow past {last_loss:.3} at variation {variation}"
            );
            last_loss = loss;
        }
        // The highest variation level must cost a measurable amount even
        // at this resolution.
        assert!(
            last_loss > 0.1,
            "at {bits}b, {noisy:.2} variation cost only {last_loss:.3} dB"
        );
    }
    // Variation matters most where quantization is not the bottleneck:
    // the gap to the noise-free curve is wider at the highest resolution
    // than at the lowest.
    let hi_bits = adc_bits[0];
    let lo_bits = adc_bits[adc_bits.len() - 1];
    let gap_hi = snr(&grid, ideal, hi_bits) - snr(&grid, noisy, hi_bits);
    let gap_lo = snr(&grid, ideal, lo_bits) - snr(&grid, noisy, lo_bits);
    assert!(
        gap_hi > gap_lo,
        "variation gap should widen with resolution: {gap_hi:.3} vs {gap_lo:.3} dB"
    );
}

#[test]
fn enob_never_exceeds_the_converter_resolution() {
    for c in noise_grid() {
        assert!(
            c.enob <= f64::from(c.adc_bits) + 0.5,
            "{}b ADC reported {:.2} effective bits",
            c.adc_bits,
            c.enob
        );
        assert!(c.enob >= 0.0);
        assert!(c.snr_db.is_finite());
    }
}

#[test]
fn resnet18_favors_three_column_output_reuse() {
    let rows = golden_rows("fig12.tsv");
    let best = rows
        .iter()
        .filter(|row| text(row, "workload") == "ResNet18")
        .min_by(|a, b| num(a, "total (norm)").total_cmp(&num(b, "total (norm)")))
        .expect("fig12 has ResNet18 rows");
    assert_eq!(
        text(best, "columns/output"),
        "3",
        "ResNet18's lowest-energy grouping moved: {best:?}"
    );
}

#[test]
fn co_optimization_ties_architecture_and_beats_both_128x128_designs() {
    let rows = golden_rows("fig02b.tsv");
    let energy = |label: &str| {
        rows.iter()
            .find(|row| text(row, "configuration") == label)
            .map(|row| num(row, "J"))
            .unwrap_or_else(|| panic!("fig02b has no `{label}` row"))
    };
    let co = energy("Co-Optimize");
    let arch = energy("Optimize Arch.");
    assert!(
        (co - arch).abs() <= 0.02 * arch,
        "Co-Optimize ({co:.3e} J) is not within 2% of Optimize Arch. ({arch:.3e} J)"
    );
    // The two 128x128 designs.
    for label in ["Baseline (Fig 2a macro-optimal)", "Optimize Circuits"] {
        assert!(
            co < energy(label),
            "Co-Optimize ({co:.3e} J) is not below `{label}`"
        );
    }
}
