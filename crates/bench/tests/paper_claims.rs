//! The paper's qualitative claims, asserted on the committed goldens.
//! `golden_files.rs` pins those bytes, and `cimloop evaluate
//! examples/specs/<name>.yaml` or the `figures` binary regenerates them,
//! so these checks read the TSVs instead of re-running the experiments.
//!
//! - `fig09_noise`: accuracy degrades monotonically as ADC resolution
//!   drops, and degrades faster (further below the noise-free curve) at
//!   higher variation.
//! - `fig12`: ResNet18's lowest-energy output reuse is 3 columns per
//!   output, because its 3×3 kernels map at high utilization.
//! - `fig02b`: co-optimizing circuits and architecture ties optimizing
//!   the architecture alone within 2%, and beats both 128×128 designs.
//! - `fig02a`: the system-optimal array is larger than the macro-optimal
//!   one.
//! - `fig04`: data-value dependence swings DAC energy by more than 2.5×,
//!   and each encoding is the better one for some layer.
//! - `fig06`: the fixed-energy model's average error is more than 3× the
//!   statistical model's.
//! - `fig08`: efficiency falls, and throughput never rises, as inputs
//!   widen on a bit-serial macro.
//! - `fig09`: Macro C's DAC share of energy grows with input bits.
//! - `fig11`: Macro B's energy per MAC rises with the average MAC value.
//! - `fig13`: the 8-operand analog adder is never the densest.
//! - `fig14`: a max-utilization MVM is cheapest per MAC on the largest
//!   array, a small-tensor network on the smallest.
//! - `fig16`: the lowest-energy macro depends on the operand widths: the
//!   1-bit Macro A wins at 1b/1b, a multi-bit macro at 8b/8b.
//! - `fig_mc_accuracy`: the sampled engine agrees with the analytic SNR
//!   within the documented 0.5 dB (docs/accuracy.md).

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

/// A percentage cell (`12.3%`) as a number of percent.
fn percent(row: &Value, column: &str) -> f64 {
    let cell = text(row, column);
    cell.strip_suffix('%')
        .and_then(|number| number.parse().ok())
        .unwrap_or_else(|| panic!("`{column}` cell {cell:?} is not a percentage"))
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

#[test]
fn the_system_optimal_array_is_larger_than_the_macro_optimal_one() {
    let rows = golden_rows("fig02a.tsv");
    // The array side of the row with the least energy in `column`.
    let optimal = |column: &str| -> u64 {
        let row = rows
            .iter()
            .min_by(|a, b| num(a, column).total_cmp(&num(b, column)))
            .expect("fig02a has rows");
        let array = text(row, "array");
        let (side, _) = array.split_once('x').expect("arrays read NxN");
        side.parse().expect("array sides are integers")
    };
    let (macro_best, system_best) = (optimal("macro J"), optimal("system J"));
    assert!(
        system_best > macro_best,
        "system-optimal {system_best}x{system_best} is not larger than \
         macro-optimal {macro_best}x{macro_best}"
    );
}

#[test]
fn data_values_swing_dac_energy_and_each_encoding_wins_a_layer() {
    let cells: Vec<f64> = golden_rows("fig04.tsv")
        .iter()
        .flat_map(|row| [num(row, "DAC A (norm)"), num(row, "DAC B (norm)")])
        .collect();
    let max = cells.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = cells.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(max / min > 2.5, "DAC energy swings only {:.2}x", max / min);
    let layers = golden_rows("fig04_per_layer.tsv");
    for encoding in ["differential", "offset"] {
        assert!(
            layers.iter().any(|row| text(row, "best") == encoding),
            "{encoding} encoding is best for no layer"
        );
    }
}

#[test]
fn the_fixed_energy_model_is_several_times_less_accurate() {
    let rows = golden_rows("fig06.tsv");
    let average = rows
        .iter()
        .find(|row| text(row, "layer") == "Average")
        .expect("fig06 has an Average row");
    let (statistical, fixed) = (
        percent(average, "CiMLoop err"),
        percent(average, "fixed-energy err"),
    );
    assert!(
        fixed > 3.0 * statistical,
        "fixed-energy average error {fixed}% is not 3x the statistical {statistical}%"
    );
}

#[test]
fn efficiency_falls_and_throughput_never_rises_as_inputs_widen() {
    let rows = golden_rows("fig08.tsv");
    for label in ["B", "C"] {
        let sweep: Vec<&Value> = rows
            .iter()
            .filter(|row| text(row, "macro") == label)
            .collect();
        assert!(sweep.len() >= 2, "fig08 has no {label} sweep");
        for pair in sweep.windows(2) {
            let (narrow, wide) = (pair[0], pair[1]);
            let bits = text(wide, "input bits");
            assert!(
                num(wide, "model TOPS/W") < num(narrow, "model TOPS/W"),
                "{label}: TOPS/W did not fall at {bits} input bits"
            );
            assert!(
                num(wide, "model GOPS") <= num(narrow, "model GOPS"),
                "{label}: GOPS rose at {bits} input bits"
            );
        }
    }
}

#[test]
fn macro_c_dac_share_grows_with_input_bits() {
    let rows = golden_rows("fig09.tsv");
    let dac_share = |bits: u32| {
        let label = format!("C, {bits}b inputs");
        rows.iter()
            .find(|row| text(row, "macro") == label && text(row, "component") == "DAC")
            .map(|row| num(row, "model %"))
            .unwrap_or_else(|| panic!("fig09 has no DAC row for `{label}`"))
    };
    let shares = [dac_share(1), dac_share(4), dac_share(8)];
    assert!(
        shares[0] < shares[1] && shares[1] < shares[2],
        "Macro C's DAC share at 1b, 4b, 8b inputs does not rise: {shares:?}"
    );
}

#[test]
fn energy_per_mac_rises_with_the_average_mac_value() {
    let energies: Vec<f64> = golden_rows("fig11.tsv")
        .iter()
        .map(|row| num(row, "model fJ/MAC"))
        .collect();
    for (i, pair) in energies.windows(2).enumerate() {
        assert!(
            pair[1] >= 0.98 * pair[0],
            "energy per MAC fell from {} to {} fJ at row {}",
            pair[0],
            pair[1],
            i + 2
        );
    }
}

#[test]
fn the_eight_operand_adder_is_never_the_densest() {
    for row in golden_rows("fig13.tsv") {
        assert_ne!(
            text(&row, "best"),
            "8-operand",
            "at {} weight bits",
            text(&row, "weight bits")
        );
    }
}

#[test]
fn large_tensors_prefer_the_largest_array_and_small_ones_the_smallest() {
    let rows = golden_rows("fig14.tsv");
    let best_array = |workload: &str| {
        rows.iter()
            .filter(|row| text(row, "workload") == workload)
            .min_by(|a, b| num(a, "total pJ/MAC").total_cmp(&num(b, "total pJ/MAC")))
            .map(|row| text(row, "array"))
            .unwrap_or_else(|| panic!("fig14 has no `{workload}` rows"))
    };
    let arrays: Vec<&str> = rows.iter().map(|row| text(row, "array")).collect();
    let (smallest, largest) = (arrays[0], arrays[arrays.len() - 1]);
    assert_eq!(
        best_array("Max-Utilization"),
        largest,
        "a max-utilization MVM should be cheapest per MAC on the largest array"
    );
    assert_eq!(
        best_array("MobileNetV3 (small)"),
        smallest,
        "a small-tensor network should be cheapest per MAC on the smallest array"
    );
}

#[test]
fn the_best_macro_depends_on_the_operand_widths() {
    let rows = golden_rows("fig16.tsv");
    let best = |bits: &str| {
        rows.iter()
            .find(|row| text(row, "weight bits") == bits && text(row, "input bits") == bits)
            .map(|row| text(row, "best"))
            .unwrap_or_else(|| panic!("fig16 has no {bits}b/{bits}b row"))
    };
    assert_eq!(best("1"), "A", "Macro A should win with 1-bit operands");
    assert_ne!(
        best("8"),
        "A",
        "a multi-bit macro should win with 8-bit operands"
    );
}

#[test]
fn monte_carlo_agrees_with_the_analytic_snr_within_half_a_db() {
    for row in golden_rows("fig_mc_accuracy.tsv") {
        let deviation = num(&row, "deviation (dB)");
        assert!(
            deviation <= 0.5,
            "variation {} at {} ADC bits deviates {deviation} dB",
            text(&row, "variation"),
            text(&row, "ADC bits")
        );
    }
}
