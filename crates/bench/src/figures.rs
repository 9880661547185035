//! The paper's tables and figures that have no spec, one function each.
//!
//! Every function builds its table from the models and the published
//! data in [`cimloop_macros::reference`] and returns it unwritten; the
//! argument-free `figures` binary runs them all and writes
//! `results/<name>.tsv`. Every table is a golden: `tests/golden_files.rs`
//! pins its bytes and `tests/paper_claims.rs` asserts the paper's claims
//! on them. The checks that need the models themselves (category labels
//! against the publication's, the cached network sweep against the
//! sequential one, the 0.5 dB Monte-Carlo bound) are asserts in the
//! functions.

use std::collections::BTreeMap;
use std::sync::Arc;

use cimloop_circuits::dac::{CapacitiveDac, CurrentDac};
use cimloop_circuits::{ComponentModel, ValueContext};
use cimloop_core::{CoreError, Encoding, EnergyTableCache, LayerReport, NoiseSpec, RunReport};
use cimloop_dse::{DesignSpace, EvalScope, Explorer};
use cimloop_macros::category::{self, Category};
use cimloop_macros::{
    base_macro, macro_a, macro_b, macro_c, macro_d, reference, ArrayMacro, OutputCombine,
};
use cimloop_sim::{fixed_energy_table, mc_layer, simulate_layer, ExactConfig, McConfig};
use cimloop_stats::Pmf;
use cimloop_system::{CimSystem, StorageScenario};
use cimloop_tech::TechNode;
use cimloop_workload::{models, Layer, LayerKind, Shape, ValueProfile, Workload};

use crate::{explore_collect, fmt, pct, rel_err, ExperimentTable};

/// A figure's table, or the first error of the evaluations, simulations
/// and circuit models it ran.
pub type Figure = Result<ExperimentTable, CoreError>;

/// Every figure function, in the order the `figures` binary runs them.
pub const ALL: [fn() -> Figure; 16] = [
    fig02a,
    fig04,
    fig04_per_layer,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig13,
    fig14,
    fig15,
    fig16,
    fig_mc_accuracy,
    network_sweep,
    table03,
];

/// The array sizes fig02a and fig14 sweep.
const SQUARE_ARRAYS: [u64; 5] = [64, 128, 256, 512, 1024];

/// The two input encodings fig04 compares.
const ENCODINGS: [Encoding; 2] = [Encoding::Differential, Encoding::Offset];

/// The DAC resolution of fig04.
const DAC_BITS: u32 = 4;

/// The MVM layer matched to `m`'s array: one `rows × cols`
/// matrix-vector product that fills it once, with `input_bits`-bit
/// inputs and `weight_bits`-bit weights.
fn matched_layer(m: &ArrayMacro, input_bits: u32, weight_bits: u32) -> Layer {
    models::mvm(m.rows(), m.cols()).layers()[0]
        .clone()
        .with_input_bits(input_bits)
        .with_weight_bits(weight_bits)
}

/// `m`'s report on `layer`, from a freshly calibrated evaluator.
fn evaluate(m: &ArrayMacro, layer: &Layer) -> Result<LayerReport, CoreError> {
    m.evaluator()?.evaluate_layer(layer, &m.representation())
}

/// A model-vs-reference row of fig07 and fig08: the macro, the operating
/// point, then model, published value and relative error for TOPS/W and
/// for GOPS. A value the publication does not report shows `N/A` and `-`.
fn versus_reference(
    label: &str,
    point: String,
    report: &LayerReport,
    published: [Option<f64>; 2],
) -> Vec<String> {
    let mut row = vec![label.to_owned(), point];
    for (model, published) in [report.tops_per_watt(), report.gops()]
        .into_iter()
        .zip(published)
    {
        row.push(fmt(model));
        match published {
            Some(r) => row.extend([fmt(r), pct(rel_err(model, r))]),
            None => row.extend(["N/A".to_owned(), "-".to_owned()]),
        }
    }
    row
}

/// The `Average` row closing a table of `width` columns, blank but for
/// `cells`, each `(column, text)`.
fn average_row(width: usize, cells: &[(usize, String)]) -> Vec<String> {
    let mut row = vec![String::new(); width];
    row[0] = "Average".to_owned();
    for (column, text) in cells {
        row[*column] = text.clone();
    }
    row
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The index of the largest of `values`; the last of equals, as
/// `Iterator::max_by` picks.
fn best(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// Each group's share of the groups' total, in percent, where a group's
/// amount is the sum of `of` over its members. An empty group is `0.0`.
fn shares<T: Copy>(
    groups: &[(&'static str, &[T])],
    of: impl Fn(T) -> f64,
) -> Vec<(&'static str, f64)> {
    let amounts: Vec<f64> = groups
        .iter()
        .map(|(_, members)| members.iter().fold(0.0, |sum, &m| sum + of(m)))
        .collect();
    let total: f64 = amounts.iter().sum();
    groups
        .iter()
        .zip(amounts)
        .map(|(&(label, _), amount)| (label, 100.0 * amount / total))
        .collect()
}

/// One macro of a breakdown table: its label, the model's `(category,
/// %)` shares and the published ones.
type BreakdownCase = (String, Vec<(&'static str, f64)>, reference::Breakdown);

/// A breakdown validation table (fig09, fig10): for each case one row per
/// category, with the model share, the published share and their
/// absolute difference in percentage points, then the `Average`
/// difference. Each model category must be the publication's.
fn breakdown_table(
    name: &str,
    title: &str,
    category_header: &str,
    cases: Vec<BreakdownCase>,
) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        name,
        title,
        &[
            "macro",
            category_header,
            "model %",
            "reference %",
            "abs err",
        ],
    );
    let mut errs = Vec::new();
    for (label, model, published) in cases {
        for ((category, model_pct), (ref_category, ref_pct)) in model.iter().zip(published) {
            assert_eq!(category, ref_category);
            let err = (model_pct - ref_pct).abs();
            errs.push(err);
            table.row(vec![
                label.clone(),
                category.to_string(),
                format!("{model_pct:.1}"),
                format!("{ref_pct:.1}"),
                format!("{err:.1}pp"),
            ]);
        }
    }
    table.row(average_row(5, &[(4, format!("{:.1}pp", mean(&errs)))]));
    table
}

/// Fig 2a: optimizing for the lowest-energy *macro* while neglecting the
/// system yields a higher-energy *system*.
///
/// Sweeps the array size of Macro C (calibration frozen at its published
/// configuration) on ResNet18 and reports full-network energy of the
/// macro alone and of the full system (DRAM, global buffer, NoC, macro),
/// each normalized to its largest. The macro-optimal array is small (it
/// stays utilized); the system-optimal array is larger (fewer DRAM weight
/// fetches). Both sweeps run through the DSE explorer on one energy-table
/// cache: the two scopes have equal reduction widths, so each column-sum
/// statistic is computed once.
pub fn fig02a() -> Figure {
    let net = models::resnet18();
    let space = DesignSpace::new()
        .variant("c", macro_c().frozen()?)
        .square_arrays(SQUARE_ARRAYS);
    let cache = Arc::new(EnergyTableCache::new());
    let sweep = |scope| -> Result<Vec<f64>, CoreError> {
        let explorer = Explorer::new()
            .with_scope(scope)
            .with_cache(Arc::clone(&cache));
        let reports = explore_collect(&explorer, &space, &net)?;
        Ok(reports.iter().map(|r| r.energy_total).collect())
    };
    let macro_energy = sweep(EvalScope::MacroOnly)?;
    let system_energy = sweep(EvalScope::System(StorageScenario::AllTensorsFromDram))?;
    let macro_max = macro_energy.iter().cloned().fold(0.0, f64::max);
    let system_max = system_energy.iter().cloned().fold(0.0, f64::max);

    let mut table = ExperimentTable::new(
        "fig02a",
        "macro vs system energy across CiM array sizes (ResNet18, normalized)",
        &[
            "array",
            "macro energy (norm)",
            "system energy (norm)",
            "macro J",
            "system J",
        ],
    );
    for ((n, macro_j), system_j) in SQUARE_ARRAYS.iter().zip(macro_energy).zip(system_energy) {
        table.row(vec![
            format!("{n}x{n}"),
            fmt(macro_j / macro_max),
            fmt(system_j / system_max),
            format!("{macro_j:.3e}"),
            format!("{system_j:.3e}"),
        ]);
    }
    Ok(table)
}

/// The energy of one `dac` convert of `layer`'s inputs under `encoding`:
/// the DAC sees the average [`DAC_BITS`]-bit slice of the encoded
/// operand.
fn dac_energy(
    dac: &impl ComponentModel,
    layer: &Layer,
    encoding: Encoding,
) -> Result<f64, CoreError> {
    let encoded = encoding.encode(
        &layer.input_pmf()?,
        layer.input_bits(),
        layer.input_signed(),
    )?;
    let slice = encoded.mixed().average_slice(DAC_BITS);
    Ok(dac.read_energy(&ValueContext::driven(slice.pmf(), slice.bits())))
}

/// Fig 4: data-value dependence can change circuit energy by more than
/// 2.5×, and its effect differs per DAC and per encoding.
///
/// Energy per convert of a current-steering ("DAC A") and a capacitive
/// ("DAC B") 4-bit DAC under differential and offset encodings, for a
/// CNN layer (unsigned sparse inputs) and a transformer layer (signed
/// dense inputs), normalized to the smallest bar.
pub fn fig04() -> Figure {
    let (resnet, gpt2) = (models::resnet18(), models::gpt2_small());
    let dac_a = CurrentDac::new(DAC_BITS, TechNode::N22)?;
    let dac_b = CapacitiveDac::new(DAC_BITS, TechNode::N22)?;
    let mut bars = Vec::new();
    for (workload, layer) in [
        ("CNN (unsigned sparse)", &resnet.layers()[5]),
        ("Transformer (signed dense)", &gpt2.layers()[0]),
    ] {
        for encoding in ENCODINGS {
            bars.push((
                format!("{workload} / {encoding}"),
                dac_energy(&dac_a, layer, encoding)?,
                dac_energy(&dac_b, layer, encoding)?,
            ));
        }
    }
    let min = bars
        .iter()
        .flat_map(|(_, a, b)| [*a, *b])
        .fold(f64::INFINITY, f64::min);

    let mut table = ExperimentTable::new(
        "fig04",
        "DAC energy per convert vs encoding and workload (normalized to min)",
        &["workload / encoding", "DAC A (norm)", "DAC B (norm)"],
    );
    for (label, a, b) in bars {
        table.row(vec![label, fmt(a / min), fmt(b / min)]);
    }
    Ok(table)
}

/// Fig 4, per layer: the best encoding changes with the workload. DAC B's
/// energy per operand under each encoding (differential converts twice
/// per operand) for the first six ResNet18 layers and the first two
/// GPT-2 layers.
pub fn fig04_per_layer() -> Figure {
    let (resnet, gpt2) = (models::resnet18(), models::gpt2_small());
    let dac = CapacitiveDac::new(DAC_BITS, TechNode::N22)?;
    let mut table = ExperimentTable::new(
        "fig04_per_layer",
        "best encoding per layer (DAC B energy per convert)",
        &["layer", "differential (J)", "offset (J)", "best"],
    );
    for layer in resnet
        .layers()
        .iter()
        .take(6)
        .chain(gpt2.layers().iter().take(2))
    {
        let mut energy = Vec::new();
        for encoding in ENCODINGS {
            energy.push(dac_energy(&dac, layer, encoding)? * encoding.devices_per_operand() as f64);
        }
        let best = if energy[0] <= energy[1] { 0 } else { 1 };
        table.row(vec![
            layer.name().to_owned(),
            format!("{:.3e}", energy[0]),
            format!("{:.3e}", energy[1]),
            ENCODINGS[best].to_string(),
        ]);
    }
    Ok(table)
}

/// Fig 6: the data-value-dependent statistical model is far more accurate
/// than a fixed-energy model, against value-exact simulation of each
/// ResNet18 layer on the base macro (paper: 3%/7% average/max error
/// against 28%/70%).
///
/// The value-exact simulator (the paper's NeuroSim) runs every sampled
/// data value through the same component models; the statistical model
/// uses each layer's distributions; the fixed-energy model uses one table
/// from distributions averaged over all layers.
pub fn fig06() -> Figure {
    let m = base_macro();
    let evaluator = m.evaluator()?;
    let rep = m.representation();
    let net = models::resnet18();
    let fixed = fixed_energy_table(&m, &net)?;
    let cfg = ExactConfig {
        seed: 0xF16,
        max_activations: 1024,
        threads: 1,
    };

    let mut table = ExperimentTable::new(
        "fig06",
        "full-macro energy error vs value-exact ground truth (ResNet18)",
        &["layer", "CiMLoop err", "fixed-energy err"],
    );
    let mut stat_errs = Vec::new();
    let mut fixed_errs = Vec::new();
    for (i, layer) in net.layers().iter().enumerate() {
        let truth = simulate_layer(&m, layer, &cfg)?.energy_total();
        let stat = evaluator.evaluate_layer(layer, &rep)?;
        let mapping = evaluator.map_layer(layer, &rep)?;
        let fixed_report = evaluator.evaluate_mapping(layer, &rep, &fixed, &mapping)?;
        let stat_err = (stat.energy_total() - truth).abs() / truth;
        let fixed_err = (fixed_report.energy_total() - truth).abs() / truth;
        stat_errs.push(stat_err);
        fixed_errs.push(fixed_err);
        table.row(vec![
            format!("{} ({})", i + 1, layer.name()),
            pct(stat_err),
            pct(fixed_err),
        ]);
    }
    let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);
    table.row(vec![
        "Average".to_owned(),
        pct(mean(&stat_errs)),
        pct(mean(&fixed_errs)),
    ]);
    table.row(vec![
        "Max".to_owned(),
        pct(max(&stat_errs)),
        pct(max(&fixed_errs)),
    ]);
    Ok(table)
}

/// The columns of fig07 and fig08.
const VERSUS_HEADERS: [&str; 8] = [
    "macro",
    "V",
    "model TOPS/W",
    "ref TOPS/W",
    "err",
    "model GOPS",
    "ref GOPS",
    "err",
];

/// Fig 7: energy efficiency and throughput across supply voltages against
/// the published measurements (paper: 7% average energy-efficiency
/// error, 2% throughput error): Macro A at 1b/1b, Macro B at 4b/4b with
/// small and with large input values (its energy is data-value
/// dependent), and Macro D at 8b/8b.
pub fn fig07() -> Figure {
    let small = ValueProfile::ReluActivations {
        sparsity: 0.6,
        sigma: 0.12,
    };
    let large = ValueProfile::Custom(Pmf::uniform_ints(10, 15)?);
    let cases: [(_, fn() -> ArrayMacro, _, _, _); 4] = [
        ("A", macro_a, 1, None, reference::MACRO_A_VOLTAGE),
        (
            "B small",
            macro_b,
            4,
            Some(small),
            reference::MACRO_B_VOLTAGE_SMALL,
        ),
        (
            "B large",
            macro_b,
            4,
            Some(large),
            reference::MACRO_B_VOLTAGE_LARGE,
        ),
        ("D", macro_d, 8, None, reference::MACRO_D_VOLTAGE),
    ];
    let mut table = ExperimentTable::new(
        "fig07",
        "energy/throughput vs supply voltage (model vs published reference)",
        &VERSUS_HEADERS,
    );
    let (mut energy_errs, mut throughput_errs) = (Vec::new(), Vec::new());
    for (label, preset, bits, profile, sweep) in cases {
        for point in sweep {
            let m = preset().with_supply_voltage(point.volts);
            let mut layer = matched_layer(&m, bits, bits);
            if let Some(profile) = &profile {
                layer = layer.with_input_profile(profile.clone());
            }
            let report = evaluate(&m, &layer)?;
            energy_errs.push(rel_err(report.tops_per_watt(), point.tops_per_watt));
            throughput_errs.push(rel_err(report.gops(), point.gops));
            table.row(versus_reference(
                label,
                format!("{}V", point.volts),
                &report,
                [Some(point.tops_per_watt), Some(point.gops)],
            ));
        }
    }
    table.row(average_row(
        8,
        &[
            (4, pct(mean(&energy_errs))),
            (7, pct(mean(&throughput_errs))),
        ],
    ));
    Ok(table)
}

/// Fig 8: energy efficiency and throughput across input widths for
/// Macros B (4-bit weights) and C (8-bit weights), at each macro's
/// published operating voltage (paper: 6% energy-efficiency error, 5%
/// throughput error). Efficiency must fall, and throughput never rise,
/// as inputs widen: a bit-serial macro spends one cycle per input bit.
pub fn fig08() -> Figure {
    let mut headers = VERSUS_HEADERS;
    headers[1] = "input bits";
    let mut table = ExperimentTable::new(
        "fig08",
        "energy/throughput vs number of input bits (model vs reference)",
        &headers,
    );
    let mut errs = Vec::new();
    for (label, m, weight_bits, sweep) in [
        ("B", macro_b(), 4, reference::MACRO_B_INPUT_BITS),
        ("C", macro_c(), 8, reference::MACRO_C_INPUT_BITS),
    ] {
        let m = match m.calibration().and_then(|a| a.volts) {
            Some(v) => m.with_supply_voltage(v),
            None => m,
        };
        for point in sweep {
            let report = evaluate(&m, &matched_layer(&m, point.input_bits, weight_bits))?;
            if let Some(r) = point.tops_per_watt {
                errs.push(rel_err(report.tops_per_watt(), r));
            }
            table.row(versus_reference(
                label,
                point.input_bits.to_string(),
                &report,
                [point.tops_per_watt, point.gops],
            ));
        }
    }
    table.row(average_row(8, &[(4, pct(mean(&errs)))]));
    Ok(table)
}

/// Fig 9: energy breakdowns against the published ones (paper: 4%
/// average error): Macro C at 1-, 4- and 8-bit inputs, where the DAC's
/// share must grow with input bits, and Macro D.
///
/// Macro C's categories are [`category::energy_by_category`]'s, with the
/// array (`cell`) folded into `Control`, where the publication counts
/// array access; the buffer is system-level and left out. Macro D's
/// groups its components: `dac` is DAC, `adc` is ADC, `cell` is CiM
/// Array, and `accumulator` plus `control` are Misc.
///
/// # Panics
///
/// Panics if a model category is not the publication's.
pub fn fig09() -> Figure {
    let mut cases = Vec::new();
    for (bits, published) in [
        (1, reference::MACRO_C_ENERGY_1B),
        (4, reference::MACRO_C_ENERGY_4B),
        (8, reference::MACRO_C_ENERGY_8B),
    ] {
        let m = macro_c();
        let report = evaluate(&m, &matched_layer(&m, bits, 8))?;
        let by_category: BTreeMap<_, _> =
            category::energy_by_category(&report).into_iter().collect();
        let groups: [(_, &[_]); 3] = [
            ("ADC+Accumulate", &[Category::AdcAccumulate]),
            ("DAC", &[Category::Dac]),
            ("Control", &[Category::Control, Category::Array]),
        ];
        let model = shares(&groups, |c| by_category[&c]);
        cases.push((format!("C, {bits}b inputs"), model, published));
    }
    let m = macro_d();
    let report = evaluate(&m, &matched_layer(&m, 8, 8))?;
    let groups: [(_, &[_]); 4] = [
        ("DAC", &["dac"]),
        ("ADC", &["adc"]),
        ("CiM Array", &["cell"]),
        ("Misc", &["accumulator", "control"]),
    ];
    let model = shares(&groups, |name| report.energy_of(name));
    cases.push(("D".to_owned(), model, reference::MACRO_D_ENERGY));
    Ok(breakdown_table(
        "fig09",
        "energy breakdown validation (% of total)",
        "component",
        cases,
    ))
}

/// Fig 10: area breakdowns of Macros A–D against the published ones
/// (paper: 8% average error).
///
/// Each publication names its own categories; each model component goes
/// to the closest one, and the I/O buffer (system-level) to none:
///
/// - A: `adc` is ADC; `cell`, `dac` and `control` are Array+Drivers;
///   `accumulator` is Digital Postprocessing. No component models
///   Sparsity Control, so it shows 0%.
/// - B: `cell` is CiM Circuitry; `dac` and `control` are the original
///   macro; `analog_adder` is Analog Adder; `adc` and `accumulator` are
///   ADC+Accum.
/// - C: `adc` and `accumulator` are ADC+Accum.; `dac`,
///   `analog_accumulator` and `control` are DAC+Integrator; `cell` is MAC.
/// - D: `dac` is DAC, `adc` is ADC, `cell` is Array+MAC, and
///   `accumulator` plus `control` are Misc.
///
/// # Panics
///
/// Panics if a model category is not the publication's.
pub fn fig10() -> Figure {
    type Groups = &'static [(&'static str, &'static [&'static str])];
    let cases: [(_, _, Groups, _); 4] = [
        (
            "A",
            macro_a(),
            &[
                ("ADC", &["adc"]),
                ("Array+Drivers", &["cell", "dac", "control"]),
                ("Digital Postprocessing", &["accumulator"]),
                ("Sparsity Control", &[]),
            ],
            reference::MACRO_A_AREA,
        ),
        (
            "B",
            macro_b(),
            &[
                ("CiM Circuitry", &["cell"]),
                ("Orig. Macro", &["dac", "control"]),
                ("Analog Adder", &["analog_adder"]),
                ("ADC+Accum.", &["adc", "accumulator"]),
            ],
            reference::MACRO_B_AREA,
        ),
        (
            "C",
            macro_c(),
            &[
                ("ADC+Accum.", &["adc", "accumulator"]),
                ("DAC+Integrator", &["dac", "analog_accumulator", "control"]),
                ("MAC", &["cell"]),
            ],
            reference::MACRO_C_AREA,
        ),
        (
            "D",
            macro_d(),
            &[
                ("DAC", &["dac"]),
                ("ADC", &["adc"]),
                ("Array+MAC", &["cell"]),
                ("Misc", &["accumulator", "control"]),
            ],
            reference::MACRO_D_AREA,
        ),
    ];
    let mut breakdowns = Vec::new();
    for (label, m, groups, published) in cases {
        let area = m.evaluator()?.area();
        let model = shares(groups, |name| area.area_of(name));
        breakdowns.push((label.to_owned(), model, published));
    }
    Ok(breakdown_table(
        "fig10",
        "area breakdown validation (% of macro total)",
        "category",
        breakdowns,
    ))
}

/// Fig 11: Macro B's energy per MAC rises with the average MAC value, as
/// the DAC switches more and the analog adder charges larger values
/// (published swing 2.3×).
///
/// Each point drives constant operands whose 4-bit product averages the
/// point's MAC value: inputs equal the value, weights are 15.
pub fn fig11() -> Figure {
    let m = macro_b();
    let mut table = ExperimentTable::new(
        "fig11",
        "Macro B energy/MAC vs average MAC value (model vs reference)",
        &["avg MAC value", "model fJ/MAC", "ref fJ/MAC", "err"],
    );
    for &(mac_value, ref_fj) in reference::MACRO_B_VALUE_SWEEP {
        let layer = matched_layer(&m, 4, 4)
            .with_input_profile(ValueProfile::Constant(mac_value.round() as i64))
            .with_weight_profile(ValueProfile::Constant(15));
        let fj_per_mac = evaluate(&m, &layer)?.energy_per_mac() * 1e15;
        table.row(vec![
            fmt(mac_value),
            fmt(fj_per_mac),
            fmt(ref_fj),
            pct(rel_err(fj_per_mac, ref_fj)),
        ]);
    }
    Ok(table)
}

/// Fig 13 (Macro B + circuits): an analog adder trades flexibility for
/// compute density. A wider adder needs fewer ADCs (more TOPS/mm²) when
/// the weights have enough bits to fill its operands, and sits
/// underutilized with fewer-bit weights; the 8-operand adder is never the
/// densest.
pub fn fig13() -> Figure {
    let operand_counts = [1u32, 2, 4, 8];
    let base = macro_b().frozen()?;
    let mut table = ExperimentTable::new(
        "fig13",
        "Macro B: throughput-per-area (TOPS/mm^2) vs weight bits per adder width",
        &[
            "weight bits",
            "1-operand",
            "2-operand",
            "4-operand",
            "8-operand",
            "best",
        ],
    );
    for weight_bits in 1..=8 {
        let mut densities = Vec::new();
        for operands in operand_counts {
            let m = base
                .clone()
                .with_output_combine(OutputCombine::AnalogAdder { operands });
            let evaluator = m.evaluator()?;
            let report = evaluator
                .evaluate_layer(&matched_layer(&m, 4, weight_bits), &m.representation())?;
            let tops = report.ops_per_second() / 1e12;
            densities.push(tops / evaluator.area().total_mm2());
        }
        let mut row = vec![weight_bits.to_string()];
        row.extend(densities.iter().map(|&d| fmt(d)));
        row.push(format!("{}-operand", operand_counts[best(&densities)]));
        table.row(row);
    }
    Ok(table)
}

/// Fig 14 (Macro C + architecture): larger arrays amortize ADC and output
/// summation energy, if the workload's tensors are large enough to use
/// them. In the paper, a max-utilization MVM and large-tensor workloads
/// keep improving with size, a medium one saturates, and a small-tensor
/// one prefers a smaller array.
pub fn fig14() -> Figure {
    let base = macro_c().frozen()?;
    let mut table = ExperimentTable::new(
        "fig14",
        "Macro C: energy/MAC (pJ) vs CiM array size per workload",
        &[
            "workload",
            "array",
            "Accum+Control",
            "DAC+MAC",
            "ADC+Accum",
            "total pJ/MAC",
        ],
    );
    for (label, workload) in [
        ("Max-Utilization", None),
        ("ViT (large)", Some(models::vit_base())),
        ("ResNet18 (medium)", Some(models::resnet18())),
        ("MobileNetV3 (small)", Some(models::mobilenet_v3_large())),
    ] {
        for n in SQUARE_ARRAYS {
            let m = base.clone().with_array(n, n);
            // The max-utilization MVM fills each array size exactly.
            let report = m.evaluator()?.evaluate(
                workload.as_ref().unwrap_or(&models::mvm(n, n)),
                &m.representation(),
                &EnergyTableCache::new(),
                1,
            )?;
            let pj = |e: f64| e / report.macs_total() as f64 * 1e12;
            let e = |name| report.energy_of(name);
            table.row(vec![
                label.to_owned(),
                format!("{n}x{n}"),
                fmt(pj(e("accumulator") + e("control"))),
                fmt(pj(e("dac") + e("cell"))),
                fmt(pj(e("adc") + e("analog_accumulator"))),
                fmt(report.energy_per_mac() * 1e12),
            ]);
        }
    }
    Ok(table)
}

/// Fig 15 (Macro D + full system): weight-stationary CiM saves much
/// energy, but off-chip input and output movement bounds the benefit
/// until inputs and outputs stay on chip (layer fusion).
pub fn fig15() -> Figure {
    let (gpt2, resnet) = (models::gpt2_small(), models::resnet18());
    let mut table = ExperimentTable::new(
        "fig15",
        "Macro D full system: energy per MAC (pJ) by storage scenario",
        &[
            "scenario",
            "workload",
            "macro+on-chip",
            "global buffer",
            "DRAM",
            "total pJ/MAC",
        ],
    );
    for scenario in StorageScenario::ALL {
        for (label, workload) in [("GPT-2 (large)", &gpt2), ("ResNet18 (mixed)", &resnet)] {
            let system = CimSystem::new(macro_d()).with_scenario(scenario);
            let report = system.evaluator()?.evaluate(
                workload,
                &system.representation(),
                &EnergyTableCache::new(),
                1,
            )?;
            let (mut on_chip, mut glb, mut dram) = (0.0, 0.0, 0.0);
            for (count, layer_report) in report.layers() {
                let (o, g, d) = CimSystem::fig15_breakdown(layer_report);
                on_chip += *count as f64 * o;
                glb += *count as f64 * g;
                dram += *count as f64 * d;
            }
            let pj = |e: f64| e / report.macs_total() as f64 * 1e12;
            table.row(vec![
                scenario.to_string(),
                label.to_owned(),
                fmt(pj(on_chip)),
                fmt(pj(glb)),
                fmt(pj(dram)),
                fmt(pj(on_chip + glb + dram)),
            ]);
        }
    }
    Ok(table)
}

/// Fig 16 (cross-macro): Macros A, B and D compared fairly, at 7 nm with
/// common SRAM cells, an 8-bit ADC and raw (uncalibrated) models, across
/// weight and input widths. The lowest-energy macro depends on the
/// operand widths: A's 1-bit strategy wins with few-bit operands, and
/// multi-bit analog components with more-bit operands (D's here, B's and
/// D's in the paper).
pub fn fig16() -> Figure {
    let macros = [("A", macro_a()), ("B", macro_b()), ("D", macro_d())]
        .map(|(label, m)| (label, m.with_node(7.0).with_adc_bits(8).uncalibrated()));
    let mut table = ExperimentTable::new(
        "fig16",
        "cross-macro energy efficiency (TOPS/W) at 7nm, common cells + 8b ADC",
        &["weight bits", "input bits", "A", "B", "D", "best"],
    );
    for weight_bits in [1u32, 2, 4, 6, 8] {
        for input_bits in 1..=8 {
            let mut efficiency = Vec::new();
            for (_, m) in &macros {
                let report = evaluate(m, &matched_layer(m, input_bits, weight_bits))?;
                efficiency.push(report.tops_per_watt());
            }
            let mut row = vec![weight_bits.to_string(), input_bits.to_string()];
            row.extend(efficiency.iter().map(|&e| fmt(e)));
            row.push(macros[best(&efficiency)].0.to_owned());
            table.row(row);
        }
    }
    Ok(table)
}

/// The analytic-vs-Monte-Carlo agreement bound, dB.
const MC_TOLERANCE_DB: f64 = 0.5;

/// The analytic accuracy chain cross-checked by sampling: the output SNR
/// `NoiseAnalysis` predicts next to the SNR of repeated noise-injected
/// inference, on the 64×64 ReRAM base macro driving its matched MVM
/// layer, across cell variation (the sigmas
/// `examples/specs/fig09_noise.yaml` sweeps) × ADC resolution (8 and 6
/// bits).
///
/// Each cell runs 16,384 trials, about 0.1 dB of standard error, at the
/// pinned default seed, so the table is deterministic and a golden.
///
/// # Panics
///
/// Panics if a deviation exceeds the documented 0.5 dB
/// (docs/accuracy.md), or if an evaluation of the analog macro carries
/// no noise report.
pub fn fig_mc_accuracy() -> Figure {
    let cache = EnergyTableCache::new();
    let cfg = McConfig::new(16_384);
    let mut table = ExperimentTable::new(
        "fig_mc_accuracy",
        "analytic vs Monte-Carlo output SNR (64x64 ReRAM macro)",
        &[
            "variation",
            "ADC bits",
            "analytic SNR (dB)",
            "MC SNR (dB)",
            "deviation (dB)",
            "task accuracy",
        ],
    );
    for variation in [0.0, 0.05, 0.10, 0.20] {
        for adc_bits in [8, 6] {
            let m = base_macro()
                .uncalibrated()
                .with_array(64, 64)
                .with_adc_bits(adc_bits)
                .with_noise(NoiseSpec::new().with_cell_variation(variation));
            let layer = matched_layer(&m, 8, 8);
            let report =
                m.evaluator()?
                    .evaluate_layer_cached(&layer, &m.representation(), &cache)?;
            let analytic = report
                .noise()
                .expect("analog readout always carries a noise report");
            let empirical = mc_layer(&m, &layer, &cfg)?;
            let deviation = (analytic.snr_db - empirical.snr_db).abs();
            assert!(
                deviation <= MC_TOLERANCE_DB,
                "the sampled engine disagrees with the analytic model by {deviation:.3} dB"
            );
            table.row(vec![
                format!("{variation:.2}"),
                adc_bits.to_string(),
                format!("{:.3}", analytic.snr_db),
                format!("{:.3}", empirical.snr_db),
                format!("{deviation:.3}"),
                format!("{:.4}", empirical.task_accuracy),
            ]);
        }
    }
    Ok(table)
}

/// A whole-network sweep through the amortized evaluation engine: a
/// 6-layer stack with two distinct value signatures, evaluated layer by
/// layer without a cache and by a single-threaded
/// [`Evaluator::evaluate`](cimloop_core::Evaluator::evaluate), whose
/// reports must be bit-identical. The table records what the sweep
/// computed (layers, distinct energy tables, energy), independent of
/// machine speed and thread scheduling; the `engine` criterion bench
/// times it.
///
/// # Panics
///
/// Panics if the cached sweep's report differs from the sequential one.
pub fn network_sweep() -> Figure {
    let mut layers = Vec::new();
    for i in 0..6u64 {
        let layer = Layer::new(
            format!("block{i}"),
            LayerKind::Linear,
            Shape::linear(2, 32 + 16 * i, 48)?,
        );
        layers.push(if i % 2 == 0 {
            layer.with_input_bits(4)
        } else {
            layer
        });
    }
    let net = Workload::new("tiny", layers)?;
    let m = base_macro();
    let evaluator = m.evaluator()?;
    let rep = m.representation();

    let mut per_layer = Vec::new();
    for layer in net.layers() {
        per_layer.push((layer.count(), evaluator.evaluate_layer(layer, &rep)?));
    }
    let baseline = RunReport::from_layer_reports(net.name(), per_layer);
    // One thread, so the miss count is the number of distinct tables.
    let cache = EnergyTableCache::new();
    let report = evaluator.evaluate(&net, &rep, &cache, 1)?;
    assert_eq!(
        baseline, report,
        "cached sweep diverged from the sequential baseline"
    );

    let mut table = ExperimentTable::new(
        "network_sweep",
        &format!("deterministic record of the {} engine sweep", net.name()),
        &[
            "network",
            "layers",
            "distinct tables",
            "total energy (J)",
            "J/MAC",
        ],
    );
    table.row(vec![
        net.name().to_owned(),
        net.layers().len().to_string(),
        cache.misses().to_string(),
        format!("{:.6e}", baseline.energy_total()),
        format!("{:.6e}", baseline.energy_per_mac()),
    ]);
    Ok(table)
}

/// Table III: the parameterized attributes of Macros A–D as published,
/// next to the array and ADC of each built model. `*` marks an array
/// that activates a subset of its rows at once (Macro D).
///
/// # Panics
///
/// Panics if a built macro is not the one its published row names.
pub fn table03() -> Figure {
    let mut table = ExperimentTable::new(
        "table03",
        "parameterized attributes of Macros A-D",
        &[
            "macro",
            "node",
            "device",
            "input bits",
            "weight bits",
            "array",
            "ADC bits",
            "model array",
            "model ADC",
        ],
    );
    let built = [
        ("A", macro_a()),
        ("B", macro_b()),
        ("C", macro_c()),
        ("D", macro_d()),
    ];
    for (&(name, node, device, input_bits, weight_bits, array, adc), (label, m)) in
        reference::TABLE_III.iter().zip(&built)
    {
        assert_eq!(name, *label);
        table.row(vec![
            name.to_owned(),
            format!("{node}nm"),
            device.to_owned(),
            input_bits.to_owned(),
            weight_bits.to_owned(),
            array.to_owned(),
            adc.to_owned(),
            format!(
                "{}x{}{}",
                m.rows() * m.storage_banks(),
                m.cols(),
                if m.storage_banks() > 1 { "*" } else { "" }
            ),
            m.adc_bits().to_string(),
        ]);
    }
    Ok(table)
}
