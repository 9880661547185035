use std::collections::BTreeMap;

use cimloop_circuits::ValueContext;
use cimloop_core::{par_try_map, CoreError, Encoding, Evaluator};
use cimloop_macros::{ArrayMacro, OutputCombine};
use cimloop_map::analyze;
use cimloop_spec::Tensor;
use cimloop_stats::{Pmf, Sampler};
use cimloop_workload::{Dim, Layer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the value-exact simulator.
#[derive(Debug, Clone, Copy)]
pub struct ExactConfig {
    /// RNG seed (deterministic runs).
    pub seed: u64,
    /// Maximum array activations to simulate; the energy of the sampled
    /// activations is scaled to the full layer. `0` simulates every
    /// activation.
    pub max_activations: u64,
    /// Worker threads (1 = single-threaded, as NeuroSim runs). Each
    /// thread's share of steps has its own seed, so results repeat at a
    /// fixed count but differ between counts.
    pub threads: usize,
}

impl ExactConfig {
    /// Full-fidelity, single-threaded (the Table II baseline setup).
    pub fn full() -> Self {
        ExactConfig {
            seed: 0xC1A0,
            max_activations: 0,
            threads: 1,
        }
    }

    /// A fast sampled configuration for tests and accuracy studies
    /// (256 sampled activations; the estimator is unbiased).
    pub fn fast() -> Self {
        ExactConfig {
            seed: 0xC1A0,
            max_activations: 256,
            threads: 1,
        }
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

impl Default for ExactConfig {
    fn default() -> Self {
        Self::fast()
    }
}

/// The result of value-exact simulation of one layer.
#[derive(Debug, Clone)]
pub struct ExactReport {
    per_component: BTreeMap<String, f64>,
    simulated_activations: u64,
    total_activations: u64,
    cell_events: u64,
}

impl ExactReport {
    /// Total energy for the layer, joules.
    pub fn energy_total(&self) -> f64 {
        self.per_component.values().sum()
    }

    /// Energy of one component, joules (0 if absent).
    pub fn energy_of(&self, component: &str) -> f64 {
        self.per_component.get(component).copied().unwrap_or(0.0)
    }

    /// Iterates `(component, energy)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.per_component.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Array activations actually simulated.
    pub fn simulated_activations(&self) -> u64 {
        self.simulated_activations
    }

    /// Array activations the full layer requires.
    pub fn total_activations(&self) -> u64 {
        self.total_activations
    }

    /// Cell-level MAC events simulated.
    pub fn cell_events(&self) -> u64 {
        self.cell_events
    }
}

/// Draws operand values from a layer's PMF and hands out the slice levels
/// one array step sees.
///
/// A draw is one RNG word through [`Sampler::index`]. The encoded
/// operand's slices are precomputed: for each device stream and slice
/// position, one table maps a support index to the masked slice level. A
/// step picks its table once and then costs one load per sampled cell.
struct OperandSampler {
    sampler: Sampler,
    /// Masked slice levels by support index, one table per
    /// `(device, slice)`, device-major.
    slices: Vec<Vec<u16>>,
    /// Slice positions per device stream.
    slice_count: u32,
}

impl OperandSampler {
    /// A sampler over `pmf`, encoded with `encoding` and cut into
    /// `slice_count` slices of `slice_bits` bits per device stream.
    fn new(
        pmf: &Pmf,
        encoding: Encoding,
        bits: u32,
        signed: bool,
        slice_bits: u32,
        slice_count: u32,
    ) -> Self {
        let levels: Vec<_> = pmf
            .support()
            .iter()
            .map(|&v| encoding.encode_value(v as i64, bits, signed))
            .collect();
        let tables = encoding.devices_per_operand() as u32 * slice_count;
        let slices = (0..tables)
            .map(|table| {
                let (device, slice) = ((table / slice_count) as usize, table % slice_count);
                levels
                    .iter()
                    .map(|l| Encoding::slice_value(l[device], slice_bits, slice) as u16)
                    .collect()
            })
            .collect();
        OperandSampler {
            sampler: Sampler::new(pmf),
            slices,
            slice_count,
        }
    }

    /// Draws one support index, consuming one RNG word.
    fn sample(&self, rng: &mut StdRng) -> usize {
        self.sampler.index(rng.gen())
    }

    /// The slice-level table of `(device, slice)`, indexed by support
    /// index.
    fn slices(&self, device: u32, slice: u32) -> &[u16] {
        &self.slices[(device * self.slice_count + slice) as usize]
    }
}

/// Per-event energy lookup tables built from the evaluator's own component
/// models (delta-distribution contexts).
struct EnergyTables {
    dac: Vec<f64>,
    control: f64,
    /// `cell[x * cell_levels + w]`.
    cell: Vec<f64>,
    cell_levels: usize,
    adc: Vec<f64>,
    adder: Vec<f64>,
    analog_accumulator: Vec<f64>,
    accumulator: Vec<f64>,
    adc_bits: u32,
}

impl EnergyTables {
    fn build(evaluator: &Evaluator, m: &ArrayMacro) -> Result<Self, CoreError> {
        let dac_levels = 1usize << m.dac_bits();
        let cell_levels = 1usize << m.cell_bits();
        let adc_bits = m.adc_bits().clamp(1, 16);

        let delta = |v: usize| Pmf::delta(v as f64).expect("finite");

        let mut dac = Vec::with_capacity(dac_levels);
        for x in 0..dac_levels {
            let pmf = delta(x);
            dac.push(
                evaluator.component_read_energy("dac", &ValueContext::driven(&pmf, m.dac_bits())),
            );
        }

        let control = evaluator.component_read_energy("control", &ValueContext::none());

        let mut cell = Vec::with_capacity(dac_levels * cell_levels);
        for x in 0..dac_levels {
            let x_pmf = delta(x);
            for w in 0..cell_levels {
                let w_pmf = delta(w);
                cell.push(evaluator.component_read_energy(
                    "cell",
                    &ValueContext::cell(&x_pmf, m.dac_bits(), &w_pmf, m.cell_bits()),
                ));
            }
        }

        let table_over = |name: &str, bits: u32| -> Vec<f64> {
            (0..(1usize << bits))
                .map(|code| {
                    let pmf = delta(code);
                    evaluator.component_read_energy(name, &ValueContext::driven(&pmf, bits))
                })
                .collect()
        };

        let adc = table_over("adc", adc_bits);
        let adder = if evaluator.hierarchy().component("analog_adder").is_some() {
            table_over("analog_adder", adc_bits)
        } else {
            Vec::new()
        };
        let analog_accumulator = if evaluator
            .hierarchy()
            .component("analog_accumulator")
            .is_some()
        {
            table_over("analog_accumulator", adc_bits)
        } else {
            Vec::new()
        };
        // The digital shift-add accumulator sees the ADC output code; its
        // context width in the statistical pipeline is clamped to 16, and
        // we quantize to the ADC width here.
        let accumulator = if evaluator.hierarchy().component("accumulator").is_some() {
            table_over("accumulator", adc_bits)
        } else {
            Vec::new()
        };

        Ok(EnergyTables {
            dac,
            control,
            cell,
            cell_levels,
            adc,
            adder,
            analog_accumulator,
            accumulator,
            adc_bits,
        })
    }
}

/// Simulates `layer` on `m` value-by-value and returns per-component
/// energies.
///
/// Weight programming, buffer, and interconnect energy (value-independent
/// in both models) are taken from the statistical action counts so the
/// comparison isolates the value-dependent analog datapath.
///
/// Every cell event is counted, but a row whose input level draws no cell
/// energy (a ReRAM row at input 0, E = G·V²·t) draws no weight: its weight
/// could reach neither the energy nor the column sum, so the report is a
/// sample of the same distribution as when every weight is drawn
/// (docs/accuracy.md, "Exact simulator stream").
///
/// # Errors
///
/// Propagates evaluation errors from the macro's models.
pub fn simulate_layer(
    m: &ArrayMacro,
    layer: &Layer,
    cfg: &ExactConfig,
) -> Result<ExactReport, CoreError> {
    simulate(m, layer, cfg).map(|(report, _)| report)
}

/// [`simulate_layer`], with the merged partial sums and counters of its
/// steps.
fn simulate(
    m: &ArrayMacro,
    layer: &Layer,
    cfg: &ExactConfig,
) -> Result<(ExactReport, SimPartial), CoreError> {
    let evaluator = m.evaluator()?;
    let rep = m.representation();
    let table = evaluator.action_energies(layer, &rep)?;
    let mapping = evaluator.map_layer(layer, &rep)?;
    let shape = evaluator.shape_for(layer, &rep)?;
    let counts = analyze(evaluator.hierarchy(), shape, &mapping)?;

    // Start from the statistical per-component energies; the simulated
    // components are overwritten below.
    let statistical = evaluator.evaluate_mapping(layer, &rep, &table, &mapping)?;
    let mut per_component: BTreeMap<String, f64> = statistical
        .components()
        .iter()
        .map(|c| (c.name.clone(), c.total_energy()))
        .collect();

    let tables = EnergyTables::build(&evaluator, m)?;
    let geometry = Geometry::from_mapping(m, &mapping, &rep, layer)?;

    let total_steps = counts.temporal_steps();
    let simulated = if cfg.max_activations == 0 {
        total_steps
    } else {
        total_steps.min(cfg.max_activations)
    };
    let scale = total_steps as f64 / simulated as f64;

    let input_sampler = OperandSampler::new(
        &layer.input_pmf()?,
        rep.input_encoding(),
        layer.input_bits(),
        layer.input_signed(),
        geometry.dac_bits,
        geometry.input_slice_count,
    );
    // Spatial weight slices (Macro B) enumerate `ws_columns` positions.
    let weight_sampler = OperandSampler::new(
        &layer.weight_pmf()?,
        rep.weight_encoding(),
        layer.weight_bits(),
        layer.weight_signed(),
        geometry.cell_bits,
        geometry.weight_slice_count.max(geometry.ws_columns as u32),
    );

    // Steps split into at most `threads` equal shares. A single share
    // draws from `cfg.seed`; share `t` of several from `cfg.seed + t + 1`.
    let threads = cfg.threads.max(1).min(simulated.max(1) as usize);
    let per_share = simulated.div_ceil(threads as u64).max(1);
    let shares = simulated.div_ceil(per_share).max(1) as usize;
    let partials = par_try_map(threads, shares, |t| {
        let steps = per_share.min(simulated - t as u64 * per_share);
        let seed = if shares == 1 {
            cfg.seed
        } else {
            cfg.seed.wrapping_add(t as u64 + 1)
        };
        let mut rng = StdRng::seed_from_u64(seed);
        Ok::<_, CoreError>(simulate_steps(
            steps,
            &geometry,
            &tables,
            &input_sampler,
            &weight_sampler,
            &mut rng,
        ))
    })?;

    let mut sim = SimPartial::default();
    for p in &partials {
        sim.merge(p);
    }

    // Replace the value-dependent analog components with simulated totals.
    let cell_writes = counts.actions("cell", Tensor::Weights).writes
        * table.write_energy("cell", Tensor::Weights);
    per_component.insert("dac".into(), sim.dac * scale);
    per_component.insert("control".into(), sim.control * scale);
    per_component.insert("cell".into(), sim.cell * scale + cell_writes);
    per_component.insert("adc".into(), sim.adc * scale);
    if evaluator.hierarchy().component("analog_adder").is_some() {
        per_component.insert("analog_adder".into(), sim.adder * scale);
    }
    if evaluator
        .hierarchy()
        .component("analog_accumulator")
        .is_some()
    {
        per_component.insert("analog_accumulator".into(), sim.analog_accumulator * scale);
    }
    if evaluator.hierarchy().component("accumulator").is_some() {
        // Keep statistical write counts for drains; replace per-convert
        // reads with simulated values.
        let acc_stat = counts.actions("accumulator", Tensor::Outputs).writes
            * table.write_energy("accumulator", Tensor::Outputs);
        per_component.insert("accumulator".into(), sim.accumulator * scale + acc_stat);
    }

    let report = ExactReport {
        per_component,
        simulated_activations: simulated,
        total_activations: total_steps,
        cell_events: sim.events,
    };
    Ok((report, sim))
}

/// Array geometry extracted from the canonical mapping.
struct Geometry {
    /// Cells summed into one analog node per ADC read (rows, and for
    /// wire-sum macros also the grouped columns).
    reduction: u64,
    /// Independent analog outputs per activation (ADC converts per step).
    outputs: u64,
    /// Spatial weight-slice columns combined by the analog adder (1 if
    /// none).
    ws_columns: u64,
    /// Temporal accumulation depth for the analog accumulator (Is), 1
    /// otherwise.
    accumulate_depth: u64,
    /// Input slices per device stream (bit-serial positions).
    input_slice_count: u32,
    /// Weight slices per device stream.
    weight_slice_count: u32,
    /// Device streams per input operand (2 for differential/XNOR).
    input_devices: u32,
    /// Device streams per weight operand.
    weight_devices: u32,
    combine: OutputCombine,
    dac_bits: u32,
    cell_bits: u32,
}

impl Geometry {
    fn from_mapping(
        m: &ArrayMacro,
        mapping: &cimloop_map::Mapping,
        rep: &cimloop_core::Representation,
        layer: &Layer,
    ) -> Result<Self, CoreError> {
        let cell = mapping
            .entry("cell")
            .ok_or_else(|| CoreError::Representation {
                message: "macro mapping lacks a `cell` entry".to_owned(),
            })?;
        let rows = cell.used_fanout().max(1);
        let col = mapping
            .entry("column")
            .map(|e| e.used_fanout().max(1))
            .unwrap_or(1);
        let groups = mapping
            .entry("column_group")
            .map(|e| e.used_fanout().max(1))
            .unwrap_or(1);
        let (reduction, outputs, ws_columns) = match m.output_combine() {
            OutputCombine::None | OutputCombine::AnalogAccumulator => (rows, col * groups, 1),
            OutputCombine::WireSum { .. } => (rows * col, groups, 1),
            OutputCombine::AnalogAdder { .. } => (rows, groups, col),
        };
        let accumulate_depth = if m.output_combine() == OutputCombine::AnalogAccumulator {
            mapping
                .entries()
                .iter()
                .map(|e| e.temporal_product(Dim::Is))
                .product::<u64>()
                .max(1)
        } else {
            1
        };
        Ok(Geometry {
            reduction,
            outputs,
            ws_columns,
            accumulate_depth,
            input_slice_count: rep
                .encoded_input_bits(layer)
                .div_ceil(rep.dac_bits().max(1))
                .max(1),
            weight_slice_count: rep
                .encoded_weight_bits(layer)
                .div_ceil(rep.cell_bits().max(1))
                .max(1),
            input_devices: rep.input_encoding().devices_per_operand() as u32,
            weight_devices: rep.weight_encoding().devices_per_operand() as u32,
            combine: m.output_combine(),
            dac_bits: m.dac_bits(),
            cell_bits: m.cell_bits(),
        })
    }

    fn sum_max(&self) -> f64 {
        let x_max = ((1u64 << self.dac_bits) - 1) as f64;
        let w_max = ((1u64 << self.cell_bits) - 1) as f64;
        x_max * w_max * (self.reduction * self.ws_columns) as f64
    }
}

#[derive(Debug, Default, Clone)]
struct SimPartial {
    dac: f64,
    control: f64,
    cell: f64,
    adc: f64,
    adder: f64,
    analog_accumulator: f64,
    accumulator: f64,
    events: u64,
    /// Weight words drawn and looked up: `events` minus the silent rows.
    weight_lookups: u64,
}

impl SimPartial {
    fn merge(&mut self, other: &SimPartial) {
        self.dac += other.dac;
        self.control += other.control;
        self.cell += other.cell;
        self.adc += other.adc;
        self.adder += other.adder;
        self.analog_accumulator += other.analog_accumulator;
        self.accumulator += other.accumulator;
        self.events += other.events;
        self.weight_lookups += other.weight_lookups;
    }
}

/// Draws one column's weights, one RNG word per active row in row order
/// (`levels` holds the active rows' input levels), adding each cell
/// energy to `cell`. Returns the column sum.
///
/// Kept out of line so the row loop has the registers to itself: inlined
/// into [`simulate_steps`], its energy sum lands on the stack and
/// macro_a, whose rows are all active, simulates about 10% slower.
#[inline(never)]
fn weigh(
    levels: &[usize],
    w_levels: &[u16],
    sampler: &OperandSampler,
    tables: &EnergyTables,
    cell: &mut f64,
    rng: &mut StdRng,
) -> u64 {
    let mut energy = *cell;
    let mut col_sum = 0u64;
    for &x in levels {
        let w = usize::from(w_levels[sampler.sample(rng)]);
        energy += tables.cell[x * tables.cell_levels + w];
        col_sum += (x * w) as u64;
    }
    *cell = energy;
    col_sum
}

/// Simulates `steps` array activations, drawing every operand from `rng`.
///
/// Each step draws one input word per row, then one weight word per
/// active row for each column, in row order. A row is *silent* when its
/// input level is 0 and every cell-table entry of level 0 is `±0.0`
/// (ReRAM: E = G·V²·t): whatever its weight, it adds only `±0.0` to the
/// cell energy and `0 · w` to the column sum, so it draws no weight word.
/// Leaving its add out is exact: `cell` starts at `+0.0`, and a
/// round-to-nearest sum is `-0.0` only when both addends are, so adding
/// `±0.0` to it is the identity. Only level 0 can be silent, since the
/// column sum needs the weight of any other level. With no silent row
/// (every SRAM macro), every row draws: one word and one lookup per event.
fn simulate_steps(
    steps: u64,
    g: &Geometry,
    tables: &EnergyTables,
    input_sampler: &OperandSampler,
    weight_sampler: &OperandSampler,
    rng: &mut StdRng,
) -> SimPartial {
    let mut out = SimPartial::default();
    let adc_max = ((1u64 << tables.adc_bits) - 1) as f64;
    let sum_max = g.sum_max();
    let silent_zero = tables.cell[..tables.cell_levels].iter().all(|&e| e == 0.0);

    let mut acc_codes: Vec<f64> = vec![0.0; g.outputs as usize];
    let mut acc_phase: u64 = 0;

    // Input levels of the step's active rows, in row order.
    let mut active: Vec<usize> = Vec::with_capacity(g.reduction as usize);

    for _ in 0..steps {
        // Sample slice indices uniformly: each step of the bit-serial
        // schedule uses one (device, slice) pair; random sampling over
        // steps is an unbiased estimator of the schedule average.
        let in_device = rng.gen::<u32>() % g.input_devices;
        let in_slice_idx = rng.gen::<u32>() % g.input_slice_count;
        let w_device = rng.gen::<u32>() % g.weight_devices;

        // Inputs: one word per reduction row; DAC converts its slice.
        let x_levels = input_sampler.slices(in_device, in_slice_idx);
        active.clear();
        for _ in 0..g.reduction {
            let x = usize::from(x_levels[input_sampler.sample(rng)]);
            out.dac += tables.dac[x];
            out.control += tables.control;
            if x != 0 || !silent_zero {
                active.push(x);
            }
        }

        // Columns.
        for col in 0..g.outputs {
            let mut combined_sum = 0u64;
            for ws in 0..g.ws_columns {
                // Temporal weight slice (if any) is sampled; spatial slices
                // (Macro B) enumerate `ws`.
                let t_slice = if g.ws_columns > 1 {
                    ws as u32
                } else {
                    rng.gen::<u32>() % g.weight_slice_count
                };
                let w_levels = weight_sampler.slices(w_device, t_slice);
                combined_sum += weigh(
                    &active,
                    w_levels,
                    weight_sampler,
                    tables,
                    &mut out.cell,
                    rng,
                );
                out.weight_lookups += active.len() as u64;
            }
            out.events += g.reduction * g.ws_columns;
            let code = ((combined_sum as f64 / sum_max) * adc_max)
                .round()
                .clamp(0.0, adc_max) as usize;

            match g.combine {
                OutputCombine::AnalogAdder { .. } => {
                    if !tables.adder.is_empty() {
                        out.adder += tables.adder[code];
                    }
                    out.adc += tables.adc[code];
                    if !tables.accumulator.is_empty() {
                        out.accumulator += tables.accumulator[code];
                    }
                }
                OutputCombine::AnalogAccumulator => {
                    // Integrate; the ADC converts when a group completes.
                    let slot = &mut acc_codes[col as usize];
                    *slot = (*slot + code as f64 / g.accumulate_depth as f64).min(adc_max);
                    if !tables.analog_accumulator.is_empty() {
                        out.analog_accumulator +=
                            tables.analog_accumulator[(*slot).round() as usize];
                    }
                }
                _ => {
                    out.adc += tables.adc[code];
                    if !tables.accumulator.is_empty() {
                        out.accumulator += tables.accumulator[code];
                    }
                }
            }
        }

        if g.combine == OutputCombine::AnalogAccumulator {
            acc_phase += 1;
            if acc_phase >= g.accumulate_depth {
                for slot in acc_codes.iter_mut() {
                    let code = (*slot).round().clamp(0.0, adc_max) as usize;
                    out.adc += tables.adc[code];
                    *slot = 0.0;
                }
                acc_phase = 0;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `simulate_steps` event by event: every row of every column is
    /// charged. An active row draws its weight word and looks it up. A
    /// silent row draws nothing and is charged the level-0 energy of the
    /// weight its row index picks, so zeros of both signs reach `cell`.
    fn reference_steps(
        steps: u64,
        g: &Geometry,
        tables: &EnergyTables,
        input_sampler: &OperandSampler,
        weight_sampler: &OperandSampler,
        rng: &mut StdRng,
    ) -> SimPartial {
        let mut out = SimPartial::default();
        let adc_max = ((1u64 << tables.adc_bits) - 1) as f64;
        let sum_max = g.sum_max();
        let silent_zero = tables.cell[..tables.cell_levels].iter().all(|&e| e == 0.0);

        let mut acc_codes: Vec<f64> = vec![0.0; g.outputs as usize];
        let mut acc_phase: u64 = 0;

        let mut x_slices: Vec<usize> = vec![0; g.reduction as usize];

        for _ in 0..steps {
            // Sample slice indices uniformly: each step of the bit-serial
            // schedule uses one (device, slice) pair; random sampling over
            // steps is an unbiased estimator of the schedule average.
            let in_device = rng.gen::<u32>() % g.input_devices;
            let in_slice_idx = rng.gen::<u32>() % g.input_slice_count;
            let w_device = rng.gen::<u32>() % g.weight_devices;

            // Inputs: one word per reduction row; DAC converts its slice.
            let x_levels = input_sampler.slices(in_device, in_slice_idx);
            for slot in x_slices.iter_mut() {
                let x = usize::from(x_levels[input_sampler.sample(rng)]);
                *slot = x;
                out.dac += tables.dac[x];
                out.control += tables.control;
            }

            // Columns.
            for col in 0..g.outputs {
                let mut combined_sum = 0u64;
                for ws in 0..g.ws_columns {
                    // Temporal weight slice (if any) is sampled; spatial slices
                    // (Macro B) enumerate `ws`.
                    let t_slice = if g.ws_columns > 1 {
                        ws as u32
                    } else {
                        rng.gen::<u32>() % g.weight_slice_count
                    };
                    let w_levels = weight_sampler.slices(w_device, t_slice);
                    let mut col_sum = 0u64;
                    for (row, &x) in x_slices.iter().enumerate() {
                        if x == 0 && silent_zero {
                            out.cell += tables.cell[row % tables.cell_levels];
                            continue;
                        }
                        let w = usize::from(w_levels[weight_sampler.sample(rng)]);
                        out.cell += tables.cell[x * tables.cell_levels + w];
                        col_sum += (x * w) as u64;
                    }
                    combined_sum += col_sum;
                }
                out.events += g.reduction * g.ws_columns;
                let code = ((combined_sum as f64 / sum_max) * adc_max)
                    .round()
                    .clamp(0.0, adc_max) as usize;

                match g.combine {
                    OutputCombine::AnalogAdder { .. } => {
                        if !tables.adder.is_empty() {
                            out.adder += tables.adder[code];
                        }
                        out.adc += tables.adc[code];
                        if !tables.accumulator.is_empty() {
                            out.accumulator += tables.accumulator[code];
                        }
                    }
                    OutputCombine::AnalogAccumulator => {
                        // Integrate; the ADC converts when a group completes.
                        let slot = &mut acc_codes[col as usize];
                        *slot = (*slot + code as f64 / g.accumulate_depth as f64).min(adc_max);
                        if !tables.analog_accumulator.is_empty() {
                            out.analog_accumulator +=
                                tables.analog_accumulator[(*slot).round() as usize];
                        }
                    }
                    _ => {
                        out.adc += tables.adc[code];
                        if !tables.accumulator.is_empty() {
                            out.accumulator += tables.accumulator[code];
                        }
                    }
                }
            }

            if g.combine == OutputCombine::AnalogAccumulator {
                acc_phase += 1;
                if acc_phase >= g.accumulate_depth {
                    for slot in acc_codes.iter_mut() {
                        let code = (*slot).round().clamp(0.0, adc_max) as usize;
                        out.adc += tables.adc[code];
                        *slot = 0.0;
                    }
                    acc_phase = 0;
                }
            }
        }
        out
    }

    /// `±0.0`, picked by the next RNG word.
    fn signed_zero(rng: &mut StdRng) -> f64 {
        if rng.gen::<bool>() {
            0.0
        } else {
            -0.0
        }
    }

    /// A small non-zero integer of either sign, so energies cancel
    /// exactly and sums pass through `+0.0`.
    fn nonzero(rng: &mut StdRng) -> f64 {
        let magnitude = f64::from(1 + rng.gen::<u32>() % 3);
        if rng.gen::<bool>() {
            magnitude
        } else {
            -magnitude
        }
    }

    /// A distribution over every `bits`-bit value, some without mass and
    /// 0 with up to about half of it.
    fn random_pmf(rng: &mut StdRng, bits: u32, signed: bool) -> Pmf {
        let (lo, hi) = if signed {
            (-(1i64 << (bits - 1)), (1i64 << (bits - 1)) - 1)
        } else {
            (0, (1i64 << bits) - 1)
        };
        let points = (hi - lo + 1) as f64;
        let weights: Vec<(f64, f64)> = (lo..=hi)
            .map(|v| {
                let w = match (v, rng.gen::<u32>() % 4) {
                    (0, _) => 1.0 + rng.gen::<f64>() * points,
                    (_, 0) => 0.0,
                    _ => rng.gen::<f64>(),
                };
                (v as f64, w)
            })
            .collect();
        Pmf::from_weights(weights).unwrap()
    }

    /// Tables whose cell levels are each all `±0.0` (silent at level 0),
    /// `±0.0` but for one entry, or a mix of `±0.0` and non-zero entries.
    fn random_tables(rng: &mut StdRng, dac_bits: u32, cell_bits: u32) -> EnergyTables {
        let dac_levels = 1usize << dac_bits;
        let cell_levels = 1usize << cell_bits;
        let mut cell = Vec::with_capacity(dac_levels * cell_levels);
        for _ in 0..dac_levels {
            let kind = rng.gen::<u32>() % 3;
            let lone = rng.gen::<usize>() % cell_levels;
            for w in 0..cell_levels {
                let zero = kind == 0 || (kind == 1 && w != lone) || (kind == 2 && rng.gen());
                cell.push(if zero { signed_zero(rng) } else { nonzero(rng) });
            }
        }
        let adc_bits = 1 + rng.gen::<u32>() % 5;
        let adc_levels = 1usize << adc_bits;
        EnergyTables {
            dac: energies(rng, dac_levels, false),
            control: 0.5,
            cell,
            cell_levels,
            adc: energies(rng, adc_levels, false),
            adder: energies(rng, adc_levels, true),
            analog_accumulator: energies(rng, adc_levels, true),
            accumulator: energies(rng, adc_levels, true),
            adc_bits,
        }
    }

    /// `len` non-zero energies; none, if `optional` and the next word says
    /// so (a component the macro lacks).
    fn energies(rng: &mut StdRng, len: usize, optional: bool) -> Vec<f64> {
        if optional && rng.gen() {
            return Vec::new();
        }
        (0..len).map(|_| nonzero(rng)).collect()
    }

    /// Every field but the lookup count, as bits.
    fn partial_bits(p: &SimPartial) -> [u64; 8] {
        [
            p.dac.to_bits(),
            p.control.to_bits(),
            p.cell.to_bits(),
            p.adc.to_bits(),
            p.adder.to_bits(),
            p.analog_accumulator.to_bits(),
            p.accumulator.to_bits(),
            p.events,
        ]
    }

    #[test]
    fn silent_rows_skip_their_weight_lookups() {
        let net = cimloop_workload::models::resnet18();
        let layer = &net.layers()[6];
        let cfg = |max_activations| ExactConfig {
            seed: 1,
            max_activations,
            threads: 1,
        };
        // ReRAM cells draw nothing at input 0, so most 1-bit input rows
        // are silent.
        let (_, base) = simulate(&cimloop_macros::base_macro(), layer, &cfg(64)).unwrap();
        assert_eq!(
            (base.events, base.weight_lookups),
            (1_048_576, 141_952),
            "base_macro's weight lookups"
        );
        // SRAM cells charge a fixed share at input 0: nothing is silent.
        let (_, a) = simulate(&cimloop_macros::macro_a(), layer, &cfg(4)).unwrap();
        assert!(a.events > 0);
        assert_eq!(a.weight_lookups, a.events, "macro_a's weight lookups");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn silent_rows_leave_every_bit_unchanged(
            combine in 0usize..4,
            (reduction, outputs, ws_columns) in (1u64..40, 1u64..4, 1u64..4),
            accumulate_depth in 1u64..4,
            (dac_bits, cell_bits) in (1u32..4, 1u32..4),
            (input_encoding, weight_encoding) in (0usize..4, 0usize..4),
            (input_bits, weight_bits, signed) in (1u32..7, 1u32..7, any::<bool>()),
            steps in 1u64..5,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let combine = [
                OutputCombine::None,
                OutputCombine::WireSum { columns_per_group: 2 },
                OutputCombine::AnalogAdder { operands: 2 },
                OutputCombine::AnalogAccumulator,
            ][combine];
            let (input_encoding, weight_encoding) =
                (Encoding::ALL[input_encoding], Encoding::ALL[weight_encoding]);
            let g = Geometry {
                reduction,
                outputs,
                ws_columns,
                accumulate_depth,
                input_slice_count: input_bits.div_ceil(dac_bits),
                weight_slice_count: weight_bits.div_ceil(cell_bits),
                input_devices: input_encoding.devices_per_operand() as u32,
                weight_devices: weight_encoding.devices_per_operand() as u32,
                combine,
                dac_bits,
                cell_bits,
            };
            let inputs = OperandSampler::new(
                &random_pmf(&mut rng, input_bits, signed),
                input_encoding,
                input_bits,
                signed,
                dac_bits,
                g.input_slice_count,
            );
            let weights = OperandSampler::new(
                &random_pmf(&mut rng, weight_bits, signed),
                weight_encoding,
                weight_bits,
                signed,
                cell_bits,
                g.weight_slice_count.max(ws_columns as u32),
            );
            let tables = random_tables(&mut rng, dac_bits, cell_bits);

            let mut fast_rng = StdRng::seed_from_u64(rng.gen());
            let mut slow_rng = fast_rng.clone();
            let fast = simulate_steps(steps, &g, &tables, &inputs, &weights, &mut fast_rng);
            let slow = reference_steps(steps, &g, &tables, &inputs, &weights, &mut slow_rng);
            prop_assert_eq!(partial_bits(&fast), partial_bits(&slow));
            prop_assert_eq!(fast_rng.next_u64(), slow_rng.next_u64());
            prop_assert!(fast.weight_lookups <= fast.events);
            if tables.cell[..tables.cell_levels].iter().any(|&e| e != 0.0) {
                prop_assert_eq!(fast.weight_lookups, fast.events);
            }
        }
    }
}
