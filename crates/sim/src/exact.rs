use std::collections::BTreeMap;

use cimloop_circuits::ValueContext;
use cimloop_core::{par_try_map, CoreError, Encoding, Evaluator};
use cimloop_macros::{ArrayMacro, OutputCombine};
use cimloop_map::analyze;
use cimloop_spec::Tensor;
use cimloop_stats::Pmf;
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
    /// Worker threads (1 = single-threaded, as NeuroSim runs).
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

/// A sampler drawing operand words and their encoded levels.
struct OperandSampler {
    cdf: Vec<f64>,
    /// Encoded levels per support value, one `Vec<u64>` per device stream.
    levels: Vec<Vec<u64>>,
}

impl OperandSampler {
    fn new(pmf: &Pmf, encoding: Encoding, bits: u32, signed: bool) -> Self {
        let mut cdf = Vec::with_capacity(pmf.len());
        let mut levels = Vec::with_capacity(pmf.len());
        let mut cum = 0.0;
        for (v, p) in pmf.iter() {
            cum += p;
            cdf.push(cum);
            levels.push(encoding.encode_value(v as i64, bits, signed));
        }
        OperandSampler { cdf, levels }
    }

    fn sample(&self, rng: &mut StdRng) -> &[u64] {
        let u: f64 = rng.gen();
        let idx = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.levels.len() - 1);
        &self.levels[idx]
    }
}

/// Per-event energy lookup tables built from the evaluator's own component
/// models (delta-distribution contexts).
struct EnergyTables {
    dac: Vec<f64>,
    control: f64,
    /// `cell[x][w]`.
    cell: Vec<Vec<f64>>,
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

        let mut cell = Vec::with_capacity(dac_levels);
        for x in 0..dac_levels {
            let x_pmf = delta(x);
            let mut row = Vec::with_capacity(cell_levels);
            for w in 0..cell_levels {
                let w_pmf = delta(w);
                row.push(evaluator.component_read_energy(
                    "cell",
                    &ValueContext::cell(&x_pmf, m.dac_bits(), &w_pmf, m.cell_bits()),
                ));
            }
            cell.push(row);
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
/// # Errors
///
/// Propagates evaluation errors from the macro's models.
pub fn simulate_layer(
    m: &ArrayMacro,
    layer: &Layer,
    cfg: &ExactConfig,
) -> Result<ExactReport, CoreError> {
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
    );
    let weight_sampler = OperandSampler::new(
        &layer.weight_pmf()?,
        rep.weight_encoding(),
        layer.weight_bits(),
        layer.weight_signed(),
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

    Ok(ExactReport {
        per_component,
        simulated_activations: simulated,
        total_activations: total_steps,
        cell_events: sim.events,
    })
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
    }
}

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

    // Sample slice indices uniformly: each step of the bit-serial schedule
    // uses one (device, slice) pair; random sampling over steps is an
    // unbiased estimator of the schedule average.
    let dac_mask = (tables.dac.len() - 1) as u64;
    let cell_mask = (tables.cell[0].len() - 1) as u64;

    let mut acc_codes: Vec<f64> = vec![0.0; g.outputs as usize];
    let mut acc_phase: u64 = 0;

    let mut x_slices: Vec<u64> = vec![0; g.reduction as usize];

    for _ in 0..steps {
        // Pick the bit-serial position for this step.
        let in_device = (rng.gen::<u32>() % g.input_devices) as usize;
        let in_slice_idx = rng.gen::<u32>() % g.input_slice_count;
        let w_device = (rng.gen::<u32>() % g.weight_devices) as usize;
        let w_slice_count = g.weight_slice_count;

        // Inputs: one word per reduction row; DAC converts its slice.
        for slot in x_slices.iter_mut() {
            let levels = input_sampler.sample(rng);
            let level = levels[in_device.min(levels.len() - 1)];
            let x = Encoding::slice_value(level, g.dac_bits, in_slice_idx) & dac_mask;
            *slot = x;
            out.dac += tables.dac[x as usize];
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
                    rng.gen::<u32>() % w_slice_count
                };
                let mut col_sum = 0u64;
                for &x in &x_slices {
                    let levels = weight_sampler.sample(rng);
                    let level = levels[w_device.min(levels.len() - 1)];
                    let w = Encoding::slice_value(level, g.cell_bits, t_slice) & cell_mask;
                    out.cell += tables.cell[x as usize][w as usize];
                    col_sum += x * w;
                    out.events += 1;
                }
                combined_sum += col_sum;
            }
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
