//! The CiMLoop evaluator: Algorithm 1 of the paper.
//!
//! [`Evaluator::action_energies`] performs the data-value-dependent work
//! once per (layer, representation): every component model reduces its
//! propagated distribution to an average read/write energy per action.
//! [`Evaluator::evaluate_mapping`] is the fast inner loop — pure
//! multiply-accumulate of mapping-dependent action counts against the
//! amortized per-action energies — and can be called for thousands of
//! mappings (Table II's amortization).

// The panic policy: evaluation errors are `CoreError`s, never panics.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use cimloop_circuits::{BoxedModel, Library, ValueContext};
use cimloop_map::{analyze, Mapper, Mapping};
use cimloop_noise::{NoiseReport, NoiseSpec};
use cimloop_spec::{Hierarchy, Reuse, Tensor};
use cimloop_workload::{Layer, Shape, Workload};

use crate::pipeline::reduction_rows_of;
use crate::{par_try_map, CoreError, EnergyTableCache, Pipeline, Representation, TableSignature};

/// Per-action energies for one component and tensor, joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct ActionEnergy {
    read: f64,
    write: f64,
}

/// The amortized per-action energy table for one (layer, representation)
/// pair — the output of Algorithm 1's lines 5–7. Mapping-invariant.
#[derive(Debug, Clone)]
pub struct ActionEnergyTable {
    entries: BTreeMap<String, [ActionEnergy; 3]>,
    cycle_time: f64,
    cycle_time_defaulted: bool,
    noise: Option<NoiseReport>,
}

impl ActionEnergyTable {
    /// Average energy of one read-like action of `component` for `tensor`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `component` is not part of the hierarchy
    /// the table was derived from (almost always a spec typo). Release
    /// builds return `0.0` to keep the mapping-search hot path branch-lean.
    pub fn read_energy(&self, component: &str, tensor: Tensor) -> f64 {
        debug_assert!(
            self.entries.contains_key(component),
            "unknown component {component:?} in ActionEnergyTable lookup (spec typo?)"
        );
        self.entries
            .get(component)
            .map(|e| e[tensor as usize].read)
            .unwrap_or(0.0)
    }

    /// Average energy of one write-like action of `component` for `tensor`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::read_energy`].
    pub fn write_energy(&self, component: &str, tensor: Tensor) -> f64 {
        debug_assert!(
            self.entries.contains_key(component),
            "unknown component {component:?} in ActionEnergyTable lookup (spec typo?)"
        );
        self.entries
            .get(component)
            .map(|e| e[tensor as usize].write)
            .unwrap_or(0.0)
    }

    /// Whether the table has an entry for `component` (fallible lookup for
    /// callers probing outside the hierarchy).
    pub fn contains(&self, component: &str) -> bool {
        self.entries.contains_key(component)
    }

    #[cfg(test)]
    pub(crate) fn empty_for_tests() -> Self {
        ActionEnergyTable {
            entries: BTreeMap::new(),
            cycle_time: Evaluator::DEFAULT_CYCLE_TIME,
            cycle_time_defaulted: true,
            noise: None,
        }
    }

    /// The macro cycle time implied by the slowest per-cycle component.
    pub fn cycle_time(&self) -> f64 {
        self.cycle_time
    }

    /// Whether [`Self::cycle_time`] is the placeholder
    /// [`Evaluator::DEFAULT_CYCLE_TIME`] rather than a latency any
    /// per-cycle component actually declared. When `true`, every derived
    /// timing number (latency, GOPS) is an artifact of the fallback — a
    /// misconfigured spec, not a modeled circuit. `cimloop validate`
    /// warns on this flag.
    pub fn cycle_time_defaulted(&self) -> bool {
        self.cycle_time_defaulted
    }

    /// The statistical output-accuracy summary of the analog readout for
    /// this (layer, representation) pair, or `None` for hierarchies with
    /// no output converter and no declared noise (digital readout
    /// resolves every bit exactly). Mapping-invariant, like the energies.
    pub fn noise(&self) -> Option<NoiseReport> {
        self.noise
    }
}

/// Energy/actions/area of one component for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentReport {
    /// Component name (matches the spec).
    pub name: String,
    /// Component class.
    pub class: String,
    /// Dynamic energy for the layer, joules.
    pub energy: f64,
    /// Leakage energy for the layer, joules.
    pub leakage_energy: f64,
    /// Read-like actions summed over tensors.
    pub reads: f64,
    /// Write-like actions summed over tensors.
    pub writes: f64,
    /// Physical instances (mesh-based, including idle units).
    pub instances: u64,
    /// Total area of all instances, m².
    pub area: f64,
}

impl ComponentReport {
    /// Dynamic plus leakage energy, joules.
    pub fn total_energy(&self) -> f64 {
        self.energy + self.leakage_energy
    }
}

/// Evaluation result for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    layer_name: String,
    components: Vec<ComponentReport>,
    macs: u64,
    padded_macs: u64,
    utilization: f64,
    spatial_utilization: f64,
    cycles: u64,
    cycle_time: f64,
    noise: Option<NoiseReport>,
}

impl LayerReport {
    /// Per-component reports, in hierarchy order.
    pub fn components(&self) -> &[ComponentReport] {
        &self.components
    }

    /// Looks up one component's report.
    pub fn component(&self, name: &str) -> Option<&ComponentReport> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Dynamic + leakage energy of one component (0 if absent), joules.
    pub fn energy_of(&self, name: &str) -> f64 {
        self.component(name)
            .map(ComponentReport::total_energy)
            .unwrap_or(0.0)
    }

    /// The evaluated layer's name.
    pub fn layer_name(&self) -> &str {
        &self.layer_name
    }

    /// Total energy (dynamic + leakage) for the layer, joules.
    pub fn energy_total(&self) -> f64 {
        self.components
            .iter()
            .map(ComponentReport::total_energy)
            .sum()
    }

    /// Energy per useful word-level MAC, joules.
    pub fn energy_per_mac(&self) -> f64 {
        if self.macs == 0 {
            return 0.0;
        }
        self.energy_total() / self.macs as f64
    }

    /// Useful word-level MACs.
    pub fn macs(&self) -> u64 {
        self.macs
    }

    /// Slice-granular MAC events including padding.
    pub fn padded_macs(&self) -> u64 {
        self.padded_macs
    }

    /// Iteration-space utilization (1.0 = no padding).
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Fraction of spatial instances used by the mapping.
    pub fn spatial_utilization(&self) -> f64 {
        self.spatial_utilization
    }

    /// Sequential macro steps (array activations).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Seconds per step.
    pub fn cycle_time(&self) -> f64 {
        self.cycle_time
    }

    /// Layer latency, seconds.
    pub fn latency(&self) -> f64 {
        self.cycles as f64 * self.cycle_time
    }

    /// Throughput in operations/second (2 ops per MAC).
    pub fn ops_per_second(&self) -> f64 {
        let latency = self.latency();
        if latency <= 0.0 {
            return 0.0;
        }
        2.0 * self.macs as f64 / latency
    }

    /// Throughput in GOPS.
    pub fn gops(&self) -> f64 {
        self.ops_per_second() / 1e9
    }

    /// Energy efficiency in TOPS/W (= tera-operations per joule·second⁻¹
    /// per watt, i.e., 2·MACs / energy / 1e12).
    pub fn tops_per_watt(&self) -> f64 {
        let energy = self.energy_total();
        if energy <= 0.0 {
            return 0.0;
        }
        2.0 * self.macs as f64 / energy / 1e12
    }

    /// The statistical output-accuracy summary of the analog readout
    /// (`None` for digital readout with no declared noise).
    pub fn noise(&self) -> Option<NoiseReport> {
        self.noise
    }

    /// Expected output SNR of the analog readout in dB, if modeled.
    pub fn output_snr_db(&self) -> Option<f64> {
        self.noise.map(|n| n.snr_db)
    }
}

/// Evaluation result for a whole workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    workload_name: String,
    layers: Vec<(u64, LayerReport)>,
}

impl RunReport {
    /// Assembles a report from per-layer results and their repeat counts,
    /// in execution order: how [`Evaluator::evaluate`] merges its layers,
    /// and how a per-layer [`Evaluator::evaluate_layer`] sweep assembles
    /// the reference it must equal.
    pub fn from_layer_reports(
        workload_name: impl Into<String>,
        layers: Vec<(u64, LayerReport)>,
    ) -> Self {
        RunReport {
            workload_name: workload_name.into(),
            layers,
        }
    }

    /// The per-layer reports with their repeat counts.
    pub fn layers(&self) -> &[(u64, LayerReport)] {
        &self.layers
    }

    /// The evaluated workload's name.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }

    /// Total energy across all layers (respecting repeat counts), joules.
    pub fn energy_total(&self) -> f64 {
        self.layers
            .iter()
            .map(|(count, l)| *count as f64 * l.energy_total())
            .sum()
    }

    /// Total useful MACs across all layers.
    pub fn macs_total(&self) -> u64 {
        self.layers.iter().map(|(count, l)| count * l.macs()).sum()
    }

    /// Total latency, seconds.
    pub fn latency_total(&self) -> f64 {
        self.layers
            .iter()
            .map(|(count, l)| *count as f64 * l.latency())
            .sum()
    }

    /// Workload-level energy per MAC, joules.
    pub fn energy_per_mac(&self) -> f64 {
        let macs = self.macs_total();
        if macs == 0 {
            return 0.0;
        }
        self.energy_total() / macs as f64
    }

    /// Workload-level energy efficiency, TOPS/W.
    pub fn tops_per_watt(&self) -> f64 {
        let energy = self.energy_total();
        if energy <= 0.0 {
            return 0.0;
        }
        2.0 * self.macs_total() as f64 / energy / 1e12
    }

    /// Total energy attributed to one component across layers, joules.
    pub fn energy_of(&self, component: &str) -> f64 {
        self.layers
            .iter()
            .map(|(count, l)| *count as f64 * l.energy_of(component))
            .sum()
    }

    /// The workload's expected output SNR in dB: the *worst* per-layer
    /// SNR, since a network's accuracy is gated by its noisiest layer.
    /// `None` if no layer modeled an analog readout.
    pub fn output_snr_db(&self) -> Option<f64> {
        self.layers
            .iter()
            .filter_map(|(_, l)| l.output_snr_db())
            .min_by(f64::total_cmp)
    }

    /// The workload's effective number of output bits (worst layer).
    pub fn output_enob(&self) -> Option<f64> {
        self.layers
            .iter()
            .filter_map(|(_, l)| l.noise().map(|n| n.enob))
            .min_by(f64::total_cmp)
    }
}

/// The quantities an [`Evaluator`] can report *before* any value
/// statistics are computed: what a staged design-space sweep screens on.
///
/// Everything here comes from `Evaluator::new` alone — circuit-model
/// construction and hierarchy inspection — which is orders of magnitude
/// cheaper than the column-sum statistics pipeline behind energy numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheapMetrics {
    /// Total silicon area, mm² (analytic area models; exact, not an
    /// estimate — the same number a full evaluation reports).
    pub area_mm2: f64,
    /// Output-converter resolution the accuracy analysis quantizes at
    /// (`None` for digital readout, which resolves every bit).
    pub output_adc_bits: Option<u32>,
    /// The hierarchy fingerprint (the energy-table cache's table-level
    /// key component).
    pub hierarchy_fingerprint: u64,
}

/// Per-component area summary.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaReport {
    components: Vec<(String, u64, f64)>,
}

impl AreaReport {
    /// `(name, instances, total area m²)` per component, hierarchy order.
    pub fn components(&self) -> &[(String, u64, f64)] {
        &self.components
    }

    /// Total area of one component, m².
    pub fn area_of(&self, name: &str) -> f64 {
        self.components
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, _, a)| a)
            .unwrap_or(0.0)
    }

    /// Total area, m².
    pub fn total(&self) -> f64 {
        self.components.iter().map(|&(_, _, a)| a).sum()
    }

    /// Total area, mm².
    pub fn total_mm2(&self) -> f64 {
        self.total() * 1e6
    }
}

/// The CiMLoop evaluator for one hierarchy: builds component models once,
/// then evaluates layers, mappings, and workloads.
pub struct Evaluator {
    hierarchy: Hierarchy,
    models: BTreeMap<String, BoxedModel>,
    mapper: Mapper,
    hierarchy_fingerprint: u64,
    reduction_rows: u64,
    noise: NoiseSpec,
    output_adc_bits: Option<u32>,
}

impl Evaluator {
    /// The placeholder cycle time (seconds) used when no per-cycle
    /// component declares a latency. Timing numbers derived from it are
    /// placeholders, not modeled circuits;
    /// [`ActionEnergyTable::cycle_time_defaulted`] reports when it was
    /// used.
    pub const DEFAULT_CYCLE_TIME: f64 = 1e-9;

    /// Builds models for every component of `hierarchy` via the default
    /// [`Library`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] naming the component whose class or
    /// attributes could not be resolved.
    pub fn new(hierarchy: Hierarchy) -> Result<Self, CoreError> {
        let library = Library::new();
        let mut models = BTreeMap::new();
        for component in hierarchy.components() {
            let model = library
                .build(component.class(), component.attributes())
                .map_err(|source| CoreError::Circuit {
                    component: Some(component.name().to_owned()),
                    source,
                })?;
            models.insert(component.name().to_owned(), model);
        }
        // Fingerprint the full spec (serialized form) so energy-table
        // cache entries from different hierarchies can never collide.
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        cimloop_spec::yamlite::write(&hierarchy).hash(&mut hasher);
        let hierarchy_fingerprint = hasher.finish();
        let reduction_rows = reduction_rows_of(&hierarchy);

        // Resolve the macro-level noise spec from the per-component
        // declarations (noise_* attributes parsed by the circuit library)
        // and the output converter the accuracy analysis quantizes at.
        let mut noise = NoiseSpec::ideal();
        for model in models.values() {
            let p = model.noise();
            noise = noise.max(
                &NoiseSpec::new()
                    .with_cell_variation(p.variation_sigma)
                    .with_read_noise(p.read_sigma)
                    .with_adc_offset(p.offset_sigma_lsb),
            );
        }
        // Detect the quantizing converter with the same class list and
        // resolution aliases the circuit library's model builder uses.
        let output_adc_bits = hierarchy
            .components()
            .filter(|c| cimloop_circuits::is_adc_class(c.class()))
            .filter_map(|c| cimloop_circuits::converter_resolution(c.attributes()))
            .map(|bits| bits.clamp(1, 24) as u32)
            .min();

        Ok(Evaluator {
            hierarchy,
            models,
            mapper: Mapper::default(),
            hierarchy_fingerprint,
            reduction_rows,
            noise,
            output_adc_bits,
        })
    }

    /// Overrides the non-ideality spec resolved from the hierarchy's
    /// `noise_*` attributes (e.g. to sweep variation tolerance without
    /// rebuilding hierarchies). The override participates in the cache
    /// signature, so overridden and attribute-derived evaluators never
    /// share energy tables.
    pub fn with_noise(mut self, noise: NoiseSpec) -> Self {
        self.noise = noise;
        self
    }

    /// The resolved non-ideality spec.
    pub fn noise(&self) -> NoiseSpec {
        self.noise
    }

    /// The output converter resolution the accuracy analysis quantizes
    /// at (`None` for digital readout).
    pub fn output_adc_bits(&self) -> Option<u32> {
        self.output_adc_bits
    }

    /// The hierarchy's in-network output-reduction width (the column-sum
    /// convolution length of the statistical pipeline).
    pub fn reduction_rows(&self) -> u64 {
        self.reduction_rows
    }

    /// Replaces the mapper (default: weight-stationary canonical).
    pub fn with_mapper(mut self, mapper: Mapper) -> Self {
        self.mapper = mapper;
        self
    }

    /// The evaluated hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The extended-Einsum shape of `layer` under `rep` (slice bounds set).
    ///
    /// # Errors
    ///
    /// Propagates shape validation errors.
    pub fn shape_for(&self, layer: &Layer, rep: &Representation) -> Result<Shape, CoreError> {
        Ok(layer
            .shape()
            .with_slices(rep.input_slices(layer), rep.weight_slices(layer))?)
    }

    /// Maps `layer` onto the hierarchy with the canonical mapper.
    ///
    /// # Errors
    ///
    /// Propagates mapper errors.
    pub fn map_layer(&self, layer: &Layer, rep: &Representation) -> Result<Mapping, CoreError> {
        let shape = self.shape_for(layer, rep)?;
        Ok(self.mapper.map(&self.hierarchy, shape)?)
    }

    /// Algorithm 1, lines 5–7: computes the mapping-invariant average
    /// energy per action for every component (data-value-dependent work,
    /// done once per layer).
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn action_energies(
        &self,
        layer: &Layer,
        rep: &Representation,
    ) -> Result<ActionEnergyTable, CoreError> {
        let pipeline = Pipeline::new(&self.hierarchy, layer, rep)?;
        Ok(self.table_from_pipeline(&pipeline))
    }

    /// The component-model reduction of Algorithm 1's line 7: folds a
    /// built [`Pipeline`] into per-action energies. Shared verbatim by the
    /// cached and uncached paths so their tables are bit-identical.
    fn table_from_pipeline(&self, pipeline: &Pipeline) -> ActionEnergyTable {
        let mut entries = BTreeMap::new();
        let mut cycle_time = 0.0f64;
        for component in self.hierarchy.components() {
            let model = &self.models[component.name()];
            let mut per_tensor = [ActionEnergy::default(); 3];
            for tensor in Tensor::ALL {
                if !component.reuse(tensor).is_active() {
                    continue;
                }
                let ctx = pipeline.context_for(component, tensor);
                per_tensor[tensor as usize] = ActionEnergy {
                    read: model.read_energy(&ctx),
                    write: model.write_energy(&ctx),
                };
            }
            entries.insert(component.name().to_owned(), per_tensor);
            if is_per_cycle(component) {
                cycle_time = cycle_time.max(model.latency());
            }
        }
        // No per-cycle component declared a latency (or all declared 0):
        // fall back to the named placeholder, and *record* that we did —
        // a silent 1 ns here makes misconfigured specs print
        // plausible-looking GOPS numbers.
        let cycle_time_defaulted = cycle_time == 0.0;
        if cycle_time_defaulted {
            cycle_time = Self::DEFAULT_CYCLE_TIME;
        }
        // The accuracy half of the statistical model: compose the
        // non-ideality transforms after the column-sum convolution
        // whenever there is an output converter to quantize at or any
        // declared noise. Purely digital, noise-free readout is exact and
        // carries no report.
        let noise = if self.output_adc_bits.is_some() || !self.noise.is_ideal() {
            Some(
                pipeline
                    .noise_analysis(&self.noise, self.output_adc_bits)
                    .report(),
            )
        } else {
            None
        };
        ActionEnergyTable {
            entries,
            cycle_time,
            cycle_time_defaulted,
            noise,
        }
    }

    /// Algorithm 1, lines 9–10: evaluates one mapping against a
    /// precomputed [`ActionEnergyTable`] — the fast path.
    ///
    /// # Errors
    ///
    /// Propagates dataflow-analysis errors.
    pub fn evaluate_mapping(
        &self,
        layer: &Layer,
        rep: &Representation,
        table: &ActionEnergyTable,
        mapping: &Mapping,
    ) -> Result<LayerReport, CoreError> {
        let shape = self.shape_for(layer, rep)?;
        let counts = analyze(&self.hierarchy, shape, mapping)?;
        let cycles = counts.temporal_steps();
        let latency = cycles as f64 * table.cycle_time();

        let mut components = Vec::new();
        for level in self.hierarchy.levels() {
            let Some(component) = level.node().as_component() else {
                continue;
            };
            let name = component.name();
            let model = &self.models[name];
            let mut energy = 0.0;
            let mut reads = 0.0;
            let mut writes = 0.0;
            for tensor in Tensor::ALL {
                let actions = counts.actions(name, tensor);
                energy += actions.reads * table.read_energy(name, tensor)
                    + actions.writes * table.write_energy(name, tensor);
                reads += actions.reads;
                writes += actions.writes;
            }
            let instances = level.instances();
            let leakage_energy = model.leakage() * instances as f64 * latency;
            components.push(ComponentReport {
                name: name.to_owned(),
                class: component.class().to_owned(),
                energy,
                leakage_energy,
                reads,
                writes,
                instances,
                area: model.area() * instances as f64,
            });
        }

        Ok(LayerReport {
            layer_name: layer.name().to_owned(),
            components,
            macs: counts.actual_macs(),
            padded_macs: counts.padded_macs(),
            utilization: counts.utilization(),
            spatial_utilization: counts.spatial_utilization(),
            cycles,
            cycle_time: table.cycle_time(),
            noise: table.noise(),
        })
    }

    /// The [`TableSignature`] of `layer` under `rep` on this evaluator:
    /// layers with equal signatures share one [`ActionEnergyTable`].
    pub fn table_signature(&self, layer: &Layer, rep: &Representation) -> TableSignature {
        TableSignature::new(self.hierarchy_fingerprint, layer, rep, &self.noise)
    }

    /// Like [`Self::action_energies`], but served through `cache` at both
    /// levels: the finished table is computed at most once per distinct
    /// [`TableSignature`] and shared (bit-identically) by every layer with
    /// the same signature, and on a table miss the hierarchy-independent
    /// [`crate::ValueStats`] (the dominant cost) are themselves served
    /// from the cache's stats level ([`EnergyTableCache::value_stats`]) —
    /// so evaluators of *different* hierarchies with equal reduction widths
    /// (e.g. the candidate designs of a sweep) amortize the column-sum
    /// convolution across each other, and a width twice or four times one
    /// already held continues its squaring ladder.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn action_energies_cached(
        &self,
        layer: &Layer,
        rep: &Representation,
        cache: &EnergyTableCache,
    ) -> Result<Arc<ActionEnergyTable>, CoreError> {
        cache.get_or_try_insert_with(self.table_signature(layer, rep), || {
            let stats = cache.value_stats(layer, rep, self.reduction_rows)?;
            let pipeline = Pipeline::from_stats(&self.hierarchy, stats);
            Ok(self.table_from_pipeline(&pipeline))
        })
    }

    /// Evaluates one layer end-to-end with the canonical mapping.
    ///
    /// # Errors
    ///
    /// Propagates pipeline, mapper, and dataflow errors.
    pub fn evaluate_layer(
        &self,
        layer: &Layer,
        rep: &Representation,
    ) -> Result<LayerReport, CoreError> {
        let table = self.action_energies(layer, rep)?;
        let mapping = self.map_layer(layer, rep)?;
        self.evaluate_mapping(layer, rep, &table, &mapping)
    }

    /// Like [`Self::evaluate_layer`], amortizing the energy table through
    /// `cache`. Produces bit-identical reports to the uncached path.
    ///
    /// # Errors
    ///
    /// Propagates pipeline, mapper, and dataflow errors.
    pub fn evaluate_layer_cached(
        &self,
        layer: &Layer,
        rep: &Representation,
        cache: &EnergyTableCache,
    ) -> Result<LayerReport, CoreError> {
        let table = self.action_energies_cached(layer, rep, cache)?;
        let mapping = self.map_layer(layer, rep)?;
        self.evaluate_mapping(layer, rep, &table, &mapping)
    }

    /// Evaluates a whole workload (respecting layer repeat counts): the
    /// layers fan out over [`par_try_map`] on `threads` workers (`0` =
    /// every core, `1` = the calling thread), each through
    /// [`Self::evaluate_layer_cached`], so layers with equal
    /// [`TableSignature`]s share one table from `cache`. Reports merge back
    /// in workload order, bit-identical to per-layer
    /// [`Self::evaluate_layer`] calls at any thread count and cache state;
    /// only timing and the cache counters differ.
    ///
    /// # Errors
    ///
    /// Propagates per-layer errors. On the first failure workers stop
    /// claiming layers, and the error of the earliest claimed failing
    /// layer is returned.
    pub fn evaluate(
        &self,
        workload: &Workload,
        rep: &Representation,
        cache: &EnergyTableCache,
        threads: usize,
    ) -> Result<RunReport, CoreError> {
        let layers = workload.layers();
        let reports = par_try_map(threads, layers.len(), |i| {
            self.evaluate_layer_cached(&layers[i], rep, cache)
        })?;
        let merged = layers.iter().map(Layer::count).zip(reports).collect();
        Ok(RunReport::from_layer_reports(workload.name(), merged))
    }

    /// Per-component and total area of the hierarchy.
    pub fn area(&self) -> AreaReport {
        let components = self
            .hierarchy
            .levels()
            .iter()
            .filter_map(|level| {
                let component = level.node().as_component()?;
                let model = &self.models[component.name()];
                Some((
                    component.name().to_owned(),
                    level.instances(),
                    model.area() * level.instances() as f64,
                ))
            })
            .collect();
        AreaReport { components }
    }

    /// The design's cheap pre-metrics: every quantity available from the
    /// constructed circuit models alone, without running the expensive
    /// value-statistics pipeline. Design-space sweeps use these for
    /// stage-one screening (area caps, converter-coverage floors,
    /// structural validity) before any `Pipeline` runs.
    pub fn cheap_metrics(&self) -> CheapMetrics {
        CheapMetrics {
            area_mm2: self.area().total_mm2(),
            output_adc_bits: self.output_adc_bits,
            hierarchy_fingerprint: self.hierarchy_fingerprint,
        }
    }

    /// Direct access to one component's model (e.g., to inspect per-action
    /// energy outside a layer context).
    pub fn model(&self, component: &str) -> Option<&BoxedModel> {
        self.models.get(component)
    }

    /// Evaluates one component's read energy under an explicit context
    /// (exposed for validation experiments).
    pub fn component_read_energy(&self, component: &str, ctx: &ValueContext<'_>) -> f64 {
        self.models
            .get(component)
            .map(|m| m.read_energy(ctx))
            .unwrap_or(0.0)
    }
}

/// Whether a component acts every macro cycle (and thus bounds cycle time).
fn is_per_cycle(component: &cimloop_spec::Component) -> bool {
    let has_transit = Tensor::ALL
        .iter()
        .any(|&t| matches!(component.reuse(t), Reuse::NoCoalesce | Reuse::Coalesce));
    has_transit
        || component
            .attributes()
            .bool("slice_storage")
            .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoding;
    use cimloop_spec::Hierarchy;
    use cimloop_workload::{models, LayerKind, Shape, ValueProfile};

    fn base_macro(rows: u64, cols: u64, adc_bits: i64) -> Hierarchy {
        let spec = format!(
            "
!Component
name: buffer
class: sram_buffer
entries: 65536
temporal_reuse: [Inputs, Outputs]
temporal_dims: Is
!Container
name: macro
!Component
name: accumulator
class: shift_add
bits: 24
temporal_reuse: [Outputs]
!Component
name: DAC
class: dac
resolution: 1
no_coalesce: [Inputs]
!Container
name: column
spatial: {{ meshX: {cols} }}
spatial_reuse: [Inputs]
spatial_dims: K, Ws
!Component
name: ADC
class: sar_adc
resolution: {adc_bits}
no_coalesce: [Outputs]
!Component
name: cell
class: sram_cim_cell
spatial: {{ meshY: {rows} }}
temporal_reuse: [Weights]
spatial_reuse: [Outputs]
spatial_dims: C, R, S
slice_storage: true
"
        );
        Hierarchy::from_yamlite(&spec).unwrap()
    }

    fn rep() -> Representation {
        Representation::new(Encoding::TwosComplement, Encoding::Offset, 1, 4).unwrap()
    }

    fn small_layer() -> Layer {
        Layer::new("l", LayerKind::Linear, Shape::linear(8, 64, 64).unwrap())
    }

    #[test]
    fn evaluate_layer_produces_positive_energy() {
        let e = Evaluator::new(base_macro(64, 64, 8)).unwrap();
        let report = e.evaluate_layer(&small_layer(), &rep()).unwrap();
        assert!(report.energy_total() > 0.0);
        assert!(report.energy_per_mac() > 0.0);
        assert!(report.tops_per_watt() > 0.0);
        assert!(report.gops() > 0.0);
        assert_eq!(report.macs(), 8 * 64 * 64);
        // Every component with actions shows energy.
        assert!(report.energy_of("ADC") > 0.0);
        assert!(report.energy_of("DAC") > 0.0);
        assert!(report.energy_of("cell") > 0.0);
    }

    #[test]
    fn unknown_class_errors_name_the_component() {
        let mut h = base_macro(8, 8, 8);
        h.component_mut("ADC").unwrap();
        // Rebuild hierarchy with a bogus class.
        let spec = cimloop_spec::yamlite::write(&h).replace("class: sar_adc", "class: bogus");
        let h = Hierarchy::from_yamlite(&spec).unwrap();
        let err = match Evaluator::new(h) {
            Ok(_) => panic!("bogus class should not resolve"),
            Err(err) => err,
        };
        match err {
            CoreError::Circuit { component, .. } => {
                assert_eq!(component.as_deref(), Some("ADC"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "unknown component")]
    fn misspelled_component_lookup_panics_in_debug() {
        let e = Evaluator::new(base_macro(16, 16, 8)).unwrap();
        let table = e.action_energies(&small_layer(), &rep()).unwrap();
        // "ACD" is a typo for "ADC": a silent 0.0 here would hide the bug.
        let _ = table.read_energy("ACD", Tensor::Outputs);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "unknown component")]
    fn misspelled_component_write_lookup_panics_in_debug() {
        let e = Evaluator::new(base_macro(16, 16, 8)).unwrap();
        let table = e.action_energies(&small_layer(), &rep()).unwrap();
        let _ = table.write_energy("cel", Tensor::Weights);
    }

    #[test]
    fn contains_is_the_fallible_lookup() {
        let e = Evaluator::new(base_macro(16, 16, 8)).unwrap();
        let table = e.action_energies(&small_layer(), &rep()).unwrap();
        assert!(table.contains("ADC"));
        assert!(!table.contains("ACD"));
    }

    #[test]
    fn cached_evaluation_is_bit_identical_and_shares_tables() {
        let e = Evaluator::new(base_macro(32, 32, 8)).unwrap();
        let r = rep();
        // Three layers, two distinct value signatures (shape is irrelevant
        // to the signature; input precision is not).
        let layers = vec![
            small_layer(),
            Layer::new(
                "wide",
                LayerKind::Linear,
                Shape::linear(4, 128, 96).unwrap(),
            ),
            small_layer().with_input_bits(4),
        ];
        let net = Workload::new("net", layers).unwrap();
        // The reference: uncached per-layer evaluation, merged in order.
        let per_layer = net
            .layers()
            .iter()
            .map(|l| (l.count(), e.evaluate_layer(l, &r).unwrap()))
            .collect();
        let reference = RunReport::from_layer_reports(net.name(), per_layer);
        for threads in [1, 4] {
            let cache = EnergyTableCache::new();
            let cold = e.evaluate(&net, &r, &cache, threads).unwrap();
            assert_eq!(cold, reference, "cold cache, {threads} threads");
            // Racing misses on one signature may each compute a
            // bit-identical table, so only one thread pins the split.
            if threads == 1 {
                assert_eq!(cache.misses(), 2, "two distinct signatures");
                assert_eq!(cache.hits(), 1, "repeated signature served from cache");
            }
            assert_eq!(cache.hits() + cache.misses(), 3);
            assert_eq!(cache.len(), 2);
            let hits = cache.hits();
            let warm = e.evaluate(&net, &r, &cache, threads).unwrap();
            assert_eq!(warm, reference, "warm cache, {threads} threads");
            assert_eq!(cache.hits(), hits + 3, "a warm sweep is all hits");
        }
    }

    #[test]
    fn different_hierarchies_never_share_cache_entries() {
        let e1 = Evaluator::new(base_macro(32, 32, 8)).unwrap();
        let e2 = Evaluator::new(base_macro(64, 64, 8)).unwrap();
        let layer = small_layer();
        let r = rep();
        let cache = EnergyTableCache::new();
        // Equal layer + representation, different hierarchies: the
        // fingerprint keeps the signatures (and cache slots) apart.
        assert_ne!(
            e1.table_signature(&layer, &r),
            e2.table_signature(&layer, &r)
        );
        let _ = e1.action_energies_cached(&layer, &r, &cache).unwrap();
        let _ = e2.action_energies_cached(&layer, &r, &cache).unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn action_energy_is_mapping_invariant() {
        let e = Evaluator::new(base_macro(32, 32, 8)).unwrap();
        let layer = small_layer();
        let r = rep();
        let table = e.action_energies(&layer, &r).unwrap();
        let shape = e.shape_for(&layer, &r).unwrap();
        let mappings = Mapper::default()
            .enumerate(e.hierarchy(), shape, 8)
            .unwrap();
        // The table is computed once; energies per action never change.
        let adc_e = table.read_energy("ADC", Tensor::Outputs);
        for m in &mappings {
            let report = e.evaluate_mapping(&layer, &r, &table, m).unwrap();
            assert!(report.energy_total() > 0.0);
            assert_eq!(table.read_energy("ADC", Tensor::Outputs), adc_e);
        }
    }

    #[test]
    fn mappings_change_total_energy_not_per_action() {
        let e = Evaluator::new(base_macro(16, 16, 8)).unwrap();
        let layer = Layer::new(
            "conv",
            LayerKind::Conv,
            Shape::conv(32, 32, 8, 8, 3, 3).unwrap(),
        );
        let r = rep();
        let table = e.action_energies(&layer, &r).unwrap();
        let shape = e.shape_for(&layer, &r).unwrap();
        let mappings = Mapper::default()
            .enumerate(e.hierarchy(), shape, 24)
            .unwrap();
        let energies: Vec<f64> = mappings
            .iter()
            .map(|m| {
                e.evaluate_mapping(&layer, &r, &table, m)
                    .unwrap()
                    .energy_total()
            })
            .collect();
        let min = energies.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = energies.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "loop permutation should change refetch energy");
    }

    #[test]
    fn more_input_bits_cost_more_energy() {
        let e = Evaluator::new(base_macro(64, 64, 8)).unwrap();
        let l1 = small_layer().with_input_bits(1);
        let l8 = small_layer().with_input_bits(8);
        let e1 = e.evaluate_layer(&l1, &rep()).unwrap().energy_total();
        let e8 = e.evaluate_layer(&l8, &rep()).unwrap().energy_total();
        assert!(e8 > 3.0 * e1, "8b {e8} vs 1b {e1}");
    }

    #[test]
    fn sparse_inputs_save_energy() {
        let e = Evaluator::new(base_macro(64, 64, 8)).unwrap();
        let sparse = small_layer().with_input_profile(ValueProfile::ReluActivations {
            sparsity: 0.9,
            sigma: 0.15,
        });
        let dense = small_layer().with_input_profile(ValueProfile::UniformUnsigned);
        let e_sparse = e.evaluate_layer(&sparse, &rep()).unwrap().energy_total();
        let e_dense = e.evaluate_layer(&dense, &rep()).unwrap().energy_total();
        assert!(e_sparse < e_dense);
    }

    #[test]
    fn area_report_counts_instances() {
        let e = Evaluator::new(base_macro(64, 32, 8)).unwrap();
        let area = e.area();
        let cells = area
            .components()
            .iter()
            .find(|(n, _, _)| n == "cell")
            .unwrap();
        assert_eq!(cells.1, 64 * 32);
        assert!(area.total() > 0.0);
        assert!(area.total_mm2() > 0.0);
        // ADC instances follow the column fanout.
        let adcs = area
            .components()
            .iter()
            .find(|(n, _, _)| n == "ADC")
            .unwrap();
        assert_eq!(adcs.1, 32);
    }

    #[test]
    fn workload_report_aggregates_layers() {
        let e = Evaluator::new(base_macro(64, 64, 8)).unwrap();
        let net = models::mobilenet_v3_large();
        // Evaluate a slice of the network to keep the test fast.
        let subset = Workload::new("subset", net.layers()[..4].to_vec()).unwrap();
        let report = e
            .evaluate(&subset, &rep(), &EnergyTableCache::new(), 1)
            .unwrap();
        assert_eq!(report.layers().len(), 4);
        let sum: f64 = report
            .layers()
            .iter()
            .map(|(c, l)| *c as f64 * l.energy_total())
            .sum();
        assert!((report.energy_total() - sum).abs() < 1e-18);
        assert!(report.tops_per_watt() > 0.0);
        assert!(report.energy_per_mac() > 0.0);
    }

    #[test]
    fn zero_sigma_noise_reports_are_bit_identical_to_ideal() {
        // Hierarchies that declare all-zero noise attributes differ in
        // their serialized spec (and thus cache fingerprint) but must
        // produce bit-identical reports: the disabled noise path is an
        // exact identity.
        let ideal = Evaluator::new(base_macro(64, 64, 8)).unwrap();
        let spec = cimloop_spec::yamlite::write(ideal.hierarchy()).replace(
            "class: sram_cim_cell",
            "class: sram_cim_cell\nnoise_variation_sigma: 0.0",
        );
        let zeroed = Evaluator::new(Hierarchy::from_yamlite(&spec).unwrap()).unwrap();
        assert!(zeroed.noise().is_ideal());
        let layer = small_layer();
        let a = ideal.evaluate_layer(&layer, &rep()).unwrap();
        let b = zeroed.evaluate_layer(&layer, &rep()).unwrap();
        assert_eq!(a, b);
        // The explicit zero-spec override is the same identity.
        let overridden = Evaluator::new(base_macro(64, 64, 8))
            .unwrap()
            .with_noise(NoiseSpec::new().with_cell_variation(0.0));
        let c = overridden.evaluate_layer(&layer, &rep()).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn adc_bits_alias_is_recognized() {
        // The circuit library accepts `bits` as an alias for `resolution`
        // on ADCs; the accuracy analysis must see the same converter.
        let spec = cimloop_spec::yamlite::write(&base_macro(32, 32, 6))
            .replace("resolution: 6", "bits: 6");
        let e = Evaluator::new(Hierarchy::from_yamlite(&spec).unwrap()).unwrap();
        assert_eq!(e.output_adc_bits(), Some(6));
        let report = e.evaluate_layer(&small_layer(), &rep()).unwrap();
        assert!(report.noise().is_some(), "aliased ADC must be quantized");
    }

    #[test]
    fn noise_attributes_degrade_reported_snr_not_energy() {
        let ideal = Evaluator::new(base_macro(64, 64, 8)).unwrap();
        let noisy = Evaluator::new(base_macro(64, 64, 8))
            .unwrap()
            .with_noise(NoiseSpec::new().with_cell_variation(0.15));
        let layer = small_layer();
        let a = ideal.evaluate_layer(&layer, &rep()).unwrap();
        let b = noisy.evaluate_layer(&layer, &rep()).unwrap();
        // Energy is untouched: noise is an accuracy model, not an energy
        // model.
        assert_eq!(a.energy_total(), b.energy_total());
        // Accuracy degrades below the quantization-limited ideal.
        let snr_ideal = a.output_snr_db().expect("analog readout is modeled");
        let snr_noisy = b.output_snr_db().expect("analog readout is modeled");
        assert!(snr_noisy < snr_ideal, "{snr_noisy} vs {snr_ideal}");
        assert!(b.noise().unwrap().enob <= a.noise().unwrap().enob);
    }

    #[test]
    fn noise_override_splits_cache_signatures() {
        let base = Evaluator::new(base_macro(32, 32, 8)).unwrap();
        let noisy = Evaluator::new(base_macro(32, 32, 8))
            .unwrap()
            .with_noise(NoiseSpec::new().with_read_noise(0.01));
        let layer = small_layer();
        let r = rep();
        assert_ne!(
            base.table_signature(&layer, &r),
            noisy.table_signature(&layer, &r)
        );
        let cache = EnergyTableCache::new();
        let _ = base.action_energies_cached(&layer, &r, &cache).unwrap();
        let _ = noisy.action_energies_cached(&layer, &r, &cache).unwrap();
        assert_eq!(cache.misses(), 2, "noise spec must split table entries");
        // But the expensive value statistics are noise-independent and
        // shared.
        assert_eq!(cache.stats_len(), 1);
        assert_eq!(cache.stats_hits(), 1);
    }

    #[test]
    fn workload_snr_is_the_worst_layer() {
        let e = Evaluator::new(base_macro(64, 64, 6))
            .unwrap()
            .with_noise(NoiseSpec::new().with_cell_variation(0.1));
        let layers = vec![small_layer(), small_layer().with_input_bits(4)];
        let net = Workload::new("net", layers).unwrap();
        let report = e
            .evaluate(&net, &rep(), &EnergyTableCache::new(), 1)
            .unwrap();
        let min = report
            .layers()
            .iter()
            .filter_map(|(_, l)| l.output_snr_db())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(report.output_snr_db(), Some(min));
        assert!(report.output_enob().unwrap() >= 0.0);
    }

    #[test]
    fn cycle_time_set_by_slowest_per_cycle_component() {
        let e = Evaluator::new(base_macro(64, 64, 8)).unwrap();
        let table = e.action_energies(&small_layer(), &rep()).unwrap();
        // The 100 MS/s ADC (10 ns) dominates DAC (1 ns) and buffer latency
        // is excluded (word storage is not per-cycle).
        assert!((table.cycle_time() - 10e-9).abs() < 1e-12);
    }

    #[test]
    fn declared_latency_is_not_flagged_as_defaulted() {
        let e = Evaluator::new(base_macro(64, 64, 8)).unwrap();
        let table = e.action_energies(&small_layer(), &rep()).unwrap();
        assert!(!table.cycle_time_defaulted());
    }

    #[test]
    fn missing_latency_falls_back_to_named_default_and_is_flagged() {
        // A hierarchy whose only active components store words (no
        // converters, no slice storage): nothing is per-cycle, so no
        // component bounds the cycle time.
        let spec = "
!Component
name: buffer
class: sram_buffer
entries: 1024
temporal_reuse: [Inputs, Outputs]
!Container
name: macro
!Component
name: cell
class: sram_cim_cell
spatial: { meshY: 16 }
temporal_reuse: [Weights]
spatial_reuse: [Outputs]
spatial_dims: C, R, S
";
        let e = Evaluator::new(Hierarchy::from_yamlite(spec).unwrap()).unwrap();
        let table = e.action_energies(&small_layer(), &rep()).unwrap();
        assert!(
            table.cycle_time_defaulted(),
            "fallback must be surfaced, not silent"
        );
        assert_eq!(table.cycle_time(), Evaluator::DEFAULT_CYCLE_TIME);
        // The placeholder still produces finite throughput numbers — which
        // is exactly why the flag has to exist.
        let report = e.evaluate_layer(&small_layer(), &rep()).unwrap();
        assert!(report.gops() > 0.0);
    }

    #[test]
    fn underutilization_raises_energy_per_mac() {
        let e = Evaluator::new(base_macro(256, 256, 8)).unwrap();
        let big = Layer::new(
            "big",
            LayerKind::Linear,
            Shape::linear(8, 256, 256).unwrap(),
        );
        let small = Layer::new(
            "small",
            LayerKind::Linear,
            Shape::linear(8, 16, 16).unwrap(),
        );
        let r = rep();
        let e_big = e.evaluate_layer(&big, &r).unwrap();
        let e_small = e.evaluate_layer(&small, &r).unwrap();
        // The small layer uses 16 of 256 rows: each ADC convert amortizes
        // over far fewer MACs.
        assert!(e_small.energy_per_mac() > 2.0 * e_big.energy_per_mac());
        assert!(e_small.spatial_utilization() < 0.01);
    }
}
