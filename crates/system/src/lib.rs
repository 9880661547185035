//! Full-system CiM modeling: DRAM backing storage plus a chip with a
//! global buffer, a router/NoC, and CiM macros (paper §V-B4, Fig 15).
//!
//! Whole-system context is what makes macro-level decisions meaningful
//! (paper Fig 2a: the lowest-energy *macro* is not the macro that yields
//! the lowest-energy *system*). [`CimSystem`] nests any
//! [`cimloop_macros::ArrayMacro`] under a configurable memory hierarchy and
//! evaluates the three storage scenarios of Fig 15 via
//! [`StorageScenario`].
//!
//! # Example
//!
//! ```
//! use cimloop_core::EnergyTableCache;
//! use cimloop_macros::macro_d;
//! use cimloop_system::{CimSystem, StorageScenario};
//! use cimloop_workload::models;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = CimSystem::new(macro_d())
//!     .with_scenario(StorageScenario::WeightStationary);
//! let evaluator = system.evaluator()?;
//! let rep = system.representation();
//! let net = models::resnet18();
//! let report = evaluator.evaluate_layer(&net.layers()[5], &rep)?;
//! assert!(report.energy_of("dram") > 0.0); // inputs/outputs move off-chip
//! // A whole workload, its layers fanned out over every core (`0`) and
//! // sharing energy tables through the cache.
//! let run = evaluator.evaluate(&models::mvm(64, 64), &rep, &EnergyTableCache::new(), 0)?;
//! assert!(run.energy_of("dram") > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stderr)]
#![warn(missing_docs)]

use cimloop_core::{CoreError, Evaluator, LayerReport, Representation};
use cimloop_macros::ArrayMacro;
use cimloop_spec::{Component, Hierarchy, Reuse, Tensor};

/// Where tensors live between uses (the three scenarios of paper Fig 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageScenario {
    /// Inputs, outputs, *and* weights are stored off-chip and fetched from
    /// DRAM for each layer.
    AllTensorsFromDram,
    /// Weights are pre-loaded into the CiM arrays (stationary); inputs and
    /// outputs move to/from DRAM once per layer.
    #[default]
    WeightStationary,
    /// Weights stationary and inputs/outputs kept on-chip in the global
    /// buffer between layers (layer-fusion style; no DRAM traffic).
    IoOnChip,
}

impl StorageScenario {
    /// All scenarios, paper order.
    pub const ALL: [StorageScenario; 3] = [
        StorageScenario::AllTensorsFromDram,
        StorageScenario::WeightStationary,
        StorageScenario::IoOnChip,
    ];

    /// Display name matching the paper's Fig 15 labels.
    pub fn name(self) -> &'static str {
        match self {
            StorageScenario::AllTensorsFromDram => "All Tensors fetched from DRAM",
            StorageScenario::WeightStationary => "Weight-Stationary, Inputs/Outputs in DRAM",
            StorageScenario::IoOnChip => "Weight-Stationary, Inputs/Outputs On-Chip",
        }
    }
}

impl std::fmt::Display for StorageScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Global-buffer depth in 64-bit words (16 MiB): large enough to hold any
/// tested layer's tensors, as in the paper.
const GLB_ENTRIES: i64 = 2 * 1024 * 1024;

/// A full CiM system: DRAM → global buffer → router → macro.
///
/// The global buffer (16 MiB) is sized to hold any tested layer's tensors
/// (as in the paper), so inputs/outputs/weights transfer to/from DRAM at
/// most once per layer.
#[derive(Debug, Clone)]
pub struct CimSystem {
    cim_macro: ArrayMacro,
    scenario: StorageScenario,
    dram_width: u32,
    router_width: u32,
}

impl CimSystem {
    /// Wraps `cim_macro` in the default system (weight-stationary, 16 MiB
    /// global buffer, 64-bit DRAM channel and NoC).
    pub fn new(cim_macro: ArrayMacro) -> Self {
        CimSystem {
            cim_macro,
            scenario: StorageScenario::default(),
            dram_width: 64,
            router_width: 64,
        }
    }

    /// Sets the storage scenario.
    pub fn with_scenario(mut self, scenario: StorageScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// The wrapped macro.
    pub fn cim_macro(&self) -> &ArrayMacro {
        &self.cim_macro
    }

    /// The configured scenario.
    pub fn scenario(&self) -> StorageScenario {
        self.scenario
    }

    /// The macro's data representation (shared by the system).
    pub fn representation(&self) -> Representation {
        self.cim_macro.representation()
    }

    /// Builds the full-system hierarchy: memory hierarchy nodes nested
    /// around the macro's own hierarchy.
    ///
    /// # Errors
    ///
    /// Propagates macro and spec errors.
    pub fn hierarchy(&self) -> Result<Hierarchy, CoreError> {
        let node_nm = self.cim_macro.node_nm();
        let mut outer = Hierarchy::builder();

        // DRAM: present unless I/O stays on-chip; stores weights only in
        // the all-from-DRAM scenario (stationary weights are pre-loaded and
        // not billed, per the paper).
        match self.scenario {
            StorageScenario::AllTensorsFromDram => {
                outer = outer.component(
                    Component::new("dram")
                        .with_class("dram")
                        .with_attr("width", self.dram_width as i64)
                        .with_reuse(Tensor::Inputs, Reuse::Temporal)
                        .with_reuse(Tensor::Outputs, Reuse::Temporal)
                        .with_reuse(Tensor::Weights, Reuse::Temporal),
                );
            }
            StorageScenario::WeightStationary => {
                outer = outer.component(
                    Component::new("dram")
                        .with_class("dram")
                        .with_attr("width", self.dram_width as i64)
                        .with_reuse(Tensor::Inputs, Reuse::Temporal)
                        .with_reuse(Tensor::Outputs, Reuse::Temporal),
                );
            }
            StorageScenario::IoOnChip => {}
        }

        // Global buffer: roots I/O on-chip; weights stream through only in
        // the all-from-DRAM scenario.
        let mut glb = Component::new("global_buffer")
            .with_class("sram_buffer")
            .with_attr("entries", GLB_ENTRIES)
            .with_attr("width", 64i64)
            .with_attr("technology", node_nm)
            .with_reuse(Tensor::Inputs, Reuse::Temporal)
            .with_reuse(Tensor::Outputs, Reuse::Temporal);
        if self.scenario == StorageScenario::AllTensorsFromDram {
            glb = glb.with_reuse(Tensor::Weights, Reuse::Coalesce);
        }
        outer = outer.component(glb);

        // The on-chip network between the global buffer and the macro.
        let mut router = Component::new("router")
            .with_class("router")
            .with_attr("width", self.router_width as i64)
            .with_attr("technology", node_nm)
            .with_reuse(Tensor::Inputs, Reuse::NoCoalesce)
            .with_reuse(Tensor::Outputs, Reuse::NoCoalesce);
        if self.scenario == StorageScenario::AllTensorsFromDram {
            router = router.with_reuse(Tensor::Weights, Reuse::NoCoalesce);
        }
        outer = outer.component(router);

        let outer = outer.build()?;
        Ok(outer.nest(&self.cim_macro.hierarchy()?)?)
    }

    /// Builds a calibrated evaluator for the full system.
    ///
    /// # Errors
    ///
    /// Propagates hierarchy and calibration errors.
    pub fn evaluator(&self) -> Result<Evaluator, CoreError> {
        // Calibrate the macro in isolation, then nest the scaled macro.
        let system = CimSystem {
            cim_macro: self.cim_macro.frozen()?,
            ..self.clone()
        };
        Evaluator::new(system.hierarchy()?)
    }

    /// Groups a layer report into the paper's Fig 15 categories:
    /// `(macro + on-chip movement, global buffer, off-chip DRAM)`, joules.
    pub fn fig15_breakdown(report: &LayerReport) -> (f64, f64, f64) {
        let dram = report.energy_of("dram");
        let glb = report.energy_of("global_buffer");
        let on_chip = report.energy_total() - dram - glb;
        (on_chip, glb, dram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimloop_core::{EnergyTableCache, RunReport};
    use cimloop_macros::{base_macro, macro_d};
    use cimloop_workload::{models, Layer, LayerKind, Shape, Workload};

    fn small_layer() -> Layer {
        Layer::new("l", LayerKind::Linear, Shape::linear(32, 128, 128).unwrap())
    }

    /// Asserts that [`Evaluator::evaluate`] at one and at four threads,
    /// each on a cold and then a warm cache, equals the reference of
    /// uncached per-layer [`Evaluator::evaluate_layer`] calls, and that a
    /// warm sweep is all hits. Returns the two caches, one thread first.
    fn evaluate_cold_and_warm(
        evaluator: &Evaluator,
        net: &Workload,
        rep: &Representation,
    ) -> [EnergyTableCache; 2] {
        let layers = net
            .layers()
            .iter()
            .map(|l| (l.count(), evaluator.evaluate_layer(l, rep).unwrap()))
            .collect();
        let reference = RunReport::from_layer_reports(net.name(), layers);
        [1, 4].map(|threads| {
            let cache = EnergyTableCache::new();
            let cold = evaluator.evaluate(net, rep, &cache, threads).unwrap();
            assert_eq!(cold, reference, "cold cache, {threads} threads");
            let hits = cache.hits();
            let warm = evaluator.evaluate(net, rep, &cache, threads).unwrap();
            assert_eq!(warm, reference, "warm cache, {threads} threads");
            assert_eq!(cache.hits(), hits + net.layers().len() as u64);
            cache
        })
    }

    #[test]
    fn scenarios_build_distinct_hierarchies() {
        let m = base_macro().uncalibrated();
        let all = CimSystem::new(m.clone())
            .with_scenario(StorageScenario::AllTensorsFromDram)
            .hierarchy()
            .unwrap();
        let ws = CimSystem::new(m.clone())
            .with_scenario(StorageScenario::WeightStationary)
            .hierarchy()
            .unwrap();
        let on_chip = CimSystem::new(m)
            .with_scenario(StorageScenario::IoOnChip)
            .hierarchy()
            .unwrap();
        assert!(all.component("dram").is_some());
        assert!(ws.component("dram").is_some());
        assert!(on_chip.component("dram").is_none());
        // Weights only route through DRAM in the all-from-DRAM scenario.
        assert!(all
            .component("dram")
            .unwrap()
            .reuse(Tensor::Weights)
            .is_active());
        assert!(!ws
            .component("dram")
            .unwrap()
            .reuse(Tensor::Weights)
            .is_active());
    }

    #[test]
    fn weight_stationary_cuts_dram_energy() {
        let layer = small_layer();
        let mut energies = Vec::new();
        for scenario in StorageScenario::ALL {
            let system = CimSystem::new(base_macro().uncalibrated()).with_scenario(scenario);
            let e = system.evaluator().unwrap();
            let report = e.evaluate_layer(&layer, &system.representation()).unwrap();
            energies.push(report.energy_total());
        }
        // Paper Fig 15: each scenario strictly improves on the previous.
        assert!(energies[0] > energies[1], "{energies:?}");
        assert!(energies[1] > energies[2], "{energies:?}");
    }

    #[test]
    fn fig15_breakdown_partitions_total() {
        let system = CimSystem::new(macro_d()).with_scenario(StorageScenario::WeightStationary);
        let e = system.evaluator().unwrap();
        let report = e
            .evaluate_layer(&small_layer(), &system.representation())
            .unwrap();
        let (on_chip, glb, dram) = CimSystem::fig15_breakdown(&report);
        assert!(on_chip > 0.0 && glb > 0.0 && dram > 0.0);
        assert!(((on_chip + glb + dram) - report.energy_total()).abs() < 1e-15);
    }

    #[test]
    fn system_energy_exceeds_macro_energy() {
        let m = base_macro().uncalibrated();
        let layer = small_layer();
        let macro_report = m
            .raw_evaluator()
            .unwrap()
            .evaluate_layer(&layer, &m.representation())
            .unwrap();
        let system = CimSystem::new(m.clone()).with_scenario(StorageScenario::AllTensorsFromDram);
        let system_report = system
            .evaluator()
            .unwrap()
            .evaluate_layer(&layer, &system.representation())
            .unwrap();
        assert!(system_report.energy_total() > macro_report.energy_total());
    }

    #[test]
    fn parallel_network_is_bit_identical_to_sequential() {
        let m = base_macro().uncalibrated();
        let evaluator = m.raw_evaluator().unwrap();
        let rep = m.representation();
        // An unrolled transformer-style stack: 6 layers, distinct shapes,
        // but only two distinct value signatures (shape is not part of the
        // signature; precision is).
        let layers: Vec<Layer> = (0..6)
            .map(|i| {
                let l = Layer::new(
                    format!("block{i}"),
                    LayerKind::Linear,
                    Shape::linear(4, 32 + 16 * i, 64).unwrap(),
                );
                if i % 3 == 0 {
                    l.with_input_bits(4)
                } else {
                    l
                }
            })
            .collect();
        let net = Workload::new("stack", layers).unwrap();

        let [one, four] = evaluate_cold_and_warm(&evaluator, &net, &rep);
        // Repeated signatures dedupe to two cached tables. (At four
        // threads the cold hit/miss split is timing-dependent — racing
        // misses on one signature may each compute a bit-identical table —
        // so only the lookup total and the deduped count are asserted.)
        assert_eq!((one.misses(), one.hits()), (2, 10));
        assert_eq!(four.hits() + four.misses(), 12);
        assert_eq!(four.len(), 2);
    }

    #[test]
    fn unrolled_zoo_network_amortizes_tables() {
        let m = base_macro().uncalibrated();
        let evaluator = m.raw_evaluator().unwrap();
        let rep = m.representation();
        // The execution-order view of ViT's encoder: every repeat of a
        // block shares its table with the other repeats.
        let net = models::vit_base();
        let unrolled = net.unrolled();
        let subset = Workload::new("vit-head", unrolled.layers()[..20].to_vec()).unwrap();
        for cache in evaluate_cold_and_warm(&evaluator, &subset, &rep) {
            assert!(
                cache.len() <= 4,
                "expected few distinct signatures, got {}",
                cache.len()
            );
        }
    }

    #[test]
    fn single_thread_engine_matches_too() {
        let m = base_macro().uncalibrated();
        let evaluator = m.raw_evaluator().unwrap();
        let rep = m.representation();
        let net = models::mvm_batch(64, 64, 4);
        evaluate_cold_and_warm(&evaluator, &net, &rep);
    }

    #[test]
    fn engine_layer_evaluation_uses_the_cache() {
        let m = base_macro().uncalibrated();
        let evaluator = m.raw_evaluator().unwrap();
        let rep = m.representation();
        let net = Workload::new("one", vec![small_layer()]).unwrap();
        // One layer: the cold sweep misses once, the warm one hits once.
        for cache in evaluate_cold_and_warm(&evaluator, &net, &rep) {
            assert_eq!((cache.misses(), cache.hits()), (1, 1));
        }
    }

    #[test]
    fn larger_arrays_cut_dram_weight_traffic() {
        // Fig 2a's mechanism: a bigger array holds more weights, so fewer
        // DRAM weight fetches for the same workload.
        let net = models::resnet18();
        let layer = &net.layers()[6];
        let mut dram_energy = Vec::new();
        for size in [64u64, 256] {
            let m = base_macro().uncalibrated().with_array(size, size);
            let system = CimSystem::new(m).with_scenario(StorageScenario::AllTensorsFromDram);
            let e = system.evaluator().unwrap();
            let report = e.evaluate_layer(layer, &system.representation()).unwrap();
            dram_energy.push(report.energy_of("dram"));
        }
        assert!(
            dram_energy[0] > dram_energy[1],
            "small-array DRAM {} vs large-array {}",
            dram_energy[0],
            dram_energy[1]
        );
    }
}
