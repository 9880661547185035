//! Invariants of `cimloop_core::Evaluator` from the paper's §III-D3: the
//! per-action energy table is mapping-invariant (computed once per layer,
//! reused across every candidate mapping), totals decompose exactly into
//! action counts times per-action energies, and reported MAC counts equal
//! the workload's own MAC counts across the zoo networks, whose
//! whole-workload evaluation equals their per-layer one bit for bit.

use cimloop::core::{EnergyTableCache, RunReport};
use cimloop::macros::base_macro;
use cimloop::map::{analyze, Mapper, Strategy};
use cimloop::spec::Tensor;
use cimloop::workload::models;

#[test]
fn action_energy_table_is_independent_of_the_mapper() {
    let m = base_macro();
    let rep = m.representation();
    let net = models::resnet18();
    let layer = &net.layers()[6];
    let ws = m
        .evaluator()
        .unwrap()
        .with_mapper(Mapper::new(Strategy::WeightStationary));
    let os = m
        .evaluator()
        .unwrap()
        .with_mapper(Mapper::new(Strategy::OutputStationary));
    let table_ws = ws.action_energies(layer, &rep).unwrap();
    let table_os = os.action_energies(layer, &rep).unwrap();
    for component in ws.hierarchy().components() {
        let name = component.name();
        for tensor in Tensor::ALL {
            assert_eq!(
                table_ws.read_energy(name, tensor),
                table_os.read_energy(name, tensor),
                "{name}/{tensor:?}: read energy differs across mappers"
            );
            assert_eq!(
                table_ws.write_energy(name, tensor),
                table_os.write_energy(name, tensor),
                "{name}/{tensor:?}: write energy differs across mappers"
            );
        }
    }
    assert_eq!(table_ws.cycle_time(), table_os.cycle_time());
}

#[test]
fn mapping_totals_decompose_into_counts_times_per_action_energies() {
    // Algorithm 1's amortization is lossless: for any mapping, the reported
    // dynamic energy of each component is exactly its action counts times
    // the (mapping-invariant) per-action energies.
    let m = base_macro();
    let evaluator = m.evaluator().unwrap();
    let rep = m.representation();
    let net = models::resnet18();
    let layer = &net.layers()[6];
    let table = evaluator.action_energies(layer, &rep).unwrap();
    let shape = evaluator.shape_for(layer, &rep).unwrap();
    let mappings = Mapper::default()
        .enumerate(evaluator.hierarchy(), shape, 20)
        .unwrap();
    assert!(mappings.len() > 1, "need multiple mappings to compare");
    for mapping in &mappings {
        let report = evaluator
            .evaluate_mapping(layer, &rep, &table, mapping)
            .unwrap();
        let counts = analyze(evaluator.hierarchy(), shape, mapping).unwrap();
        for component in report.components() {
            let mut expected = 0.0;
            for tensor in Tensor::ALL {
                let actions = counts.actions(&component.name, tensor);
                expected += actions.reads * table.read_energy(&component.name, tensor)
                    + actions.writes * table.write_energy(&component.name, tensor);
            }
            let tolerance = 1e-12 * (1.0 + expected.abs());
            assert!(
                (component.energy - expected).abs() <= tolerance,
                "{}: reported {} vs reconstructed {expected}",
                component.name,
                component.energy
            );
        }
    }
}

#[test]
fn reported_macs_match_layer_macs_across_zoo_networks() {
    let m = base_macro();
    let evaluator = m.evaluator().unwrap();
    let rep = m.representation();
    for net in [
        models::resnet18(),
        models::mobilenet_v3_large(),
        models::vit_base(),
    ] {
        let layers = net
            .layers()
            .iter()
            .map(|l| (l.count(), evaluator.evaluate_layer(l, &rep).unwrap()))
            .collect();
        let report = RunReport::from_layer_reports(net.name(), layers);
        // Whole-workload evaluation equals the per-layer reference bit for
        // bit at one and four threads, on a cold and then a warm cache.
        for threads in [1, 4] {
            let cache = EnergyTableCache::new();
            for state in ["cold", "warm"] {
                let run = evaluator.evaluate(&net, &rep, &cache, threads).unwrap();
                assert_eq!(run, report, "{} ({state}, {threads} threads)", net.name());
            }
        }
        assert_eq!(report.layers().len(), net.layers().len(), "{}", net.name());
        for ((count, layer_report), layer) in report.layers().iter().zip(net.layers()) {
            assert_eq!(
                layer_report.macs(),
                layer.macs(),
                "{} / {}",
                net.name(),
                layer.name()
            );
            assert_eq!(*count, layer.count(), "{} / {}", net.name(), layer.name());
        }
        let expected_total: u64 = net.layers().iter().map(|l| l.count() * l.macs()).sum();
        assert_eq!(report.macs_total(), expected_total, "{}", net.name());
        assert!(report.energy_total() > 0.0, "{}", net.name());
    }
}
