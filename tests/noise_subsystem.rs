//! Facade-level integration of the statistical non-ideality subsystem:
//! the noise path composes with macros, the evaluator, the cache, and
//! the DSE explorer — and, disabled, is an exact identity end to end.

use cimloop::core::{EnergyTableCache, NoiseSpec, RunReport};
use cimloop::dse::{AccuracyObjective, DesignSpace, Explorer};
use cimloop::macros::base_macro;
use cimloop::workload::models;

fn mvm_workload() -> cimloop::workload::Workload {
    models::mvm(128, 128)
}

#[test]
fn zero_sigma_evaluation_is_bit_identical_through_the_cached_engine() {
    let net = mvm_workload();
    let ideal = base_macro().uncalibrated().with_array(128, 128);
    let zeroed = ideal.clone().with_noise(
        NoiseSpec::new()
            .with_cell_variation(0.0)
            .with_read_noise(0.0)
            .with_adc_offset(0.0),
    );
    let (ideal_ev, zeroed_ev) = (ideal.evaluator().unwrap(), zeroed.evaluator().unwrap());
    let rep = ideal.representation();
    assert_eq!(rep, zeroed.representation());
    let layers = net
        .layers()
        .iter()
        .map(|l| (l.count(), ideal_ev.evaluate_layer(l, &rep).unwrap()))
        .collect();
    let uncached = RunReport::from_layer_reports(net.name(), layers);
    // Both macros share each cache, cold and then warm, at one and four
    // threads.
    for threads in [1, 4] {
        let cache = EnergyTableCache::new();
        for state in ["cold", "warm"] {
            let a = ideal_ev.evaluate(&net, &rep, &cache, threads).unwrap();
            let b = zeroed_ev.evaluate(&net, &rep, &cache, threads).unwrap();
            assert_eq!(a, b, "zero-sigma noise must be an exact identity");
            assert_eq!(
                a, uncached,
                "cached and uncached paths must agree ({state} cache, {threads} threads)"
            );
        }
    }
}

#[test]
fn noise_degrades_snr_monotonically_with_variation() {
    let net = mvm_workload();
    let mut last = f64::INFINITY;
    for sigma in [0.0, 0.05, 0.15] {
        let m = base_macro()
            .uncalibrated()
            .with_array(128, 128)
            .with_noise(NoiseSpec::new().with_cell_variation(sigma));
        let report = m
            .evaluator()
            .unwrap()
            .evaluate(&net, &m.representation(), &EnergyTableCache::new(), 1)
            .unwrap();
        let snr = report.output_snr_db().expect("analog readout");
        assert!(snr < last + 1e-9, "SNR did not degrade at sigma {sigma}");
        last = snr;
    }
}

#[test]
fn explorer_noise_axis_trades_accuracy_for_nothing_in_energy() {
    // Along the pure noise axis every design has equal energy and area:
    // under the SNR objective only the quietest survives on the front.
    let space = DesignSpace::new()
        .variant("base", base_macro().uncalibrated())
        .noise_specs([
            NoiseSpec::ideal(),
            NoiseSpec::new().with_cell_variation(0.1),
            NoiseSpec::new().with_cell_variation(0.2),
        ]);
    let net = mvm_workload();
    let exploration = Explorer::new()
        .with_threads(1)
        .with_accuracy(AccuracyObjective::OutputSnr)
        .explore(&space, &net)
        .unwrap();
    assert_eq!(exploration.evaluated, 3);
    assert_eq!(
        exploration.front.len(),
        1,
        "noisier twins must be dominated"
    );
    assert!(exploration.front.members()[0]
        .value
        .point
        .noise()
        .is_ideal());
    // Under the legacy coverage proxy the three are indistinguishable:
    // the front collapses them to the smallest id instead.
    let legacy = Explorer::new()
        .with_accuracy(AccuracyObjective::AdcCoverage)
        .with_threads(1)
        .explore(&space, &net)
        .unwrap();
    assert_eq!(legacy.front.len(), 1);
    assert_eq!(legacy.front.members()[0].id, 0);
}
