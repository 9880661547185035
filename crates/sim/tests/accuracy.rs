//! Integration tests: the statistical model must track the value-exact
//! ground truth far better than the fixed-energy baseline (paper Fig 6).

use cimloop_macros::base_macro;
use cimloop_sim::{fixed_energy_table, simulate_layer, ExactConfig};
use cimloop_workload::models;

#[test]
fn statistical_model_tracks_ground_truth_across_layers() {
    let m = base_macro();
    let evaluator = m.evaluator().unwrap();
    let rep = m.representation();
    let net = models::resnet18();
    let cfg = ExactConfig::fast();

    let mut stat_errors = Vec::new();
    for layer in net.layers().iter().step_by(5) {
        let exact = simulate_layer(&m, layer, &cfg).unwrap();
        let stat = evaluator.evaluate_layer(layer, &rep).unwrap();
        let err = (stat.energy_total() - exact.energy_total()).abs() / exact.energy_total();
        stat_errors.push(err);
    }
    let avg: f64 = stat_errors.iter().sum::<f64>() / stat_errors.len() as f64;
    assert!(
        avg < 0.15,
        "average statistical error {avg:.3}: {stat_errors:?}"
    );
}

#[test]
fn fixed_energy_baseline_is_much_worse() {
    let m = base_macro();
    let evaluator = m.evaluator().unwrap();
    let rep = m.representation();
    let net = models::resnet18();
    let fixed = fixed_energy_table(&m, &net).unwrap();
    let cfg = ExactConfig::fast();

    let mut stat_err_sum = 0.0;
    let mut fixed_err_sum = 0.0;
    let mut n = 0.0;
    for layer in net.layers().iter().step_by(4) {
        let exact = simulate_layer(&m, layer, &cfg).unwrap();
        let stat = evaluator.evaluate_layer(layer, &rep).unwrap();
        let mapping = evaluator.map_layer(layer, &rep).unwrap();
        let fixed_report = evaluator
            .evaluate_mapping(layer, &rep, &fixed, &mapping)
            .unwrap();
        stat_err_sum += (stat.energy_total() - exact.energy_total()).abs() / exact.energy_total();
        fixed_err_sum +=
            (fixed_report.energy_total() - exact.energy_total()).abs() / exact.energy_total();
        n += 1.0;
    }
    let stat_avg = stat_err_sum / n;
    let fixed_avg = fixed_err_sum / n;
    assert!(
        fixed_avg > 2.0 * stat_avg,
        "fixed-energy avg error {fixed_avg:.3} should be much worse than statistical {stat_avg:.3}"
    );
}

#[test]
fn exact_sim_is_deterministic_per_seed() {
    let m = base_macro();
    let net = models::resnet18();
    let layer = &net.layers()[3];
    let a = simulate_layer(&m, layer, &ExactConfig::fast().with_seed(42)).unwrap();
    let b = simulate_layer(&m, layer, &ExactConfig::fast().with_seed(42)).unwrap();
    assert_eq!(a.energy_total(), b.energy_total());
    let c = simulate_layer(&m, layer, &ExactConfig::fast().with_seed(43)).unwrap();
    assert_ne!(a.energy_total(), c.energy_total());
}

#[test]
fn multithreaded_sim_matches_single_thread_statistically() {
    let m = base_macro();
    let net = models::resnet18();
    let layer = &net.layers()[3];
    let single =
        simulate_layer(&m, layer, &ExactConfig::fast().with_seed(7).with_threads(1)).unwrap();
    let multi =
        simulate_layer(&m, layer, &ExactConfig::fast().with_seed(7).with_threads(4)).unwrap();
    let diff = (single.energy_total() - multi.energy_total()).abs() / single.energy_total();
    assert!(diff < 0.10, "thread split changed estimate by {diff:.3}");
    // The per-thread partials merge in thread order, so a repeat at the same
    // thread count is bit-identical, not merely close.
    let again =
        simulate_layer(&m, layer, &ExactConfig::fast().with_seed(7).with_threads(4)).unwrap();
    assert_eq!(
        multi.energy_total().to_bits(),
        again.energy_total().to_bits()
    );
    assert_eq!(multi.cell_events(), again.cell_events());
}

#[test]
fn sampling_scales_to_full_layer() {
    let m = base_macro();
    let net = models::resnet18();
    let layer = &net.layers()[20]; // fc: small
    let report = simulate_layer(&m, layer, &ExactConfig::fast()).unwrap();
    assert!(report.simulated_activations() <= report.total_activations());
    assert!(report.cell_events() > 0);
    assert!(report.energy_total() > 0.0);
}
