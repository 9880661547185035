//! The value-exact simulator's stream contract (docs/accuracy.md, "Exact
//! simulator stream"). A *silent* row, input level 0 on a ReRAM cell,
//! draws no weight word: its weight reaches neither the cell energy nor
//! the column sum. ReRAM reports are therefore a different sample than
//! in the stream where every row drew one, but a sample of the same
//! distribution. Per case, the mean layer energy over seeds 1 to 8 must
//! lie within three combined standard errors, and within 1%, of that
//! earlier stream's mean, committed below.

use cimloop_macros::{base_macro, macro_c, ArrayMacro};
use cimloop_sim::{simulate_layer, ExactConfig};
use cimloop_workload::models;

/// Seeds `1..=SEEDS` per case.
const SEEDS: u64 = 8;
/// Array activations simulated per seed.
const ACTIVATIONS: u64 = 1024;
/// The largest allowed gap, in combined standard errors.
const MAX_SEMS: f64 = 3.0;
/// The largest allowed gap, relative to the earlier mean.
const MAX_RELATIVE: f64 = 0.01;

/// `(macro, ResNet18 layer, mean, standard error)` of a layer's
/// `energy_total` in joules.
type Case = (fn() -> ArrayMacro, usize, f64, f64);

/// The cases over seeds 1 to 8 at 1,024 activations, in the stream where
/// every row drew its weight word. The standard error is the sample
/// standard deviation over √8.
const EVERY_ROW_DRAWS: [Case; 8] = [
    (base_macro, 0, 2.0992578585608354e-5, 1.5112521706122456e-8),
    (base_macro, 6, 4.929709909186719e-6, 2.4647824970920665e-8),
    (base_macro, 13, 6.352007322037216e-6, 1.2287628305536711e-8),
    (
        base_macro,
        20,
        1.2629862321534216e-6,
        1.7149332344740923e-10,
    ),
    (macro_c, 0, 7.015774430445891e-5, 3.3219961057352826e-8),
    (macro_c, 6, 2.387093847776057e-5, 6.261761168632311e-8),
    (macro_c, 13, 1.045019894922734e-5, 1.985849654373907e-8),
    (macro_c, 20, 4.3420622389960366e-7, 7.367025381806781e-10),
];

/// The sample mean and standard error of `samples`.
fn mean_and_sem(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let variance = samples.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (variance / n).sqrt())
}

/// Checks the cases on the layers `layers` selects against both bounds,
/// printing each case's gap.
fn check(layers: impl Fn(usize) -> bool) {
    let net = models::resnet18();
    for &(preset, layer, old_mean, old_sem) in EVERY_ROW_DRAWS.iter().filter(|c| layers(c.1)) {
        let m = preset();
        let energies: Vec<f64> = (1..=SEEDS)
            .map(|seed| {
                let cfg = ExactConfig {
                    seed,
                    max_activations: ACTIVATIONS,
                    threads: 1,
                };
                simulate_layer(&m, &net.layers()[layer], &cfg)
                    .unwrap_or_else(|e| panic!("{} layer {layer}: {e}", m.name()))
                    .energy_total()
            })
            .collect();
        let (mean, sem) = mean_and_sem(&energies);
        let gap = (mean - old_mean).abs();
        let combined = old_sem.hypot(sem);
        println!(
            "{} layer {layer}: mean {mean:.6e} J (sem {:.2}%), earlier {old_mean:.6e} J \
             (sem {:.2}%), gap {:.3}% = {:.2} combined sems",
            m.name(),
            100.0 * sem / mean,
            100.0 * old_sem / old_mean,
            100.0 * gap / old_mean,
            gap / combined
        );
        assert!(
            gap <= MAX_SEMS * combined,
            "{} layer {layer}: mean {mean:e} is {:.2} combined sems from {old_mean:e}",
            m.name(),
            gap / combined
        );
        assert!(
            gap <= MAX_RELATIVE * old_mean,
            "{} layer {layer}: mean {mean:e} is {:.3}% from {old_mean:e}",
            m.name(),
            100.0 * gap / old_mean
        );
    }
}

/// The tier-1 subset: both macros on ResNet18's last layer, `fc`.
#[test]
fn fc_layer_means_match_the_every_row_stream() {
    check(|layer| layer == 20);
}

/// Every case; slow in a debug build (CI runs it with
/// `--include-ignored`).
#[test]
#[ignore = "full sweep; run in release with --include-ignored"]
fn every_layer_mean_matches_the_every_row_stream() {
    check(|_| true);
}
