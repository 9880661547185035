//! The ISSUE 8 acceptance property at grid scale: a ≥10^5-candidate
//! design space sweeps to completion through the staged explorer, and on
//! a deterministic subsample the staged front is bit-identical to the
//! naive unstaged path. (The full-grid sweep is timed by the `dse_scale`
//! group of the `dse` criterion bench; this test keeps the *property*
//! under `cargo test` by thinning the same grid deterministically.)

use cimloop_dse::{AccuracyObjective, DesignSpace, Explorer, SweepPlan};
use cimloop_macros::{base_macro, OutputCombine};
use cimloop_noise::NoiseSpec;
use cimloop_workload::models;

/// The `dse_scale` grid: 96 distinct configurations × a 1200-step noise
/// axis = 115 200 candidates.
fn scale_space() -> DesignSpace {
    DesignSpace::new()
        .variant("direct", base_macro().uncalibrated())
        .variant(
            "accum",
            base_macro()
                .uncalibrated()
                .with_output_combine(OutputCombine::AnalogAccumulator),
        )
        .square_arrays([32, 64, 128, 256])
        .dac_bits([1, 2])
        .adc_bits([4, 6, 8])
        .cell_bits([1, 2])
        .noise_specs((0..1200).map(|i| NoiseSpec::new().with_cell_variation(f64::from(i) / 4800.0)))
}

#[test]
fn staged_front_is_bit_identical_to_naive_on_a_subsampled_scale_grid() {
    let space = scale_space();
    assert!(
        space.grid_len() >= 100_000,
        "the scale grid must hold at least 10^5 candidates, got {}",
        space.grid_len()
    );

    // Deterministic subsample: 3 consecutive ids (noise-twins of one
    // configuration) out of every 2400, so the staged pass has real
    // dedup work on the thinned grid. Ids are assigned before filtering,
    // so the subsample is stable across runs.
    let subsample = scale_space().filter(|p| p.id() % 2400 < 3);
    let net = models::mvm(64, 64);
    let explorer = Explorer::new().with_accuracy(AccuracyObjective::AdcCoverage);

    let staged = explorer
        .sweep(
            &subsample,
            &net,
            &SweepPlan {
                staged: true,
                ..SweepPlan::new()
            },
        )
        .expect("staged sweep");
    let naive = explorer
        .sweep(&subsample, &net, &SweepPlan::new())
        .expect("naive sweep");

    assert!(staged.completed && naive.completed);
    assert!(
        staged.pruned > 0,
        "the noise-twin windows must give the staged pass something to prune"
    );
    assert!(
        staged.evaluated < naive.evaluated,
        "staged must evaluate strictly fewer candidates ({} vs {})",
        staged.evaluated,
        naive.evaluated
    );
    assert_eq!(staged.front.len(), naive.front.len());
    for (a, b) in staged.front.members().iter().zip(naive.front.members()) {
        assert_eq!(a.id, b.id, "front membership diverged");
        assert_eq!(
            a.objectives, b.objectives,
            "objectives diverged for design {}",
            a.id
        );
        assert_eq!(
            a.value.energy_total.to_bits(),
            b.value.energy_total.to_bits(),
            "energy diverged for design {}",
            a.id
        );
        assert_eq!(
            a.value.latency.to_bits(),
            b.value.latency.to_bits(),
            "latency diverged for design {}",
            a.id
        );
        assert_eq!(a.value.point.label(), b.value.point.label());
    }
}
