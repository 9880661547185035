//! Criterion bench for the Pareto design-space explorer, in three groups.
//!
//! - `dse`: the paper's Fig 2 co-design grid (two output-combining
//!   variants of Macro C × three array sizes × three DAC × three ADC
//!   resolutions, 54 systems) over the whole of ResNet18 at full-system
//!   scope, swept naive sequential (fresh evaluator per design, no
//!   cache), explorer cold (shared three-level cache, thread-pool fan-out)
//!   and explorer warm. The explorer's front must be bit-identical to
//!   the naive one.
//! - `dse_scale`: the production-scale grid (96 configurations × a
//!   1200-step noise axis, 115 200 candidates) swept to completion by the
//!   staged explorer, plus a deterministic subsample swept staged and
//!   plain, whose fronts must be bit-identical.
//! - `task_accuracy_sweep`: `examples/specs/dse_accuracy.yaml`'s staged
//!   sweep under the sampled task-accuracy objective, `cold` with a
//!   fresh cache per sweep (one Monte-Carlo run per design) and `warm`
//!   against one cache held across sweeps (every score from the cache's
//!   accuracy level), what a warm daemon pays for a repeated request.
//!
//! The first two score accuracy with the ADC-coverage proxy: the noise
//! axis is then invisible to every objective, so the staged pass
//! collapses each noise orbit to one evaluation, and the naive sweep's
//! [`summarize`]d reports are comparable without Monte-Carlo sampling.
//! Grid sizes, front sizes, evaluated/pruned counts and speedups are
//! recorded as metrics next to the entries (`CIMLOOP_BENCH_JSON`).

use std::cell::RefCell;
use std::time::Duration;

use criterion::{
    black_box, criterion_group, criterion_main, entry_mean_ns, record_metric, Criterion,
};

use cimloop_core::{NoiseSpec, RunReport};
use cimloop_dse::{
    summarize, AccuracyObjective, DesignReport, DesignSpace, EvalScope, Exploration, Explorer,
    ParetoFront, SweepPlan,
};
use cimloop_macros::{base_macro, macro_c, OutputCombine};
use cimloop_system::{CimSystem, StorageScenario};
use cimloop_workload::{models, Layer, LayerKind, Shape, Workload};

/// The storage scenario of the Fig 2 co-design experiments (the full
/// system around the macro; weights re-fetched from DRAM).
const FIG2_SCENARIO: StorageScenario = StorageScenario::AllTensorsFromDram;

/// Steps of the scale grid's noise axis.
const SIGMAS: u64 = 1200;

/// The Fig 2 co-design space: direct ADC readout vs Macro C's analog
/// accumulator × array sizes × DAC resolutions × ADC resolutions.
fn fig2_design_space() -> DesignSpace {
    let frozen = macro_c().frozen().expect("calibration of Macro C");
    let direct = frozen.clone().with_output_combine(OutputCombine::None);
    let accum = frozen.with_output_combine(OutputCombine::AnalogAccumulator);
    DesignSpace::new()
        .variant("c-direct", direct)
        .variant("c-accum", accum)
        .square_arrays([128, 256, 512])
        .dac_bits([1, 2, 4])
        .adc_bits([6, 8, 10])
}

/// The sweep the explorer replaces, kept as the speedup and
/// bit-identity reference: a fresh system evaluator per design,
/// uncached, sequential.
fn naive_system_front(space: &DesignSpace, net: &Workload) -> ParetoFront<DesignReport> {
    let mut front = ParetoFront::new();
    for point in space.designs() {
        let system = CimSystem::new(point.cim_macro().clone()).with_scenario(FIG2_SCENARIO);
        let evaluator = system.evaluator().expect("system evaluator");
        let rep = system.representation();
        let layers = net
            .layers()
            .iter()
            .map(|l| (l.count(), evaluator.evaluate_layer(l, &rep).expect("naive")))
            .collect();
        let run = RunReport::from_layer_reports(net.name(), layers);
        let report = summarize(&point, &evaluator, &run);
        front.insert(point.id(), report.objectives(), report);
    }
    front
}

/// The production-scale grid: 2 output-combining variants × 4 array
/// sizes × 2 DAC × 3 ADC × 2 cell widths = 96 configurations, crossed
/// with [`SIGMAS`] cell-variation levels.
fn scale_design_space() -> DesignSpace {
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
        .noise_specs(
            (0..SIGMAS)
                .map(|i| NoiseSpec::new().with_cell_variation(i as f64 * 0.25 / SIGMAS as f64)),
        )
}

/// An explorer scoring accuracy with the ADC-coverage proxy.
fn coverage_explorer() -> Explorer {
    Explorer::new().with_accuracy(AccuracyObjective::AdcCoverage)
}

/// Every front member's id with the bits of its objectives, energy and
/// latency: equal keys mean bit-identical fronts.
fn front_key(front: &ParetoFront<DesignReport>) -> Vec<(u64, [u64; 6])> {
    front
        .members()
        .iter()
        .map(|m| {
            let r = &m.value;
            let o = &m.objectives;
            let values = [
                o.energy_per_mac,
                o.tops_per_watt,
                o.area_mm2,
                o.accuracy_proxy,
                r.energy_total,
                r.latency,
            ];
            (m.id, values.map(f64::to_bits))
        })
        .collect()
}

/// Records `numerator / denominator` of two entries' means as `metric`,
/// when both ran (a CLI filter may skip either).
fn record_speedup(metric: &str, numerator: &str, denominator: &str) {
    if let (Some(n), Some(d)) = (entry_mean_ns(numerator), entry_mean_ns(denominator)) {
        println!("{metric}: {:.1}x", n / d);
        record_metric(metric, n / d);
    }
}

fn fig2_sweeps(c: &mut Criterion) {
    let space = fig2_design_space();
    let net = models::resnet18();
    let explorer = || coverage_explorer().with_scope(EvalScope::System(FIG2_SCENARIO));

    let naive = RefCell::new(None);
    let cold = RefCell::new(None);
    let mut group = c.benchmark_group("dse");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    group.bench_function("sweep_naive_sequential", |b| {
        b.iter(|| {
            let front = naive_system_front(&space, &net);
            *naive.borrow_mut() = Some(front_key(&front));
            black_box(front.len())
        })
    });
    group.bench_function("sweep_explorer_cold", |b| {
        b.iter(|| {
            // A fresh explorer per iteration: a cold sweep, all
            // statistics and tables computed.
            let exploration = explorer().explore(&space, &net).expect("exploration");
            black_box(exploration.front.len());
            *cold.borrow_mut() = Some(exploration);
        })
    });
    let warm = explorer();
    group.bench_function("sweep_explorer_warm", |b| {
        b.iter(|| {
            let exploration = warm.explore(&space, &net).expect("exploration");
            black_box(exploration.front.len())
        })
    });
    group.finish();

    if let Some(cold) = cold.borrow().as_ref() {
        assert_eq!(cold.evaluated, space.grid_len(), "every design evaluated");
        record_metric("dse_designs", cold.evaluated as f64);
        record_metric("dse_front_size", cold.front.len() as f64);
        if let Some(naive) = naive.borrow().as_ref() {
            assert_eq!(
                *naive,
                front_key(&cold.front),
                "explorer front diverged from the naive sequential sweep"
            );
            println!(
                "fronts bit-identical across naive and explorer sweeps ({} of {} designs)",
                naive.len(),
                cold.evaluated
            );
        }
    }
    record_speedup(
        "dse_speedup_naive_over_explorer",
        "dse/sweep_naive_sequential",
        "dse/sweep_explorer_cold",
    );
    record_speedup(
        "dse_speedup_naive_over_warm",
        "dse/sweep_naive_sequential",
        "dse/sweep_explorer_warm",
    );
}

fn scale_sweeps(c: &mut Criterion) {
    let space = scale_design_space();
    // One matched matrix-vector product: this group measures sweep
    // mechanics (staging, pruning), not workload realism.
    let net = models::mvm(64, 64);
    // 8 consecutive ids out of every SIGMAS: each kept window holds
    // noise twins of one configuration, so the staged pass still prunes.
    let subsample = scale_design_space().filter(|p| p.id() % SIGMAS < 8);
    let staged = SweepPlan {
        staged: true,
        ..SweepPlan::new()
    };

    let full = RefCell::new(None);
    let staged_front = RefCell::new(None);
    let plain_front = RefCell::new(None);
    let sweep = |space: &DesignSpace, plan: &SweepPlan| -> Exploration {
        // A fresh explorer per sweep: sweep against sweep, not cache
        // warming order.
        coverage_explorer()
            .sweep(space, &net, plan)
            .expect("scale sweep")
    };
    let mut group = c.benchmark_group("dse_scale");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    group.bench_function("staged_full", |b| {
        b.iter(|| {
            let exploration = sweep(&space, &staged);
            black_box(exploration.front.len());
            *full.borrow_mut() = Some(exploration);
        })
    });
    group.bench_function("subsample_staged", |b| {
        b.iter(|| {
            let exploration = sweep(&subsample, &staged);
            *staged_front.borrow_mut() = Some(front_key(&exploration.front));
            black_box(exploration.front.len())
        })
    });
    group.bench_function("subsample_naive", |b| {
        b.iter(|| {
            let exploration = sweep(&subsample, &SweepPlan::new());
            *plain_front.borrow_mut() = Some(front_key(&exploration.front));
            black_box(exploration.front.len())
        })
    });
    group.finish();

    if let Some(full) = full.borrow().as_ref() {
        let grid = space.grid_len();
        let configurations = grid / SIGMAS as usize;
        assert!(full.completed, "the staged sweep must cover the whole grid");
        assert_eq!(
            (full.evaluated, full.pruned),
            (configurations, grid - configurations),
            "the staged pass must evaluate one design per noise orbit"
        );
        println!(
            "staged full sweep: {grid} candidates -> {} evaluated, {} pruned, front of {}",
            full.evaluated,
            full.pruned,
            full.front.len()
        );
        record_metric("dse_scale_grid", grid as f64);
        record_metric("dse_scale_evaluated", full.evaluated as f64);
        record_metric("dse_scale_pruned", full.pruned as f64);
        record_metric("dse_scale_front_size", full.front.len() as f64);
    }
    if let (Some(staged), Some(plain)) = (
        staged_front.borrow().as_ref(),
        plain_front.borrow().as_ref(),
    ) {
        assert_eq!(
            staged, plain,
            "staged front diverged from the plain unstaged sweep"
        );
        println!(
            "staged and plain fronts bit-identical on the scale subsample ({} members)",
            staged.len()
        );
    }
    record_speedup(
        "dse_scale_speedup_staged_over_naive",
        "dse_scale/subsample_naive",
        "dse_scale/subsample_staged",
    );
}

/// `examples/specs/dse_accuracy.yaml`'s space: the uncalibrated base
/// macro at 10% cell variation, two array sizes by two ADC resolutions.
fn dse_accuracy_space() -> DesignSpace {
    let base = base_macro()
        .uncalibrated()
        .with_noise(NoiseSpec::new().with_cell_variation(0.1));
    DesignSpace::new()
        .variant("base", base)
        .square_arrays([16, 32])
        .adc_bits([6, 8])
}

/// `examples/specs/dse_accuracy.yaml`'s two-layer workload.
fn dse_accuracy_workload() -> Workload {
    let shape = |k| Shape::linear(2, k, 24).expect("linear shape");
    Workload::new(
        "tiny",
        vec![
            Layer::new("a", LayerKind::Linear, shape(24)),
            Layer::new("b", LayerKind::Linear, shape(48)).with_input_bits(4),
        ],
    )
    .expect("two layers")
}

fn task_accuracy_sweeps(c: &mut Criterion) {
    let space = dse_accuracy_space();
    let net = dse_accuracy_workload();
    let staged = SweepPlan {
        staged: true,
        ..SweepPlan::new()
    };
    let explorer = || Explorer::new().with_accuracy(AccuracyObjective::TaskAccuracy);

    let cold = RefCell::new(None);
    let mut group = c.benchmark_group("task_accuracy_sweep");
    group.measurement_time(Duration::from_secs(1));
    group.bench_function("cold", |b| {
        b.iter(|| {
            // A fresh explorer per iteration: every design sampled, as
            // each request sampled before the cache kept accuracies.
            let exploration = explorer().sweep(&space, &net, &staged).expect("sweep");
            black_box(exploration.front.len());
            *cold.borrow_mut() = Some(exploration);
        })
    });
    let warm = explorer();
    let before = warm.cache().stats_snapshot();
    group.bench_function("warm", |b| {
        b.iter(|| {
            let exploration = warm.sweep(&space, &net, &staged).expect("sweep");
            black_box(exploration.front.len())
        })
    });
    group.finish();

    if let Some(cold) = cold.borrow().as_ref() {
        // The golden's front: two designs, task accuracy 0.7482 and 0.8091.
        let accuracies: Vec<String> = cold
            .front
            .members()
            .iter()
            .map(|m| format!("{:.4}", m.value.task_accuracy.unwrap_or(f64::NAN)))
            .collect();
        assert_eq!(accuracies, ["0.7482", "0.8091"], "results/dse_accuracy.tsv");
        let after = warm.cache().stats_snapshot();
        assert_eq!(
            after.accuracy_misses - before.accuracy_misses,
            cold.evaluated as u64,
            "the warm explorer samples each design once"
        );
        println!(
            "warm explorer: {} accuracy hits, {} misses over its sweeps",
            after.accuracy_hits - before.accuracy_hits,
            after.accuracy_misses - before.accuracy_misses
        );
    }
    record_speedup(
        "task_accuracy_speedup_cold_over_warm",
        "task_accuracy_sweep/cold",
        "task_accuracy_sweep/warm",
    );
}

criterion_group!(benches, fig2_sweeps, scale_sweeps, task_accuracy_sweeps);
criterion_main!(benches);
