//! Criterion benches behind Table II and the amortization ablation
//! (paper Table II): per-mapping evaluation cost with and without amortizing
//! the data-value-dependent per-action energies, the value-exact
//! simulator's per-activation and per-cell-event cost, and the
//! Monte-Carlo validation grid behind `results/fig_mc_accuracy.tsv`.

use criterion::{
    criterion_group, criterion_main, entry_mean_ns, record_metric, BenchmarkId, Criterion,
};
use std::hint::black_box;
use std::time::Duration;

use cimloop_bench::figures;
use cimloop_macros::{base_macro, macro_a};
use cimloop_map::Mapper;
use cimloop_sim::{simulate_layer, ExactConfig};
use cimloop_workload::models;

fn statistical_model(c: &mut Criterion) {
    let m = base_macro();
    let evaluator = m.evaluator().expect("evaluator");
    let rep = m.representation();
    let net = models::resnet18();
    let layer = &net.layers()[6];
    let table = evaluator.action_energies(layer, &rep).expect("energies");
    let mapping = evaluator.map_layer(layer, &rep).expect("mapping");

    let mut group = c.benchmark_group("statistical");
    // The fast inner loop of Algorithm 1 (amortized per-action energies).
    group.bench_function("evaluate_mapping_amortized", |b| {
        b.iter(|| {
            let report = evaluator
                .evaluate_mapping(layer, &rep, black_box(&table), black_box(&mapping))
                .expect("eval");
            black_box(report.energy_total())
        })
    });
    // Ablation: recompute the data-value-dependent table per mapping (what
    // a non-amortizing implementation would pay on every mapping).
    group.bench_function("evaluate_mapping_unamortized", |b| {
        b.iter(|| {
            let table = evaluator.action_energies(layer, &rep).expect("energies");
            let report = evaluator
                .evaluate_mapping(layer, &rep, black_box(&table), black_box(&mapping))
                .expect("eval");
            black_box(report.energy_total())
        })
    });
    // Full per-layer evaluation (table + mapper + dataflow).
    group.bench_function("evaluate_layer_end_to_end", |b| {
        b.iter(|| {
            let report = evaluator.evaluate_layer(layer, &rep).expect("eval");
            black_box(report.energy_total())
        })
    });
    group.finish();
}

fn value_exact(c: &mut Criterion) {
    let m = base_macro();
    let net = models::resnet18();
    let layer = &net.layers()[6];

    let cfg = |activations| ExactConfig {
        seed: 1,
        max_activations: activations,
        threads: 1,
    };

    let mut group = c.benchmark_group("value_exact");
    group.sample_size(10);
    // One 4,096-activation run takes tens of milliseconds, so its window
    // is longer than the group's.
    for (activations, window_ms) in [(64u64, 100), (256, 100), (4096, 1000)] {
        group.measurement_time(Duration::from_millis(window_ms));
        group.bench_with_input(
            BenchmarkId::new("simulate_activations", activations),
            &activations,
            |b, &acts| {
                let cfg = cfg(acts);
                b.iter(|| {
                    let report = simulate_layer(&m, layer, &cfg).expect("sim");
                    black_box(report.energy_total())
                })
            },
        );
    }
    // An SRAM macro: its cells charge a fixed share at input 0, so no row
    // is silent and every weight draw is looked up. One run takes about
    // 0.1 s, so the window is longer than the group's.
    let sram = macro_a();
    let sram_cfg = cfg(64);
    group.measurement_time(Duration::from_secs(1));
    group.bench_function("macro_a_activations/64", |b| {
        b.iter(|| {
            let report = simulate_layer(&sram, layer, &sram_cfg).expect("sim");
            black_box(report.energy_total())
        })
    });
    group.finish();

    // The simulator's cost per cell event: the time between the 256- and
    // the 4,096-activation runs over the events between them, so each
    // run's fixed set-up (the layer's statistical evaluation, which the
    // exact run starts from) cancels, and the gap of tens of milliseconds
    // is far above the host's drift between the two entries.
    if let (Some(short_ns), Some(long_ns)) = (
        entry_mean_ns("value_exact/simulate_activations/256"),
        entry_mean_ns("value_exact/simulate_activations/4096"),
    ) {
        let events = |acts| {
            simulate_layer(&m, layer, &cfg(acts))
                .expect("sim")
                .cell_events()
        };
        let extra = events(4096) - events(256);
        let ns = (long_ns - short_ns) / extra as f64;
        println!("value_exact_ns_per_cell_event: {ns:.2} ns ({extra} events between the runs)");
        record_metric("value_exact_ns_per_cell_event", ns);
    }
}

fn mapping_enumeration(c: &mut Criterion) {
    let m = base_macro();
    let evaluator = m.evaluator().expect("evaluator");
    let rep = m.representation();
    let net = models::resnet18();
    let layer = &net.layers()[6];
    let shape = evaluator.shape_for(layer, &rep).expect("shape");

    c.bench_function("enumerate_100_mappings", |b| {
        b.iter(|| {
            let mappings = Mapper::default()
                .enumerate(evaluator.hierarchy(), black_box(shape), 100)
                .expect("mappings");
            black_box(mappings.len())
        })
    });
}

fn monte_carlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("monte_carlo");
    group.sample_size(10);
    // The whole analytic-vs-sampled grid: 8 cells of 16k trials each.
    // The entry's name predates `fig_mc_accuracy`; the committed record
    // and CI's baseline comparison key on it.
    group.bench_function("mc_accuracy_rows", |b| {
        b.iter(|| black_box(figures::fig_mc_accuracy().expect("grid")))
    });
    group.finish();
}

criterion_group!(
    benches,
    statistical_model,
    value_exact,
    mapping_enumeration,
    monte_carlo
);
criterion_main!(benches);
