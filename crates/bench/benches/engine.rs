//! Criterion bench for whole-network evaluation: a sweep over a
//! repeated-layer zoo network (ViT's unrolled encoder), per-layer
//! sequential/uncached vs. `Evaluator::evaluate` (cached, parallel), plus
//! the streaming mapping search against its materializing ancestor.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use cimloop_core::{EnergyTableCache, RunReport};
use cimloop_macros::base_macro;
use cimloop_map::Mapper;
use cimloop_workload::{models, Workload};

fn network_sweep(c: &mut Criterion) {
    let m = base_macro();
    let evaluator = m.evaluator().expect("evaluator");
    let rep = m.representation();
    // Execution-order ViT encoder prefix: 40 layers, few distinct value
    // signatures — the repeated-layer regime the engine amortizes.
    let unrolled = models::vit_base().unrolled();
    let net = Workload::new("vit-prefix", unrolled.layers()[..40].to_vec()).expect("non-empty");

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    group.bench_function("network_sweep_sequential_uncached", |b| {
        b.iter(|| {
            let layers = net
                .layers()
                .iter()
                .map(|l| (l.count(), evaluator.evaluate_layer(l, &rep).expect("layer")))
                .collect();
            let report = RunReport::from_layer_reports(net.name(), layers);
            black_box(report.energy_total())
        })
    });
    group.bench_function("network_sweep_engine_cold", |b| {
        b.iter(|| {
            // A fresh cache per iteration: measures a cold whole-network
            // sweep over every core, including its table computations.
            let cache = EnergyTableCache::new();
            let report = evaluator.evaluate(&net, &rep, &cache, 0).expect("sweep");
            black_box(report.energy_total())
        })
    });
    let warm = EnergyTableCache::new();
    group.bench_function("network_sweep_engine_warm", |b| {
        b.iter(|| {
            let report = evaluator.evaluate(&net, &rep, &warm, 0).expect("sweep");
            black_box(report.energy_total())
        })
    });
    group.finish();
}

fn mapping_search(c: &mut Criterion) {
    let m = base_macro();
    let evaluator = m.evaluator().expect("evaluator");
    let rep = m.representation();
    let net = models::resnet18();
    let layer = &net.layers()[6];
    let table = evaluator.action_energies(layer, &rep).expect("energies");
    let shape = evaluator.shape_for(layer, &rep).expect("shape");
    let hierarchy = evaluator.hierarchy();
    let mapper = Mapper::default();
    let limit = 500usize;

    let mut group = c.benchmark_group("mapping_search");
    group.sample_size(10);
    // The streaming path: candidates evaluated as they are generated, one
    // scratch mapping, clones only on a new best.
    group.bench_function("search_streaming_500", |b| {
        b.iter(|| {
            let (best, cost) = mapper
                .search(hierarchy, shape, limit, |mapping| {
                    evaluator
                        .evaluate_mapping(layer, &rep, &table, mapping)
                        .ok()
                        .map(|r| r.energy_total())
                })
                .expect("search");
            black_box((best, cost))
        })
    });
    // The materializing ancestor: enumerate every candidate, then score.
    group.bench_function("search_materialized_500", |b| {
        b.iter(|| {
            let mappings = mapper
                .enumerate(hierarchy, shape, limit)
                .expect("enumerate");
            let best = mappings
                .iter()
                .filter_map(|mapping| {
                    evaluator
                        .evaluate_mapping(layer, &rep, &table, mapping)
                        .ok()
                        .map(|r| (mapping, r.energy_total()))
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty");
            black_box(best.1)
        })
    });
    group.finish();
}

criterion_group!(benches, network_sweep, mapping_search);
criterion_main!(benches);
