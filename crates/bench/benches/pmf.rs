//! Criterion benches for the PMF machinery and the pipeline-resolution
//! ablation (paper Table II): support size vs runtime of the statistical
//! distribution operations at the heart of the data-value-dependent model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cimloop_core::{Pipeline, Representation, ValueStats};
use cimloop_macros::{base_macro, macro_c};
use cimloop_stats::{BitStats, Pmf, Rung};
use cimloop_workload::models;

fn pmf_operations(c: &mut Criterion) {
    let mut group = c.benchmark_group("pmf");
    for support in [64usize, 256, 1024] {
        let pmf = Pmf::uniform_ints(0, support as i64 - 1).expect("range");
        group.bench_with_input(
            BenchmarkId::new("convolve_n_128rows", support),
            &pmf,
            |b, pmf| b.iter(|| black_box(pmf.convolve_n(128, black_box(support)))),
        );
        group.bench_with_input(
            BenchmarkId::new("coarsen_to_64", support),
            &pmf,
            |b, pmf| b.iter(|| black_box(pmf.coarsen(64))),
        );
    }
    // The column sums fig02b spends its time in: macro_c's slice product
    // on ResNet18 layer2.0.conv2, built as `ValueStats::compute` builds it,
    // over 128 and 512 rows. With a 4-bit DAC it is coarsened to ~480
    // non-integer centroids; with a 1-bit DAC it has 256 integer points,
    // so the first squaring takes `convolve`'s dense step.
    let net = models::resnet18();
    for dac in [4u32, 1] {
        let stats = ValueStats::compute(
            &net.layers()[6],
            &macro_c().with_dac_resolution(dac).representation(),
            1,
        )
        .expect("value stats");
        let product = stats
            .input_slice()
            .pmf()
            .product(stats.weight_slice().pmf())
            .coarsen(512);
        for rows in [128u64, 512] {
            group.bench_with_input(
                BenchmarkId::new(format!("convolve_n_macro_c_dac{dac}"), rows),
                &product,
                |b, pmf| b.iter(|| black_box(pmf.convolve_n(black_box(rows), 512))),
            );
        }
        // The 512-row sum as the stats level fills it when the 128-row
        // sum is held: two squarings on from the 128-row rung, not nine.
        let (_, rung) = Rung::base(product).climb(128, 512).expect("1 divides 128");
        group.bench_with_input(
            BenchmarkId::new(format!("convolve_n_macro_c_dac{dac}"), "512_from_128"),
            &rung,
            |b, rung| b.iter(|| black_box(rung.clone().climb(black_box(512), 512))),
        );
    }
    let bytes = Pmf::uniform_ints(0, 255).expect("range");
    group.bench_function("bit_stats_8b", |b| {
        b.iter(|| black_box(BitStats::from_pmf(black_box(&bytes), 8).expect("stats")))
    });
    group.finish();
}

fn pipeline_construction(c: &mut Criterion) {
    let m = base_macro();
    let hierarchy = m.hierarchy().expect("hierarchy");
    let rep: Representation = m.representation();
    let net = models::resnet18();
    let layer = &net.layers()[6];

    c.bench_function("pipeline_per_layer", |b| {
        b.iter(|| {
            let pipeline = Pipeline::new(&hierarchy, black_box(layer), &rep).expect("pipeline");
            black_box(pipeline.reduction_rows())
        })
    });
}

criterion_group!(benches, pmf_operations, pipeline_construction);
criterion_main!(benches);
