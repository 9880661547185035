//! Pareto design-space exploration over the paper's Fig 2 co-design axes,
//! at full-system scope, through the `cimloop-dse` explorer.
//!
//! The default grid crosses two output-combining variants of the ReRAM
//! macro (direct ADC readout vs Macro C's analog accumulator) with three
//! array sizes, three DAC resolutions, and three ADC resolutions —
//! 54 candidate systems — over the whole of ResNet18. The sweep runs
//! twice: once through the explorer (shared two-level energy cache,
//! thread-pool fan-out) and once naively (fresh evaluator per design, no
//! cache, sequential), asserts the Pareto fronts are bit-identical, and
//! records the measured speedup in `results/BENCH_dse.json`.
//!
//! Usage: `dse_sweep [fig2|quick] [--no-naive]`
//!
//! - `fig2` (default): the full grid above; the naive baseline takes
//!   minutes.
//! - `quick`: a 24-design grid on a 6-layer ResNet18 prefix, for smoke
//!   runs.
//! - `--no-naive`: skip the naive baseline (and the speedup/identity
//!   checks); explorer only.

#![expect(
    clippy::disallowed_methods,
    reason = "rates go to stdout, never to a golden TSV"
)]

use std::sync::Arc;
use std::time::Instant;

use cimloop_bench::{
    fig2_design_space, fig2_workload, fmt, naive_system_front, results_dir, write_bench_json,
    ExperimentTable, FIG2_SCENARIO,
};
use cimloop_core::EnergyTableCache;
use cimloop_dse::{EvalScope, Explorer};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let run_naive = !args.iter().any(|a| a == "--no-naive");
    if let Some(bad) = args
        .iter()
        .find(|a| !["quick", "fig2", "--no-naive"].contains(&a.as_str()))
    {
        eprintln!("unknown argument {bad:?}; usage: dse_sweep [fig2|quick] [--no-naive]");
        std::process::exit(2);
    }

    let space = fig2_design_space(quick);
    let net = fig2_workload(quick);
    println!(
        "design space: {} candidate systems ({}), workload {} ({} layers)",
        space.grid_len(),
        if quick { "quick grid" } else { "Fig 2 grid" },
        net.name(),
        net.layers().len()
    );

    let cache = Arc::new(EnergyTableCache::new());
    // Score accuracy with the legacy ADC-coverage proxy: the committed
    // front (and the naive baseline below) predate the noise-derived SNR
    // objective, and this sweep's job is bit-identical continuity.
    let explorer = Explorer::with_adc_coverage_accuracy()
        .with_scope(EvalScope::System(FIG2_SCENARIO))
        .with_cache(Arc::clone(&cache));
    let start = Instant::now();
    let exploration = explorer.explore(&space, &net).expect("exploration");
    let t_explorer = start.elapsed().as_secs_f64();
    println!(
        "explorer: {} designs in {:.1}s — {} stats computed, {} served from cache ({} tables)",
        exploration.evaluated,
        t_explorer,
        cache.stats_misses(),
        cache.stats_hits(),
        cache.len()
    );

    let mut table = ExperimentTable::new(
        "dse_sweep",
        "Pareto-optimal CiM systems (ResNet18, full system, Fig 2 axes)",
        &[
            "design",
            "energy/MAC (pJ)",
            "TOPS/W",
            "area (mm2)",
            "accuracy proxy",
            "latency (ms)",
        ],
    );
    for member in exploration.front.members() {
        let r = &member.value;
        table.row(vec![
            r.point.label(),
            fmt(r.energy_per_mac * 1e12),
            fmt(r.tops_per_watt),
            fmt(r.area_mm2),
            fmt(r.accuracy_proxy),
            fmt(r.latency * 1e3),
        ]);
    }
    table.finish();
    println!(
        "  front: {} of {} designs are Pareto-optimal",
        exploration.front.len(),
        exploration.evaluated
    );

    let mut entries = vec![("dse_sweep_explorer", t_explorer)];
    let mut metrics = vec![
        ("dse_designs", exploration.evaluated as f64),
        ("dse_front_size", exploration.front.len() as f64),
    ];
    if run_naive {
        let start = Instant::now();
        let naive = naive_system_front(&space, &net, FIG2_SCENARIO);
        let t_naive = start.elapsed().as_secs_f64();
        println!("naive sequential sweep: {t_naive:.1}s");

        assert_eq!(naive.len(), exploration.front.len(), "front sizes diverged");
        for (a, b) in exploration.front.members().iter().zip(naive.members()) {
            assert_eq!(a.id, b.id, "front membership diverged");
            assert_eq!(
                a.objectives, b.objectives,
                "objectives diverged for design {}",
                a.id
            );
            assert_eq!(
                a.value.energy_total, b.value.energy_total,
                "energy diverged for design {}",
                a.id
            );
        }
        let speedup = t_naive / t_explorer;
        println!("  fronts bit-identical; explorer speedup {speedup:.1}x over naive sequential");
        entries.push(("dse_sweep_naive_sequential", t_naive));
        metrics.push(("dse_speedup_naive_over_explorer", speedup));
    }
    write_bench_json(
        &results_dir().join("BENCH_dse.json"),
        quick,
        &entries,
        &metrics,
    );
}
