//! Fig 2a: optimizing for the lowest-energy *macro* while neglecting the
//! system yields a higher-energy *system* overall.
//!
//! Sweeps CiM array sizes for a ReRAM macro running ResNet18 and reports
//! full-DNN energy of the macro alone vs the full system (DRAM + global
//! buffer + NoC + macro). The macro-optimal array is small (stays
//! utilized); the system-optimal array is larger (fewer DRAM weight
//! fetches). Both sweeps run through the DSE explorer and share one
//! energy-table cache: the macro-scope and system-scope hierarchies have
//! equal reduction widths, so every expensive column-sum statistic is
//! computed once and reused across the two sweeps.

use std::sync::Arc;

use cimloop_bench::{explore_collect, fmt, frozen, ExperimentTable};
use cimloop_core::EnergyTableCache;
use cimloop_dse::{DesignSpace, EvalScope, Explorer};
use cimloop_macros::macro_c;
use cimloop_system::StorageScenario;
use cimloop_workload::models;

fn main() -> std::io::Result<()> {
    let sizes = [64u64, 128, 256, 512, 1024];
    let net = models::resnet18();

    let space = DesignSpace::new()
        .variant("c", frozen(&macro_c()))
        .square_arrays(sizes);
    let cache = Arc::new(EnergyTableCache::new());

    let macro_reports = explore_collect(
        &Explorer::new().with_cache(Arc::clone(&cache)),
        &space,
        &net,
    )
    .expect("macro sweep");
    let system_reports = explore_collect(
        &Explorer::new()
            .with_scope(EvalScope::System(StorageScenario::AllTensorsFromDram))
            .with_cache(Arc::clone(&cache)),
        &space,
        &net,
    )
    .expect("system sweep");

    let macro_energy: Vec<f64> = macro_reports.iter().map(|r| r.energy_total).collect();
    let system_energy: Vec<f64> = system_reports.iter().map(|r| r.energy_total).collect();
    let macro_max = macro_energy.iter().cloned().fold(0.0, f64::max);
    let sys_max = system_energy.iter().cloned().fold(0.0, f64::max);

    let mut table = ExperimentTable::new(
        "fig02a",
        "macro vs system energy across CiM array sizes (ResNet18, normalized)",
        &[
            "array",
            "macro energy (norm)",
            "system energy (norm)",
            "macro J",
            "system J",
        ],
    );
    for (i, &n) in sizes.iter().enumerate() {
        table.row(vec![
            format!("{n}x{n}"),
            fmt(macro_energy[i] / macro_max),
            fmt(system_energy[i] / sys_max),
            format!("{:.3e}", macro_energy[i]),
            format!("{:.3e}", system_energy[i]),
        ]);
    }
    table.finish()?;
    println!(
        "  shared cache: {} tables ({} stats computed, {} served cached)",
        cache.len(),
        cache.stats_misses(),
        cache.stats_hits()
    );

    let macro_best = sizes[argmin(&macro_energy)];
    let system_best = sizes[argmin(&system_energy)];
    println!("  macro-optimal array:  {macro_best}x{macro_best}");
    println!("  system-optimal array: {system_best}x{system_best}");
    println!(
        "  paper claim reproduced: {}",
        if system_best > macro_best {
            "YES (system prefers a larger array than the macro alone)"
        } else {
            "NO"
        }
    );
    Ok(())
}

fn argmin(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}
