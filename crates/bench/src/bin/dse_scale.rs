//! Production-scale DSE (ISSUE 8): a ≥10^5-candidate design grid swept
//! to completion through the staged explorer, plus the staged-vs-naive
//! bit-identity check on a deterministic subsample.
//!
//! Two measurements, merged into `results/BENCH_dse.json` (the
//! `dse_sweep` entries in that file are preserved — this binary only
//! upserts its own `dse_scale_*` keys):
//!
//! 1. **Full staged sweep** — the whole grid (115 200 candidates; 11 520
//!    in quick mode) under the ADC-coverage objective. The staged
//!    pre-pass collapses the noise axis by configuration fingerprint, so
//!    the sweep completes in ~96 full evaluations; the naive path at
//!    this scale would need all ~10^5.
//! 2. **Subsampled identity check** — a deterministic stride keeps ~1 in
//!    100 grid windows; the same subsample is swept staged and plain
//!    (unstaged), the fronts are asserted bit-identical member by
//!    member, and the wall-clock ratio is recorded as the
//!    staged-over-naive speedup.
//!
//! Usage: `dse_scale [full|quick]`

#![expect(
    clippy::disallowed_methods,
    reason = "rates go to stdout, never to a golden TSV"
)]

use std::time::Instant;

use cimloop_bench::{
    fmt, merge_bench_json, results_dir, scale_design_space, scale_subsample, scale_workload,
    ExperimentTable,
};
use cimloop_dse::{Exploration, Explorer, SweepPlan};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    if let Some(bad) = args
        .iter()
        .find(|a| !["quick", "full"].contains(&a.as_str()))
    {
        eprintln!("unknown argument {bad:?}; usage: dse_scale [full|quick]");
        std::process::exit(2);
    }

    let space = scale_design_space(quick);
    let net = scale_workload();
    assert!(
        quick || space.grid_len() >= 100_000,
        "the full scale grid must hold at least 10^5 candidates, got {}",
        space.grid_len()
    );
    println!(
        "scale grid: {} candidates ({}), workload {}",
        space.grid_len(),
        if quick { "quick grid" } else { "full grid" },
        net.name()
    );

    // The noise axis carries no objective signal under ADC coverage, so
    // the staged pass may prune it wholesale — that is the point of the
    // scale demonstration.
    let explorer = Explorer::with_adc_coverage_accuracy();
    let staged_plan = SweepPlan {
        staged: true,
        ..SweepPlan::new()
    };

    let start = Instant::now();
    let full = explorer
        .sweep(&space, &net, &staged_plan)
        .expect("staged scale sweep");
    let t_full = start.elapsed().as_secs_f64();
    assert!(full.completed, "the staged sweep must cover the whole grid");
    println!(
        "staged full sweep: {} candidates -> {} full evaluations ({} pruned by \
         fingerprint) in {t_full:.1}s; front holds {} designs",
        space.grid_len(),
        full.evaluated,
        full.pruned,
        full.front.len()
    );

    // The identity check: the same deterministic subsample swept staged
    // and plain must produce bit-identical fronts. Each kept window spans
    // consecutive grid ids (noise-twins), so the staged pass has real
    // pruning work to do even on the thinned grid. Both measurements use
    // a *fresh* explorer (cold cache) so the comparison is sweep vs
    // sweep, not cache-warming order.
    let subsample = scale_subsample(
        scale_design_space(quick),
        if quick { 120 } else { 1200 },
        24,
    );
    let start = Instant::now();
    let staged = Explorer::with_adc_coverage_accuracy()
        .sweep(&subsample, &net, &staged_plan)
        .expect("staged subsample sweep");
    let t_staged = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let naive = Explorer::with_adc_coverage_accuracy()
        .sweep(&subsample, &net, &SweepPlan::new())
        .expect("plain subsample sweep");
    let t_naive = start.elapsed().as_secs_f64();
    assert_identical(&staged, &naive);
    let speedup = t_naive / t_staged;
    println!(
        "subsample: {} candidates; staged evaluated {} ({} pruned) in {t_staged:.2}s, \
         naive evaluated {} in {t_naive:.2}s — fronts bit-identical, speedup {speedup:.1}x",
        naive.evaluated + naive.screened,
        staged.evaluated,
        staged.pruned,
        naive.evaluated
    );

    let mut table = ExperimentTable::new(
        "dse_scale",
        "Production-scale staged DSE (ADC-coverage objective)",
        &[
            "measure",
            "processed",
            "evaluated",
            "pruned",
            "front",
            "wall (s)",
        ],
    );
    table.row(vec![
        "staged full sweep".to_owned(),
        full.processed.len().to_string(),
        full.evaluated.to_string(),
        full.pruned.to_string(),
        full.front.len().to_string(),
        fmt(t_full),
    ]);
    table.row(vec![
        "staged subsample".to_owned(),
        staged.processed.len().to_string(),
        staged.evaluated.to_string(),
        staged.pruned.to_string(),
        staged.front.len().to_string(),
        fmt(t_staged),
    ]);
    table.row(vec![
        "naive subsample".to_owned(),
        naive.processed.len().to_string(),
        naive.evaluated.to_string(),
        naive.pruned.to_string(),
        naive.front.len().to_string(),
        fmt(t_naive),
    ]);
    // Wall times are measured, never golden — stdout only.
    table.finish_stdout();

    merge_bench_json(
        &results_dir().join("BENCH_dse.json"),
        quick,
        &[
            ("dse_scale_staged_full", t_full),
            ("dse_scale_staged_subsample", t_staged),
            ("dse_scale_naive_subsample", t_naive),
        ],
        &[
            ("dse_scale_grid", space.grid_len() as f64),
            ("dse_scale_evaluated", full.evaluated as f64),
            ("dse_scale_pruned", full.pruned as f64),
            ("dse_scale_front_size", full.front.len() as f64),
            ("dse_scale_speedup_staged_over_naive", speedup),
        ],
    );
}

/// Asserts the staged and plain fronts agree to the last bit.
fn assert_identical(staged: &Exploration, naive: &Exploration) {
    assert_eq!(
        staged.front.len(),
        naive.front.len(),
        "front sizes diverged between staged and naive sweeps"
    );
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
    }
}
