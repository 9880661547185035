//! Monte-Carlo cross-validation of the analytic accuracy chain: the
//! sampled noise-injection engine independently measures the output SNR
//! the statistical `NoiseAnalysis` model predicts, on the 64×64 ReRAM
//! base macro across the cell-variation × ADC-resolution grid.
//!
//! Both sides of every row are deterministic — the analytic model never
//! samples, and the Monte-Carlo engine runs a fixed trial count at the
//! pinned default seed — so `results/fig_mc_accuracy.tsv` is a golden
//! checked by the `accuracy-check` CI job. The worst analytic-vs-MC
//! deviation is merged into `results/BENCH_accuracy.json` so the
//! agreement rides the bench-baseline trajectory next to the timing
//! numbers. The agreement contract is documented in `docs/accuracy.md`.
//!
//! Usage: `fig_mc_accuracy [quick]`
//!
//! - default: the golden grid plus a stdout-only whole-workload check
//!   (end-to-end task accuracy over a matched two-layer workload at two
//!   variation levels).
//! - `quick`: the golden grid only (what CI's accuracy job runs).

#![expect(
    clippy::disallowed_methods,
    reason = "rates go to stdout, never to a golden TSV"
)]

use std::time::Instant;

use cimloop_bench::{
    mc_accuracy_rows, merge_bench_json, results_dir, ExperimentTable, MC_ACCURACY_TRIALS,
    NOISE_VARIATIONS,
};
use cimloop_core::NoiseSpec;
use cimloop_macros::base_macro;
use cimloop_sim::{mc_workload, McConfig};
use cimloop_workload::models;

/// The documented analytic-vs-MC agreement bound, dB (docs/accuracy.md).
const TOLERANCE_DB: f64 = 0.5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    if let Some(bad) = args.iter().find(|a| !["quick"].contains(&a.as_str())) {
        eprintln!("unknown argument {bad:?}; usage: fig_mc_accuracy [quick]");
        std::process::exit(2);
    }

    let started = Instant::now();
    let rows = mc_accuracy_rows();
    let grid_seconds = started.elapsed().as_secs_f64();
    let mut table = ExperimentTable::new(
        "fig_mc_accuracy",
        "analytic vs Monte-Carlo output SNR (64x64 ReRAM macro)",
        &[
            "variation",
            "ADC bits",
            "analytic SNR (dB)",
            "MC SNR (dB)",
            "deviation (dB)",
            "task accuracy",
        ],
    );
    for r in &rows {
        table.row(vec![
            format!("{:.2}", r.variation),
            r.adc_bits.to_string(),
            format!("{:.3}", r.analytic_snr_db),
            format!("{:.3}", r.mc_snr_db),
            format!("{:.3}", r.deviation_db),
            format!("{:.4}", r.task_accuracy),
        ]);
    }
    table.finish();

    let worst = rows.iter().map(|r| r.deviation_db).fold(0.0f64, f64::max);
    println!(
        "  worst analytic-vs-MC deviation: {worst:.3} dB over {} cells \
         ({MC_ACCURACY_TRIALS} trials each)",
        rows.len()
    );
    println!(
        "  agreement within the documented {TOLERANCE_DB} dB tolerance: {}",
        if worst <= TOLERANCE_DB { "YES" } else { "NO" }
    );
    assert!(
        worst <= TOLERANCE_DB,
        "the sampled engine disagrees with the analytic model by {worst:.3} dB"
    );

    merge_bench_json(
        &results_dir().join("BENCH_accuracy.json"),
        quick,
        &[("fig_mc_accuracy_grid", grid_seconds)],
        &[("analytic_vs_mc_max_deviation_db", worst)],
    );

    if !quick {
        // Whole-workload view (stdout only — the per-layer grid above is
        // the golden): MAC-weighted end-to-end task accuracy of a
        // two-layer matched workload under quiet and noisy programming.
        let net = models::mvm(64, 64);
        let cfg = McConfig::new(MC_ACCURACY_TRIALS);
        for &variation in &[
            NOISE_VARIATIONS[0],
            *NOISE_VARIATIONS.last().expect("non-empty"),
        ] {
            let m = base_macro()
                .uncalibrated()
                .with_array(64, 64)
                .with_noise(NoiseSpec::new().with_cell_variation(variation));
            let run = mc_workload(&m, &net, &cfg).expect("workload run");
            println!(
                "  workload `{}`, variation {variation:.2}: end-to-end task accuracy {:.4}",
                net.name(),
                run.task_accuracy
            );
        }
    }
}
