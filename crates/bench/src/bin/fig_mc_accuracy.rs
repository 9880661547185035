//! Monte-Carlo cross-validation of the analytic accuracy chain: the
//! sampled noise-injection engine independently measures the output SNR
//! the statistical `NoiseAnalysis` model predicts, on the 64×64 ReRAM
//! base macro across the cell-variation × ADC-resolution grid.
//!
//! Both sides of every row are deterministic — the analytic model never
//! samples, and the Monte-Carlo engine runs a fixed trial count at the
//! pinned default seed — so `results/fig_mc_accuracy.tsv` is a golden
//! checked by the `accuracy-check` CI job. The agreement contract is
//! documented in `docs/accuracy.md`.
//!
//! Usage: `fig_mc_accuracy`

use cimloop_bench::{mc_accuracy_rows, ExperimentTable, MC_ACCURACY_TRIALS};

/// The documented analytic-vs-MC agreement bound, dB (docs/accuracy.md).
const TOLERANCE_DB: f64 = 0.5;

fn main() -> std::io::Result<()> {
    let rows = mc_accuracy_rows();
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
    table.finish()?;

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
    Ok(())
}
