//! Fig 9-style accuracy validation for the statistical non-ideality
//! subsystem: expected output SNR (and effective bits) versus ADC
//! resolution, under several cell programming-variation levels, on the
//! 256×256 ReRAM base macro.
//!
//! The qualitative trends this reproduces (cf. NeuroSim V1.5 / MICSim):
//! accuracy degrades monotonically as ADC resolution drops, and at any
//! resolution it degrades further — and saturates sooner — as variation
//! grows. The grid is fully deterministic (the noise model is
//! statistical, never sampled), so `results/fig09_noise.tsv` is a golden
//! checked by the `golden-results` CI job; the trends themselves are
//! asserted by `crates/bench/tests/noise_trends.rs`.
//!
//! Usage: `fig09_noise [quick]`
//!
//! - default: the golden grid plus a stdout-only whole-network check
//!   (worst-layer SNR over a ResNet18 prefix at two variation levels).
//! - `quick`: the golden grid only (what CI's golden job runs).

use cimloop_bench::{noise_accuracy_rows, ExperimentTable, NOISE_ADC_BITS, NOISE_VARIATIONS};
use cimloop_core::NoiseSpec;
use cimloop_macros::base_macro;
use cimloop_workload::models;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    if let Some(bad) = args.iter().find(|a| !["quick"].contains(&a.as_str())) {
        eprintln!("unknown argument {bad:?}; usage: fig09_noise [quick]");
        std::process::exit(2);
    }

    let rows = noise_accuracy_rows();
    let mut table = ExperimentTable::new(
        "fig09_noise",
        "output SNR vs ADC resolution under cell variation (256x256 ReRAM macro)",
        &["variation", "ADC bits", "SNR (dB)", "ENOB"],
    );
    for r in &rows {
        table.row(vec![
            format!("{:.2}", r.variation),
            r.adc_bits.to_string(),
            format!("{:.3}", r.snr_db),
            format!("{:.3}", r.enob),
        ]);
    }
    table.finish();

    // The headline trends, stated from the data just printed.
    let snr = |variation: f64, bits: u32| {
        rows.iter()
            .find(|r| r.variation == variation && r.adc_bits == bits)
            .expect("grid covers the corner")
            .snr_db
    };
    let best_bits = NOISE_ADC_BITS[0];
    let worst_bits = *NOISE_ADC_BITS.last().expect("non-empty");
    let quiet = NOISE_VARIATIONS[0];
    let noisy = *NOISE_VARIATIONS.last().expect("non-empty");
    println!(
        "  quantization alone: {:.1} dB at {best_bits}b -> {:.1} dB at {worst_bits}b",
        snr(quiet, best_bits),
        snr(quiet, worst_bits)
    );
    println!(
        "  at {noisy:.2} variation: {:.1} dB at {best_bits}b -> {:.1} dB at {worst_bits}b",
        snr(noisy, best_bits),
        snr(noisy, worst_bits)
    );
    let monotone = rows
        .windows(2)
        .all(|w| w[0].variation != w[1].variation || w[0].snr_db >= w[1].snr_db - 1e-9);
    println!(
        "  shape reproduced: {}",
        if monotone {
            "YES (SNR degrades monotonically with ADC resolution at every variation level)"
        } else {
            "NO"
        }
    );

    if !quick {
        // Whole-network view (stdout only — measured on a real workload
        // mix, reported as context rather than a golden): the worst-layer
        // SNR that gates end-to-end accuracy.
        let net = models::resnet18();
        let prefix = cimloop_workload::Workload::new("resnet18-prefix", net.layers()[..6].to_vec())
            .expect("non-empty");
        for variation in [quiet, noisy] {
            let m = base_macro()
                .uncalibrated()
                .with_array(256, 256)
                .with_noise(NoiseSpec::new().with_cell_variation(variation));
            let evaluator = m.evaluator().expect("evaluator");
            let report = evaluator
                .evaluate(&prefix, &m.representation())
                .expect("network evaluation");
            println!(
                "  ResNet18 prefix, variation {variation:.2}: worst-layer SNR {:.1} dB (ENOB {:.2})",
                report.output_snr_db().expect("analog readout"),
                report.output_enob().expect("analog readout"),
            );
        }
    }
}
