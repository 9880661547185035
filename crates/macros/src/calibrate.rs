//! Calibration: scale a macro's component energies/latencies so the model
//! reproduces the published headline numbers at the anchor operating point
//! (the paper §V: "we create memory cell models and calibrate the
//! area/energy of each component to match published values").

use cimloop_core::{CoreError, EnergyTableCache};
use cimloop_workload::models;

use crate::reference::Anchor;
use crate::ArrayMacro;

/// Computes `(energy_scale, latency_scale)` multipliers that make `m`
/// reproduce `anchor` on a maximum-utilization MVM at the anchor's
/// precisions and the anchor's supply voltage (node nominal if unset).
///
/// Efficiency is inversely proportional to energy and throughput inversely
/// proportional to latency, so the multipliers are simple ratios.
///
/// # Errors
///
/// Propagates evaluation errors from the uncalibrated model.
pub fn calibrate(m: &ArrayMacro, anchor: Anchor) -> Result<(f64, f64), CoreError> {
    let mut raw = m
        .clone()
        .uncalibrated()
        .at_nominal_voltage()
        .with_scales(1.0, 1.0);
    if let Some(v) = anchor.volts {
        raw = raw.with_supply_voltage(v);
    }
    let mvm = models::mvm(raw.rows(), raw.cols());
    let layer = mvm.layers()[0]
        .clone()
        .with_input_bits(anchor.input_bits)
        .with_weight_bits(anchor.weight_bits);

    // TOPS/W ∝ 1/energy and GOPS ∝ 1/latency to first order, but leakage
    // couples energy to latency, so iterate the ratio update to a fixed
    // point (converges in 2-3 steps). Only the scales change between
    // iterations, so the layer's value statistics (its column sum) are
    // computed once and shared through the cache.
    let cache = EnergyTableCache::new();
    let mut energy_scale = 1.0;
    let mut latency_scale = 1.0;
    for _ in 0..4 {
        let candidate = raw.clone().with_scales(energy_scale, latency_scale);
        let evaluator = candidate.raw_evaluator()?;
        let report =
            evaluator.evaluate_layer_cached(&layer, &candidate.representation(), &cache)?;
        let model_topsw = report.tops_per_watt();
        let model_gops = report.gops();
        if model_topsw <= 0.0 || model_gops <= 0.0 {
            return Err(CoreError::Representation {
                message: format!(
                    "cannot calibrate `{}`: model produced non-positive efficiency/throughput",
                    m.name()
                ),
            });
        }
        energy_scale *= model_topsw / anchor.tops_per_watt;
        latency_scale *= model_gops / anchor.gops;
    }
    Ok((energy_scale, latency_scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    #[test]
    fn calibration_hits_the_anchor() {
        let anchor = reference::MACRO_B_ANCHOR;
        // Evaluate at the anchor's published operating voltage.
        let m = match anchor.volts {
            Some(v) => crate::macro_b().with_supply_voltage(v),
            None => crate::macro_b(),
        };
        let evaluator = m.evaluator().unwrap();
        let mvm = models::mvm(m.rows(), m.cols());
        let layer = mvm.layers()[0]
            .clone()
            .with_input_bits(anchor.input_bits)
            .with_weight_bits(anchor.weight_bits);
        let report = evaluator
            .evaluate_layer(&layer, &m.representation())
            .unwrap();
        // Calibration is computed at nominal voltage on this exact layer:
        // the anchor should be reproduced closely.
        assert!(
            (report.tops_per_watt() - anchor.tops_per_watt).abs() / anchor.tops_per_watt < 0.05,
            "calibrated TOPS/W {} vs anchor {}",
            report.tops_per_watt(),
            anchor.tops_per_watt
        );
        assert!(
            (report.gops() - anchor.gops).abs() / anchor.gops < 0.05,
            "calibrated GOPS {} vs anchor {}",
            report.gops(),
            anchor.gops
        );
    }

    #[test]
    fn scales_are_positive_for_all_macros() {
        for m in [
            crate::base_macro(),
            crate::macro_a(),
            crate::macro_b(),
            crate::macro_c(),
            crate::macro_d(),
            crate::digital_cim(),
        ] {
            let anchor = m.calibration().unwrap();
            let (e, l) = calibrate(&m, anchor).unwrap();
            assert!(e > 0.0 && e.is_finite(), "{}: energy scale {e}", m.name());
            assert!(l > 0.0 && l.is_finite(), "{}: latency scale {l}", m.name());
        }
    }
}
