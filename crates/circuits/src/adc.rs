//! The ADC plug-in: regression-based energy/area models over published
//! ADCs (paper §III-C2, reference \[52\]).
//!
//! Energy per conversion follows the survey-established form
//! `E ≈ FoM · 2^B` (Walden figure-of-merit), with the FoM improving at
//! smaller nodes and degrading at high sample rates. Area follows
//! Verhelst & Murmann's scaling analysis (`A ∝ 2^B` capacitor-limited plus
//! a logic term). The regression is fit at construction over an embedded
//! survey table, mirroring the original plug-in's regression over the
//! Murmann ADC survey.

use std::ops::RangeInclusive;

use cimloop_tech::TechNode;

use crate::{CircuitError, ComponentModel, NoiseParams, ValueContext};

/// The resolutions [`SarAdc::new`] accepts, bits.
pub const ADC_RESOLUTION: RangeInclusive<u32> = 1..=14;

/// One row of the embedded ADC survey: (resolution bits, node nm,
/// energy per conversion in femtojoules, area in mm²).
///
/// The rows are synthesized to follow the published survey trends (see
/// the substitution note in `cimloop_macros::reference`): energy ≈ FoM·2^B with FoM
/// from ~10 fJ at 65 nm to ~1.5 fJ at 7 nm, with realistic scatter.
const SURVEY: &[(u32, f64, f64, f64)] = &[
    (4, 65.0, 180.0, 0.0011),
    (4, 28.0, 60.0, 0.0004),
    (4, 7.0, 21.0, 0.00012),
    (5, 65.0, 410.0, 0.0018),
    (5, 22.0, 95.0, 0.0005),
    (6, 65.0, 790.0, 0.0031),
    (6, 28.0, 260.0, 0.0012),
    (6, 7.0, 88.0, 0.00035),
    (7, 45.0, 1300.0, 0.0044),
    (7, 14.0, 370.0, 0.0013),
    (8, 65.0, 3400.0, 0.0098),
    (8, 45.0, 2500.0, 0.0071),
    (8, 22.0, 980.0, 0.0028),
    (8, 7.0, 360.0, 0.0011),
    (10, 65.0, 14800.0, 0.035),
    (10, 28.0, 5300.0, 0.013),
    (10, 7.0, 1500.0, 0.0041),
    (12, 45.0, 44000.0, 0.09),
    (12, 14.0, 12000.0, 0.027),
];

/// Least-squares fit of `ln E = a0 + a1·B + a2·ln(nm)` over the survey.
fn fit_energy_regression() -> [f64; 3] {
    // Normal equations for 3 parameters.
    let mut xtx = [[0.0f64; 3]; 3];
    let mut xty = [0.0f64; 3];
    for &(bits, nm, energy_fj, _) in SURVEY {
        let x = [1.0, bits as f64, nm.ln()];
        let y = (energy_fj * 1e-15).ln();
        for i in 0..3 {
            for j in 0..3 {
                xtx[i][j] += x[i] * x[j];
            }
            xty[i] += x[i] * y;
        }
    }
    solve3(xtx, xty)
}

/// Least-squares fit of `ln A = a0 + a1·B + a2·ln(nm)` over the survey.
fn fit_area_regression() -> [f64; 3] {
    let mut xtx = [[0.0f64; 3]; 3];
    let mut xty = [0.0f64; 3];
    for &(bits, nm, _, area_mm2) in SURVEY {
        let x = [1.0, bits as f64, nm.ln()];
        let y = (area_mm2 * 1e-6).ln();
        for i in 0..3 {
            for j in 0..3 {
                xtx[i][j] += x[i] * x[j];
            }
            xty[i] += x[i] * y;
        }
    }
    solve3(xtx, xty)
}

/// Solves a 3×3 linear system by Gaussian elimination.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> [f64; 3] {
    for col in 0..3 {
        // Partial pivot.
        let pivot = (col..3)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty range");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        let pivot_row = a[col];
        for row in 0..3 {
            if row != col {
                let factor = a[row][col] / diag;
                for (x, p) in a[row].iter_mut().zip(pivot_row) {
                    *x -= factor * p;
                }
                b[row] -= factor * b[col];
            }
        }
    }
    [b[0] / a[0][0], b[1] / a[1][1], b[2] / a[2][2]]
}

/// Sample rate above which the energy FoM degrades (conversions/second).
const FOM_KNEE_RATE: f64 = 100e6;

/// A successive-approximation ADC (or a bank thereof) meeting a target
/// resolution and throughput.
///
/// # Example
///
/// ```
/// use cimloop_circuits::adc::SarAdc;
/// use cimloop_circuits::{ComponentModel, ValueContext};
/// use cimloop_tech::TechNode;
///
/// # fn main() -> Result<(), cimloop_circuits::CircuitError> {
/// let adc8 = SarAdc::new(8, TechNode::N22, 100e6)?;
/// let adc4 = SarAdc::new(4, TechNode::N22, 100e6)?;
/// // Each extra bit roughly doubles conversion energy.
/// assert!(adc8.read_energy(&ValueContext::none())
///     > 8.0 * adc4.read_energy(&ValueContext::none()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SarAdc {
    resolution: u32,
    node: TechNode,
    sample_rate: f64,
    supply_factor: f64,
    value_aware: bool,
    read_sigma: f64,
    offset_sigma_lsb: f64,
    energy_coef: [f64; 3],
    area_coef: [f64; 3],
}

impl SarAdc {
    /// Creates an ADC with `resolution` bits at `node` converting at
    /// `sample_rate` conversions/second.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] if `resolution` is outside
    /// [`ADC_RESOLUTION`] or `sample_rate` is not positive.
    pub fn new(resolution: u32, node: TechNode, sample_rate: f64) -> Result<Self, CircuitError> {
        if !ADC_RESOLUTION.contains(&resolution) {
            return Err(CircuitError::param(
                "resolution",
                format!("must be in {ADC_RESOLUTION:?}"),
            ));
        }
        if !(sample_rate.is_finite() && sample_rate > 0.0) {
            return Err(CircuitError::param("sample_rate", "must be positive"));
        }
        Ok(SarAdc {
            resolution,
            node,
            sample_rate,
            supply_factor: 1.0,
            value_aware: false,
            read_sigma: 0.0,
            offset_sigma_lsb: 0.0,
            energy_coef: fit_energy_regression(),
            area_coef: fit_area_regression(),
        })
    }

    /// Declares the converter's statistical non-idealities: additive read
    /// noise at its input (sigma as a fraction of full scale) and input
    /// offset (sigma in LSBs).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] if either sigma is
    /// negative or non-finite.
    pub fn with_noise_sigmas(
        mut self,
        read_sigma: f64,
        offset_sigma_lsb: f64,
    ) -> Result<Self, CircuitError> {
        self.read_sigma = crate::model::validate_sigma("noise_read_sigma", read_sigma)?;
        self.offset_sigma_lsb =
            crate::model::validate_sigma("noise_offset_sigma", offset_sigma_lsb)?;
        Ok(self)
    }

    /// Scales energy by `(v / v_nominal)²` for supply-voltage sweeps.
    pub fn with_supply_factor(mut self, factor: f64) -> Self {
        self.supply_factor = factor;
        self
    }

    /// Enables value-aware early termination: conversions of small values
    /// stop at the leading one and spend proportionally less energy.
    pub fn with_value_aware(mut self, value_aware: bool) -> Self {
        self.value_aware = value_aware;
        self
    }

    /// The ADC resolution in bits.
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// Energy of one conversion ignoring value-awareness, joules.
    pub fn base_energy(&self) -> f64 {
        let [a0, a1, a2] = self.energy_coef;
        let base = (a0 + a1 * self.resolution as f64 + a2 * self.node.nm().ln()).exp();
        let speed_penalty = (self.sample_rate / FOM_KNEE_RATE).max(1.0).sqrt();
        base * speed_penalty * self.supply_factor
    }
}

impl ComponentModel for SarAdc {
    fn class(&self) -> &str {
        "sar_adc"
    }

    fn read_energy(&self, ctx: &ValueContext<'_>) -> f64 {
        let base = self.base_energy();
        if !self.value_aware {
            return base;
        }
        // Early-terminating SAR: cost tracks the expected position of the
        // most significant one bit. Small codes convert cheaply.
        let fraction = match ctx.driven {
            Some(pmf) if ctx.bits > 0 => {
                cimloop_stats::BitStats::expected_msb_position(pmf, ctx.bits.min(53))
                    .map(|msb| msb / ctx.bits as f64)
                    .unwrap_or(1.0)
            }
            _ => 1.0,
        };
        const FLOOR: f64 = 0.3;
        base * (FLOOR + (1.0 - FLOOR) * fraction)
    }

    fn area(&self) -> f64 {
        let [a0, a1, a2] = self.area_coef;
        (a0 + a1 * self.resolution as f64 + a2 * self.node.nm().ln()).exp()
    }

    fn latency(&self) -> f64 {
        1.0 / self.sample_rate
    }

    fn leakage(&self) -> f64 {
        // Comparator/reference leakage: a small fraction of active power,
        // assuming idle converters are mostly power-gated.
        0.002 * self.base_energy() * self.sample_rate
    }

    fn noise(&self) -> NoiseParams {
        NoiseParams {
            variation_sigma: 0.0,
            read_sigma: self.read_sigma,
            offset_sigma_lsb: self.offset_sigma_lsb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimloop_stats::Pmf;

    #[test]
    fn regression_fits_survey_within_factor_two() {
        let coef = fit_energy_regression();
        for &(bits, nm, energy_fj, _) in SURVEY {
            let predicted = (coef[0] + coef[1] * bits as f64 + coef[2] * nm.ln()).exp();
            let actual = energy_fj * 1e-15;
            let ratio = predicted / actual;
            assert!(
                (0.5..2.0).contains(&ratio),
                "B={bits} nm={nm}: ratio {ratio}"
            );
        }
    }

    #[test]
    fn energy_doubles_per_bit() {
        let e4 = SarAdc::new(4, TechNode::N22, 100e6).unwrap().base_energy();
        let e8 = SarAdc::new(8, TechNode::N22, 100e6).unwrap().base_energy();
        let per_bit = (e8 / e4).powf(0.25);
        assert!((1.6..2.4).contains(&per_bit), "per-bit factor {per_bit}");
    }

    #[test]
    fn smaller_nodes_are_cheaper() {
        let e65 = SarAdc::new(8, TechNode::N65, 100e6).unwrap().base_energy();
        let e7 = SarAdc::new(8, TechNode::N7, 100e6).unwrap().base_energy();
        assert!(e7 < e65 / 2.0);
        let a65 = SarAdc::new(8, TechNode::N65, 100e6).unwrap().area();
        let a7 = SarAdc::new(8, TechNode::N7, 100e6).unwrap().area();
        assert!(a7 < a65);
    }

    #[test]
    fn high_sample_rates_cost_energy() {
        let slow = SarAdc::new(8, TechNode::N22, 50e6).unwrap().base_energy();
        let fast = SarAdc::new(8, TechNode::N22, 5e9).unwrap().base_energy();
        assert!(fast > 2.0 * slow);
    }

    #[test]
    fn value_awareness_discounts_small_codes() {
        let adc = SarAdc::new(8, TechNode::N22, 100e6)
            .unwrap()
            .with_value_aware(true);
        let small = Pmf::uniform_ints(0, 3).unwrap();
        let large = Pmf::uniform_ints(250, 255).unwrap();
        let e_small = adc.read_energy(&ValueContext::driven(&small, 8));
        let e_large = adc.read_energy(&ValueContext::driven(&large, 8));
        assert!(e_small < 0.7 * e_large, "{e_small} vs {e_large}");
        // Without value-awareness both cost the same.
        let plain = SarAdc::new(8, TechNode::N22, 100e6).unwrap();
        assert_eq!(
            plain.read_energy(&ValueContext::driven(&small, 8)),
            plain.read_energy(&ValueContext::driven(&large, 8))
        );
    }

    #[test]
    fn supply_factor_scales_energy() {
        let adc = SarAdc::new(8, TechNode::N22, 100e6).unwrap();
        let scaled = adc.clone().with_supply_factor(0.25);
        assert!((scaled.base_energy() / adc.base_energy() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn parameter_validation() {
        assert!(SarAdc::new(0, TechNode::N22, 100e6).is_err());
        assert!(SarAdc::new(15, TechNode::N22, 100e6).is_err());
        assert!(SarAdc::new(8, TechNode::N22, 0.0).is_err());
    }

    #[test]
    fn latency_is_inverse_rate() {
        let adc = SarAdc::new(8, TechNode::N22, 250e6).unwrap();
        assert!((adc.latency() - 4e-9).abs() < 1e-15);
    }
}
