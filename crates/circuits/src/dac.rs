//! DAC models with data-value-dependent energy (paper Fig 4).
//!
//! Two DAC families with different value-dependence curves, plus the 1-bit
//! pulse driver used by bit-serial macros:
//!
//! - [`CurrentDac`] ("DAC A"): current-steering; energy is dominated by the
//!   static current drawn for the duration of the conversion, which is
//!   proportional to the driven code, on top of a sizable fixed bias cost.
//! - [`CapacitiveDac`] ("DAC B"): a binary-weighted switched-capacitor
//!   array; energy tracks the charge switched onto the array, which is
//!   nearly proportional to the code with a small fixed overhead — so it is
//!   *more* sensitive to data values than DAC A.
//! - [`PulseDriver`]: a wordline pulse driver acting as a 1-bit DAC; energy
//!   is spent only when the driven bit is one.

use std::ops::RangeInclusive;

use cimloop_tech::{scaling, TechNode};

use crate::{CircuitError, ComponentModel, ValueContext};

/// Reference unit-capacitor energy for the capacitive DAC at 45 nm: the
/// energy of switching the full array for a 1-bit DAC, joules.
const CAP_DAC_UNIT_45NM: f64 = 6.0e-15;

/// Reference per-step energy for the current-steering DAC at 45 nm, joules.
const CUR_DAC_UNIT_45NM: f64 = 9.0e-15;

/// The resolutions the multi-bit DACs ([`CurrentDac`], [`CapacitiveDac`])
/// accept, bits.
pub const DAC_RESOLUTION: RangeInclusive<u32> = 1..=12;

fn check_resolution(resolution: u32) -> Result<(), CircuitError> {
    if !DAC_RESOLUTION.contains(&resolution) {
        return Err(CircuitError::param(
            "resolution",
            format!("must be in {DAC_RESOLUTION:?}"),
        ));
    }
    Ok(())
}

/// A current-steering DAC (the paper's "DAC A" flavour).
#[derive(Debug, Clone)]
pub struct CurrentDac {
    resolution: u32,
    node: TechNode,
    supply_factor: f64,
}

impl CurrentDac {
    /// Fraction of full-scale energy drawn regardless of the code (bias
    /// networks, references).
    pub const FIXED_FRACTION: f64 = 0.40;

    /// Creates a current-steering DAC.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] for resolutions outside
    /// [`DAC_RESOLUTION`].
    pub fn new(resolution: u32, node: TechNode) -> Result<Self, CircuitError> {
        check_resolution(resolution)?;
        Ok(CurrentDac {
            resolution,
            node,
            supply_factor: 1.0,
        })
    }

    /// Scales energy by `(v/v_nominal)²` for supply sweeps.
    pub fn with_supply_factor(mut self, factor: f64) -> Self {
        self.supply_factor = factor;
        self
    }

    /// The DAC resolution in bits.
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    fn full_scale_energy(&self) -> f64 {
        let steps = (1u64 << self.resolution) as f64;
        CUR_DAC_UNIT_45NM
            * steps
            * scaling::energy_scale(TechNode::N45, self.node)
            * self.supply_factor
    }
}

impl ComponentModel for CurrentDac {
    fn class(&self) -> &str {
        "current_dac"
    }

    fn read_energy(&self, ctx: &ValueContext<'_>) -> f64 {
        let value = ctx.driven_fraction_or(0.5);
        self.full_scale_energy() * (Self::FIXED_FRACTION + (1.0 - Self::FIXED_FRACTION) * value)
    }

    fn area(&self) -> f64 {
        // Current sources grow with 2^B.
        let steps = (1u64 << self.resolution) as f64;
        2.0e-12 * steps * scaling::area_scale(TechNode::N45, self.node)
    }

    fn latency(&self) -> f64 {
        1e-9
    }
}

/// A binary-weighted switched-capacitor DAC (the paper's "DAC B" flavour).
#[derive(Debug, Clone)]
pub struct CapacitiveDac {
    resolution: u32,
    node: TechNode,
    supply_factor: f64,
}

impl CapacitiveDac {
    /// Fixed fraction (sampling switches, reset).
    pub const FIXED_FRACTION: f64 = 0.10;

    /// Creates a capacitive DAC.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] for resolutions outside
    /// [`DAC_RESOLUTION`].
    pub fn new(resolution: u32, node: TechNode) -> Result<Self, CircuitError> {
        check_resolution(resolution)?;
        Ok(CapacitiveDac {
            resolution,
            node,
            supply_factor: 1.0,
        })
    }

    /// Scales energy by `(v/v_nominal)²` for supply sweeps.
    pub fn with_supply_factor(mut self, factor: f64) -> Self {
        self.supply_factor = factor;
        self
    }

    /// The DAC resolution in bits.
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    fn full_scale_energy(&self) -> f64 {
        let steps = (1u64 << self.resolution) as f64;
        CAP_DAC_UNIT_45NM
            * steps
            * scaling::energy_scale(TechNode::N45, self.node)
            * self.supply_factor
    }
}

impl ComponentModel for CapacitiveDac {
    fn class(&self) -> &str {
        "capacitive_dac"
    }

    fn read_energy(&self, ctx: &ValueContext<'_>) -> f64 {
        // Charge switched onto a binary-weighted array is proportional to
        // the code: E[Σ 2^i·b_i] = E[value].
        let value = ctx.driven_fraction_or(0.5);
        self.full_scale_energy() * (Self::FIXED_FRACTION + (1.0 - Self::FIXED_FRACTION) * value)
    }

    fn area(&self) -> f64 {
        let steps = (1u64 << self.resolution) as f64;
        1.2e-12 * steps * scaling::area_scale(TechNode::N45, self.node)
    }

    fn latency(&self) -> f64 {
        1e-9
    }
}

/// A 1-bit pulse driver (bit-serial input "DAC" / wordline driver).
///
/// Spends `C·V²` only when the driven bit is one, making it maximally
/// sensitive to input sparsity.
#[derive(Debug, Clone)]
pub struct PulseDriver {
    load_capacitance: f64,
    node: TechNode,
    supply_factor: f64,
}

impl PulseDriver {
    /// Reference wordline load at 45 nm for a 256-wide row, farads.
    pub const DEFAULT_LOAD_45NM: f64 = 40e-15;

    /// Creates a pulse driver with an explicit load capacitance (farads).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] for non-positive loads.
    pub fn new(load_capacitance: f64, node: TechNode) -> Result<Self, CircuitError> {
        if !(load_capacitance.is_finite() && load_capacitance > 0.0) {
            return Err(CircuitError::param("load_capacitance", "must be positive"));
        }
        Ok(PulseDriver {
            load_capacitance,
            node,
            supply_factor: 1.0,
        })
    }

    /// Creates a driver for a row of `cols` cells with default per-cell load.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] if `cols` is zero.
    pub fn for_row(cols: u64, node: TechNode) -> Result<Self, CircuitError> {
        if cols == 0 {
            return Err(CircuitError::param("cols", "must be positive"));
        }
        Self::new(Self::DEFAULT_LOAD_45NM * cols as f64 / 256.0, node)
    }

    /// Scales energy by `(v/v_nominal)²` for supply sweeps.
    pub fn with_supply_factor(mut self, factor: f64) -> Self {
        self.supply_factor = factor;
        self
    }
}

impl PulseDriver {
    /// Fraction of the pulse energy spent regardless of the bit value
    /// (wordline clocking and pre-charge happen every cycle).
    pub const FIXED_FRACTION: f64 = 0.15;
}

impl ComponentModel for PulseDriver {
    fn class(&self) -> &str {
        "pulse_driver"
    }

    fn read_energy(&self, ctx: &ValueContext<'_>) -> f64 {
        let vdd = TechNode::N45.nominal_vdd();
        let one_prob = ctx.driven_fraction_or(0.5);
        let activity = Self::FIXED_FRACTION + (1.0 - Self::FIXED_FRACTION) * one_prob;
        self.load_capacitance
            * vdd
            * vdd
            * activity
            * scaling::energy_scale(TechNode::N45, self.node)
            * self.supply_factor
    }

    fn area(&self) -> f64 {
        40.0 * (self.node.nm() * 1e-9).powi(2) * 100.0
    }

    fn latency(&self) -> f64 {
        0.5e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimloop_stats::Pmf;

    #[test]
    fn dac_energy_tracks_value() {
        let dac = CapacitiveDac::new(8, TechNode::N22).unwrap();
        let zero = Pmf::delta(0.0).unwrap();
        let full = Pmf::delta(255.0).unwrap();
        let e0 = dac.read_energy(&ValueContext::driven(&zero, 8));
        let e1 = dac.read_energy(&ValueContext::driven(&full, 8));
        assert!(e1 > 5.0 * e0, "{e0} vs {e1}");
    }

    #[test]
    fn capacitive_dac_more_value_sensitive_than_current() {
        let cap = CapacitiveDac::new(8, TechNode::N22).unwrap();
        let cur = CurrentDac::new(8, TechNode::N22).unwrap();
        let zero = Pmf::delta(0.0).unwrap();
        let full = Pmf::delta(255.0).unwrap();
        let swing_cap = cap.read_energy(&ValueContext::driven(&full, 8))
            / cap.read_energy(&ValueContext::driven(&zero, 8));
        let swing_cur = cur.read_energy(&ValueContext::driven(&full, 8))
            / cur.read_energy(&ValueContext::driven(&zero, 8));
        assert!(swing_cap > swing_cur);
        // The paper's Fig 4 shows >2.5x data-value effects.
        assert!(swing_cap > 2.5);
    }

    #[test]
    fn resolution_scales_energy_exponentially() {
        let d2 = CurrentDac::new(2, TechNode::N45).unwrap();
        let d8 = CurrentDac::new(8, TechNode::N45).unwrap();
        let ctx = ValueContext::none();
        assert!(d8.read_energy(&ctx) > 30.0 * d2.read_energy(&ctx));
    }

    #[test]
    fn pulse_driver_nearly_free_for_zero_bits() {
        let drv = PulseDriver::for_row(256, TechNode::N45).unwrap();
        let zeros = Pmf::delta(0.0).unwrap();
        let ones = Pmf::delta(1.0).unwrap();
        let e0 = drv.read_energy(&ValueContext::driven(&zeros, 1));
        let e1 = drv.read_energy(&ValueContext::driven(&ones, 1));
        // Clocking floor remains, but ones cost far more.
        assert!(e0 > 0.0);
        assert!((e1 / e0 - 1.0 / PulseDriver::FIXED_FRACTION).abs() < 0.1);
    }

    #[test]
    fn pulse_driver_load_scales_with_row_width() {
        let narrow = PulseDriver::for_row(64, TechNode::N45).unwrap();
        let wide = PulseDriver::for_row(1024, TechNode::N45).unwrap();
        let ones = Pmf::delta(1.0).unwrap();
        let ctx = ValueContext::driven(&ones, 1);
        assert!((wide.read_energy(&ctx) / narrow.read_energy(&ctx) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(CurrentDac::new(0, TechNode::N45).is_err());
        assert!(CapacitiveDac::new(13, TechNode::N45).is_err());
        assert!(PulseDriver::new(0.0, TechNode::N45).is_err());
        assert!(PulseDriver::for_row(0, TechNode::N45).is_err());
    }

    #[test]
    fn default_context_uses_half_scale() {
        let dac = CapacitiveDac::new(8, TechNode::N22).unwrap();
        let uniform = Pmf::uniform_ints(0, 255).unwrap();
        let e_default = dac.read_energy(&ValueContext::none());
        let e_uniform = dac.read_energy(&ValueContext::driven(&uniform, 8));
        assert!((e_default / e_uniform - 1.0).abs() < 0.02);
    }
}
