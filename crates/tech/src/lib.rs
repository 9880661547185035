//! Technology substrate: process nodes, scaling equations, supply-voltage
//! behaviour, and device-level models.
//!
//! The CiMLoop paper projects macros across technology nodes (e.g., Fig 16
//! scales Macros A/B/D to 7 nm) and validates energy/throughput across
//! supply-voltage sweeps (Fig 7). The original tool uses published scaling
//! equations (Stillmaker & Baas, *Integration* 2017) and NeuroSim device
//! models; this crate provides analytical equivalents:
//!
//! - [`TechNode`] — named CMOS nodes from 180 nm to 7 nm with nominal
//!   supply voltages.
//! - [`scaling`] — energy/area/delay scaling factors between nodes.
//! - [`VoltageScale`] — alpha-power-law supply-voltage scaling for energy
//!   (∝ V²) and delay (∝ V/(V−V_t)^α).
//! - [`device`] — SRAM bitcell, ReRAM conductance cell, DRAM cell, and
//!   capacitor models used by the circuit plug-ins.
//!
//! All quantities are SI: joules, seconds, meters², volts, siemens, farads.
//!
//! # Example
//!
//! ```
//! use cimloop_tech::{scaling, TechNode};
//!
//! // Energy per op shrinks moving from 65 nm to 7 nm.
//! let k = scaling::energy_scale(TechNode::N65, TechNode::N7);
//! assert!(k < 1.0);
//! ```

#![warn(clippy::print_stderr)]
#![warn(missing_docs)]

pub mod device;
mod error;
mod node;
pub mod scaling;
mod voltage;

pub use error::TechError;
pub use node::TechNode;
pub use voltage::VoltageScale;

/// 1 femto (10⁻¹⁵), handy for femtojoules and femtofarads.
pub const FEMTO: f64 = 1e-15;
/// 1 pico (10⁻¹²), handy for picojoules and picoseconds.
pub const PICO: f64 = 1e-12;
/// 1 nano (10⁻⁹).
pub const NANO: f64 = 1e-9;
/// 1 micro (10⁻⁶).
pub const MICRO: f64 = 1e-6;
/// 1 milli (10⁻³).
pub const MILLI: f64 = 1e-3;
/// 1 giga (10⁹).
pub const GIGA: f64 = 1e9;
/// 1 tera (10¹²).
pub const TERA: f64 = 1e12;
