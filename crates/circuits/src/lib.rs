//! Component area/energy/latency plug-ins for CiM systems.
//!
//! This crate substitutes for the Accelergy plug-in suite the paper builds
//! on (§III-C2): the ADC plug-in (regression over published ADC surveys),
//! the NeuroSim plug-in (array periphery, CiM cells, digital logic), the
//! CACTI plug-in (buffers/DRAM), and the Aladdin plug-in (digital
//! components) — all as analytical Rust models calibrated to the same
//! published scaling behaviour.
//!
//! # Data-value-dependent interface
//!
//! Every model implements [`ComponentModel`]; per-action energy takes a
//! [`ValueContext`] carrying the distribution of (encoded, sliced) values
//! the component propagates and/or stores. This is the paper's component
//! modeling interface: *"per-component models use these distributions to
//! calculate energy — each component may use distributions differently
//! (e.g., resistor energy increases with the duration of applied voltages,
//! while capacitor energy increases with the amount of switching)"*.
//!
//! Models fall back to sensible average-case assumptions when no
//! distribution is supplied (the fixed-energy baseline of Fig 6).
//!
//! # Catalog
//!
//! [`Library`] resolves a spec component `class` plus its attributes to a
//! boxed model — the paper's "Library plug-in" that lets users build new
//! systems from off-the-shelf component models or fairly compare
//! architectures on a common component set.
//!
//! # Example
//!
//! ```
//! use cimloop_circuits::{Library, ValueContext};
//! use cimloop_spec::Attributes;
//! use cimloop_stats::Pmf;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut attrs = Attributes::new();
//! attrs.set("resolution", 8i64);
//! attrs.set("technology", 22i64);
//! let adc = Library::new().build("sar_adc", &attrs)?;
//!
//! // Converting small values costs a value-aware ADC less energy.
//! let small = Pmf::uniform_ints(0, 3)?;
//! let large = Pmf::uniform_ints(250, 255)?;
//! let e_small = adc.read_energy(&ValueContext::driven(&small, 8));
//! let e_large = adc.read_energy(&ValueContext::driven(&large, 8));
//! assert!(e_small <= e_large);
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stderr)]
#![warn(missing_docs)]

pub mod adc;
pub mod analog;
pub mod array;
pub mod dac;
pub mod digital;
mod error;
pub mod interconnect;
mod library;
pub mod memory;
mod model;

pub use adc::ADC_RESOLUTION;
pub use dac::DAC_RESOLUTION;
pub use error::CircuitError;
pub use library::{converter_resolution, is_adc_class, Library};
pub use model::{BoxedModel, ComponentModel, NoiseParams, ValueContext};
