//! Probability mass function (PMF) machinery for data-value-dependent
//! energy modeling.
//!
//! CiMLoop's statistical model (paper §III-D) represents the values each
//! tensor takes as an independent discrete distribution per tensor. Component
//! energy models then consume these distributions to compute *average energy
//! per action* once, which is reused for any number of actions.
//!
//! This crate provides:
//!
//! - [`Pmf`] — a discrete distribution over `f64` values with the moment,
//!   transformation, and combination operations the pipeline needs.
//! - [`Rung`] — a rung of [`Pmf::convolve_n`]'s squaring ladder, from
//!   which sums over any count it divides continue.
//! - [`Sampler`] — inverse-transform sampling of a [`Pmf`] from the
//!   caller's random words, for the pipeline's sampled engines.
//! - [`BitStats`] — bit-level statistics (per-bit one-probability, expected
//!   Hamming weight, switching activity) used by switching-energy models such
//!   as capacitive DACs and digital logic.
//!
//! # Example
//!
//! ```
//! use cimloop_stats::Pmf;
//!
//! # fn main() -> Result<(), cimloop_stats::StatsError> {
//! // An 8-bit unsigned operand that is zero half the time.
//! let pmf = Pmf::from_weights(vec![(0.0, 0.5), (128.0, 0.25), (255.0, 0.25)])?;
//! assert!((pmf.mean() - (128.0 * 0.25 + 255.0 * 0.25)).abs() < 1e-12);
//!
//! // Average of value^2: how a resistive device's read energy scales.
//! let e_sq = pmf.expect(|v| v * v);
//! assert!(e_sq > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stderr)]
#![warn(missing_docs)]

mod bits;
mod error;
mod pmf;
mod sampler;

pub use bits::{switching_probability, BitStats};
pub use error::StatsError;
pub use pmf::{Pmf, Rung};
pub use sampler::Sampler;
