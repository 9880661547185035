//! Value-exact ground-truth simulation and the fixed-energy baseline
//! (the NeuroSim / plain-Accelergy substitutes used by the paper's
//! accuracy and speed evaluation, Fig 6 and Table II).
//!
//! [`simulate_layer`] materializes concrete operand values drawn from the
//! *same* per-layer distributions the statistical model uses, schedules
//! them on the macro's array, and charges every data-value-dependent
//! component (DAC, cells, ADC, analog adder/accumulator) its per-event
//! energy using the *same* component models — so any difference between
//! the statistical estimate and the simulated energy isolates exactly the
//! statistical approximations (per-tensor independence, slice averaging,
//! sum-distribution coarsening), as in the paper's Fig 6.
//!
//! [`fixed_energy_table`] is the non-data-value-dependent baseline: one
//! per-action energy table computed from distributions averaged over all
//! layers (the paper's "fixed-energy model" with the optimistic
//! workload-averaged assumption).
//!
//! [`mc_column_readout`] and friends are the *accuracy* counterpart of
//! the same idea: a seeded Monte-Carlo noise-injection engine that
//! samples the calibrated [`cimloop_core::NoiseSpec`] distributions over
//! concrete operand draws and reduces trials to an empirical SNR/ENOB
//! and end-to-end `task_accuracy`, validating the analytic
//! `NoiseAnalysis` chain (see `docs/accuracy.md`).
//!
//! # Example
//!
//! ```
//! use cimloop_macros::base_macro;
//! use cimloop_sim::{simulate_layer, ExactConfig};
//! use cimloop_workload::models;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let m = base_macro();
//! let net = models::resnet18();
//! let exact = simulate_layer(&m, &net.layers()[10], &ExactConfig::fast())?;
//! let statistical = m
//!     .evaluator()?
//!     .evaluate_layer(&net.layers()[10], &m.representation())?;
//! let err = (statistical.energy_total() - exact.energy_total()).abs()
//!     / exact.energy_total();
//! assert!(err < 0.25, "statistical model should track ground truth");
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stderr)]
#![warn(missing_docs)]

mod exact;
mod fixed;
mod monte_carlo;

pub use exact::{simulate_layer, ExactConfig, ExactReport};
pub use fixed::fixed_energy_table;
pub use monte_carlo::{
    mc_column_readout, mc_ideal_column_readout, mc_layer, mc_workload, McConfig, McLayer,
    McReadout, McRun,
};
