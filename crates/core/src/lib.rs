//! CiMLoop core: data representations, the data-value-dependent
//! statistical pipeline, and the full-system evaluator.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrate crates:
//!
//! 1. **Representation** (paper §III-C1b): operands are *encoded* into
//!    unsigned level streams ([`Encoding`]: two's complement, offset,
//!    differential, sign-magnitude, XNOR) and *sliced* into per-device bit
//!    groups ([`Representation`]). Slicing is exposed to the mapper as the
//!    extended-Einsum dimensions `Is`/`Ws`.
//! 2. **Data-value-dependent pipeline** (§III-C, Algorithm 1): per layer,
//!    per tensor value distributions are pushed through the representation
//!    to derive the distribution each component propagates, and each
//!    component model reduces its distribution to an *average energy per
//!    action*, computed once ([`ActionEnergyTable`]).
//! 3. **Evaluator** (§III-D): per-action energies (mapping-invariant) are
//!    multiplied by the action counts from dataflow analysis to produce
//!    full-system energy/throughput/area with per-component breakdowns,
//!    amortizing the value-dependent computation over arbitrarily many
//!    mappings.
//!
//! # Example
//!
//! ```
//! use cimloop_core::{Encoding, Evaluator, Representation};
//! use cimloop_spec::Hierarchy;
//! use cimloop_workload::models;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = "
//! !Component
//! name: buffer
//! class: sram_buffer
//! entries: 65536
//! temporal_reuse: [Inputs, Outputs]
//! temporal_dims: Is
//! !Container
//! name: macro
//! !Component
//! name: accumulator
//! class: shift_add
//! temporal_reuse: [Outputs]
//! !Component
//! name: DAC
//! class: dac
//! resolution: 1
//! no_coalesce: [Inputs]
//! !Container
//! name: column
//! spatial: { meshX: 64 }
//! spatial_reuse: [Inputs]
//! spatial_dims: K
//! !Component
//! name: ADC
//! class: sar_adc
//! resolution: 8
//! no_coalesce: [Outputs]
//! !Component
//! name: cell
//! class: sram_cim_cell
//! spatial: { meshY: 64 }
//! temporal_reuse: [Weights]
//! spatial_reuse: [Outputs]
//! spatial_dims: C, R, S
//! slice_storage: true
//! ";
//! let hierarchy = Hierarchy::from_yamlite(spec)?;
//! let evaluator = Evaluator::new(hierarchy)?;
//! let net = models::resnet18();
//! let rep = Representation::new(Encoding::TwosComplement, Encoding::Offset, 1, 1)?;
//! let report = evaluator.evaluate_layer(&net.layers()[5], &rep)?;
//! assert!(report.energy_total() > 0.0);
//! assert!(report.tops_per_watt() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stderr)]
#![warn(missing_docs)]

mod cache;
mod encoding;
mod error;
mod evaluator;
mod parallel;
mod pipeline;
mod representation;

pub use cache::{AccuracySignature, CacheStats, EnergyTableCache, StatsSignature, TableSignature};
pub use encoding::{EncodedOperand, EncodedStream, Encoding};
pub use error::CoreError;
pub use evaluator::{
    ActionEnergyTable, AreaReport, CheapMetrics, ComponentReport, Evaluator, LayerReport, RunReport,
};
pub use parallel::par_try_map;
pub use pipeline::{reduction_rows_of, OperandStats, Pipeline, ValueStats};
pub use representation::Representation;

// The converter widths the circuit models accept: spec schemas check
// `adc_bits`/`dac_bits` against these at import.
pub use cimloop_circuits::{ADC_RESOLUTION, DAC_RESOLUTION};

// The statistical non-ideality subsystem (cell variation, read noise,
// ADC error) composes into the pipeline after the column-sum
// convolution; re-exported so evaluator callers can configure it without
// a direct `cimloop-noise` dependency.
pub use cimloop_noise::{NoiseAnalysis, NoiseReport, NoiseSpec};
