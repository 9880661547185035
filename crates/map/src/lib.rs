//! Loop-nest mapping representation, dataflow analysis, and mapper search.
//!
//! This crate is the Timeloop substrate of the reproduction (see PAPER.md
//! and ROADMAP.md): CiMLoop needs, for any workload layer, hierarchy, and mapping, the
//! number of *actions* each component performs for each tensor. Per-action
//! energies (which are mapping-invariant, paper §III-D3) come from the
//! circuit plug-ins; multiplying the two yields system energy.
//!
//! # Model
//!
//! A [`Mapping`] assigns, to every node of a
//! [`cimloop_spec::Hierarchy`] (outermost first):
//!
//! - ordered **temporal loops** `(dim, bound)` — iteration sequenced at that
//!   point of the hierarchy, and
//! - **spatial factors** `(dim, bound)` — work spread across the node's
//!   `meshX × meshY` instances.
//!
//! [`analyze`] walks the implied loop nest and computes, per component and
//! tensor, read/write action counts obeying the paper's reuse directives:
//!
//! - *Temporal-reuse* storage absorbs refetches according to the
//!   permutation-aware rule: a tile is re-fetched from the parent once per
//!   iteration of every loop above the storage positioned at or outside the
//!   innermost loop relevant to the tensor.
//! - *Spatial reuse* multicasts inputs (one parent read feeds all sibling
//!   units) or reduces outputs (partials from siblings merge in-network).
//! - *No-coalesce* transit components (DACs, ADCs) are billed once per datum
//!   passing them.
//! - *Coalesce* components merge the spatially-parallel duplicates that the
//!   network did not reduce (the paper's digital adder).
//!
//! # Example
//!
//! ```
//! use cimloop_map::{analyze, Mapper, Strategy};
//! use cimloop_spec::Hierarchy;
//! use cimloop_workload::models;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = "
//! !Component
//! name: buffer
//! temporal_reuse: [Inputs, Outputs]
//! !Container
//! name: macro
//! !Component
//! name: DAC_bank
//! no_coalesce: [Inputs]
//! !Container
//! name: column
//! spatial: { meshX: 64 }
//! spatial_reuse: [Inputs]
//! spatial_dims: K
//! !Component
//! name: ADC
//! no_coalesce: [Outputs]
//! !Component
//! name: memory_cell
//! spatial: { meshY: 64 }
//! temporal_reuse: [Weights]
//! spatial_reuse: [Outputs]
//! spatial_dims: C
//! ";
//! let hierarchy = Hierarchy::from_yamlite(spec)?;
//! let net = models::resnet18();
//! let layer = &net.layers()[5];
//! let mapping = Mapper::new(Strategy::WeightStationary)
//!     .map(&hierarchy, layer.shape())?;
//! let counts = analyze(&hierarchy, layer.shape(), &mapping)?;
//! assert_eq!(counts.actual_macs(), layer.macs());
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stderr)]
#![warn(missing_docs)]

mod dataflow;
mod error;
mod mapper;
mod mapping;

pub use dataflow::{analyze, Actions, DataflowResult};
pub use error::MapError;
pub use mapper::{Mapper, Strategy};
pub use mapping::{Mapping, NodeMapping};
