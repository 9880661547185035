//! Container-hierarchy specification for CiM circuits and architecture.
//!
//! This is the paper's first contribution (§III-B): a *flexible
//! specification* that describes both circuits and architecture in a single
//! hierarchy, with per-component, per-tensor data movement and reuse
//! directives.
//!
//! A specification is an ordered series of nodes. A [`Container`] groups
//! everything declared after it (the paper's "series of containers where
//! each contains all subsequent components/containers"), isolating local
//! design decisions. A [`Component`] is anything that moves or reuses data —
//! fine-grained (an SRAM bitcell) or coarse-grained (an SRAM buffer).
//!
//! Per component and per tensor, reuse is one of (paper §III-B1):
//!
//! - [`Reuse::Temporal`] — stores data between cycles (buffers, memory
//!   cells). Temporal-reuse components can always coalesce.
//! - [`Reuse::Coalesce`] — no storage across cycles, but multiple accesses
//!   of the same value merge into one backing-store access (an adder
//!   coalesces partial sums into one output).
//! - [`Reuse::NoCoalesce`] — every pass through the component re-fetches
//!   from backing storage (a DAC or ADC).
//! - [`Reuse::Bypass`] — data passes by without activating the component
//!   (the default for any tensor not listed).
//!
//! Spatially, sibling units multicast/reduce (`spatial_reuse`) or unicast
//! each tensor.
//!
//! Specs can be built programmatically ([`Hierarchy::builder`]) or parsed
//! from the text format of the paper's Fig 5b ([`Hierarchy::from_yamlite`]).
//!
//! # Example
//!
//! ```
//! use cimloop_spec::{Hierarchy, Tensor};
//!
//! # fn main() -> Result<(), cimloop_spec::SpecError> {
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
//! spatial: { meshX: 2 }
//! spatial_reuse: [Inputs]
//! !Component
//! name: memory_cell
//! spatial: { meshY: 2 }
//! temporal_reuse: [Weights]
//! spatial_reuse: [Outputs]
//! ";
//! let hierarchy = Hierarchy::from_yamlite(spec)?;
//! assert_eq!(hierarchy.components().count(), 3);
//! let cell = hierarchy.component("memory_cell").unwrap();
//! assert!(cell.reuse(Tensor::Weights).is_temporal());
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stderr)]
#![warn(missing_docs)]

mod attr;
mod error;
mod hierarchy;
pub mod json;
mod node;
pub mod reflect;
pub mod scenario;
pub mod yamlite;

pub use attr::{AttrValue, Attributes};
pub use error::SpecError;
pub use hierarchy::{Hierarchy, HierarchyBuilder, Level, LevelKind};
pub use node::{Component, Container, Node, Reuse, Spatial, Tensor, TensorDirectives};
pub use reflect::{
    diff, render_diff, DiffEntry, FieldDescriptor, FieldKind, Reflect, Schema, Value,
};
pub use scenario::{ArchitectureSpec, Entry, ScalarValue, ScenarioDoc, Section, SpecValue};
