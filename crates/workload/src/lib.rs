//! Extended-Einsum DNN workloads, a model zoo, and operand value
//! distributions.
//!
//! The CiM stack's *workload* level (paper §II-B): the DNN to be run,
//! modeled as a series of tensor operations with tensors of varying shapes
//! and values. Each [`Layer`] carries:
//!
//! - a 7-dimensional Einsum [`Shape`] (`N,K,C,P,Q,R,S` — the standard
//!   convolution nest; linear layers use `R=S=P=Q=1`),
//! - operand bit precisions, and
//! - a [`ValueProfile`] per operand describing the distribution of values.
//!
//! # Distribution substitution
//!
//! The paper profiles ImageNet/Wikipedia activations. This crate
//! *synthesizes* per-layer distributions with the same relevant structure
//! (see the substitution note in `cimloop_macros::reference`): CNN activations are post-ReLU — unsigned, sparse,
//! folded-normal; transformer activations are dense and signed; weights are
//! near-zero-heavy Gaussians. Per-layer parameters vary deterministically so
//! that distribution shift across layers (which drives the paper's Fig 4 and
//! Fig 6 results) is present.
//!
//! # Example
//!
//! ```
//! use cimloop_workload::models;
//!
//! let net = models::resnet18();
//! assert_eq!(net.layers().len(), 21);
//! let total_macs: u64 = net.layers().iter().map(|l| l.macs() * l.count()).sum();
//! assert!(total_macs > 1_000_000_000); // ~1.8 GMACs for ResNet18
//! ```

#![warn(clippy::print_stderr)]
#![warn(missing_docs)]

mod dim;
mod dist;
mod error;
mod layer;
pub mod models;
pub mod scenario;

pub use dim::{relevant_dims, Dim, Shape};
pub use dist::ValueProfile;
pub use error::WorkloadError;
pub use layer::{Layer, LayerKind, Workload};
pub use scenario::{LayerSection, WorkloadSection};
