//! Pareto design-space exploration for CiM designs (the subsystem behind
//! the paper's Fig 2 co-design result).
//!
//! The paper's headline architectural claim is that circuit parameters
//! (DAC resolution) and architecture parameters (array size) must be
//! chosen *together*: each one's optimum moves when the other changes.
//! Answering such questions takes sweeps over many candidate designs, so
//! this crate makes the sweep a first-class object instead of a
//! hand-rolled nested loop:
//!
//! - [`DesignSpace`] — a declarative cartesian grid of parameter axes
//!   (array dims, DAC/ADC resolution, cell width) over named
//!   [`ArrayMacro`](cimloop_macros::ArrayMacro) variants, with stable
//!   design ids and user filters.
//! - [`Explorer`] — fans candidate designs over
//!   [`par_try_map`](cimloop_core::par_try_map) with
//!   one shared [`EnergyTableCache`](cimloop_core::EnergyTableCache):
//!   layers within a design share finished energy tables, and designs
//!   that agree on reduction width and representation share the dominant
//!   column-sum statistics across hierarchies.
//! - [`ParetoFront`] — multi-objective (energy/MAC, TOPS/W, area,
//!   accuracy proxy) with deterministic tie-breaking and streaming
//!   insertion, so huge sweeps retain only the non-dominated designs.
//!
//! Results are bit-identical to a naive sequential sweep without the
//! cache (property-tested): caching changes where numbers are computed,
//! never what they are.
//!
//! Production-scale sweeps (10⁵+ designs) add, on the same streaming
//! core and with the same bit-identity guarantee: staged evaluation
//! with fingerprint-based dominance pruning, deterministic evaluation
//! budgets with [`Checkpoint`] save/resume, and [`Shard`]ed fan-out
//! whose per-shard fronts merge back byte-identically (see
//! [`Explorer::sweep`] and [`SweepPlan`]).
//!
//! # Example
//!
//! ```
//! use cimloop_dse::{DesignSpace, Explorer};
//! use cimloop_macros::base_macro;
//! use cimloop_workload::models;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let space = DesignSpace::new()
//!     .variant("base", base_macro().frozen()?)
//!     .square_arrays([64, 128])
//!     .dac_bits([1, 2]);
//! let net = models::mvm(64, 64);
//! let exploration = Explorer::new().explore(&space, &net)?;
//! assert!(!exploration.front.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stderr)]
#![warn(missing_docs)]

mod checkpoint;
mod explorer;
mod pareto;
mod shard;
mod space;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use explorer::{
    accuracy_proxy, summarize, task_accuracy_of, AccuracyObjective, DesignReport, EvalScope,
    Exploration, Explorer, SweepPlan, SweepState, TASK_ACCURACY_TRIALS,
};
pub use pareto::{FrontMember, Objectives, ParetoFront};
pub use shard::{Shard, ShardError};
pub use space::{DesignPoint, DesignSpace, SpaceSection};

// Noise-spec axes parameterize variation-tolerance sweeps; re-exported so
// DSE callers need no direct `cimloop-noise` dependency.
pub use cimloop_noise::NoiseSpec;
