//! CiMLoop: a flexible, accurate, and fast compute-in-memory modeling tool.
//!
//! Facade crate re-exporting the full CiMLoop workspace API. See the
//! individual crates for details; the prelude pulls in the most common types.

#![warn(clippy::print_stderr)]

pub use cimloop_circuits as circuits;
pub use cimloop_core as core;
pub use cimloop_dse as dse;
pub use cimloop_macros as macros;
pub use cimloop_map as map;
pub use cimloop_noise as noise;
pub use cimloop_sim as sim;
pub use cimloop_spec as spec;
pub use cimloop_stats as stats;
pub use cimloop_system as system;
pub use cimloop_tech as tech;
pub use cimloop_workload as workload;
