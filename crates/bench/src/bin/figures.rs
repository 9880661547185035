//! Writes every paper table and figure that has no spec to `results/`
//! at the repository root (a compile-time path, so the working directory
//! does not matter), printing each table as it goes.
//!
//! Usage: `figures` (no arguments). Exits non-zero when a table cannot
//! be computed, or, naming the file, when it cannot be written.

use cimloop_bench::figures;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for figure in figures::ALL {
        figure()?.finish()?;
    }
    Ok(())
}
