//! Statistical models of analog non-idealities for compute-in-memory
//! macros: per-cell conductance/programming variation, read
//! (thermal/shot) noise, and ADC offset/quantization error.
//!
//! CiMLoop's headline claim is that a *statistical*, data-value-dependent
//! model can match circuit-level fidelity at interactive speed. The
//! energy side of that claim lives in `cimloop-core`'s pipeline; this
//! crate adds the *accuracy* side. Every non-ideality is expressed as a
//! distribution transform over the [`cimloop_stats::Pmf`] machinery and composed into
//! the value pipeline **after** the column-sum convolution:
//!
//! 1. The ideal analog column sum `S` (the `rows`-fold convolution of the
//!    slice-product distribution) arrives from the core pipeline.
//! 2. Programming variation, read noise, and ADC offset combine into one
//!    input-referred Gaussian perturbation `N` (independent sources add
//!    in variance), discretized deterministically by [`gaussian`].
//! 3. The ADC transfer function (clamp to full scale, quantize to
//!    `2^bits` levels) contributes its exact quantization-error
//!    distribution `adc(S) − S`; [`output_error`] convolves it with `N`
//!    (independent error sources, the standard converter-metrology
//!    composition) into the *output-error distribution*.
//! 4. [`NoiseAnalysis`] reduces the error distribution to an expected
//!    output SNR and an effective number of bits (ENOB) — the accuracy
//!    metric a design sweep can trade against energy and area.
//!
//! Everything is deterministic (no sampling), so results are
//! bit-reproducible — the property the repo's golden tests lean on. With
//! every sigma at zero the transforms are *exact identities*: a disabled
//! noise model cannot perturb the ideal path (property-tested in
//! `tests/proptest_noise.rs`).
//!
//! # Example
//!
//! ```
//! use cimloop_noise::{NoiseAnalysis, NoiseSpec};
//! use cimloop_stats::Pmf;
//!
//! # fn main() -> Result<(), cimloop_stats::StatsError> {
//! // An ideal 16-row column sum of fair 1-bit products.
//! let product = Pmf::from_weights(vec![(0.0, 0.75), (1.0, 0.25)])?;
//! let sum = product.convolve_n(16, 0);
//!
//! // 10% programming variation, read noise at 0.5% of full scale.
//! let spec = NoiseSpec::new()
//!     .with_cell_variation(0.10)
//!     .with_read_noise(0.005);
//! let noisy = NoiseAnalysis::analyze(&sum, 16.0, 16, product.second_moment(), Some(4), &spec);
//! let clean = NoiseAnalysis::analyze(&sum, 16.0, 16, product.second_moment(), Some(4), &NoiseSpec::ideal());
//!
//! // Noise can only lose output fidelity, never add it.
//! assert!(noisy.snr_db() <= clean.snr_db());
//! assert!(noisy.enob() <= clean.enob());
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stderr)]
#![warn(missing_docs)]

mod analysis;
mod gaussian;
mod spec;

pub use analysis::{
    output_error, AdcTransfer, NoiseAnalysis, NoiseReport, SigmaBreakdown, SNR_CAP_DB,
};
pub use gaussian::{gaussian, noisy_sum};
pub use spec::{NoiseSection, NoiseSpec};
