use cimloop_stats::{Pmf, Sampler};
use rand::Rng;

use crate::WorkloadError;

/// Maximum operand precision supported by the distribution synthesizer.
pub const MAX_BITS: u32 = 16;

/// A parameterized description of the values an operand tensor takes.
///
/// Profiles synthesize the per-tensor probability mass functions that feed
/// the data-value-dependent pipeline (paper §III-C1). They substitute for
/// profiling real datasets; see the crate docs for why the substitution
/// preserves the paper's phenomena.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueProfile {
    /// Post-ReLU CNN activations: unsigned, a probability spike at zero
    /// (`sparsity`), and a folded-normal over positive values with standard
    /// deviation `sigma` (relative to full scale, in `(0, 1]`).
    ReluActivations {
        /// Fraction of exact zeros.
        sparsity: f64,
        /// Folded-normal std-dev relative to the maximum magnitude.
        sigma: f64,
    },
    /// Dense signed activations (transformer GELU/LayerNorm outputs):
    /// zero-mean normal with std-dev `sigma` relative to full scale.
    DenseSigned {
        /// Normal std-dev relative to the maximum magnitude.
        sigma: f64,
    },
    /// DNN weights: zero-mean normal, near-zero-heavy, std-dev `sigma`
    /// relative to full scale.
    GaussianWeights {
        /// Normal std-dev relative to the maximum magnitude.
        sigma: f64,
    },
    /// Uniform over the full unsigned range (e.g., raw image pixels).
    UniformUnsigned,
    /// Uniform over the full signed range.
    UniformSigned,
    /// Every operand takes the same value (useful for calibration sweeps
    /// such as the paper's Fig 11 average-MAC-value experiment).
    Constant(i64),
    /// An explicit distribution over operand values; values are clamped to
    /// the representable range when realized.
    Custom(Pmf),
}

impl ValueProfile {
    /// Realizes the profile as a PMF over integers in the operand domain:
    /// `[0, 2^bits - 1]` unsigned or `[-2^(bits-1), 2^(bits-1) - 1]` signed.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `bits` is outside
    /// `1..=16` or a profile parameter is out of range.
    pub fn pmf(&self, bits: u32, signed: bool) -> Result<Pmf, WorkloadError> {
        if bits == 0 || bits > MAX_BITS {
            return Err(WorkloadError::InvalidParameter {
                name: "bits",
                reason: "must be in 1..=16",
            });
        }
        let (lo, hi) = domain(bits, signed);
        let max_mag = hi.max(-lo) as f64;
        match self {
            ValueProfile::ReluActivations { sparsity, sigma } => {
                check_unit("sparsity", *sparsity, true)?;
                check_unit("sigma", *sigma, false)?;
                let lo_nonneg = lo.max(0);
                let s = sigma * max_mag;
                let mut pairs: Vec<(f64, f64)> = Vec::with_capacity((hi - lo_nonneg + 1) as usize);
                // Folded normal over non-negative values; each level gets
                // the normal mass of its quantization bin (the top level
                // absorbs the clipped tail).
                let mut body = 0.0;
                for v in lo_nonneg..=hi {
                    let x = v as f64;
                    let bin_hi = if v == hi { f64::INFINITY } else { x + 0.5 };
                    let w = 2.0 * normal_mass((x - 0.5).max(0.0), bin_hi, s);
                    body += w;
                    pairs.push((x, w));
                }
                // Rescale the body to (1 - sparsity) and add the zero spike.
                let scale = (1.0 - sparsity) / body;
                for p in &mut pairs {
                    p.1 *= scale;
                }
                pairs.push((0.0, *sparsity));
                Ok(Pmf::from_weights(pairs).expect("weights are valid"))
            }
            ValueProfile::DenseSigned { sigma } | ValueProfile::GaussianWeights { sigma } => {
                check_unit("sigma", *sigma, false)?;
                let s = sigma * max_mag;
                let pairs = (lo..=hi).map(|v| {
                    let x = v as f64;
                    let bin_lo = if v == lo { f64::NEG_INFINITY } else { x - 0.5 };
                    let bin_hi = if v == hi { f64::INFINITY } else { x + 0.5 };
                    (x, normal_mass(bin_lo, bin_hi, s))
                });
                Ok(Pmf::from_weights(pairs).expect("weights are valid"))
            }
            ValueProfile::UniformUnsigned => {
                Ok(Pmf::uniform_ints(lo.max(0), hi).expect("non-empty range"))
            }
            ValueProfile::UniformSigned => Ok(Pmf::uniform_ints(lo, hi).expect("non-empty range")),
            ValueProfile::Constant(v) => {
                let clamped = (*v).clamp(lo, hi);
                Ok(Pmf::delta(clamped as f64).expect("finite value"))
            }
            ValueProfile::Custom(pmf) => Ok(pmf.clamp(lo as f64, hi as f64).round()),
        }
    }

    /// Draws `count` i.i.d. operand values using the caller's RNG, one
    /// word per value through a [`Sampler`] over [`Self::pmf`]: tensors
    /// from the same distribution the statistical model sees.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::pmf`].
    pub fn sample<R: Rng + ?Sized>(
        &self,
        bits: u32,
        signed: bool,
        rng: &mut R,
        count: usize,
    ) -> Result<Vec<i64>, WorkloadError> {
        let pmf = self.pmf(bits, signed)?;
        let sampler = Sampler::new(&pmf);
        Ok((0..count)
            .map(|_| pmf.support()[sampler.index(rng.gen())] as i64)
            .collect())
    }
}

/// Standard normal CDF via the Abramowitz & Stegun erf approximation
/// (max error ~1.5e-7), used to integrate distribution mass per
/// quantization bin rather than sampling point masses (important at low
/// precisions, where tail bins would otherwise vanish).
fn normal_cdf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.2316419 * x.abs());
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    let pdf = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let upper = 1.0 - pdf * poly;
    if x >= 0.0 {
        upper
    } else {
        1.0 - upper
    }
}

/// Mass of a `N(0, sigma)` variable inside `[lo, hi]`.
fn normal_mass(lo: f64, hi: f64, sigma: f64) -> f64 {
    normal_cdf(hi / sigma) - normal_cdf(lo / sigma)
}

/// The integer domain of a `bits`-wide operand.
pub(crate) fn domain(bits: u32, signed: bool) -> (i64, i64) {
    if signed {
        (-(1i64 << (bits - 1)), (1i64 << (bits - 1)) - 1)
    } else {
        (0, (1i64 << bits) - 1)
    }
}

fn check_unit(name: &'static str, v: f64, allow_zero: bool) -> Result<(), WorkloadError> {
    let ok = v.is_finite() && v <= 1.0 && (v > 0.0 || (allow_zero && v == 0.0));
    if ok {
        Ok(())
    } else {
        Err(WorkloadError::InvalidParameter {
            name,
            reason: "must be in (0, 1] (sparsity may be 0)",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn relu_profile_has_zero_spike() {
        let profile = ValueProfile::ReluActivations {
            sparsity: 0.5,
            sigma: 0.2,
        };
        let pmf = profile.pmf(8, false).unwrap();
        assert!(pmf.prob_of(0.0) > 0.5); // spike + folded-normal mass at 0
        assert!(pmf.min() >= 0.0);
        assert!(pmf.max() <= 255.0);
    }

    #[test]
    fn dense_signed_is_symmetric() {
        let profile = ValueProfile::DenseSigned { sigma: 0.3 };
        let pmf = profile.pmf(8, true).unwrap();
        assert!(pmf.mean().abs() < 1.0);
        assert!(pmf.min() >= -128.0 && pmf.max() <= 127.0);
        assert!(pmf.prob_where(|v| v < 0.0) > 0.4);
    }

    #[test]
    fn weights_concentrate_near_zero() {
        let narrow = ValueProfile::GaussianWeights { sigma: 0.05 }
            .pmf(8, true)
            .unwrap();
        let wide = ValueProfile::GaussianWeights { sigma: 0.5 }
            .pmf(8, true)
            .unwrap();
        assert!(narrow.second_moment() < wide.second_moment());
    }

    #[test]
    fn uniform_profiles_cover_domain() {
        let u = ValueProfile::UniformUnsigned.pmf(4, false).unwrap();
        assert_eq!(u.len(), 16);
        let s = ValueProfile::UniformSigned.pmf(4, true).unwrap();
        assert_eq!(s.len(), 16);
        assert_eq!(s.min(), -8.0);
        assert_eq!(s.max(), 7.0);
    }

    #[test]
    fn constant_clamps_into_domain() {
        let pmf = ValueProfile::Constant(500).pmf(8, false).unwrap();
        assert_eq!(pmf.mean(), 255.0);
        let pmf = ValueProfile::Constant(-500).pmf(8, true).unwrap();
        assert_eq!(pmf.mean(), -128.0);
    }

    #[test]
    fn custom_is_clamped_and_rounded() {
        let raw = Pmf::from_weights(vec![(-3.2, 1.0), (400.0, 1.0)]).unwrap();
        let pmf = ValueProfile::Custom(raw).pmf(8, false).unwrap();
        assert_eq!(pmf.min(), 0.0);
        assert_eq!(pmf.max(), 255.0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ValueProfile::UniformUnsigned.pmf(0, false).is_err());
        assert!(ValueProfile::UniformUnsigned.pmf(17, false).is_err());
        assert!(ValueProfile::DenseSigned { sigma: 0.0 }
            .pmf(8, true)
            .is_err());
        assert!(ValueProfile::ReluActivations {
            sparsity: 1.5,
            sigma: 0.2
        }
        .pmf(8, false)
        .is_err());
    }

    #[test]
    fn sampling_matches_distribution_mean() {
        let profile = ValueProfile::ReluActivations {
            sparsity: 0.4,
            sigma: 0.25,
        };
        let pmf = profile.pmf(8, false).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let samples = profile.sample(8, false, &mut rng, 20_000).unwrap();
        let sample_mean = samples.iter().sum::<i64>() as f64 / samples.len() as f64;
        assert!(
            (sample_mean - pmf.mean()).abs() < 2.0,
            "{sample_mean} vs {}",
            pmf.mean()
        );
    }

    #[test]
    fn sparsity_shows_up_in_samples() {
        let profile = ValueProfile::ReluActivations {
            sparsity: 0.6,
            sigma: 0.2,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let samples = profile.sample(8, false, &mut rng, 10_000).unwrap();
        let zero_frac = samples.iter().filter(|&&v| v == 0).count() as f64 / samples.len() as f64;
        assert!(zero_frac > 0.55, "zero fraction {zero_frac}");
    }
}
