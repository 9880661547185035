use crate::StatsError;

/// Tolerance used when merging nearly-identical support values.
const MERGE_EPS: f64 = 1e-12;

/// Largest support a pairwise operand keeps before being coarsened
/// in-line: bounds the materialized `(value, weight)` pairs of
/// [`Pmf::convolve`] / [`Pmf::product`] to `MAX_PAIRWISE_SIDE²` (≈262k
/// pairs, ~4 MiB) so adversarially large supports cannot blow memory
/// before `from_weights` dedupes. Matches the pipeline's own column-sum
/// support cap, so model fidelity is unchanged.
const MAX_PAIRWISE_SIDE: usize = 512;

/// A discrete probability distribution over `f64` values.
///
/// The support is kept sorted by value, with duplicate values merged and
/// probabilities normalized to sum to one. All constructors validate their
/// input; operations preserve the invariant that probabilities are
/// non-negative and sum to one (within floating-point tolerance).
///
/// `Pmf` is the currency of the data-value-dependent pipeline: workload
/// tensors produce a `Pmf` of operand values, encodings and slicings
/// transform it, and circuit models reduce it to an average energy per
/// action.
///
/// # Example
///
/// ```
/// use cimloop_stats::Pmf;
///
/// # fn main() -> Result<(), cimloop_stats::StatsError> {
/// let a = Pmf::from_weights(vec![(0.0, 1.0), (1.0, 1.0)])?; // fair bit
/// let b = a.clone();
/// // Distribution of the sum of two independent fair bits: 0,1,2 w/ 1/4,1/2,1/4.
/// let sum = a.convolve(&b);
/// assert_eq!(sum.support().len(), 3);
/// assert!((sum.mean() - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pmf {
    values: Vec<f64>,
    probs: Vec<f64>,
}

impl Pmf {
    /// Creates a distribution from `(value, weight)` pairs.
    ///
    /// Weights need not sum to one; they are normalized. Duplicate (or
    /// nearly-duplicate) values are merged.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySupport`] if `pairs` is empty,
    /// [`StatsError::InvalidValue`] / [`StatsError::InvalidWeight`] on
    /// non-finite input, and [`StatsError::ZeroMass`] if all weights are zero.
    pub fn from_weights(pairs: impl IntoIterator<Item = (f64, f64)>) -> Result<Self, StatsError> {
        let mut pairs: Vec<(f64, f64)> = pairs.into_iter().collect();
        if pairs.is_empty() {
            return Err(StatsError::EmptySupport);
        }
        for &(v, w) in &pairs {
            if !v.is_finite() {
                return Err(StatsError::InvalidValue { value: v });
            }
            if !w.is_finite() || w < 0.0 {
                return Err(StatsError::InvalidWeight { weight: w });
            }
        }
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
        if total <= 0.0 {
            return Err(StatsError::ZeroMass);
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut values: Vec<f64> = Vec::with_capacity(pairs.len());
        let mut probs: Vec<f64> = Vec::with_capacity(pairs.len());
        for (v, w) in pairs {
            match values.last() {
                Some(&last) if (v - last).abs() <= MERGE_EPS.max(last.abs() * MERGE_EPS) => {
                    *probs.last_mut().expect("probs parallel to values") += w / total;
                }
                _ => {
                    values.push(v);
                    probs.push(w / total);
                }
            }
        }
        Ok(Pmf { values, probs })
    }

    /// Creates a distribution concentrated at a single value.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidValue`] if `value` is non-finite.
    pub fn delta(value: f64) -> Result<Self, StatsError> {
        Self::from_weights([(value, 1.0)])
    }

    /// Creates a uniform distribution over the given values.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySupport`] if `values` is empty, or
    /// [`StatsError::InvalidValue`] on non-finite entries.
    pub fn uniform(values: impl IntoIterator<Item = f64>) -> Result<Self, StatsError> {
        Self::from_weights(values.into_iter().map(|v| (v, 1.0)))
    }

    /// Creates a uniform distribution over the integers `lo..=hi`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `lo > hi`.
    pub fn uniform_ints(lo: i64, hi: i64) -> Result<Self, StatsError> {
        if lo > hi {
            return Err(StatsError::InvalidParameter {
                name: "lo..=hi",
                reason: "lower bound exceeds upper bound",
            });
        }
        Self::uniform((lo..=hi).map(|v| v as f64))
    }

    /// The support values, sorted ascending.
    pub fn support(&self) -> &[f64] {
        &self.values
    }

    /// The probability of each support value, parallel to [`Self::support`].
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the support is empty. Always `false` for a constructed `Pmf`;
    /// provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(value, probability)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values.iter().copied().zip(self.probs.iter().copied())
    }

    /// Expected value of `f` under this distribution.
    pub fn expect(&self, mut f: impl FnMut(f64) -> f64) -> f64 {
        self.iter().map(|(v, p)| p * f(v)).sum()
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.expect(|v| v)
    }

    /// Second raw moment, `E[X^2]`.
    pub fn second_moment(&self) -> f64 {
        self.expect(|v| v * v)
    }

    /// Variance of the distribution.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.expect(|v| (v - m) * (v - m))
    }

    /// Minimum support value.
    pub fn min(&self) -> f64 {
        *self.values.first().expect("non-empty support")
    }

    /// Maximum support value.
    pub fn max(&self) -> f64 {
        *self.values.last().expect("non-empty support")
    }

    /// Probability that the value equals `v` (within merge tolerance).
    pub fn prob_of(&self, v: f64) -> f64 {
        self.iter()
            .filter(|&(x, _)| (x - v).abs() <= MERGE_EPS.max(v.abs() * MERGE_EPS))
            .map(|(_, p)| p)
            .sum()
    }

    /// Probability that the value satisfies `pred`.
    pub fn prob_where(&self, mut pred: impl FnMut(f64) -> bool) -> f64 {
        self.iter().filter(|&(v, _)| pred(v)).map(|(_, p)| p).sum()
    }

    /// Transforms each support value through `f`, merging collisions.
    ///
    /// The result is a valid distribution of `f(X)`.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Self {
        Self::from_weights(self.iter().map(|(v, p)| (f(v), p)))
            .expect("mapping a valid pmf yields a valid pmf")
    }

    /// Distribution of `X + c`.
    pub fn shift(&self, c: f64) -> Self {
        self.map(|v| v + c)
    }

    /// Distribution of `k * X`.
    pub fn scale(&self, k: f64) -> Self {
        self.map(|v| k * v)
    }

    /// Combines two independent distributions through a pairwise operator,
    /// coarsening the operands first if the pair count would exceed the
    /// [`MAX_PAIRWISE_SIDE`] budget. Coarsening preserves each operand's
    /// mean exactly, so means of sums and of independent products are
    /// unaffected.
    fn pairwise(&self, other: &Pmf, mut op: impl FnMut(f64, f64) -> f64) -> Pmf {
        const BUDGET: usize = MAX_PAIRWISE_SIDE * MAX_PAIRWISE_SIDE;
        let capped_a;
        let capped_b;
        let (a, b) = if self.len().saturating_mul(other.len()) > BUDGET {
            // Coarsen each side only as far as the budget demands: against
            // a small partner, a large operand keeps `BUDGET / partner`
            // points (never fewer than MAX_PAIRWISE_SIDE), so asymmetric
            // cases lose no more precision than the memory cap requires.
            let cap_a = (BUDGET / other.len().max(1)).max(MAX_PAIRWISE_SIDE);
            capped_a = self.coarsen(cap_a);
            let cap_b = (BUDGET / capped_a.len().max(1)).max(MAX_PAIRWISE_SIDE);
            capped_b = other.coarsen(cap_b);
            (&capped_a, &capped_b)
        } else {
            (self, other)
        };
        let mut pairs = Vec::with_capacity(a.len() * b.len());
        for (v1, p1) in a.iter() {
            for (v2, p2) in b.iter() {
                pairs.push((op(v1, v2), p1 * p2));
            }
        }
        Self::from_weights(pairs).expect("combining valid pmfs yields a valid pmf")
    }

    /// Distribution of `X + Y` for independent `X` (self) and `Y` (other).
    ///
    /// Support size is the product of the operands' support sizes before
    /// merging; use [`Self::coarsen`] to bound growth across repeated
    /// convolutions. Operands so large that their pair count would exceed
    /// an internal ~262k-pair budget are coarsened (mean-preserving) just
    /// far enough to fit it first.
    pub fn convolve(&self, other: &Pmf) -> Self {
        self.pairwise(other, |v1, v2| v1 + v2)
    }

    /// Distribution of the sum of `n` independent draws from this
    /// distribution, by binary exponentiation (`O(log n)` convolution
    /// steps).
    ///
    /// With `max_support > 0`, every step's result has at most
    /// `max_support` points, binned as [`Self::coarsen`] bins them, so
    /// the mean is exact up to rounding. A step whose operands `a` and `b`
    /// satisfy `a.len() + b.len() - 1 <= max_support` is
    /// [`Self::convolve`] then [`Self::coarsen`]. Any other step is certain
    /// to exceed the cap (a sum of two sets has at least `|A| + |B| - 1`
    /// values), so it bins each of its `a.len() * b.len()` pairs straight
    /// into `coarsen`'s bins over `[a.min() + b.min(), a.max() + b.max()]`,
    /// with no pair vector and no sort.
    ///
    /// With `max_support == 0` intermediate supports are not capped, but
    /// each step is still a [`Self::convolve`], which coarsens operands
    /// whose pair count would exceed its ~262k-pair budget.
    pub fn convolve_n(&self, n: u64, max_support: usize) -> Self {
        let step = |a: &Pmf, b: &Pmf| {
            if max_support == 0 {
                a.convolve(b)
            } else if a.len() + b.len() - 1 <= max_support {
                a.convolve(b).coarsen(max_support)
            } else {
                let mut bins = Bins::new(a.min() + b.min(), a.max() + b.max(), max_support);
                for (v1, p1) in a.iter() {
                    for (v2, p2) in b.iter() {
                        bins.add(v1 + v2, p1 * p2);
                    }
                }
                bins.into_pmf()
            }
        };
        let mut result = Pmf::delta(0.0).expect("0.0 is finite");
        let mut base = self.clone();
        let mut k = n;
        while k > 0 {
            if k & 1 == 1 {
                result = step(&result, &base);
            }
            k >>= 1;
            if k > 0 {
                base = step(&base, &base);
            }
        }
        result
    }

    /// Distribution of `X * Y` for independent `X` (self) and `Y` (other).
    ///
    /// Subject to the same pairwise budget as [`Self::convolve`].
    pub fn product(&self, other: &Pmf) -> Self {
        self.pairwise(other, |v1, v2| v1 * v2)
    }

    /// Mixture distribution: draws from each component with the given weight.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySupport`] if `components` is empty, or an
    /// error if weights are invalid.
    pub fn mixture(components: &[(f64, &Pmf)]) -> Result<Self, StatsError> {
        if components.is_empty() {
            return Err(StatsError::EmptySupport);
        }
        let mut pairs = Vec::new();
        for &(w, pmf) in components {
            if !w.is_finite() || w < 0.0 {
                return Err(StatsError::InvalidWeight { weight: w });
            }
            for (v, p) in pmf.iter() {
                pairs.push((v, w * p));
            }
        }
        Self::from_weights(pairs)
    }

    /// Reduces the support to at most `n` points by re-binning adjacent
    /// values into `n` equal-width bins, preserving total mass and the mean
    /// (exactly, up to rounding): each bin is represented by its
    /// probability-weighted centroid.
    ///
    /// Returns `self` unchanged if the support is already small enough.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn coarsen(&self, n: usize) -> Self {
        assert!(n > 0, "coarsen target must be positive");
        if self.len() <= n {
            return self.clone();
        }
        let mut bins = Bins::new(self.min(), self.max(), n);
        for (v, p) in self.iter() {
            bins.add(v, p);
        }
        bins.into_pmf()
    }

    /// Quantizes values to the nearest integer.
    pub fn round(&self) -> Self {
        self.map(|v| v.round())
    }

    /// Clamps values into `[lo, hi]`.
    pub fn clamp(&self, lo: f64, hi: f64) -> Self {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Inverse-CDF lookup: returns the support value at cumulative
    /// probability `u`, where `u` is in `[0, 1)`.
    ///
    /// This lets callers sample the distribution with their own uniform
    /// random source without this crate depending on an RNG.
    pub fn icdf(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0 - f64::EPSILON);
        let mut cum = 0.0;
        for (v, p) in self.iter() {
            cum += p;
            if u < cum {
                return v;
            }
        }
        self.max()
    }

    /// Total variation distance to another distribution:
    /// `0.5 * Σ |p(v) − q(v)|` over the union of supports.
    pub fn total_variation(&self, other: &Pmf) -> f64 {
        let mut dist = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.len() || j < other.len() {
            if j >= other.len() {
                dist += self.probs[i];
                i += 1;
            } else if i >= self.len() {
                dist += other.probs[j];
                j += 1;
            } else {
                let (a, b) = (self.values[i], other.values[j]);
                if (a - b).abs() <= MERGE_EPS.max(a.abs() * MERGE_EPS) {
                    dist += (self.probs[i] - other.probs[j]).abs();
                    i += 1;
                    j += 1;
                } else if a < b {
                    dist += self.probs[i];
                    i += 1;
                } else {
                    dist += other.probs[j];
                    j += 1;
                }
            }
        }
        dist / 2.0
    }
}

/// `n` equal-width bins over `[lo, hi]`, each accumulating the mass and
/// first moment of the points added to it: the binning rule of
/// [`Pmf::coarsen`] and of [`Pmf::convolve_n`]'s capped steps. A centroid
/// per bin keeps the mean exact and bounds the second-moment error by the
/// bin width.
struct Bins {
    lo: f64,
    width: f64,
    mass: Vec<f64>,
    moment: Vec<f64>,
}

impl Bins {
    /// `n > 0` empty bins spanning `[lo, hi]`.
    fn new(lo: f64, hi: f64, n: usize) -> Self {
        Bins {
            lo,
            width: (hi - lo) / n as f64,
            mass: vec![0.0; n],
            moment: vec![0.0; n],
        }
    }

    /// Adds mass `p` at value `v` (which lies in `[lo, hi]`).
    fn add(&mut self, v: f64, p: f64) {
        // `width` can overflow to +inf for supports spanning nearly the
        // whole f64 range (hi − lo > f64::MAX); everything then lands in
        // bin 0 rather than indexing through a NaN.
        let idx = if self.width.is_finite() && self.width > 0.0 {
            ((v - self.lo) / self.width) as usize
        } else {
            0
        };
        let idx = idx.min(self.mass.len() - 1);
        self.mass[idx] += p;
        self.moment[idx] += p * v;
    }

    /// The distribution of the non-empty bins' centroids.
    fn into_pmf(self) -> Pmf {
        // Empty bins are dropped before the centroid division, so a bin can
        // never emit a 0/0 = NaN support value; nonempty bins divide a
        // finite moment by a strictly positive mass, and `from_weights`
        // re-validates finiteness. Mass is conserved: every added point's
        // probability lands in exactly one bin.
        let pairs = self
            .mass
            .iter()
            .zip(self.moment.iter())
            .filter(|&(&m, _)| m > 0.0)
            .map(|(&m, &mo)| (mo / m, m));
        Pmf::from_weights(pairs).expect("binning a valid pmf yields a valid pmf")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn from_weights_normalizes() {
        let pmf = Pmf::from_weights(vec![(1.0, 2.0), (2.0, 2.0)]).unwrap();
        assert!(close(pmf.probs()[0], 0.5));
        assert!(close(pmf.probs()[1], 0.5));
    }

    #[test]
    fn from_weights_merges_duplicates() {
        let pmf = Pmf::from_weights(vec![(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]).unwrap();
        assert_eq!(pmf.len(), 2);
        assert!(close(pmf.prob_of(1.0), 0.5));
    }

    #[test]
    fn from_weights_rejects_bad_input() {
        assert_eq!(
            Pmf::from_weights(std::iter::empty::<(f64, f64)>()),
            Err(StatsError::EmptySupport)
        );
        assert!(matches!(
            Pmf::from_weights(vec![(f64::NAN, 1.0)]),
            Err(StatsError::InvalidValue { .. })
        ));
        assert!(matches!(
            Pmf::from_weights(vec![(1.0, -1.0)]),
            Err(StatsError::InvalidWeight { .. })
        ));
        assert_eq!(
            Pmf::from_weights(vec![(1.0, 0.0)]),
            Err(StatsError::ZeroMass)
        );
    }

    #[test]
    fn delta_and_moments() {
        let pmf = Pmf::delta(3.0).unwrap();
        assert!(close(pmf.mean(), 3.0));
        assert!(close(pmf.variance(), 0.0));
        assert!(close(pmf.second_moment(), 9.0));
    }

    #[test]
    fn uniform_ints_mean() {
        let pmf = Pmf::uniform_ints(0, 9).unwrap();
        assert!(close(pmf.mean(), 4.5));
        assert_eq!(pmf.len(), 10);
        assert!(Pmf::uniform_ints(3, 2).is_err());
    }

    #[test]
    fn convolve_two_dice() {
        let die = Pmf::uniform_ints(1, 6).unwrap();
        let sum = die.convolve(&die);
        assert!(close(sum.mean(), 7.0));
        assert!(close(sum.prob_of(7.0), 6.0 / 36.0));
        assert_eq!(sum.len(), 11);
    }

    #[test]
    fn convolve_n_matches_repeated() {
        let bit = Pmf::from_weights(vec![(0.0, 0.5), (1.0, 0.5)]).unwrap();
        let a = bit.convolve_n(4, 0);
        let b = bit.convolve(&bit).convolve(&bit).convolve(&bit);
        assert!(a.total_variation(&b) < 1e-9);
        assert!(close(a.mean(), 2.0));
    }

    #[test]
    fn convolve_n_zero_is_delta_zero() {
        let die = Pmf::uniform_ints(1, 6).unwrap();
        let none = die.convolve_n(0, 0);
        assert_eq!(none.len(), 1);
        assert!(close(none.mean(), 0.0));
    }

    #[test]
    fn huge_support_pairwise_ops_stay_bounded() {
        // 3000 × 3000 = 9M raw pairs: far beyond the pairwise budget. The
        // operands coarsen in-line, so support stays bounded and the means
        // are still exact.
        let a = Pmf::uniform_ints(0, 2999).unwrap();
        let b = Pmf::uniform_ints(5000, 7999).unwrap();
        let sum = a.convolve(&b);
        assert!(sum.len() <= MAX_PAIRWISE_SIDE * MAX_PAIRWISE_SIDE);
        assert!(
            (sum.mean() - (a.mean() + b.mean())).abs() < 1e-6,
            "convolve mean {}",
            sum.mean()
        );
        let prod = a.product(&b);
        assert!(prod.len() <= MAX_PAIRWISE_SIDE * MAX_PAIRWISE_SIDE);
        let expected = a.mean() * b.mean();
        assert!(
            (prod.mean() - expected).abs() < 1e-6 * expected.abs(),
            "product mean {} vs {expected}",
            prod.mean()
        );
    }

    #[test]
    fn asymmetric_pairwise_coarsens_only_as_far_as_needed() {
        // 300k × 2 = 600k raw pairs: over budget, but the small side means
        // the large side only needs to drop to ~131k points — far gentler
        // than the 512-point floor.
        let a = Pmf::uniform((0..300_000).map(|i| i as f64)).unwrap();
        let b = Pmf::uniform_ints(0, 1).unwrap();
        let sum = a.convolve(&b);
        assert!(sum.len() > 100_000, "over-coarsened to {}", sum.len());
        assert!(sum.len() <= MAX_PAIRWISE_SIDE * MAX_PAIRWISE_SIDE);
        assert!((sum.mean() - (a.mean() + b.mean())).abs() < 1e-6 * a.mean());
    }

    #[test]
    fn small_support_pairwise_ops_are_exact() {
        // Below the budget nothing coarsens: the dice convolution stays an
        // exact 11-point distribution (regression guard for the cap).
        let die = Pmf::uniform_ints(1, 6).unwrap();
        let sum = die.convolve(&die);
        assert_eq!(sum.len(), 11);
        assert!((sum.prob_of(7.0) - 6.0 / 36.0).abs() < 1e-12);
    }

    #[test]
    fn product_of_independents() {
        let a = Pmf::from_weights(vec![(0.0, 0.5), (2.0, 0.5)]).unwrap();
        let b = Pmf::from_weights(vec![(1.0, 0.5), (3.0, 0.5)]).unwrap();
        let prod = a.product(&b);
        // E[XY] = E[X]E[Y] for independents.
        assert!(close(prod.mean(), a.mean() * b.mean()));
    }

    #[test]
    fn mixture_weights() {
        let a = Pmf::delta(0.0).unwrap();
        let b = Pmf::delta(10.0).unwrap();
        let mix = Pmf::mixture(&[(3.0, &a), (1.0, &b)]).unwrap();
        assert!(close(mix.prob_of(0.0), 0.75));
        assert!(close(mix.mean(), 2.5));
    }

    #[test]
    fn coarsen_preserves_mean() {
        let pmf = Pmf::uniform_ints(0, 999).unwrap();
        let small = pmf.coarsen(16);
        assert!(small.len() <= 16);
        assert!((small.mean() - pmf.mean()).abs() < 1e-6);
        let total: f64 = small.probs().iter().sum();
        assert!(close(total, 1.0));
    }

    #[test]
    fn coarsen_noop_when_small() {
        let pmf = Pmf::uniform_ints(0, 3).unwrap();
        assert_eq!(pmf.coarsen(10), pmf);
    }

    #[test]
    fn icdf_walks_cdf() {
        let pmf = Pmf::from_weights(vec![(1.0, 0.25), (2.0, 0.5), (3.0, 0.25)]).unwrap();
        assert_eq!(pmf.icdf(0.0), 1.0);
        assert_eq!(pmf.icdf(0.3), 2.0);
        assert_eq!(pmf.icdf(0.99), 3.0);
    }

    #[test]
    fn shift_scale_clamp_round() {
        let pmf = Pmf::uniform_ints(0, 3).unwrap();
        assert!(close(pmf.shift(1.0).mean(), pmf.mean() + 1.0));
        assert!(close(pmf.scale(2.0).mean(), pmf.mean() * 2.0));
        assert!(close(pmf.clamp(1.0, 2.0).min(), 1.0));
        assert!(close(pmf.scale(0.4).round().max(), 1.0));
    }

    #[test]
    fn total_variation_bounds() {
        let a = Pmf::uniform_ints(0, 1).unwrap();
        let b = Pmf::uniform_ints(2, 3).unwrap();
        assert!(close(a.total_variation(&b), 1.0));
        assert!(close(a.total_variation(&a), 0.0));
    }

    #[test]
    fn prob_where_counts_predicate_mass() {
        let pmf = Pmf::uniform_ints(0, 9).unwrap();
        assert!(close(pmf.prob_where(|v| v >= 5.0), 0.5));
    }
}
