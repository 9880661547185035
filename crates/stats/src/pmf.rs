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

/// The pair budget `MAX_PAIRWISE_SIDE²`.
const PAIR_BUDGET: usize = MAX_PAIRWISE_SIDE * MAX_PAIRWISE_SIDE;

/// Bound on the magnitude of every sum [`Pmf::convolve`]'s dense step
/// takes. Below it `from_weights`' merge tolerance, `|last| · MERGE_EPS`,
/// is under 1, so it never merges two distinct integers.
const DENSE_SUM_LIMIT: f64 = 1e12;

/// The dense step's array may be at most this many times as long as the
/// pair count: sparser supports keep the pair vector.
const DENSE_SPAN_PER_PAIR: usize = 2;

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
    ///
    /// # Panics
    ///
    /// Panics if `f` maps a support value to a non-finite value.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Self {
        // The weights are this pmf's probabilities, so a non-finite
        // mapped value is the only input `from_weights` can reject.
        Self::from_weights(self.iter().map(|(v, p)| (f(v), p)))
            .expect("a mapped support value is not finite")
    }

    /// Distribution of `X + c`.
    ///
    /// # Panics
    ///
    /// Panics if some `v + c` is not finite (`c` non-finite, or the sum
    /// overflows).
    pub fn shift(&self, c: f64) -> Self {
        self.map(|v| v + c)
    }

    /// Distribution of `k * X`.
    ///
    /// # Panics
    ///
    /// Panics if some `k * v` is not finite (`k` non-finite, including
    /// `0 · ∞`, or the product overflows).
    pub fn scale(&self, k: f64) -> Self {
        self.map(|v| k * v)
    }

    /// Combines two independent distributions through a pairwise operator,
    /// coarsening the operands first if the pair count would exceed the
    /// [`MAX_PAIRWISE_SIDE`] budget. Coarsening preserves each operand's
    /// mean exactly, so means of sums and of independent products are
    /// unaffected.
    fn pairwise(&self, other: &Pmf, mut op: impl FnMut(f64, f64) -> f64) -> Pmf {
        let capped_a;
        let capped_b;
        let (a, b) = if self.len().saturating_mul(other.len()) > PAIR_BUDGET {
            // Coarsen each side only as far as the budget demands: against
            // a small partner, a large operand keeps `PAIR_BUDGET / partner`
            // points (never fewer than MAX_PAIRWISE_SIDE), so asymmetric
            // cases lose no more precision than the memory cap requires.
            let cap_a = (PAIR_BUDGET / other.len().max(1)).max(MAX_PAIRWISE_SIDE);
            capped_a = self.coarsen(cap_a);
            let cap_b = (PAIR_BUDGET / capped_a.len().max(1)).max(MAX_PAIRWISE_SIDE);
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
    ///
    /// Within the budget, the result is the distribution `from_weights`
    /// builds from every pair `(v1 + v2, p1 · p2)`, bit for bit. When both
    /// supports are integers (none of them `-0.0`), every sum lies below
    /// 1e12 in magnitude and the sums span at most twice as many integers
    /// as there are pairs, it adds each pair's probability into a dense
    /// array indexed by the sum instead of sorting a pair vector.
    pub fn convolve(&self, other: &Pmf) -> Self {
        self.convolve_dense(other)
            .unwrap_or_else(|| self.pairwise(other, |v1, v2| v1 + v2))
    }

    /// [`Self::convolve`]'s dense step, or `None` where it does not apply.
    ///
    /// On integer sums below [`DENSE_SUM_LIMIT`], `from_weights` merges
    /// exactly the pairs with equal sums, adding their `w / total` in the
    /// stable sort's order, which is pair order. This adds the same terms
    /// in the same order into one slot per integer, starting from `-0.0`,
    /// the exact additive identity (`-0.0 + x` is `x` bit for bit, so the
    /// first addition stands for `from_weights`' push). A `-0.0` support
    /// value would make `-0.0` and `+0.0` sums, which `from_weights` sorts
    /// apart before merging them, so it keeps the pair vector.
    fn convolve_dense(&self, other: &Pmf) -> Option<Pmf> {
        let pairs = self.len().saturating_mul(other.len());
        let (lo, hi) = (self.min() + other.min(), self.max() + other.max());
        let integers = |pmf: &Pmf| {
            pmf.values
                .iter()
                .all(|&v| v.fract() == 0.0 && v.to_bits() != (-0.0f64).to_bits())
        };
        if pairs > PAIR_BUDGET
            || lo <= -DENSE_SUM_LIMIT
            || hi >= DENSE_SUM_LIMIT
            || hi - lo + 1.0 > (DENSE_SPAN_PER_PAIR * pairs) as f64
            || !integers(self)
            || !integers(other)
        {
            return None;
        }
        // Every sum is an integer of magnitude below 1e12, so `v1 + v2`
        // and `v1 + v2 - lo` are exact.
        let span = (hi - lo) as usize + 1;
        // `from_weights`' total: the pair weights summed in pair order.
        let mut total = 0.0;
        for &p1 in &self.probs {
            for &p2 in &other.probs {
                total += p1 * p2;
            }
        }
        let mut probs = vec![-0.0; span];
        let mut hit = vec![false; span];
        for (v1, p1) in self.iter() {
            for (v2, p2) in other.iter() {
                let i = (v1 + v2 - lo) as usize;
                probs[i] += p1 * p2 / total;
                hit[i] = true;
            }
        }
        // A slot any pair landed in is a support point, even at zero mass,
        // as `from_weights` keeps it.
        let (values, probs) = hit
            .iter()
            .zip(probs)
            .enumerate()
            .filter(|&(_, (&hit, _))| hit)
            .map(|(i, (_, p))| (lo + i as f64, p))
            .unzip();
        Some(Pmf { values, probs })
    }

    /// Distribution of the sum of `n` independent draws from this
    /// distribution, by binary exponentiation (`O(log n)` convolution
    /// steps): [`Rung::climb`] from this distribution, rung 0.
    pub fn convolve_n(&self, n: u64, max_support: usize) -> Self {
        let (sum, _) = Rung::base(self.clone())
            .climb(n, max_support)
            .expect("rung 0's width, 1, divides every n");
        sum
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
    /// Returns `self` unchanged if the support is already small enough,
    /// or if `n == 0`, which means no cap (as in [`Rung::climb`]).
    pub fn coarsen(&self, n: usize) -> Self {
        if n == 0 || self.len() <= n {
            return self.clone();
        }
        let mut bins = Bins::new(self.min(), self.max(), n);
        // `-0.0 + v` is `v` and `1.0 · p` is `p`, bit for bit: the row's
        // pairs are this support's points.
        bins.add_row(-0.0, 1.0, self);
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

/// A rung of [`Pmf::convolve_n`]'s squaring ladder: the sum of `2^k`
/// independent draws from a base distribution, reached from it by `k`
/// squarings.
///
/// Sums of one base distribution over different counts share the ladder's
/// rungs: `convolve_n(n)` climbs past rung `k` for every `n >= 2^k`, and
/// [`Self::climb`] from a rung takes the steps that follow it in the
/// ladder of any `n` it divides, so the sum is the same to the bit.
///
/// # Example
///
/// ```
/// use cimloop_stats::{Pmf, Rung};
///
/// # fn main() -> Result<(), cimloop_stats::StatsError> {
/// let bit = Pmf::from_weights(vec![(0.0, 3.0), (1.0, 1.0)])?;
/// let (over_128, rung) = Rung::base(bit.clone()).climb(128, 64).expect("1 divides 128");
/// assert_eq!(over_128, bit.convolve_n(128, 64));
/// assert_eq!(rung.width(), 128);
/// // 128 does not divide 192, so no ladder of 192 passes rung 7.
/// assert!(rung.clone().climb(192, 64).is_none());
/// // 512 rows continue from rung 7: two squarings instead of nine.
/// let (over_512, _) = rung.climb(512, 64).expect("128 divides 512");
/// assert_eq!(over_512, bit.convolve_n(512, 64));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Squarings taken from the base distribution; at most 63, as every
    /// rung's width fits in a `u64` count.
    k: u32,
    pmf: Pmf,
}

impl Rung {
    /// Rung 0: the base distribution itself.
    pub fn base(pmf: Pmf) -> Self {
        Rung { k: 0, pmf }
    }

    /// How many draws of the base distribution the rung sums: `2^k`.
    pub fn width(&self) -> u64 {
        1 << self.k
    }

    /// The rung's distribution.
    pub fn pmf(&self) -> &Pmf {
        &self.pmf
    }

    /// Distribution of the sum of `n` independent draws from the base
    /// distribution, and the last rung its ladder reached, climbing on
    /// from this rung: the ladder of `n` takes exactly `k` squarings
    /// before its first addition when `2^k` divides `n`, so this skips
    /// them. The last rung is rung `⌊log2 n⌋` (this rung when `n` is 0).
    /// Returns `None` when this rung's width does not divide `n`.
    ///
    /// With `max_support > 0`, every step's result has at most
    /// `max_support` points, binned as [`Pmf::coarsen`] bins them, so
    /// the mean is exact up to rounding. A step whose operands `a` and `b`
    /// satisfy `a.len() + b.len() - 1 <= max_support` is
    /// [`Pmf::convolve`] (its dense step on integer supports) then
    /// [`Pmf::coarsen`]. Any other step is certain to exceed the cap (a
    /// sum of two sets has at least `|A| + |B| - 1` values), so it bins
    /// each of its `a.len() * b.len()` pairs straight into `coarsen`'s
    /// bins over `[a.min() + b.min(), a.max() + b.max()]`, with no pair
    /// vector and no sort. It works one row of `a` at a time: first the
    /// bin and contribution of each of the row's pairs, then the additions
    /// into the bins, in pair order. Every bin sees the same additions in
    /// the same order as binning pair by pair, so the result is the same
    /// to the bit.
    ///
    /// With `max_support == 0` intermediate supports are not capped, but
    /// each step is still a [`Pmf::convolve`], which coarsens operands
    /// whose pair count would exceed its ~262k-pair budget.
    pub fn climb(self, n: u64, max_support: usize) -> Option<(Pmf, Rung)> {
        if n % self.width() != 0 {
            return None;
        }
        let step = |a: &Pmf, b: &Pmf| {
            if max_support == 0 {
                a.convolve(b)
            } else if a.len() + b.len() - 1 <= max_support {
                a.convolve(b).coarsen(max_support)
            } else {
                let mut bins = Bins::new(a.min() + b.min(), a.max() + b.max(), max_support);
                for (v1, p1) in a.iter() {
                    bins.add_row(v1, p1, b);
                }
                bins.into_pmf()
            }
        };
        let Rung {
            mut k,
            pmf: mut base,
        } = self;
        let mut result = Pmf::delta(0.0).expect("0.0 is finite");
        let mut m = n >> k;
        while m > 0 {
            if m & 1 == 1 {
                result = step(&result, &base);
            }
            m >>= 1;
            if m > 0 {
                base = step(&base, &base);
                k += 1;
            }
        }
        Some((result, Rung { k, pmf: base }))
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
    /// The last bin's index, as every quotient is clamped to it; 0 when
    /// `width` is not finite and positive.
    last: f64,
    /// `(mass, first moment)` per bin.
    bins: Vec<(f64, f64)>,
    /// [`Self::add_row`]'s scratch: each pair's bin and `(p, p · v)`.
    row_bins: Vec<usize>,
    row_terms: Vec<(f64, f64)>,
}

impl Bins {
    /// `n > 0` empty bins spanning `[lo, hi]`.
    fn new(lo: f64, hi: f64, n: usize) -> Self {
        // `truncate` is exact up to 2^51; no pmf that fits in memory has
        // that many points to bin.
        assert!(
            n as u64 <= 1 << 51,
            "{n} bins are more than the binning supports"
        );
        let width = (hi - lo) / n as f64;
        // `width` can overflow to +inf for supports spanning nearly the
        // whole f64 range (hi − lo > f64::MAX); everything then lands in
        // bin 0 rather than indexing through a NaN (`NaN.min(0.0)` is 0).
        let last = if width.is_finite() && width > 0.0 {
            (n - 1) as f64
        } else {
            0.0
        };
        Bins {
            lo,
            width,
            last,
            bins: vec![(0.0, 0.0); n],
            row_bins: Vec::new(),
            row_terms: Vec::new(),
        }
    }

    /// Adds mass `p1 · p` at value `v1 + v` for each point `(v, p)` of
    /// `row`, in support order. Every `v1 + v` lies in `[lo, hi]`, so a
    /// point's bin is `(v1 + v - lo) / width`, truncated and clamped to
    /// the last bin.
    fn add_row(&mut self, v1: f64, p1: f64, row: &Pmf) {
        let (lo, width, last) = (self.lo, self.width, self.last);
        self.row_bins.resize(row.len(), 0);
        self.row_terms.resize(row.len(), (0.0, 0.0));
        // No pair's bin or terms depend on another's, so this pass
        // vectorizes; the additions below keep pair order.
        for (((bin, terms), &v2), &p2) in self
            .row_bins
            .iter_mut()
            .zip(&mut self.row_terms)
            .zip(&row.values)
            .zip(&row.probs)
        {
            let (v, p) = (v1 + v2, p1 * p2);
            *bin = truncate(((v - lo) / width).min(last));
            *terms = (p, p * v);
        }
        for (&bin, &(p, pv)) in self.row_bins.iter().zip(&self.row_terms) {
            let (mass, moment) = &mut self.bins[bin];
            *mass += p;
            *moment += pv;
        }
    }

    /// The distribution of the non-empty bins' centroids.
    fn into_pmf(self) -> Pmf {
        // Empty bins are dropped before the centroid division, so a bin can
        // never emit a 0/0 = NaN support value; nonempty bins divide a
        // finite moment by a strictly positive mass, and `from_weights`
        // re-validates finiteness. Mass is conserved: every added point's
        // probability lands in exactly one bin.
        let pairs = self
            .bins
            .into_iter()
            .filter(|&(m, _)| m > 0.0)
            .map(|(m, mo)| (mo / m, m));
        Pmf::from_weights(pairs).expect("binning a valid pmf yields a valid pmf")
    }
}

/// `q` rounded toward zero, for `0 <= q <= 2^51`: what `q as usize` gives
/// there, in float and integer arithmetic that vectorizes (the saturating
/// cast does not). Adding 2^52 rounds `q` to the nearest integer and
/// leaves that integer in the low bits, where one unit of the last place
/// is exactly 1; if that rounded up, the truncation is one less.
fn truncate(q: f64) -> usize {
    const SHIFT: f64 = 4_503_599_627_370_496.0; // 2^52
    let shifted = q + SHIFT;
    let rounded_up = shifted - SHIFT > q;
    (shifted.to_bits() - SHIFT.to_bits()) as usize - usize::from(rounded_up)
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
    fn coarsen_to_zero_points_means_no_cap() {
        let pmf = Pmf::uniform_ints(0, 999).unwrap();
        assert_eq!(pmf.coarsen(0), pmf);
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
    fn dense_convolve_takes_only_exact_integer_cases() {
        let ints = |lo, hi| Pmf::uniform_ints(lo, hi).unwrap();
        // 256 integers, 65,536 pairs, as in fig02b's 1-bit-DAC squaring.
        assert!(ints(-128, 127).convolve_dense(&ints(-128, 127)).is_some());
        assert!(ints(0, 1).convolve_dense(&ints(0, 1)).is_some());
        // Sums of magnitude 1e12 - 1 take the dense step; 1e12 does not.
        let half_limit = 500_000_000_000;
        let (top, below) = (
            ints(half_limit - 4, half_limit),
            ints(half_limit - 4, half_limit - 1),
        );
        assert!(top.convolve_dense(&below).is_some());
        assert!(top.convolve_dense(&top).is_none());
        let (bottom, above) = (
            ints(-half_limit, 4 - half_limit),
            ints(1 - half_limit, 4 - half_limit),
        );
        assert!(bottom.convolve_dense(&above).is_some());
        assert!(bottom.convolve_dense(&bottom).is_none());
        // A non-integer, a `-0.0` value, and a span over twice the pairs.
        let half = Pmf::uniform([0.0, 0.5]).unwrap();
        assert!(half.convolve_dense(&ints(0, 3)).is_none());
        let negative_zero = Pmf::uniform([-0.0, 1.0]).unwrap();
        assert!(negative_zero.convolve_dense(&ints(0, 3)).is_none());
        let sparse = Pmf::uniform([0.0, 8.0]).unwrap();
        assert!(sparse.convolve_dense(&ints(0, 1)).is_none());
        let over_budget = ints(0, MAX_PAIRWISE_SIDE as i64);
        assert!(over_budget.convolve_dense(&over_budget).is_none());
    }

    #[test]
    fn truncate_is_the_saturating_cast_on_its_range() {
        let top = (1u64 << 51) as f64;
        let mut cases = vec![0.0, -0.0, 0.5, 1.5, 2.5, 3.5, top, top - 0.5, top - 1.0];
        for k in [1.0f64, 2.0, 511.0, 4096.0, 1e9, 1e15] {
            let (below, above) = (
                f64::from_bits(k.to_bits() - 1),
                f64::from_bits(k.to_bits() + 1),
            );
            cases.extend([k, below, above, k - 0.5, k + 0.5]);
        }
        for q in cases {
            assert_eq!(truncate(q), q as usize, "{q:e}");
        }
    }

    #[test]
    #[should_panic(expected = "a mapped support value is not finite")]
    fn scale_by_infinity_panics_naming_the_cause() {
        let _ = Pmf::uniform_ints(0, 3).unwrap().scale(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "a mapped support value is not finite")]
    fn shift_by_infinity_panics_naming_the_cause() {
        let _ = Pmf::uniform_ints(0, 3).unwrap().shift(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "a mapped support value is not finite")]
    fn map_to_negative_infinity_panics_naming_the_cause() {
        let _ = Pmf::uniform_ints(0, 3).unwrap().map(|_| f64::NEG_INFINITY);
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
