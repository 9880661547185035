use crate::Pmf;

/// Inverse-transform sampling of a [`Pmf`] from uniform 64-bit words.
///
/// [`Self::index`] maps a word to the support index whose running sum
/// (`cdf`) first reaches the word's unit draw `u = (word >> 11) · 2⁻⁵³`,
/// the draw a generator's 53-bit `f64` takes from the same word:
/// exactly `cdf.partition_point(|&c| c < u).min(len - 1)`, so a draw past
/// a running sum that rounds below one lands on the last point. The
/// search is a guide-table lookup ("indexed search", Chen & Asau 1974)
/// instead of a binary search. The sampler holds no generator: callers
/// bring their own words, one per draw.
///
/// # Example
///
/// ```
/// use cimloop_stats::{Pmf, Sampler};
///
/// let pmf = Pmf::from_weights(vec![(0.0, 0.75), (1.0, 0.25)]).expect("a distribution");
/// let sampler = Sampler::new(&pmf);
/// // The word whose unit draw is 0.75 is the last one the first point takes.
/// assert_eq!(sampler.index(3 << 62), 0);
/// assert_eq!(sampler.index((3 << 62) + (1 << 11)), 1);
/// ```
#[derive(Debug)]
pub struct Sampler {
    /// `threshold[i] = ⌊cdf[i]·2⁵³⌋ + 1`, so `cdf[i] < u` exactly when
    /// `word >> 11 >= threshold[i]`. The last entry is `u64::MAX`, which
    /// stops every scan inside the support.
    threshold: Vec<u64>,
    /// `guide[b]`: the index of the smallest draw whose top bits are `b`.
    guide: Vec<u32>,
    /// `64 − log2(guide.len())`: a word's bucket is `word >> guide_shift`.
    guide_shift: u32,
}

impl Sampler {
    /// Guide-table buckets per support point, before the cap: the
    /// expected scan past a bucket's guide is under `1 / GUIDE_RATIO`.
    const GUIDE_RATIO: usize = 8;
    /// At most this many buckets (`u32` entries), so 16-bit operands stay
    /// small.
    const MAX_GUIDE: usize = 1 << 16;

    /// A sampler over `pmf`'s support, in [`Pmf::support`] order.
    pub fn new(pmf: &Pmf) -> Self {
        let len = pmf.len();
        let mut threshold = Vec::with_capacity(len);
        let mut cum = 0.0;
        for p in pmf.probs() {
            cum += p;
            // Exact: scaling by 2⁵³ only moves the exponent, and `cum` is
            // a non-negative running sum of non-negative masses.
            threshold.push((cum * (1u64 << 53) as f64).floor() as u64 + 1);
        }
        threshold[len - 1] = u64::MAX;

        let buckets = (len * Self::GUIDE_RATIO)
            .next_power_of_two()
            .min(Self::MAX_GUIDE);
        let bucket_bits = buckets.trailing_zeros();
        let mut guide = Vec::with_capacity(buckets);
        let mut idx = 0;
        for b in 0..buckets as u64 {
            let first_draw = b << (53 - bucket_bits);
            while first_draw >= threshold[idx] {
                idx += 1;
            }
            guide.push(idx as u32);
        }
        Sampler {
            threshold,
            guide,
            guide_shift: 64 - bucket_bits,
        }
    }

    /// The support index the 64-bit random word `word` selects.
    #[inline]
    pub fn index(&self, word: u64) -> usize {
        let draw = word >> 11;
        let mut idx = self.guide[(word >> self.guide_shift) as usize] as usize;
        while draw >= self.threshold[idx] {
            idx += 1;
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The binary search the guide table replaces.
    fn reference(cdf: &[f64], u: f64) -> usize {
        cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
    }

    fn running_sum(pmf: &Pmf) -> Vec<f64> {
        pmf.iter()
            .scan(0.0, |cum, (_, p)| {
                *cum += p;
                Some(*cum)
            })
            .collect()
    }

    /// The unit draw of `word`, as a generator's `f64` takes it.
    fn unit(word: u64) -> f64 {
        (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Checks [`Sampler::index`] against [`reference`] for draws at, just
    /// below and just above every CDF value (with the low 11 bits of
    /// `low`), and for every word of `words`.
    fn check_sampler(pmf: &Pmf, low: u64, words: &[u64]) {
        let cdf = running_sum(pmf);
        let sampler = Sampler::new(pmf);
        let top = (1u64 << 53) - 1;
        for &c in cdf.iter().chain(&[0.0, 1.0]) {
            let at = ((c * (1u64 << 53) as f64).floor() as u64).min(top);
            for draw in [at.saturating_sub(1), at, at + 1, at + 2] {
                let word = (draw.min(top) << 11) | (low & 0x7FF);
                assert_eq!(
                    sampler.index(word),
                    reference(&cdf, unit(word)),
                    "cdf value {c:e}, draw {draw}"
                );
            }
        }
        for &word in words {
            let u = unit(word);
            assert_eq!(sampler.index(word), reference(&cdf, u), "u = {u:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn sampler_matches_the_binary_search_when_the_cdf_rounds_off_one(
            words in prop::collection::vec(any::<u64>(), 256..257),
            low in any::<u64>(),
        ) {
            // Equal weights over 9 points sum to 1 + 2⁻⁵², over 7 points
            // to 1 − 2⁻⁵²: draws past the total must land on the last
            // point.
            for (n, total) in [(9u32, 1.0 + f64::EPSILON), (7, 1.0 - f64::EPSILON)] {
                let pmf = Pmf::from_weights((0..n).map(|v| (f64::from(v), 1.0))).unwrap();
                prop_assert_eq!(running_sum(&pmf)[n as usize - 1], total);
                check_sampler(&pmf, low, &words);
            }
            check_sampler(&Pmf::delta(3.0).unwrap(), low, &words);
        }

        #[test]
        fn sampler_matches_the_binary_search(
            weights in prop::collection::vec((0u32..4, 0.0f64..1.0, 0i32..40), 1..301),
            words in prop::collection::vec(any::<u64>(), 256..257),
            low in any::<u64>(),
        ) {
            // A quarter of the points carry zero mass; the rest span 40
            // decades, so some CDF steps are far below 2⁻⁵³.
            let pairs = weights.iter().enumerate().map(|(v, &(kind, w, decades))| {
                let mass = if kind == 0 { 0.0 } else { w * 10f64.powi(-decades) };
                (v as f64, mass)
            });
            let Ok(pmf) = Pmf::from_weights(pairs) else {
                // All-zero mass: not a distribution.
                return;
            };
            check_sampler(&pmf, low, &words);
        }
    }
}
