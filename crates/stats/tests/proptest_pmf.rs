//! Property-based tests for the PMF invariants of the paper’s statistical model (PAPER.md §III-D).

use cimloop_stats::{BitStats, Pmf, Rung};
use proptest::prelude::*;

fn arb_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec((-1000i32..1000, 1u32..100), 1..20).prop_map(|pairs| {
        Pmf::from_weights(pairs.into_iter().map(|(v, w)| (v as f64, w as f64)))
            .expect("generated weights are valid")
    })
}

/// Up to 5 points among the integers 0 to 5.
fn arb_narrow_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec((0i32..6, 1u32..100), 1..6).prop_map(|pairs| {
        Pmf::from_weights(pairs.into_iter().map(|(v, w)| (v as f64, w as f64)))
            .expect("generated weights are valid")
    })
}

fn mass(pmf: &Pmf) -> f64 {
    pmf.probs().iter().sum()
}

/// The sum of `n` draws from `pmf` by binary exponentiation, each
/// convolution step taken by `step`, as `Pmf::convolve_n` orders them.
fn convolve_n_by(pmf: &Pmf, n: u64, step: impl Fn(&Pmf, &Pmf) -> Pmf) -> Pmf {
    let mut result = Pmf::delta(0.0).expect("0.0 is finite");
    let mut base = pmf.clone();
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

/// `Pmf::convolve_n` before its capped steps were fused: every step is a
/// full `convolve`, then `coarsen` to the cap.
fn reference_convolve_n(pmf: &Pmf, n: u64, max_support: usize) -> Pmf {
    convolve_n_by(pmf, n, |a, b| a.convolve(b).coarsen(max_support))
}

/// The pairs `(v1 + v2, p1 · p2)` of `a` and `b`, row by row.
fn pairs<'a>(a: &'a Pmf, b: &'a Pmf) -> impl Iterator<Item = (f64, f64)> + 'a {
    a.iter()
        .flat_map(move |(v1, p1)| b.iter().map(move |(v2, p2)| (v1 + v2, p1 * p2)))
}

/// `n` equal-width bins over `[lo, hi]`, filled pair by pair in the
/// order given: a pair's bin is `(v - lo) / width`, truncated and
/// clamped to the last bin (bin 0 if the width is not finite and
/// positive), and each non-empty bin emits its centroid.
fn bin_pairs(lo: f64, hi: f64, n: usize, pairs: impl Iterator<Item = (f64, f64)>) -> Pmf {
    let width = (hi - lo) / n as f64;
    let mut mass = vec![0.0; n];
    let mut moment = vec![0.0; n];
    for (v, p) in pairs {
        let bin = if width.is_finite() && width > 0.0 {
            ((v - lo) / width) as usize
        } else {
            0
        };
        let bin = bin.min(n - 1);
        mass[bin] += p;
        moment[bin] += p * v;
    }
    let centroids = mass
        .iter()
        .zip(&moment)
        .filter(|&(&m, _)| m > 0.0)
        .map(|(&m, &mo)| (mo / m, m));
    Pmf::from_weights(centroids).expect("binned a valid pmf")
}

/// `Pmf::convolve_n` with the per-pair kernel, independent of the
/// library's binning: an exact step sorts and merges the pair vector in
/// `from_weights`, then bins the merged points one by one if they exceed
/// the cap; a capped step bins each pair in turn.
fn per_pair_convolve_n(pmf: &Pmf, n: u64, max_support: usize) -> Pmf {
    convolve_n_by(pmf, n, |a, b| {
        if a.len() + b.len() - 1 <= max_support {
            let sum = Pmf::from_weights(pairs(a, b)).expect("summed valid pmfs");
            if sum.len() <= max_support {
                sum
            } else {
                bin_pairs(sum.min(), sum.max(), max_support, sum.iter())
            }
        } else {
            bin_pairs(
                a.min() + b.min(),
                a.max() + b.max(),
                max_support,
                pairs(a, b),
            )
        }
    })
}

/// `Pmf::convolve` through a pair vector: `from_weights` over every pair
/// `(v1 + v2, p1 · p2)`, row by row.
fn pair_vector_convolve(a: &Pmf, b: &Pmf) -> Pmf {
    Pmf::from_weights(pairs(a, b)).expect("valid operands")
}

/// Every support value and probability of `pmf`, as bits.
fn bits(pmf: &Pmf) -> Vec<(u64, u64)> {
    pmf.iter()
        .map(|(v, p)| (v.to_bits(), p.to_bits()))
        .collect()
}

/// Integer supports at the edges of `convolve`'s dense step, drawn in
/// pairs from one region: values climb from near 0, climb from near
/// −5e11, or fall from near +5e11, so the pair's sums reach either side
/// of the 1e12 limit where `from_weights` starts merging neighbouring
/// integers.
fn arb_int_pmfs() -> impl Strategy<Value = (Pmf, Pmf)> {
    prop_oneof![
        Just((0i64, 1i64)),
        Just((-500_000_000_000, 1)),
        Just((500_000_000_000, -1)),
    ]
    .prop_flat_map(|(anchor, direction)| {
        (
            arb_int_pmf(anchor, direction),
            arb_int_pmf(anchor, direction),
        )
    })
}

/// 1 to 40 integers, starting within 8 of `anchor` and moving in
/// `direction`. A quarter of the supports have gaps of up to 999, mostly
/// too sparse for the dense step. Weights include 0 (zero-mass points) and `-0.0`, which
/// `from_weights` accepts, and a value of 0 may be `-0.0`.
fn arb_int_pmf(anchor: i64, direction: i64) -> impl Strategy<Value = Pmf> {
    (
        -8i64..8,
        1u32..100,
        prop_oneof![Just(3i64), Just(3), Just(3), Just(1000)],
        prop::collection::vec((0i64..1000, 0u32..32), 0..40),
        any::<bool>(),
    )
        .prop_map(
            move |(offset, first_weight, gap_bound, rest, negative_zero)| {
                let mut value = anchor + offset;
                let mut points = vec![(value, f64::from(first_weight))];
                for (gap, weight) in rest {
                    value += direction * (gap % gap_bound);
                    let weight = match weight {
                        0 => 0.0,
                        1 => -0.0,
                        w => f64::from(w),
                    };
                    points.push((value, weight));
                }
                Pmf::from_weights(points.into_iter().map(|(v, w)| {
                    let v = if v == 0 && negative_zero {
                        -0.0
                    } else {
                        v as f64
                    };
                    (v, w)
                }))
                .expect("a positive first weight")
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn convolve_on_integer_supports_is_the_pair_vector_bit_for_bit(
        (a, b) in arb_int_pmfs(),
    ) {
        prop_assert_eq!(bits(&a.convolve(&b)), bits(&pair_vector_convolve(&a, &b)));
    }
}

proptest! {
    #[test]
    fn probabilities_sum_to_one(pmf in arb_pmf()) {
        prop_assert!((mass(&pmf) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn map_preserves_mass(pmf in arb_pmf(), k in -10.0f64..10.0) {
        let mapped = pmf.map(|v| v * k);
        prop_assert!((mass(&mapped) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn convolution_means_add(a in arb_pmf(), b in arb_pmf()) {
        let sum = a.convolve(&b);
        prop_assert!((sum.mean() - (a.mean() + b.mean())).abs() < 1e-6);
        prop_assert!((mass(&sum) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn convolution_variances_add(a in arb_pmf(), b in arb_pmf()) {
        let sum = a.convolve(&b);
        prop_assert!((sum.variance() - (a.variance() + b.variance())).abs() < 1e-4);
    }

    #[test]
    fn product_mean_is_product_of_means(a in arb_pmf(), b in arb_pmf()) {
        let prod = a.product(&b);
        let expected = a.mean() * b.mean();
        let tolerance = 1e-6 * (1.0 + expected.abs());
        prop_assert!((prod.mean() - expected).abs() < tolerance);
    }

    #[test]
    fn scaling_scales_mean(pmf in arb_pmf(), k in -10.0f64..10.0) {
        let scaled = pmf.scale(k);
        prop_assert!((scaled.mean() - k * pmf.mean()).abs() < 1e-6);
    }

    #[test]
    fn shifting_shifts_mean(pmf in arb_pmf(), c in -100.0f64..100.0) {
        let shifted = pmf.shift(c);
        prop_assert!((shifted.mean() - (pmf.mean() + c)).abs() < 1e-6);
    }

    #[test]
    fn coarsen_preserves_mass_and_mean(pmf in arb_pmf(), n in 1usize..32) {
        let coarse = pmf.coarsen(n);
        prop_assert!(coarse.len() <= n.max(pmf.len().min(n)));
        prop_assert!((mass(&coarse) - 1.0).abs() < 1e-9);
        prop_assert!((coarse.mean() - pmf.mean()).abs() < 1e-6);
    }

    #[test]
    fn coarsen_is_finite_and_mass_conserving_under_adversarial_supports(
        center in -1.0e6f64..1.0e6,
        cluster in prop::collection::vec((0u32..64, 1u32..1000), 8..64),
        outlier_mag in 1.0e3f64..1.0e9,
        outlier_weight_exp in -250i32..0,
        n in 1usize..16,
    ) {
        // The adversarial shape for equal-width binning: a tight cluster
        // (many support points inside one bin, spacing ~1e-9) plus a far
        // outlier that stretches the range, leaving most bins empty — and
        // a vanishingly small outlier weight so bin masses span hundreds
        // of orders of magnitude. Empty bins must be dropped (never a
        // 0/0 = NaN centroid), mass must be conserved, centroids must
        // stay finite and inside the original support range.
        let mut pairs: Vec<(f64, f64)> = cluster
            .iter()
            .map(|&(i, w)| (center + i as f64 * 1e-9, w as f64))
            .collect();
        pairs.push((center + outlier_mag, 10f64.powi(outlier_weight_exp)));
        pairs.push((center - outlier_mag, 10f64.powi(outlier_weight_exp / 2)));
        let pmf = Pmf::from_weights(pairs).expect("valid adversarial pmf");
        let coarse = pmf.coarsen(n);
        // Tolerances are relative to the support scale: a centroid is a
        // convex combination of bin values, exact up to rounding.
        let scale = pmf.max().abs().max(pmf.min().abs()).max(1.0);
        let tol = 1e-9 * scale;
        prop_assert!(coarse.len() <= pmf.len());
        for (v, p) in coarse.iter() {
            prop_assert!(v.is_finite(), "support must stay finite, got {v}");
            prop_assert!(p.is_finite() && p > 0.0, "probability must be positive, got {p}");
            prop_assert!(v >= pmf.min() - tol && v <= pmf.max() + tol);
        }
        prop_assert!((mass(&coarse) - 1.0).abs() < 1e-9, "mass must be conserved");
        prop_assert!((coarse.mean() - pmf.mean()).abs() <= tol);
    }

    #[test]
    fn coarsen_survives_full_range_supports(n in 1usize..8) {
        // hi − lo overflows f64 here: the bin width is +inf and every
        // point must still land in a valid bin with a finite centroid.
        let pmf = Pmf::from_weights([
            (-1.0e308, 1.0),
            (0.0, 2.0),
            (1.0e308, 1.0),
        ]).expect("valid pmf");
        let coarse = pmf.coarsen(n);
        for (v, p) in coarse.iter() {
            prop_assert!(v.is_finite());
            prop_assert!(p > 0.0);
        }
        prop_assert!((mass(&coarse) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn convolve_n_mean_scales_linearly(pmf in arb_pmf(), n in 0u64..16) {
        let sum = pmf.convolve_n(n, 256);
        prop_assert!((sum.mean() - n as f64 * pmf.mean()).abs() < 1e-4 * (1.0 + n as f64));
    }

    #[test]
    fn capped_convolve_n_keeps_the_old_loops_bounds(
        pmf in arb_pmf(),
        cap in 8usize..64,
        n in 0u64..=64,
    ) {
        let nf = n as f64;
        let scale = nf * pmf.max().abs().max(pmf.min().abs()).max(1.0);
        let (lo, hi) = (nf * pmf.min(), nf * pmf.max());
        let var_true = nf * pmf.variance();
        let width = (hi - lo) / cap as f64;
        let new = pmf.convolve_n(n, cap);
        let old = reference_convolve_n(&pmf, n, cap);
        for sum in [&new, &old] {
            prop_assert!(sum.len() <= cap);
            prop_assert!((mass(sum) - 1.0).abs() <= 1e-12);
            prop_assert!((sum.mean() - nf * pmf.mean()).abs() <= 1e-12 * scale);
            prop_assert!(sum.min() >= lo - 1e-12 * scale && sum.max() <= hi + 1e-12 * scale);
            // Centroids only lose variance: at most (k·r / cap)² / 4 per
            // capped step over k draws of range r. Weighted by how often
            // each step's result enters the sum, the loss stays below
            // 2·width². Neither kernel is closer to the truth in general:
            // on a lattice a bin edge can fall on a sum, and which bin
            // takes it is a rounding accident in both.
            let deficit = var_true - sum.variance();
            prop_assert!(
                deficit >= -1e-9 * var_true.max(1.0) && deficit <= 2.0 * width * width,
                "variance {} vs exact {var_true}", sum.variance()
            );
        }
        prop_assert!((new.mean() - old.mean()).abs() <= 1e-12 * scale);
    }

    #[test]
    fn convolve_n_below_the_cap_is_the_old_loop_bit_for_bit(
        (weights, cap, n) in (prop::collection::vec(1u32..100, 2..8), 8usize..64)
            .prop_flat_map(|(weights, cap)| {
                let n_max = (cap as u64 - 1) / (weights.len() as u64 - 1);
                (Just(weights), Just(cap), 0..=n_max)
            }),
        offset in -100i32..100,
    ) {
        // k draws from L consecutive integers have k·(L − 1) + 1 values,
        // so with n·(L − 1) + 1 <= cap no step's sum can exceed the cap
        // and every step stays on the exact convolve-then-coarsen path (a
        // Bernoulli is L = 2 over n <= cap − 1 rows).
        let pmf = Pmf::from_weights(
            weights.iter().enumerate().map(|(i, &w)| (f64::from(offset) + i as f64, f64::from(w))),
        )
        .expect("generated weights are valid");
        prop_assert_eq!(bits(&pmf.convolve_n(n, cap)), bits(&per_pair_convolve_n(&pmf, n, cap)));
    }

    #[test]
    fn capped_convolve_n_is_the_per_pair_kernel_bit_for_bit(
        pmf in arb_pmf(),
        scale in prop_oneof![Just(1.0), Just(0.37)],
        cap in 8usize..64,
        n in 0u64..=64,
    ) {
        // Steps whose operand sizes add up past the cap take the fused
        // capped step, the rest are exact; a fractional scale keeps the
        // exact steps off the dense integer path.
        let pmf = pmf.scale(scale);
        prop_assert_eq!(bits(&pmf.convolve_n(n, cap)), bits(&per_pair_convolve_n(&pmf, n, cap)));
    }

    #[test]
    fn a_rung_resumes_every_ladder_it_divides_bit_for_bit(
        // Uncapped sums of arb_pmf's wide supports grow to the pair
        // budget; a narrow support keeps them small.
        (cap, pmf) in prop_oneof![(Just(0usize), arb_narrow_pmf()), (8usize..64, arb_pmf())],
        scale in prop_oneof![Just(1.0), Just(0.37)],
        k in 0u32..4,
        m in 1u64..4,
        past in 0u64..8,
        off in 1u64..8,
    ) {
        // Every count in [2^k, 2^(k+1)) ends its ladder at rung k, and
        // the ladder of m·2^k passes it: resuming there takes the same
        // steps on the same operands.
        let pmf = pmf.scale(scale);
        let width = 1u64 << k;
        let (_, rung) = Rung::base(pmf.clone())
            .climb(width + past % width, cap)
            .expect("rung 0 divides every count");
        prop_assert_eq!(rung.width(), width);
        let n = m * width;
        let (resumed, resumed_last) = rung.clone().climb(n, cap).expect("2^k divides m·2^k");
        let (fresh, fresh_last) = Rung::base(pmf.clone()).climb(n, cap).expect("rung 0 divides n");
        prop_assert_eq!(bits(&resumed), bits(&pmf.convolve_n(n, cap)));
        prop_assert_eq!(bits(&resumed), bits(&fresh));
        prop_assert_eq!(resumed_last.width(), fresh_last.width());
        prop_assert_eq!(bits(resumed_last.pmf()), bits(fresh_last.pmf()));
        if k > 0 {
            // n plus 1..2^k − 1 is no multiple of 2^k.
            prop_assert!(rung.climb(n + 1 + off % (width - 1), cap).is_none());
        }
    }

    #[test]
    fn total_variation_is_a_metric(a in arb_pmf(), b in arb_pmf()) {
        prop_assert!(a.total_variation(&a) < 1e-12);
        let d_ab = a.total_variation(&b);
        let d_ba = b.total_variation(&a);
        prop_assert!((d_ab - d_ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d_ab));
    }

    #[test]
    fn hamming_weight_bounded_by_width(pmf in arb_pmf(), bits in 1u32..16) {
        let nonneg = pmf.map(|v| v.abs());
        let stats = BitStats::from_pmf(&nonneg, bits).unwrap();
        let h = stats.expected_hamming_weight();
        prop_assert!((0.0..=bits as f64 + 1e-9).contains(&h));
        let s = stats.expected_switching();
        prop_assert!((0.0..=bits as f64 + 1e-9).contains(&s));
    }
}

proptest! {
    // Each case materializes a ~262k-pair convolution: keep the case count
    // low so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn large_support_convolution_is_bounded_and_mean_preserving(
        len_a in 700usize..1200,
        len_b in 700usize..1200,
        step in 1u32..4,
        offset in -500i64..500,
    ) {
        // Supports large enough that the raw pair count (≥ 490k) exceeds
        // the pairwise budget: the operands must coarsen in-line instead of
        // materializing every pair. Means stay exact (coarsening is
        // mean-preserving), mass stays one, and the result support is far
        // below the raw product.
        let a = Pmf::uniform((0..len_a).map(|i| (offset + i as i64 * step as i64) as f64))
            .expect("non-empty support");
        let b = Pmf::uniform((0..len_b).map(|i| i as f64 * 1.5)).expect("non-empty support");
        let sum = a.convolve(&b);
        prop_assert!(sum.len() < len_a * len_b);
        prop_assert!((mass(&sum) - 1.0).abs() < 1e-9);
        let expected = a.mean() + b.mean();
        prop_assert!((sum.mean() - expected).abs() < 1e-6 * (1.0 + expected.abs()));
        // Bounds are conserved by coarsening (centroids stay in range).
        prop_assert!(sum.min() >= a.min() + b.min() - 1e-9);
        prop_assert!(sum.max() <= a.max() + b.max() + 1e-9);
    }
}
