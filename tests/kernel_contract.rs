//! The column-sum kernel's tolerance contract (docs/accuracy.md,
//! "Column-sum kernel"): `Pmf::convolve_n` bins the pairs of every step
//! whose sum must exceed the support cap straight into `coarsen`'s bins,
//! instead of materializing, sorting and then coarsening them. This pins
//! it against that older kernel, kept below as the reference, on the
//! slice-product distributions the pipeline really convolves.
//!
//! It also pins the kernel's bits. The dense exact step on integer
//! supports and the row-at-a-time binning must reproduce, to the bit,
//! the per-pair kernel kept below as the second reference: every exact
//! step a pair vector through `from_weights`, every capped step binned
//! pair by pair.
//!
//! And it pins fig02b's shared ladder: a 512-row column sum filled
//! through a cache that holds its 128-row sibling's continues that
//! ladder, and every value it hands out is the fresh computation's, bit
//! for bit.

use cimloop::core::{reduction_rows_of, EnergyTableCache, StatsSignature, ValueStats};
use cimloop::macros::{
    base_macro, digital_cim, macro_a, macro_b, macro_c, macro_d, ArrayMacro, OutputCombine,
};
use cimloop::stats::Pmf;
use cimloop::workload::{models, Layer};

/// The pipeline's column-sum support cap.
const CAP: usize = 512;

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

/// `Pmf::convolve_n` before the fused step: every step is a full
/// `convolve` (the pair vector's distribution), then `coarsen` to the
/// cap.
fn reference_convolve_n(pmf: &Pmf, n: u64, max_support: usize) -> Pmf {
    convolve_n_by(pmf, n, |a, b| a.convolve(b).coarsen(max_support))
}

/// `n` equal-width bins over `[lo, hi]`, filled pair by pair in the
/// order given: each pair's bin is `(v - lo) / width`, truncated and
/// clamped to the last bin (bin 0 if the width is not finite and
/// positive), and each non-empty bin emits its centroid.
fn bin_pairs(lo: f64, hi: f64, n: usize, pairs: impl Iterator<Item = (f64, f64)>) -> Pmf {
    let width = (hi - lo) / n as f64;
    let mut mass = vec![0.0; n];
    let mut moment = vec![0.0; n];
    for (v, p) in pairs {
        let idx = if width.is_finite() && width > 0.0 {
            ((v - lo) / width) as usize
        } else {
            0
        };
        let idx = idx.min(n - 1);
        mass[idx] += p;
        moment[idx] += p * v;
    }
    let centroids = mass
        .iter()
        .zip(&moment)
        .filter(|&(&m, _)| m > 0.0)
        .map(|(&m, &mo)| (mo / m, m));
    Pmf::from_weights(centroids).expect("binned a valid pmf")
}

/// The pairs `(v1 + v2, p1 · p2)` of `a` and `b`, row by row.
fn pairs<'a>(a: &'a Pmf, b: &'a Pmf) -> impl Iterator<Item = (f64, f64)> + 'a {
    a.iter()
        .flat_map(move |(v1, p1)| b.iter().map(move |(v2, p2)| (v1 + v2, p1 * p2)))
}

/// `Pmf::convolve_n` with the per-pair kernel: an exact step sorts and
/// merges the pair vector in `from_weights` and then coarsens pair by
/// pair; a capped step bins each pair in turn.
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

/// Every support value and probability of `pmf`, as bits.
fn bits(pmf: &Pmf) -> Vec<(u64, u64)> {
    pmf.iter()
        .map(|(v, p)| (v.to_bits(), p.to_bits()))
        .collect()
}

/// Every preset, plus macro_c as fig02b explores it: 128 and 512 rows,
/// 1-bit and 4-bit DACs, no analog accumulator.
fn configurations() -> Vec<(String, ArrayMacro)> {
    let mut configs: Vec<(String, ArrayMacro)> = [
        ("base", base_macro()),
        ("macro_a", macro_a()),
        ("macro_b", macro_b()),
        ("macro_d", macro_d()),
        ("digital", digital_cim()),
    ]
    .into_iter()
    .map(|(name, m)| (name.to_owned(), m))
    .collect();
    for rows in [128, 512] {
        for dac in [1, 4] {
            let m = macro_c()
                .with_array(rows, rows)
                .with_dac_resolution(dac)
                .with_output_combine(OutputCombine::None);
            configs.push((format!("macro_c {rows} rows dac {dac}"), m));
        }
    }
    configs
}

/// Relative distance of `new` from `old`.
fn rel(new: f64, old: f64) -> f64 {
    (new - old).abs() / old.abs()
}

/// Checks the contract for one layer's column sum on `m`.
fn check(config: &str, m: &ArrayMacro, layer: &Layer) {
    let case = format!("{config} / {}", layer.name());
    let rows = reduction_rows_of(&m.hierarchy().expect("preset hierarchy"));
    let stats = ValueStats::compute(layer, &m.representation(), rows).expect("value stats");
    // The slice product exactly as `ValueStats::compute` builds it.
    let product = stats
        .input_slice()
        .pmf()
        .product(stats.weight_slice().pmf())
        .coarsen(CAP);
    let new = product.convolve_n(rows, CAP);
    assert_eq!(stats.sum(), &new, "{case}: the pipeline runs the kernel");
    assert!(
        bits(&new) == bits(&per_pair_convolve_n(&product, rows, CAP)),
        "{case}: the column sum's bits differ from the per-pair kernel's"
    );
    let old = reference_convolve_n(&product, rows, CAP);

    let mass: f64 = new.probs().iter().sum();
    assert!((mass - 1.0).abs() <= 1e-12, "{case}: mass {mass}");
    assert!(
        rel(new.mean(), old.mean()) <= 1e-12,
        "{case}: mean {} vs {}",
        new.mean(),
        old.mean()
    );
    assert!(
        rel(new.second_moment(), old.second_moment()) <= 1e-6,
        "{case}: E[x²] {} vs {}",
        new.second_moment(),
        old.second_moment()
    );
    // Centroids stay inside the sum's range; the slack covers the
    // rounding of `rows · min` against `rows` repeated additions.
    let (lo, hi) = (rows as f64 * product.min(), rows as f64 * product.max());
    let slack = 1e-12 * (hi - lo);
    assert!(
        new.min() >= lo - slack && new.max() <= hi + slack,
        "{case}: [{}, {}] outside [{lo}, {hi}]",
        new.min(),
        new.max()
    );
    assert!(new.len() <= CAP, "{case}: {} support points", new.len());

    if rows == 512 {
        check_resumed_ladder(&case, m, layer, &stats);
    }
}

/// Evaluates `m`'s 128-row sibling, then `m` (512 rows), through one
/// cache, and checks the 512-row entry, read back as a hit, against the
/// fresh `stats`.
fn check_resumed_ladder(case: &str, m: &ArrayMacro, layer: &Layer, stats: &ValueStats) {
    let rep = m.representation();
    let cache = EnergyTableCache::new();
    for design in [m.clone().with_array(128, 128), m.clone()] {
        let evaluator = design.raw_evaluator().expect("preset evaluator");
        evaluator
            .action_energies_cached(layer, &rep, &cache)
            .expect("energy table");
    }
    let cached = cache
        .stats_or_try_insert_with(StatsSignature::new(512, layer, &rep), || {
            panic!("{case}: the 512-row statistics were not cached")
        })
        .expect("a hit");
    assert!(
        bits(cached.sum()) == bits(stats.sum()),
        "{case}: the resumed column sum's bits differ from the fresh one's"
    );
    assert_eq!(
        cached.sum_max().to_bits(),
        stats.sum_max().to_bits(),
        "{case}"
    );
    assert_eq!(
        cached.product_second_moment().to_bits(),
        stats.product_second_moment().to_bits(),
        "{case}"
    );
    for (a, b) in [
        (cached.input_slice(), stats.input_slice()),
        (cached.weight_slice(), stats.weight_slice()),
    ] {
        assert!(
            bits(a.pmf()) == bits(b.pmf()) && a.bits() == b.bits(),
            "{case}"
        );
    }
}

#[test]
fn fused_column_sums_match_the_reference_kernel_on_resnet18() {
    let net = models::resnet18();
    // conv1 sees dense image pixels, layer2.0.conv2 sparse activations.
    let layers = [&net.layers()[0], &net.layers()[6]];
    for (config, m) in configurations() {
        for layer in layers {
            check(&config, &m, layer);
        }
    }
}

/// Every layer of the model zoo on every configuration; about a minute
/// in release (CI runs it with `--include-ignored`).
#[test]
#[ignore = "full sweep; run in release with --include-ignored"]
fn fused_column_sums_match_the_reference_kernel_across_the_zoo() {
    let nets = [
        models::resnet18(),
        models::mobilenet_v3_large(),
        models::vit_base(),
        models::gpt2_small(),
        models::alexnet(),
        models::bert_base(),
    ];
    for (config, m) in configurations() {
        for net in &nets {
            for layer in net.layers() {
                check(&format!("{config} / {}", net.name()), &m, layer);
            }
        }
    }
}
