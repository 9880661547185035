//! Property tests: cache eviction never changes results, only timing.
//!
//! A resident `cimloop serve` process shares one bounded
//! [`EnergyTableCache`] across every request it will ever run, so the
//! eviction policy must be *invisible* to results: whatever sequence of
//! lookups runs against whatever capacity, every returned entry must be
//! bit-identical to a fresh, uncached computation of the same signature.
//! The same holds where a miss resumes the squaring ladder of a narrower
//! width's entry, whether or not that entry is still held.

use std::sync::Arc;

use cimloop_core::{Encoding, EnergyTableCache, Representation, StatsSignature, ValueStats};
use cimloop_workload::{Layer, LayerKind, Shape, ValueProfile};
use proptest::prelude::*;

/// A tiny universe of distinct value signatures: layers that differ in
/// input precision and value profile, statistics that differ in reduction
/// width (one signature at 16, 32, 64 and 128 rows, each width a rung of
/// the next one's ladder). Small shapes keep each compute cheap;
/// distinctness keeps the cache churning.
fn universe() -> Vec<(Layer, Representation, u64)> {
    let rep = Representation::new(Encoding::TwosComplement, Encoding::Offset, 1, 4).unwrap();
    let base = Layer::new("l", LayerKind::Linear, Shape::linear(4, 16, 32).unwrap());
    vec![
        (base.clone(), rep, 16),
        (base.clone(), rep, 32),
        (base.clone(), rep, 64),
        (base.clone(), rep, 128),
        (base.clone().with_input_bits(4), rep, 16),
        (
            base.clone()
                .with_input_profile(ValueProfile::UniformUnsigned),
            rep,
            16,
        ),
        (base.clone().with_weight_bits(4), rep, 16),
        (base.with_input_bits(4).with_weight_bits(4), rep, 64),
    ]
}

/// Every value a stats entry hands out; `{:?}` prints each `f64` so that
/// it reads back to the same bits.
fn fingerprint(stats: &ValueStats) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {:?}",
        stats.sum(),
        stats.sum_max(),
        stats.product_second_moment(),
        stats.input_slice(),
        stats.weight_slice()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any lookup sequence against any capacity, through the library's
    /// fill path, returns exactly what an unbounded cache filled by
    /// `ValueStats::compute` (and a fresh compute) returns, while the
    /// occupancy never exceeds the cap.
    #[test]
    fn eviction_changes_timing_never_results(
        lookups in prop::collection::vec(0usize..8, 1..40),
        capacity in 0usize..4,
    ) {
        let keys = universe();
        let bounded = EnergyTableCache::bounded(usize::MAX, capacity);
        let unbounded = EnergyTableCache::new();
        for &i in &lookups {
            let (layer, rep, rows) = &keys[i];
            let compute = || ValueStats::compute(layer, rep, *rows);
            let from_bounded: Arc<ValueStats> = bounded.value_stats(layer, rep, *rows).unwrap();
            let from_unbounded = unbounded
                .stats_or_try_insert_with(StatsSignature::new(*rows, layer, rep), compute)
                .unwrap();
            let fresh = compute().unwrap();
            prop_assert_eq!(fingerprint(&from_bounded), fingerprint(&from_unbounded));
            prop_assert_eq!(fingerprint(&from_bounded), fingerprint(&fresh));
            prop_assert!(bounded.stats_len() <= capacity);
        }
        // Traffic accounting stays coherent under churn: every lookup is
        // either a hit or a miss, and evictions never exceed insertions.
        let snapshot = bounded.stats_snapshot();
        prop_assert_eq!(
            snapshot.stats_hits + snapshot.stats_misses,
            lookups.len() as u64
        );
        prop_assert!(snapshot.stats_evictions <= snapshot.stats_misses);
    }
}
