//! Property tests for whole-workload evaluation: caching and parallel
//! fan-out must be *exactly* invisible — bit-for-bit identical reports
//! to uncached per-layer evaluation — across random layer sequences with
//! repeated value signatures.

use std::sync::OnceLock;

use cimloop_core::{EnergyTableCache, Evaluator, Representation, RunReport};
use cimloop_macros::base_macro;
use cimloop_workload::{Layer, LayerKind, Shape, ValueProfile, Workload};
use proptest::prelude::*;

fn evaluator() -> &'static (Evaluator, Representation) {
    static EVAL: OnceLock<(Evaluator, Representation)> = OnceLock::new();
    EVAL.get_or_init(|| {
        let m = base_macro().uncalibrated();
        let rep = m.representation();
        (m.raw_evaluator().expect("base macro evaluates"), rep)
    })
}

/// A small palette of layer archetypes. Sequences drawn from it repeat
/// value signatures (the cache's bread and butter) while varying shapes
/// (which the signature must ignore).
fn palette_layer(archetype: u8, shape_seed: u8, index: usize) -> Layer {
    let k = 16 + 16 * (shape_seed as u64 % 4);
    let c = 24 + 8 * (shape_seed as u64 / 4);
    let name = format!("l{index}");
    match archetype % 4 {
        0 => Layer::new(name, LayerKind::Linear, Shape::linear(2, k, c).unwrap()),
        1 => {
            Layer::new(name, LayerKind::Linear, Shape::linear(2, k, c).unwrap()).with_input_bits(4)
        }
        2 => Layer::new(
            name,
            LayerKind::Conv,
            Shape::conv(k, 8, 6, 6, 3, 3).unwrap(),
        )
        .with_input_profile(ValueProfile::UniformUnsigned),
        _ => Layer::new(name, LayerKind::Linear, Shape::linear(4, k, c).unwrap())
            .with_weight_profile(ValueProfile::GaussianWeights { sigma: 0.3 }),
    }
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    prop::collection::vec((0u8..4, 0u8..8), 2..7).prop_map(|specs| {
        let layers = specs
            .into_iter()
            .enumerate()
            .map(|(i, (archetype, shape_seed))| palette_layer(archetype, shape_seed, i))
            .collect();
        Workload::new("random-net", layers).expect("non-empty")
    })
}

/// Evaluates `net` on `threads` workers, first through a cold cache and
/// then through the warmed one, and checks both reports against uncached
/// per-layer evaluation, bit for bit.
fn check_against_per_layer(net: &Workload, threads: usize) {
    let (evaluator, rep) = evaluator();
    let layers = net
        .layers()
        .iter()
        .map(|l| {
            (
                l.count(),
                evaluator.evaluate_layer(l, rep).expect("uncached"),
            )
        })
        .collect();
    let reference = RunReport::from_layer_reports(net.name(), layers);
    let lookups = net.layers().len() as u64;
    let cache = EnergyTableCache::new();
    let cold = evaluator.evaluate(net, rep, &cache, threads).expect("cold");
    prop_assert_eq!(&reference, &cold, "cold cache, {} threads", threads);
    // Repeats in the sequence must actually share tables.
    prop_assert!(
        cache.len() <= 4,
        "more tables than archetypes: {}",
        cache.len()
    );
    prop_assert_eq!(cache.hits() + cache.misses(), lookups);
    // A second sweep through the warmed cache is all hits.
    let hits = cache.hits();
    let warm = evaluator.evaluate(net, rep, &cache, threads).expect("warm");
    prop_assert_eq!(&reference, &warm, "warm cache, {} threads", threads);
    prop_assert_eq!(cache.hits(), hits + lookups);
}

proptest! {
    // Every case evaluates a network three ways; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cached_evaluation_is_bit_identical(net in arb_workload()) {
        check_against_per_layer(&net, 1);
    }

    #[test]
    fn parallel_network_is_bit_identical(net in arb_workload()) {
        check_against_per_layer(&net, 4);
    }
}
