//! Property-based tests for the Pareto front and the explorer's
//! bit-identicality guarantee (ISSUE 3 satellite): no front member
//! dominates another, insertion order never changes the front, and the
//! cached/parallel explorer's front equals a naive sequential sweep
//! without the cache.

use std::sync::Arc;

use cimloop_core::{EnergyTableCache, NoiseSpec, RunReport};
use cimloop_dse::{
    summarize, task_accuracy_of, AccuracyObjective, DesignReport, DesignSpace, Explorer,
    Objectives, ParetoFront,
};
use cimloop_macros::base_macro;
use cimloop_workload::{Layer, LayerKind, Shape, Workload};
use proptest::prelude::*;

/// Candidate objective vectors over a tiny discrete lattice, so that
/// dominance, ties, and exact duplicates all occur frequently.
fn arb_objectives() -> impl Strategy<Value = Objectives> {
    (1u32..5, 1u32..5, 1u32..5, 1u32..5).prop_map(|(e, t, a, acc)| Objectives {
        energy_per_mac: f64::from(e),
        tops_per_watt: f64::from(t),
        area_mm2: f64::from(a),
        accuracy_proxy: f64::from(acc),
    })
}

fn front_of(candidates: &[(u64, Objectives)]) -> Vec<(u64, [f64; 4])> {
    let mut front = ParetoFront::new();
    for &(id, obj) in candidates {
        front.insert(id, obj, ());
    }
    front
        .members()
        .iter()
        .map(|m| {
            (
                m.id,
                [
                    m.objectives.energy_per_mac,
                    m.objectives.tops_per_watt,
                    m.objectives.area_mm2,
                    m.objectives.accuracy_proxy,
                ],
            )
        })
        .collect()
}

proptest! {
    #[test]
    fn no_member_dominates_another(objs in prop::collection::vec(arb_objectives(), 1..40)) {
        let candidates: Vec<(u64, Objectives)> = objs
            .into_iter()
            .enumerate()
            .map(|(i, o)| (i as u64, o))
            .collect();
        let mut front = ParetoFront::new();
        for &(id, obj) in &candidates {
            front.insert(id, obj, ());
        }
        prop_assert!(!front.is_empty());
        for a in front.members() {
            for b in front.members() {
                if a.id != b.id {
                    prop_assert!(
                        !a.objectives.strictly_dominates(&b.objectives),
                        "front member {} dominates member {}", a.id, b.id
                    );
                    // Objective-equal twins must have collapsed to one id.
                    prop_assert!(
                        !(a.objectives.dominates(&b.objectives)
                            && b.objectives.dominates(&a.objectives)),
                        "objective-equal members {} and {} both retained", a.id, b.id
                    );
                }
            }
        }
    }

    #[test]
    fn insertion_order_does_not_change_the_front(
        objs in prop::collection::vec(arb_objectives(), 1..30),
        swaps in prop::collection::vec((0usize..30, 0usize..30), 0..40),
    ) {
        let candidates: Vec<(u64, Objectives)> = objs
            .into_iter()
            .enumerate()
            .map(|(i, o)| (i as u64, o))
            .collect();
        // A permutation built from random transpositions.
        let mut shuffled = candidates.clone();
        for (i, j) in swaps {
            let (i, j) = (i % shuffled.len(), j % shuffled.len());
            shuffled.swap(i, j);
        }
        prop_assert_eq!(front_of(&candidates), front_of(&shuffled));
    }

    #[test]
    fn every_dominated_candidate_has_a_dominating_member(
        objs in prop::collection::vec(arb_objectives(), 1..25),
    ) {
        let candidates: Vec<(u64, Objectives)> = objs
            .into_iter()
            .enumerate()
            .map(|(i, o)| (i as u64, o))
            .collect();
        let front = front_of(&candidates);
        for &(id, obj) in &candidates {
            let retained = front.iter().any(|&(fid, _)| fid == id);
            if !retained {
                // Rejected candidates are weakly dominated by some member
                // (strictly, or an objective-equal twin with a smaller id).
                let covered = candidates.iter().any(|&(other_id, other)| {
                    front.iter().any(|&(fid, _)| fid == other_id)
                        && other.dominates(&obj)
                        && (other.strictly_dominates(&obj) || other_id < id)
                });
                prop_assert!(covered, "candidate {} vanished without a dominator", id);
            }
        }
    }
}

/// The acceptance-criteria property at sweep scale: the front of an
/// explorer sweep (shared cache, thread pool) equals the front of the
/// same sweep evaluated sequentially without the cache, under every
/// accuracy objective. Under the sampled task-accuracy objective the
/// explorer sweeps cold then warm against caches of every small capacity
/// and an unbounded one, and the warm unbounded sweep samples nothing.
#[test]
fn explorer_front_equals_naive_sequential_front() {
    // Two non-zero cell variations: every design samples, and each has
    // a noise twin that differs from it in the sigma alone.
    let space = DesignSpace::new()
        .variant("base", base_macro().uncalibrated())
        .variant("adc6", base_macro().uncalibrated().with_adc_bits(6))
        .square_arrays([16, 32])
        .dac_bits([1, 2])
        .noise_specs([
            NoiseSpec::new().with_cell_variation(0.1),
            NoiseSpec::new().with_cell_variation(0.2),
        ]);
    let net = Workload::new(
        "tiny",
        vec![
            Layer::new("a", LayerKind::Linear, Shape::linear(2, 24, 24).unwrap()),
            Layer::new("b", LayerKind::Linear, Shape::linear(2, 48, 24).unwrap())
                .with_input_bits(4),
        ],
    )
    .unwrap();

    // The naive reports: uncached per-layer evaluation and the uncached
    // task_accuracy_of, per design.
    let naive_reports: Vec<(u64, DesignReport)> = space
        .designs()
        .iter()
        .map(|point| {
            let evaluator = point.cim_macro().evaluator().expect("evaluator");
            let rep = point.cim_macro().representation();
            let layers = net
                .layers()
                .iter()
                .map(|l| (l.count(), evaluator.evaluate_layer(l, &rep).expect("naive")))
                .collect();
            let run = RunReport::from_layer_reports(net.name(), layers);
            // Whole-workload evaluation matches the naive run at one and
            // four threads, on a cold and then a warm cache.
            for threads in [1, 4] {
                let cache = EnergyTableCache::new();
                for state in ["cold", "warm"] {
                    let cached = evaluator.evaluate(&net, &rep, &cache, threads);
                    assert_eq!(cached.expect("cached"), run, "{state}, {threads} threads");
                }
            }
            let mut report = summarize(point, &evaluator, &run);
            report.task_accuracy =
                Some(task_accuracy_of(point.cim_macro(), &net).expect("sampled"));
            (point.id(), report)
        })
        .collect();

    for accuracy in [
        AccuracyObjective::OutputSnr,
        AccuracyObjective::AdcCoverage,
        AccuracyObjective::TaskAccuracy,
    ] {
        let sampled = accuracy == AccuracyObjective::TaskAccuracy;
        let mut naive = ParetoFront::new();
        for (id, report) in &naive_reports {
            let mut report = report.clone();
            if !sampled {
                report.task_accuracy = None;
            }
            naive.insert(*id, report.objectives_for(accuracy), report);
        }
        let caches: Vec<EnergyTableCache> = if sampled {
            (0..=3)
                .map(|c| EnergyTableCache::bounded(c, c))
                .chain([EnergyTableCache::new()])
                .collect()
        } else {
            vec![EnergyTableCache::new()]
        };
        for cache in caches {
            let explorer = Explorer::new()
                .with_accuracy(accuracy)
                .with_threads(4)
                .with_cache(Arc::new(cache));
            let capacity = explorer.cache().stats_snapshot().accuracy_capacity;
            for state in ["cold", "warm"] {
                let before = explorer.cache().stats_snapshot();
                let exploration = explorer.explore(&space, &net).expect("explorer sweep");
                let after = explorer.cache().stats_snapshot();
                let context = format!("{accuracy:?}, capacity {capacity}, {state}");

                assert_eq!(exploration.front.len(), naive.len(), "{context}");
                for (a, b) in exploration.front.members().iter().zip(naive.members()) {
                    assert_eq!(a.id, b.id, "{context}");
                    assert_eq!(
                        a.objectives, b.objectives,
                        "objectives diverged for {} under {context}",
                        a.id
                    );
                    assert_eq!(
                        a.value.task_accuracy.map(f64::to_bits),
                        b.value.task_accuracy.map(f64::to_bits),
                        "task accuracy diverged for {} under {context}",
                        a.id
                    );
                    assert_eq!(a.value.energy_total, b.value.energy_total);
                    assert_eq!(a.value.latency, b.value.latency);
                    assert_eq!(a.value.area_mm2, b.value.area_mm2);
                }

                let hits = after.accuracy_hits - before.accuracy_hits;
                let misses = after.accuracy_misses - before.accuracy_misses;
                let evaluated = exploration.evaluated as u64;
                if !sampled {
                    assert_eq!((hits, misses), (0, 0), "{context}");
                } else if capacity == usize::MAX {
                    let expected = match state {
                        "cold" => (0, evaluated),
                        _ => (evaluated, 0),
                    };
                    assert_eq!((hits, misses), expected, "{context}");
                } else {
                    assert_eq!(hits + misses, evaluated, "{context}");
                }
            }
        }
    }
}
