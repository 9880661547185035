//! Whole-network sweep through the amortized evaluation engine: the
//! deterministic record of a tiny network's engine sweep, written to
//! `results/network_sweep.tsv`.
//!
//! A 6-layer stack is evaluated sequentially without a cache and through
//! a single-threaded [`NetworkEngine`]; the two reports must be
//! bit-identical. The golden records what the sweep computed — layers,
//! distinct energy tables, energy — independent of machine speed and
//! thread scheduling. Timings of the engine against the uncached sweep
//! come from the `engine` criterion bench.
//!
//! Usage: `network_sweep`

use cimloop_bench::ExperimentTable;
use cimloop_macros::base_macro;
use cimloop_system::NetworkEngine;
use cimloop_workload::{Layer, LayerKind, Shape, Workload};

/// A 6-layer stack with two distinct value signatures: enough to exercise
/// the engine's cache in seconds.
fn tiny() -> Workload {
    let layers = (0..6u64)
        .map(|i| {
            let l = Layer::new(
                format!("block{i}"),
                LayerKind::Linear,
                Shape::linear(2, 32 + 16 * i, 48).expect("static"),
            );
            if i % 2 == 0 {
                l.with_input_bits(4)
            } else {
                l
            }
        })
        .collect();
    Workload::new("tiny", layers).expect("non-empty")
}

fn main() -> std::io::Result<()> {
    let net = tiny();
    let m = base_macro();
    let evaluator = m.evaluator().expect("evaluator");
    let rep = m.representation();

    let baseline = evaluator.evaluate(&net, &rep).expect("sequential sweep");
    // One thread, so the miss count is the number of distinct tables.
    let engine = NetworkEngine::new(&evaluator).with_threads(1);
    let report = engine.evaluate_network(&net, &rep).expect("cached sweep");
    assert_eq!(
        baseline, report,
        "cached sweep diverged from the sequential baseline"
    );

    let mut golden = ExperimentTable::new(
        "network_sweep",
        &format!("deterministic record of the {} engine sweep", net.name()),
        &[
            "network",
            "layers",
            "distinct tables",
            "total energy (J)",
            "J/MAC",
        ],
    );
    golden.row(vec![
        net.name().to_owned(),
        net.layers().len().to_string(),
        engine.cache().misses().to_string(),
        format!("{:.6e}", baseline.energy_total()),
        format!("{:.6e}", baseline.energy_per_mac()),
    ]);
    golden.finish()
}
