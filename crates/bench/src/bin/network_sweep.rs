//! Whole-network sweep through the amortized evaluation engine.
//!
//! Evaluates a zoo network (unrolled to execution order, so repeated
//! blocks appear as repeated layers) three ways — sequential/uncached,
//! sequential/cached, and parallel/cached — verifies the reports are
//! bit-identical, and reports the measured speedups. This is the
//! network-scale face of the paper's Table II amortization argument: the
//! expensive data-value-dependent tables are computed once per distinct
//! layer signature instead of once per layer.
//!
//! Usage: `network_sweep [tiny|vit|gpt2|bert|resnet|mobilenet]`
//! (default `vit`). `tiny` is a seconds-scale smoke model for CI.

#![expect(
    clippy::disallowed_methods,
    reason = "rates go to stdout, never to a golden TSV"
)]

use std::time::Instant;

use cimloop_bench::{fmt, ExperimentTable};
use cimloop_macros::base_macro;
use cimloop_system::NetworkEngine;
use cimloop_workload::{models, Layer, LayerKind, Shape, Workload};

/// A 6-layer stack with two distinct value signatures: enough to exercise
/// the cache + parallel merge paths in seconds, for CI smoke runs.
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

fn pick_network(name: &str) -> Workload {
    match name {
        "tiny" => tiny(),
        "vit" => models::vit_base().unrolled(),
        "gpt2" => models::gpt2_small().unrolled(),
        "bert" => models::bert_base().unrolled(),
        "resnet" => models::resnet18().unrolled(),
        "mobilenet" => models::mobilenet_v3_large().unrolled(),
        other => {
            eprintln!("unknown network {other:?}; expected tiny|vit|gpt2|bert|resnet|mobilenet");
            std::process::exit(2);
        }
    }
}

/// Times `run` over `reps` repetitions and returns the best wall time in
/// seconds (best-of keeps cold-cache noise out of the speedup ratio).
fn best_of<T>(reps: usize, mut run: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let value = run();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(value);
    }
    (out.expect("reps >= 1"), best)
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "vit".to_owned());
    let net = pick_network(&name);
    let m = base_macro();
    let evaluator = m.evaluator().expect("evaluator");
    let rep = m.representation();
    let reps = if name == "tiny" { 1 } else { 2 };

    println!(
        "network {} ({} layers, {:.1} GMACs)",
        net.name(),
        net.layers().len(),
        net.total_macs() as f64 / 1e9
    );

    let (baseline, t_seq) = best_of(reps, || {
        evaluator.evaluate(&net, &rep).expect("sequential sweep")
    });

    let (cached, t_cached) = best_of(reps, || {
        // Fresh cache per run: measure a cold whole-network sweep.
        let engine = NetworkEngine::new(&evaluator).with_threads(1);
        let report = engine.evaluate_network(&net, &rep).expect("cached sweep");
        let stats = (engine.cache().misses(), engine.cache().hits());
        (report, stats)
    });
    let (parallel, t_par) = best_of(reps, || {
        let engine = NetworkEngine::new(&evaluator);
        engine.evaluate_network(&net, &rep).expect("parallel sweep")
    });

    let (cached_report, (misses, hits)) = cached;
    assert_eq!(
        baseline, cached_report,
        "cached sweep diverged from the sequential baseline"
    );
    assert_eq!(
        baseline, parallel,
        "parallel sweep diverged from the sequential baseline"
    );
    println!("  bit-identical reports across all paths; {misses} tables computed, {hits} reused");

    // Measured times are stdout-only: TSVs under results/ are goldens,
    // and wall times can never be bit-stable.
    let mut timing = ExperimentTable::new(
        "network_sweep_timing",
        &format!(
            "amortized engine sweep of {} (seconds, speedup)",
            net.name()
        ),
        &["path", "time (s)", "speedup", "layers/s"],
    );
    let layers = net.layers().len() as f64;
    for (path, t) in [
        ("sequential, uncached", t_seq),
        ("sequential, cached", t_cached),
        ("parallel, cached", t_par),
    ] {
        timing.row(vec![
            path.to_owned(),
            format!("{t:.3}"),
            fmt(t_seq / t),
            fmt(layers / t),
        ]);
    }
    timing.finish_stdout();

    // The deterministic golden: what the sweep computed (work and energy),
    // independent of machine speed and thread scheduling. `misses` comes
    // from the single-threaded cached run, and the parallel run's
    // distinct-table count equals it, so every quantity is bit-stable.
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
        misses.to_string(),
        format!("{:.6e}", baseline.energy_total()),
        format!("{:.6e}", baseline.energy_per_mac()),
    ]);
    golden.finish();

    let speedup = t_seq / t_par;
    println!(
        "  engine speedup (cached+parallel vs sequential uncached): {:.1}x",
        speedup
    );
    println!(
        "  total energy {:.3e} J, energy/MAC {:.3e} J",
        baseline.energy_total(),
        baseline.energy_per_mac()
    );
}
