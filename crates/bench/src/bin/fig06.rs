//! Fig 6: CiMLoop's data-value-dependent statistical model is far more
//! accurate than a fixed-energy model, measured against value-exact
//! ground-truth simulation per ResNet18 layer.
//!
//! Ground truth simulates every sampled data value through the same
//! component models (the NeuroSim-substitute); the statistical model uses
//! per-layer distributions; the fixed-energy baseline uses one table from
//! distributions averaged over all layers.

use cimloop_bench::{pct, ExperimentTable};
use cimloop_macros::base_macro;
use cimloop_sim::{fixed_energy_table, simulate_layer, ExactConfig};
use cimloop_workload::models;

fn main() -> std::io::Result<()> {
    let m = base_macro();
    let evaluator = m.evaluator().expect("evaluator");
    let rep = m.representation();
    let net = models::resnet18();
    let fixed = fixed_energy_table(&m, &net).expect("fixed-energy table");
    let cfg = ExactConfig {
        seed: 0xF16,
        max_activations: 1024,
        threads: 1,
    };

    let mut table = ExperimentTable::new(
        "fig06",
        "full-macro energy error vs value-exact ground truth (ResNet18)",
        &["layer", "CiMLoop err", "fixed-energy err"],
    );

    let mut stat_errs = Vec::new();
    let mut fixed_errs = Vec::new();
    for (i, layer) in net.layers().iter().enumerate() {
        let exact = simulate_layer(&m, layer, &cfg).expect("exact sim");
        let stat = evaluator.evaluate_layer(layer, &rep).expect("statistical");
        let mapping = evaluator.map_layer(layer, &rep).expect("mapping");
        let fixed_report = evaluator
            .evaluate_mapping(layer, &rep, &fixed, &mapping)
            .expect("fixed");

        let truth = exact.energy_total();
        let stat_err = (stat.energy_total() - truth).abs() / truth;
        let fixed_err = (fixed_report.energy_total() - truth).abs() / truth;
        stat_errs.push(stat_err);
        fixed_errs.push(fixed_err);
        table.row(vec![
            format!("{} ({})", i + 1, layer.name()),
            pct(stat_err),
            pct(fixed_err),
        ]);
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);
    table.row(vec![
        "Average".to_owned(),
        pct(avg(&stat_errs)),
        pct(avg(&fixed_errs)),
    ]);
    table.row(vec![
        "Max".to_owned(),
        pct(max(&stat_errs)),
        pct(max(&fixed_errs)),
    ]);
    table.finish()?;

    println!("  paper: CiMLoop 3%/7% avg/max; fixed-energy 28%/70% avg/max");
    println!(
        "  shape reproduced: {}",
        if avg(&fixed_errs) > 3.0 * avg(&stat_errs) {
            "YES (fixed-energy model is several times less accurate)"
        } else {
            "PARTIAL (check per-layer table)"
        }
    );
    Ok(())
}
