//! Fig 15 (Macro D + Full System): weight-stationary CiM saves significant
//! energy, but the benefit is bounded by off-chip input/output movement;
//! keeping I/O on-chip (layer fusion) unlocks the rest.

use cimloop_bench::{fmt, ExperimentTable};
use cimloop_macros::macro_d;
use cimloop_system::{CimSystem, StorageScenario};
use cimloop_workload::models;

fn main() -> std::io::Result<()> {
    let gpt2 = models::gpt2_small();
    let resnet = models::resnet18();

    let mut table = ExperimentTable::new(
        "fig15",
        "Macro D full system: energy per MAC (pJ) by storage scenario",
        &[
            "scenario",
            "workload",
            "macro+on-chip",
            "global buffer",
            "DRAM",
            "total pJ/MAC",
        ],
    );

    for scenario in StorageScenario::ALL {
        for (wl_name, workload) in [("GPT-2 (large)", &gpt2), ("ResNet18 (mixed)", &resnet)] {
            let system = CimSystem::new(macro_d()).with_scenario(scenario);
            let evaluator = system.evaluator().expect("evaluator");
            let rep = system.representation();
            let report = evaluator.evaluate(workload, &rep).expect("eval");
            let macs = report.macs_total() as f64;
            let mut on_chip = 0.0;
            let mut glb = 0.0;
            let mut dram = 0.0;
            for (count, layer_report) in report.layers() {
                let (o, g, d) = CimSystem::fig15_breakdown(layer_report);
                on_chip += *count as f64 * o;
                glb += *count as f64 * g;
                dram += *count as f64 * d;
            }
            let pj = |e: f64| e / macs * 1e12;
            table.row(vec![
                scenario.to_string(),
                wl_name.to_owned(),
                fmt(pj(on_chip)),
                fmt(pj(glb)),
                fmt(pj(dram)),
                fmt(pj(on_chip + glb + dram)),
            ]);
        }
    }
    table.finish()?;
    println!("  paper: weight-stationary sharply cuts DRAM energy; remaining DRAM I/O");
    println!("         movement caps the benefit until inputs/outputs stay on-chip");
    Ok(())
}
