//! Put a macro into a full system (DRAM + global buffer + NoC) and compare
//! the storage scenarios of the paper's Fig 15.
//!
//! Run with: `cargo run --release --example full_system`

use cimloop::core::EnergyTableCache;
use cimloop::macros::macro_d;
use cimloop::system::{CimSystem, StorageScenario};
use cimloop::workload::models;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = models::resnet18();
    let subset = cimloop::workload::Workload::new("resnet18_subset", net.layers()[4..10].to_vec())?;

    println!("Macro D in a full system, ResNet18 subset:");
    println!(
        "{:<48} {:>10} {:>10} {:>10} {:>10}",
        "scenario", "on-chip", "buffer", "DRAM", "pJ/MAC"
    );
    for scenario in StorageScenario::ALL {
        let system = CimSystem::new(macro_d()).with_scenario(scenario);
        let evaluator = system.evaluator()?;
        // Layers fan out over every core (`0`), sharing energy tables.
        let cache = EnergyTableCache::new();
        let report = evaluator.evaluate(&subset, &system.representation(), &cache, 0)?;
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
        println!(
            "{:<48} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            scenario.to_string(),
            pj(on_chip),
            pj(glb),
            pj(dram),
            pj(on_chip + glb + dram)
        );
    }
    println!("\nweight-stationary operation removes DRAM weight traffic; keeping");
    println!("inputs/outputs on-chip (layer fusion) removes the rest.");
    Ok(())
}
