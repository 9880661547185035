//! Fig 14 (Macro C + Architecture): larger arrays amortize ADC and output
//! summation energy — if the workload's tensors are large enough to
//! utilize them. Small-tensor workloads prefer smaller arrays.

use cimloop_bench::{fmt, frozen, ExperimentTable};
use cimloop_macros::macro_c;
use cimloop_workload::models;

fn main() -> std::io::Result<()> {
    let sizes = [64u64, 128, 256, 512, 1024];
    let max_util = |n: u64| models::mvm(n, n);
    let vit = models::vit_base();
    let resnet = models::resnet18();
    let mobilenet = models::mobilenet_v3_large();

    let mut table = ExperimentTable::new(
        "fig14",
        "Macro C: energy/MAC (pJ) vs CiM array size per workload",
        &[
            "workload",
            "array",
            "Accum+Control",
            "DAC+MAC",
            "ADC+Accum",
            "total pJ/MAC",
        ],
    );

    for wl in [
        "Max-Utilization",
        "ViT (large)",
        "ResNet18 (medium)",
        "MobileNetV3 (small)",
    ] {
        let mut totals = Vec::new();
        let base = frozen(&macro_c());
        for &n in &sizes {
            let m = base.clone().with_array(n, n);
            let rep = m.representation();
            let evaluator = m.evaluator().expect("evaluator");
            let owned;
            let workload = match wl {
                "Max-Utilization" => {
                    owned = max_util(n);
                    &owned
                }
                "ViT (large)" => &vit,
                "ResNet18 (medium)" => &resnet,
                _ => &mobilenet,
            };
            let report = evaluator.evaluate(workload, &rep).expect("eval");
            let macs = report.macs_total() as f64;
            let pj = |e: f64| e / macs * 1e12;
            let dac_mac = report.energy_of("dac") + report.energy_of("cell");
            let adc_acc = report.energy_of("adc") + report.energy_of("analog_accumulator");
            let accum_ctl = report.energy_of("accumulator") + report.energy_of("control");
            let total = report.energy_per_mac() * 1e12;
            totals.push(total);
            table.row(vec![
                wl.to_owned(),
                format!("{n}x{n}"),
                fmt(pj(accum_ctl)),
                fmt(pj(dac_mac)),
                fmt(pj(adc_acc)),
                fmt(total),
            ]);
        }
        let best = sizes[totals
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)];
        println!("  {wl}: lowest energy/MAC at {best}x{best}");
    }
    table.finish()?;
    println!("  paper: max-util/large-tensor keep improving with size; medium saturates; small-tensor prefers a smaller array");
    Ok(())
}
