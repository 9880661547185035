//! Fig 12 (Macro A + Mapping): reusing outputs between more columns cuts
//! ADC energy but trades off input reuse (more DAC converts), and
//! constrains the mapping — for ResNet18's 3×3 kernels, three-column reuse
//! achieves uniquely high-utilization mappings.

use cimloop_bench::{fmt, frozen, ExperimentTable};
use cimloop_core::RunReport;
use cimloop_macros::{macro_a, OutputCombine};
use cimloop_system::NetworkEngine;
use cimloop_workload::{models, Shape, Workload};

/// DAC / ADC+Accumulate / Other energy of a workload run, normalized later.
fn energy_split(report: &RunReport) -> (f64, f64, f64) {
    let dac = report.energy_of("dac");
    let adc = report.energy_of("adc") + report.energy_of("accumulator");
    let other = report.energy_total() - dac - adc;
    (dac, adc, other)
}

fn main() {
    let base = frozen(&macro_a());
    // Max-utilization workload: a convolution whose window matches the
    // column group and whose channels fill the rows.
    let max_util = |g: u64| -> Workload {
        let shape =
            Shape::conv(base.cols() / g, base.rows(), 16, 16, g.min(8), 1).expect("static shape");
        Workload::new(
            "max_util",
            vec![
                cimloop_workload::Layer::new("mvm", cimloop_workload::LayerKind::Conv, shape)
                    .with_input_bits(1)
                    .with_weight_bits(1),
            ],
        )
        .expect("non-empty")
    };
    let resnet = models::resnet18();

    let mut table = ExperimentTable::new(
        "fig12",
        "Macro A: output reuse across N columns (energy normalized per workload)",
        &[
            "workload",
            "columns/output",
            "ADC+Accum",
            "DAC",
            "Other",
            "total (norm)",
            "utilization",
        ],
    );

    for (wl_name, workload_fn) in [("Max-Utilization", None), ("ResNet18", Some(&resnet))] {
        let mut rows = Vec::new();
        for g in 1..=8u64 {
            let m = base.clone().with_output_combine(OutputCombine::WireSum {
                columns_per_group: g,
            });
            let evaluator = m.evaluator().expect("evaluator");
            let rep = m.representation();
            let owned;
            let workload = match workload_fn {
                Some(w) => w,
                None => {
                    owned = max_util(g);
                    &owned
                }
            };
            // Whole-network sweeps run through the amortized engine
            // (energy-table cache + parallel layer fan-out); reports are
            // bit-identical to the sequential evaluator.
            let engine = NetworkEngine::new(&evaluator);
            let report = engine.evaluate_network(workload, &rep).expect("eval");
            let (dac, adc, other) = energy_split(&report);
            // Average utilization across layers, weighted by MACs.
            let util: f64 = report
                .layers()
                .iter()
                .map(|(c, l)| *c as f64 * l.macs() as f64 * l.spatial_utilization())
                .sum::<f64>()
                / report
                    .layers()
                    .iter()
                    .map(|(c, l)| *c as f64 * l.macs() as f64)
                    .sum::<f64>();
            rows.push((g, dac, adc, other, report.energy_total(), util));
        }
        let max_total = rows.iter().map(|r| r.4).fold(0.0, f64::max);
        let mut best = (0u64, f64::INFINITY);
        for &(g, dac, adc, other, total, util) in &rows {
            if total < best.1 {
                best = (g, total);
            }
            table.row(vec![
                wl_name.to_owned(),
                g.to_string(),
                fmt(adc / max_total),
                fmt(dac / max_total),
                fmt(other / max_total),
                fmt(total / max_total),
                fmt(util),
            ]);
        }
        println!(
            "  {wl_name}: lowest-energy grouping = {} columns/output",
            best.0
        );
    }
    table.finish();
    println!("  paper: ResNet18 favors 3-column reuse (3x3 kernels map at high utilization)");
}
