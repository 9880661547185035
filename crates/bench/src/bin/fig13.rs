//! Fig 13 (Macro B + Circuits): an analog adder trades flexibility for
//! compute density. Wider adders cut ADC count (higher TOPS/mm²) when
//! weights have enough bits to fill their operands, but sit underutilized
//! (and waste area) with fewer-bit weights.

use cimloop_bench::{fmt, frozen, ExperimentTable};
use cimloop_macros::{macro_b, OutputCombine};
use cimloop_workload::models;

fn main() -> std::io::Result<()> {
    let operand_counts = [1u32, 2, 4, 8];
    let weight_bits = 1u32..=8;

    let mut table = ExperimentTable::new(
        "fig13",
        "Macro B: throughput-per-area (TOPS/mm^2) vs weight bits per adder width",
        &[
            "weight bits",
            "1-operand",
            "2-operand",
            "4-operand",
            "8-operand",
            "best",
        ],
    );

    let mut best_count = [0usize; 4];
    for w_bits in weight_bits {
        let mut row = vec![w_bits.to_string()];
        let mut densities = Vec::new();
        for &ops in &operand_counts {
            let m = frozen(&macro_b())
                .with_output_combine(OutputCombine::AnalogAdder { operands: ops });
            let evaluator = m.evaluator().expect("evaluator");
            let layer = models::mvm(m.rows(), m.cols()).layers()[0]
                .clone()
                .with_input_bits(4)
                .with_weight_bits(w_bits);
            let report = evaluator
                .evaluate_layer(&layer, &m.representation())
                .expect("eval");
            let area_mm2 = evaluator.area().total_mm2();
            let tops = report.ops_per_second() / 1e12;
            densities.push(tops / area_mm2);
        }
        let best = densities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        best_count[best] += 1;
        for d in &densities {
            row.push(fmt(*d));
        }
        row.push(format!("{}-operand", operand_counts[best]));
        table.row(row);
    }
    table.finish()?;

    println!(
        "  wins by adder width: 1-op {}, 2-op {}, 4-op {}, 8-op {}",
        best_count[0], best_count[1], best_count[2], best_count[3]
    );
    println!(
        "  paper: wider adders win with more-bit weights; the 8-operand adder never has the highest density"
    );
    Ok(())
}
