//! Fig 16 (Cross-Macro): a fair comparison of Macros A, B, and D scaled to
//! 7 nm with common SRAM cells and an 8-bit ADC, across weight/input
//! precisions. Macro A's 1-bit strategy wins at few-bit operands; Macro
//! B/D's multi-bit analog components win at more-bit operands.

use cimloop_bench::{fmt, ExperimentTable};
use cimloop_macros::{macro_a, macro_b, macro_d, ArrayMacro};
use cimloop_workload::models;

fn at_7nm(m: ArrayMacro) -> ArrayMacro {
    // Common technology, common ADC resolution, raw (uncalibrated) models
    // so the comparison is apples-to-apples, as the paper does.
    m.with_node(7.0).with_adc_bits(8).uncalibrated()
}

fn main() -> std::io::Result<()> {
    let macros: Vec<(&str, ArrayMacro)> = vec![
        ("A", at_7nm(macro_a())),
        ("B", at_7nm(macro_b())),
        ("D", at_7nm(macro_d())),
    ];

    let mut table = ExperimentTable::new(
        "fig16",
        "cross-macro energy efficiency (TOPS/W) at 7nm, common cells + 8b ADC",
        &["weight bits", "input bits", "A", "B", "D", "best"],
    );

    let mut wins = [0usize; 3];
    for &w_bits in &[1u32, 2, 4, 6, 8] {
        for in_bits in 1..=8u32 {
            let mut row = vec![w_bits.to_string(), in_bits.to_string()];
            let mut effs = Vec::new();
            for (_, m) in &macros {
                let evaluator = m.raw_evaluator().expect("evaluator");
                let layer = models::mvm(m.rows(), m.cols()).layers()[0]
                    .clone()
                    .with_input_bits(in_bits)
                    .with_weight_bits(w_bits);
                let report = evaluator
                    .evaluate_layer(&layer, &m.representation())
                    .expect("eval");
                effs.push(report.tops_per_watt());
            }
            let best = effs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            wins[best] += 1;
            for e in &effs {
                row.push(fmt(*e));
            }
            row.push(macros[best].0.to_owned());
            table.row(row);
        }
    }
    table.finish()?;

    println!(
        "  wins: A {}, B {}, D {} (of 40 precision points)",
        wins[0], wins[1], wins[2]
    );
    println!("  paper: the lowest-energy macro depends on the operand precisions —");
    println!("         A leverages few-bit operands; B/D win with more-bit operands");
    Ok(())
}
