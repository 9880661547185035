//! Fig 8: validating energy efficiency and throughput across the number of
//! input bits for Macros B and C.

use cimloop_bench::{fmt, pct, rel_err, ExperimentTable};
use cimloop_macros::{macro_b, macro_c, reference, ArrayMacro};
use cimloop_workload::models;

fn sweep(
    m: &ArrayMacro,
    refs: &[reference::InputBitsPoint],
    table: &mut ExperimentTable,
    label: &str,
    errors: &mut Vec<f64>,
) {
    // Published sweeps are measured at the anchor's operating voltage.
    let m = &match m.calibration().and_then(|a| a.volts) {
        Some(v) => m.clone().with_supply_voltage(v),
        None => m.clone(),
    };
    for point in refs {
        let layer = models::mvm(m.rows(), m.cols()).layers()[0]
            .clone()
            .with_input_bits(point.input_bits)
            .with_weight_bits(reference_weight_bits(label));
        let evaluator = m.evaluator().expect("evaluator");
        let report = evaluator
            .evaluate_layer(&layer, &m.representation())
            .expect("eval");
        let (topsw, gops) = (report.tops_per_watt(), report.gops());
        let (ref_t, err_t) = match point.tops_per_watt {
            Some(r) => {
                errors.push(rel_err(topsw, r));
                (fmt(r), pct(rel_err(topsw, r)))
            }
            None => ("N/A".into(), "-".into()),
        };
        let (ref_g, err_g) = match point.gops {
            Some(r) => (fmt(r), pct(rel_err(gops, r))),
            None => ("N/A".into(), "-".into()),
        };
        table.row(vec![
            label.into(),
            point.input_bits.to_string(),
            fmt(topsw),
            ref_t,
            err_t,
            fmt(gops),
            ref_g,
            err_g,
        ]);
    }
}

fn reference_weight_bits(label: &str) -> u32 {
    match label {
        "B" => 4,
        _ => 8,
    }
}

fn main() -> std::io::Result<()> {
    let mut table = ExperimentTable::new(
        "fig08",
        "energy/throughput vs number of input bits (model vs reference)",
        &[
            "macro",
            "input bits",
            "model TOPS/W",
            "ref TOPS/W",
            "err",
            "model GOPS",
            "ref GOPS",
            "err",
        ],
    );
    let mut errors = Vec::new();
    sweep(
        &macro_b(),
        reference::MACRO_B_INPUT_BITS,
        &mut table,
        "B",
        &mut errors,
    );
    sweep(
        &macro_c(),
        reference::MACRO_C_INPUT_BITS,
        &mut table,
        "C",
        &mut errors,
    );
    let avg = errors.iter().sum::<f64>() / errors.len() as f64;
    table.row(vec![
        "Average".into(),
        "".into(),
        "".into(),
        "".into(),
        pct(avg),
        "".into(),
        "".into(),
        "".into(),
    ]);
    table.finish()?;
    println!("  paper: energy-efficiency error 6%, throughput error 5%");
    println!("  efficiency/throughput must fall as input bits grow (bit-serial cycles)");
    Ok(())
}
