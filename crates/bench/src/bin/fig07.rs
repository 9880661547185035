//! Fig 7: validating energy efficiency and throughput across supply
//! voltages for Macros A, B (small/large data values), and D.

use cimloop_bench::{fmt, pct, rel_err, ExperimentTable};
use cimloop_macros::{macro_a, macro_b, macro_d, reference, ArrayMacro};
use cimloop_workload::{models, Layer, ValueProfile};

fn headline(m: &ArrayMacro, layer: &Layer) -> (f64, f64) {
    let evaluator = m.evaluator().expect("evaluator");
    let report = evaluator
        .evaluate_layer(layer, &m.representation())
        .expect("eval");
    (report.tops_per_watt(), report.gops())
}

fn anchor_layer(m: &ArrayMacro, in_bits: u32, w_bits: u32) -> Layer {
    models::mvm(m.rows(), m.cols()).layers()[0]
        .clone()
        .with_input_bits(in_bits)
        .with_weight_bits(w_bits)
}

fn main() -> std::io::Result<()> {
    let mut table = ExperimentTable::new(
        "fig07",
        "energy/throughput vs supply voltage (model vs published reference)",
        &[
            "macro",
            "V",
            "model TOPS/W",
            "ref TOPS/W",
            "err",
            "model GOPS",
            "ref GOPS",
            "err",
        ],
    );
    let mut errors: Vec<(f64, f64)> = Vec::new();

    // Macro A: 0.85 V and 1.2 V at 1b/1b.
    for point in reference::MACRO_A_VOLTAGE {
        let m = macro_a().with_supply_voltage(point.volts);
        let layer = anchor_layer(&m, 1, 1);
        let (topsw, gops) = headline(&m, &layer);
        errors.push((
            rel_err(topsw, point.tops_per_watt),
            rel_err(gops, point.gops),
        ));
        table.row(vec![
            "A".into(),
            format!("{}V", point.volts),
            fmt(topsw),
            fmt(point.tops_per_watt),
            pct(rel_err(topsw, point.tops_per_watt)),
            fmt(gops),
            fmt(point.gops),
            pct(rel_err(gops, point.gops)),
        ]);
    }

    // Macro B: 0.8 V / 1.0 V, small vs large data values (the macro's
    // energy is data-value-dependent).
    let small_values = ValueProfile::ReluActivations {
        sparsity: 0.6,
        sigma: 0.12,
    };
    let large_values =
        ValueProfile::Custom(cimloop_stats::Pmf::uniform_ints(10, 15).expect("range"));
    for (label, profile, sweep) in [
        ("B small", &small_values, reference::MACRO_B_VOLTAGE_SMALL),
        ("B large", &large_values, reference::MACRO_B_VOLTAGE_LARGE),
    ] {
        for point in sweep {
            let m = macro_b().with_supply_voltage(point.volts);
            let layer = anchor_layer(&m, 4, 4).with_input_profile(profile.clone());
            let (topsw, gops) = headline(&m, &layer);
            errors.push((
                rel_err(topsw, point.tops_per_watt),
                rel_err(gops, point.gops),
            ));
            table.row(vec![
                label.into(),
                format!("{}V", point.volts),
                fmt(topsw),
                fmt(point.tops_per_watt),
                pct(rel_err(topsw, point.tops_per_watt)),
                fmt(gops),
                fmt(point.gops),
                pct(rel_err(gops, point.gops)),
            ]);
        }
    }

    // Macro D: 0.7 / 0.9 / 1.1 V at 8b/8b.
    for point in reference::MACRO_D_VOLTAGE {
        let m = macro_d().with_supply_voltage(point.volts);
        let layer = anchor_layer(&m, 8, 8);
        let (topsw, gops) = headline(&m, &layer);
        errors.push((
            rel_err(topsw, point.tops_per_watt),
            rel_err(gops, point.gops),
        ));
        table.row(vec![
            "D".into(),
            format!("{}V", point.volts),
            fmt(topsw),
            fmt(point.tops_per_watt),
            pct(rel_err(topsw, point.tops_per_watt)),
            fmt(gops),
            fmt(point.gops),
            pct(rel_err(gops, point.gops)),
        ]);
    }

    let avg_e: f64 = errors.iter().map(|e| e.0).sum::<f64>() / errors.len() as f64;
    let avg_t: f64 = errors.iter().map(|e| e.1).sum::<f64>() / errors.len() as f64;
    table.row(vec![
        "Average".into(),
        "".into(),
        "".into(),
        "".into(),
        pct(avg_e),
        "".into(),
        "".into(),
        pct(avg_t),
    ]);
    table.finish()?;
    println!("  paper: average energy-efficiency error 7%, throughput error 2%");
    Ok(())
}
