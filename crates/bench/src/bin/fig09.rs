//! Fig 9: validating modeled energy breakdowns — Macro C at 1/4/8-bit
//! inputs (showing how each component's share scales with input bits) and
//! Macro D.
//!
//! Category mapping (documented in EXPERIMENTS.md): our `cell` energy for
//! Macro C is folded into "Control" (the reference groups array access
//! under control/misc), and the buffer is excluded (system-level).

use cimloop_bench::{pct, ExperimentTable};
use cimloop_macros::{category, macro_c, macro_d, reference};
use cimloop_workload::models;

fn macro_c_breakdown(input_bits: u32) -> Vec<(&'static str, f64)> {
    let m = macro_c();
    let evaluator = m.evaluator().expect("evaluator");
    let layer = models::mvm(m.rows(), m.cols()).layers()[0]
        .clone()
        .with_input_bits(input_bits)
        .with_weight_bits(8);
    let report = evaluator
        .evaluate_layer(&layer, &m.representation())
        .expect("eval");
    let by_cat = category::energy_by_category(&report);
    let share = |cat: category::Category| {
        by_cat
            .iter()
            .find(|(c, _)| *c == cat)
            .map(|&(_, e)| e)
            .unwrap_or(0.0)
    };
    let adc = share(category::Category::AdcAccumulate);
    let dac = share(category::Category::Dac);
    let control = share(category::Category::Control) + share(category::Category::Array);
    let total = adc + dac + control;
    vec![
        ("ADC+Accumulate", 100.0 * adc / total),
        ("DAC", 100.0 * dac / total),
        ("Control", 100.0 * control / total),
    ]
}

fn main() -> std::io::Result<()> {
    let mut table = ExperimentTable::new(
        "fig09",
        "energy breakdown validation (% of total)",
        &["macro", "component", "model %", "reference %", "abs err"],
    );
    let mut errs = Vec::new();

    for (bits, refs) in [
        (1u32, reference::MACRO_C_ENERGY_1B),
        (4, reference::MACRO_C_ENERGY_4B),
        (8, reference::MACRO_C_ENERGY_8B),
    ] {
        let model = macro_c_breakdown(bits);
        for ((name, model_pct), (ref_name, ref_pct)) in model.iter().zip(refs.iter()) {
            assert_eq!(name, ref_name);
            let err = (model_pct - ref_pct).abs();
            errs.push(err);
            table.row(vec![
                format!("C, {bits}b inputs"),
                name.to_string(),
                format!("{model_pct:.1}"),
                format!("{ref_pct:.1}"),
                format!("{err:.1}pp"),
            ]);
        }
    }

    // Macro D: DAC / ADC / CiM Array / Misc.
    {
        let m = macro_d();
        let evaluator = m.evaluator().expect("evaluator");
        let layer = models::mvm(m.rows(), m.cols()).layers()[0].clone();
        let report = evaluator
            .evaluate_layer(&layer, &m.representation())
            .expect("eval");
        let e = |name: &str| report.energy_of(name);
        let dac = e("dac");
        let adc = e("adc");
        let array = e("cell");
        let misc = e("accumulator") + e("control");
        let total = dac + adc + array + misc;
        let model = [
            ("DAC", 100.0 * dac / total),
            ("ADC", 100.0 * adc / total),
            ("CiM Array", 100.0 * array / total),
            ("Misc", 100.0 * misc / total),
        ];
        for ((name, model_pct), (ref_name, ref_pct)) in
            model.iter().zip(reference::MACRO_D_ENERGY.iter())
        {
            assert_eq!(name, ref_name);
            let err = (model_pct - ref_pct).abs();
            errs.push(err);
            table.row(vec![
                "D".into(),
                name.to_string(),
                format!("{model_pct:.1}"),
                format!("{ref_pct:.1}"),
                format!("{err:.1}pp"),
            ]);
        }
    }

    let avg = errs.iter().sum::<f64>() / errs.len() as f64;
    table.row(vec![
        "Average".into(),
        "".into(),
        "".into(),
        "".into(),
        format!("{avg:.1}pp"),
    ]);
    table.finish()?;
    println!("  paper: average discrete-component energy error 4%");
    println!("  key trend: DAC share must grow with input bits on Macro C");
    let _ = pct(0.0);
    Ok(())
}
