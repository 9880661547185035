//! Fig 10: validating modeled area breakdowns for Macros A/B/C/D.
//!
//! Category mapping (see EXPERIMENTS.md): reference category names come
//! from each publication; model components are grouped onto the closest
//! reference category.

use cimloop_bench::ExperimentTable;
use cimloop_macros::{macro_a, macro_b, macro_c, macro_d, reference, ArrayMacro};

/// Maps model components onto one publication's area-category names.
type Grouping = Vec<(&'static str, &'static [&'static str])>;

/// One validation case: macro label, model, grouping, published breakdown.
type Case = (&'static str, ArrayMacro, Grouping, reference::Breakdown);

/// Returns `(category name, model %)` using per-macro grouping rules.
fn area_breakdown(
    m: &ArrayMacro,
    grouping: &[(&'static str, &'static [&'static str])],
) -> Vec<(String, f64)> {
    let evaluator = m.evaluator().expect("evaluator");
    let area = evaluator.area();
    // Macro-internal area only: exclude the I/O buffer (system-level).
    let of = |name: &str| area.area_of(name);
    let grouped: Vec<(String, f64)> = grouping
        .iter()
        .map(|(label, comps)| (label.to_string(), comps.iter().map(|c| of(c)).sum()))
        .collect();
    let total: f64 = grouped.iter().map(|&(_, a)| a).sum();
    grouped
        .into_iter()
        .map(|(label, a)| (label, 100.0 * a / total))
        .collect()
}

fn main() -> std::io::Result<()> {
    let mut table = ExperimentTable::new(
        "fig10",
        "area breakdown validation (% of macro total)",
        &["macro", "category", "model %", "reference %", "abs err"],
    );
    let mut errs = Vec::new();

    let cases: Vec<Case> = vec![
        (
            "A",
            macro_a(),
            vec![
                ("ADC", &["adc"] as &[&str]),
                ("Array+Drivers", &["cell", "dac", "control"]),
                ("Digital Postprocessing", &["accumulator"]),
                ("Sparsity Control", &[]),
            ],
            reference::MACRO_A_AREA,
        ),
        (
            "B",
            macro_b(),
            vec![
                ("CiM Circuitry", &["cell"] as &[&str]),
                ("Orig. Macro", &["dac", "control"]),
                ("Analog Adder", &["analog_adder"]),
                ("ADC+Accum.", &["adc", "accumulator"]),
            ],
            reference::MACRO_B_AREA,
        ),
        (
            "C",
            macro_c(),
            vec![
                ("ADC+Accum.", &["adc", "accumulator"] as &[&str]),
                ("DAC+Integrator", &["dac", "analog_accumulator", "control"]),
                ("MAC", &["cell"]),
            ],
            reference::MACRO_C_AREA,
        ),
        (
            "D",
            macro_d(),
            vec![
                ("DAC", &["dac"] as &[&str]),
                ("ADC", &["adc"]),
                ("Array+MAC", &["cell"]),
                ("Misc", &["accumulator", "control"]),
            ],
            reference::MACRO_D_AREA,
        ),
    ];

    for (name, m, grouping, refs) in cases {
        let model = area_breakdown(&m, &grouping);
        for ((label, model_pct), (ref_label, ref_pct)) in model.iter().zip(refs.iter()) {
            assert_eq!(label, ref_label);
            let err = (model_pct - ref_pct).abs();
            errs.push(err);
            table.row(vec![
                name.to_string(),
                label.clone(),
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
    println!("  paper: average discrete-component area error 8%");
    println!("  note: components we did not model (paper's 'Misc'/'Sparsity Control') show as 0%");
    Ok(())
}
