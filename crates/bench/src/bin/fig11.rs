//! Fig 11: validating data-value-dependent energy of Macro B — energy per
//! MAC rises with the average MAC value as the DAC switches more and the
//! analog adder charges/discharges larger analog values (published swing:
//! 2.3×).

use cimloop_bench::{fmt, pct, rel_err, ExperimentTable};
use cimloop_macros::{macro_b, reference};
use cimloop_workload::{models, ValueProfile};

fn main() -> std::io::Result<()> {
    let m = macro_b();
    let evaluator = m.evaluator().expect("evaluator");
    let rep = m.representation();

    let mut table = ExperimentTable::new(
        "fig11",
        "Macro B energy/MAC vs average MAC value (model vs reference)",
        &["avg MAC value", "model fJ/MAC", "ref fJ/MAC", "err"],
    );

    let mut model_points = Vec::new();
    for &(mac_value, ref_fj) in reference::MACRO_B_VALUE_SWEEP {
        // Drive the macro with constant operands whose 4-bit product
        // averages `mac_value`: inputs = v, weights = 15, so the normalized
        // 4b MAC value is v.
        let v = mac_value.round() as i64;
        let layer = models::mvm(m.rows(), m.cols()).layers()[0]
            .clone()
            .with_input_bits(4)
            .with_weight_bits(4)
            .with_input_profile(ValueProfile::Constant(v))
            .with_weight_profile(ValueProfile::Constant(15));
        let report = evaluator.evaluate_layer(&layer, &rep).expect("eval");
        let fj_per_mac = report.energy_per_mac() * 1e15;
        model_points.push((mac_value, fj_per_mac, ref_fj));
        table.row(vec![
            fmt(mac_value),
            fmt(fj_per_mac),
            fmt(ref_fj),
            pct(rel_err(fj_per_mac, ref_fj)),
        ]);
    }
    table.finish()?;

    let model_swing = model_points.last().unwrap().1 / model_points.first().unwrap().1;
    let ref_swing = model_points.last().unwrap().2 / model_points.first().unwrap().2;
    println!("  model swing: {model_swing:.2}x; published swing: {ref_swing:.2}x (paper: 2.3x)");
    let monotone = model_points.windows(2).all(|w| w[1].1 >= w[0].1 * 0.98);
    println!(
        "  monotonically rising with MAC value: {}",
        if monotone { "YES" } else { "NO" }
    );
    Ok(())
}
