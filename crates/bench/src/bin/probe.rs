//! Development probe: per-component energy/area shares of each macro at
//! its anchor operating point (used to tune per-component calibration).

use cimloop_macros::{base_macro, macro_a, macro_b, macro_c, macro_d, ArrayMacro};
use cimloop_workload::models;

fn probe(m: &ArrayMacro) {
    let anchor = m.calibration().expect("anchor");
    let evaluator = m.evaluator().expect("evaluator");
    let layer = models::mvm(m.rows(), m.cols()).layers()[0]
        .clone()
        .with_input_bits(anchor.input_bits)
        .with_weight_bits(anchor.weight_bits);
    let report = evaluator
        .evaluate_layer(&layer, &m.representation())
        .expect("eval");
    let area = evaluator.area();
    println!(
        "== {} : {:.1} TOPS/W  {:.1} GOPS  (anchor {:.1}/{:.1})",
        m.name(),
        report.tops_per_watt(),
        report.gops(),
        anchor.tops_per_watt,
        anchor.gops
    );
    let etotal = report.energy_total();
    let atotal = area.total();
    for c in report.components() {
        println!(
            "   {:<22} energy {:>5.1}%   area {:>5.1}%",
            c.name,
            100.0 * c.total_energy() / etotal,
            100.0 * area.area_of(&c.name) / atotal,
        );
    }
}

fn main() {
    for m in [base_macro(), macro_a(), macro_b(), macro_c(), macro_d()] {
        probe(&m);
    }
}
