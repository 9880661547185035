//! Table III: parameterized attributes of Macros A–D, echoed from the
//! reference data against the built models.

use cimloop_bench::ExperimentTable;
use cimloop_macros::{macro_a, macro_b, macro_c, macro_d, reference, ArrayMacro};

fn main() -> std::io::Result<()> {
    let mut table = ExperimentTable::new(
        "table03",
        "parameterized attributes of Macros A-D",
        &[
            "macro",
            "node",
            "device",
            "input bits",
            "weight bits",
            "array",
            "ADC bits",
            "model array",
            "model ADC",
        ],
    );
    let models: [(&str, ArrayMacro); 4] = [
        ("A", macro_a()),
        ("B", macro_b()),
        ("C", macro_c()),
        ("D", macro_d()),
    ];
    for (row, (name, m)) in reference::TABLE_III.iter().zip(models.iter()) {
        let (paper_name, node, device, in_bits, w_bits, array, adc) = *row;
        assert_eq!(paper_name, *name);
        table.row(vec![
            paper_name.to_owned(),
            format!("{node}nm"),
            device.to_owned(),
            in_bits.to_owned(),
            w_bits.to_owned(),
            array.to_owned(),
            adc.to_owned(),
            format!(
                "{}x{}{}",
                m.rows() * m.storage_banks(),
                m.cols(),
                if m.storage_banks() > 1 { "*" } else { "" }
            ),
            m.adc_bits().to_string(),
        ]);
    }
    table.finish()?;
    println!("  * activates a subset of the array at once (Macro D)");
    Ok(())
}
