//! Models of published CiM macros (paper §V, Table III, Fig 3).
//!
//! | Macro | Publication | Node | Device | Array | ADC | Strategy |
//! |---|---|---|---|---|---|---|
//! | Base | Lu et al., AICAS'21 (NeuroSim validation) | 45 nm* | ReRAM | 128×128 | 5 b | wire-sum rows |
//! | A | Jia et al., JSSC'20 | 65 nm | SRAM | 768×768 | 8 b | sum outputs across columns on wires |
//! | B | Sinangil et al., JSSC'21 | 7 nm | SRAM | 64×64 | 4 b | analog adder across weight-bit columns |
//! | C | Wan et al., ISSCC'20/Nature'22 | 130 nm | ReRAM | 256×256 | 1–10 b | analog accumulator across cycles |
//! | D | Wang et al., JSSC'23 | 22 nm | SRAM C-2C | 512×128† | 8 b | C-2C ladder 8-bit analog MAC |
//! | Digital | Kim et al., JSSC'21 (Colonnade) | 65 nm | SRAM | 128×128 | — | fully-digital bit-serial MAC |
//!
//! \* the paper's base macro is 40 nm; we use the nearest modeled node.
//! † activates a 64×128 subset at once; the full array is modeled as
//! storage area (see [`ArrayMacro::storage_banks`]).
//!
//! Each macro is an [`ArrayMacro`] configuration that builds a
//! container-hierarchy ([`ArrayMacro::hierarchy`]), a data representation
//! ([`ArrayMacro::representation`]), and a calibrated evaluator
//! ([`ArrayMacro::evaluator`]). Calibration follows the paper's
//! methodology: component energies are scaled so the macro reproduces its
//! published headline efficiency/throughput at the anchor operating point
//! ([`calibrate::calibrate`]); validation experiments then compare model
//! trends against reference data at *other* operating points.
//!
//! # Example
//!
//! ```
//! use cimloop_macros::macro_b;
//! use cimloop_workload::models;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let macro_b = macro_b();
//! let evaluator = macro_b.evaluator()?;
//! let mvm = models::mvm(macro_b.rows(), macro_b.cols());
//! let report = evaluator.evaluate_layer(
//!     &mvm.layers()[0].clone().with_input_bits(4).with_weight_bits(4),
//!     &macro_b.representation(),
//! )?;
//! // Macro B publishes 351 TOPS/W at 4b/4b.
//! assert!(report.tops_per_watt() > 100.0);
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stderr)]
#![warn(missing_docs)]

mod array_macro;
pub mod calibrate;
pub mod category;
pub mod reference;

pub use array_macro::{ArrayMacro, OutputCombine};

use cimloop_core::Encoding;

/// The paper's base macro \[15\]: bit-serial ReRAM array, wire-summed rows,
/// shift-add accumulation (the NeuroSim validation macro; used as the
/// ground-truth target in Fig 6 and Table II).
pub fn base_macro() -> ArrayMacro {
    ArrayMacro::new("base", 45.0, 128, 128)
        .with_cell_class("reram_cim_cell")
        .with_adc(5, 100e6)
        .with_dac_class("pulse_driver")
        .with_slicing(1, 2)
        .with_encodings(Encoding::TwosComplement, Encoding::Offset)
        .with_calibration(reference::BASE_ANCHOR)
}

/// Macro A — Jia et al. JSSC'20: 65 nm bit-scalable SRAM, 768×768,
/// 1-bit analog MACs, outputs summed on wires across groups of
/// `output_reuse_columns` columns (default 3), digital bit-scaled
/// accumulation after an 8-bit ADC.
pub fn macro_a() -> ArrayMacro {
    ArrayMacro::new("macro_a", 65.0, 768, 768)
        .with_cell_class("sram_cim_cell")
        .with_adc(8, 100e6)
        .with_dac_class("pulse_driver")
        .with_slicing(1, 1)
        .with_encodings(Encoding::TwosComplement, Encoding::TwosComplement)
        .with_output_combine(OutputCombine::WireSum {
            columns_per_group: 3,
        })
        // Component calibration toward the published area breakdown
        // (Fig 10): compact shared SAR ADCs, substantial bit-scaling
        // digital postprocessing.
        .with_component_area("adc", 0.06)
        .with_component_area("accumulator", 400.0)
        .with_component_energy("buffer", 0.3)
        .with_calibration(reference::MACRO_A_ANCHOR)
}

/// Macro B — Sinangil et al. JSSC'21: 7 nm SRAM, 64×64, 4-bit
/// inputs/weights/outputs, an analog adder summing `adder_operands`
/// adjacent columns that hold different bits of the same weight.
pub fn macro_b() -> ArrayMacro {
    ArrayMacro::new("macro_b", 7.0, 64, 64)
        .with_cell_class("sram_cim_cell")
        .with_adc(4, 250e6)
        .with_dac_class("capacitive_dac")
        .with_slicing(4, 4)
        .with_encodings(Encoding::TwosComplement, Encoding::TwosComplement)
        .with_output_combine(OutputCombine::AnalogAdder { operands: 2 })
        // Component calibration toward the published silicon (Figs 9-11):
        // the charge-domain DAC/adder/cell path carries most of the energy
        // (hence the strong data-value-dependence of Fig 11), while the
        // 4-bit SAR ADC is compact and cheap.
        .with_component_energy("buffer", 0.05)
        .with_component_energy("dac", 10.0)
        .with_component_energy("analog_adder", 12.0)
        .with_component_energy("cell", 7.0)
        .with_component_area("adc", 0.012)
        .with_component_area("cell", 2.0)
        .with_component_area("dac", 2.0)
        .with_calibration(reference::MACRO_B_ANCHOR)
}

/// Macro C — Wan et al. ISSCC'20/Nature'22: 130 nm CMOS-ReRAM, 256×256,
/// bit-serial inputs, analog (multi-level) weights, an analog accumulator
/// integrating across input-bit cycles so the ADC converts once per
/// accumulated group.
pub fn macro_c() -> ArrayMacro {
    ArrayMacro::new("macro_c", 130.0, 256, 256)
        .with_cell_class("reram_cim_cell")
        .with_adc(8, 50e6)
        .with_dac_class("pulse_driver")
        .with_slicing(1, 8) // analog weights: all 8 bits in one device
        .with_encodings(Encoding::TwosComplement, Encoding::Offset)
        .with_output_combine(OutputCombine::AnalogAccumulator)
        // Component calibration toward the published breakdowns (Figs
        // 9-10): large row drivers and control sequencing, moderate ADC.
        .with_component_energy("adc", 0.4)
        .with_component_energy("dac", 185.0)
        .with_component_energy("control", 230.0)
        .with_component_energy("cell", 0.75)
        .with_component_energy("buffer", 0.1)
        .with_component_area("adc", 0.4)
        .with_component_area("cell", 60.0)
        .with_component_area("dac", 12.0)
        .with_component_area("analog_accumulator", 12.0)
        .with_component_area("control", 12.0)
        .with_calibration(reference::MACRO_C_ANCHOR)
}

/// Macro D — Wang et al. JSSC'23: 22 nm SRAM with a C-2C-ladder 8-bit
/// charge-domain MAC; activates a 64×128 subset of the 512×128 array at
/// once (the remaining rows are weight storage, counted as area).
pub fn macro_d() -> ArrayMacro {
    ArrayMacro::new("macro_d", 22.0, 64, 128)
        .with_cell_class("c2c_mac")
        .with_adc(8, 100e6)
        .with_dac_class("capacitive_dac")
        .with_slicing(8, 8)
        .with_encodings(Encoding::TwosComplement, Encoding::TwosComplement)
        .with_storage_banks(8)
        // Component calibration toward the published breakdowns (Fig 9-10):
        // the 8-bit capacitive input DACs are a major energy consumer.
        .with_component_energy("dac", 14.0)
        .with_component_energy("adc", 0.7)
        .with_component_energy("accumulator", 5.0)
        .with_component_energy("buffer", 0.3)
        .with_component_area("dac", 60.0)
        .with_component_area("adc", 0.8)
        .with_component_area("cell", 0.9)
        .with_component_area("accumulator", 2000.0)
        .with_calibration(reference::MACRO_D_ANCHOR)
}

/// Looks up a published macro configuration by its scenario-spec key.
///
/// Recognized keys: `base`, `macro_a` (alias `a`), `macro_b` (alias `b`),
/// `macro_c` (alias `c`), `macro_d` (alias `d`), and `digital` (alias
/// `digital_cim`). This is the preset table behind scenario files'
/// `!Architecture` / `macro:` key.
pub fn preset(key: &str) -> Option<ArrayMacro> {
    Some(match key {
        "base" | "base_macro" => base_macro(),
        "a" | "macro_a" => macro_a(),
        "b" | "macro_b" => macro_b(),
        "c" | "macro_c" => macro_c(),
        "d" | "macro_d" => macro_d(),
        "digital" | "digital_cim" => digital_cim(),
        _ => return None,
    })
}

/// Digital CiM — Kim et al. JSSC'21 (Colonnade): fully-digital bit-serial
/// SRAM CiM; no ADC/DAC (outputs reused digitally through an adder tree).
pub fn digital_cim() -> ArrayMacro {
    ArrayMacro::new("digital_cim", 65.0, 128, 128)
        .with_cell_class("sram_cim_cell")
        .with_digital_readout()
        .with_dac_class("pulse_driver")
        .with_slicing(1, 1)
        .with_encodings(Encoding::TwosComplement, Encoding::TwosComplement)
        .with_calibration(reference::DIGITAL_ANCHOR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimloop_workload::models;

    fn headline(m: &ArrayMacro, in_bits: u32, w_bits: u32) -> (f64, f64) {
        let evaluator = m.evaluator().unwrap();
        let mvm = models::mvm(m.rows(), m.cols());
        let layer = mvm.layers()[0]
            .clone()
            .with_input_bits(in_bits)
            .with_weight_bits(w_bits);
        let report = evaluator
            .evaluate_layer(&layer, &m.representation())
            .unwrap();
        (report.tops_per_watt(), report.gops())
    }

    #[test]
    fn all_macros_build_and_evaluate() {
        for m in [
            base_macro(),
            macro_a(),
            macro_b(),
            macro_c(),
            macro_d(),
            digital_cim(),
        ] {
            let (topsw, gops) = headline(&m, 4, 4);
            assert!(topsw > 0.0, "{}: TOPS/W = {topsw}", m.name());
            assert!(gops > 0.0, "{}: GOPS = {gops}", m.name());
        }
    }

    #[test]
    fn macro_b_hits_published_anchor() {
        let anchor = reference::MACRO_B_ANCHOR;
        let m = match anchor.volts {
            Some(v) => macro_b().with_supply_voltage(v),
            None => macro_b(),
        };
        let (topsw, gops) = headline(&m, 4, 4);
        assert!(
            (topsw - anchor.tops_per_watt).abs() / anchor.tops_per_watt < 0.25,
            "TOPS/W {topsw} vs anchor {}",
            anchor.tops_per_watt
        );
        assert!(
            (gops - anchor.gops).abs() / anchor.gops < 0.25,
            "GOPS {gops} vs anchor {}",
            anchor.gops
        );
    }

    #[test]
    fn macro_d_hits_published_anchor() {
        let m = macro_d();
        let (topsw, _) = headline(&m, 8, 8);
        let anchor = reference::MACRO_D_ANCHOR;
        assert!(
            (topsw - anchor.tops_per_watt).abs() / anchor.tops_per_watt < 0.25,
            "TOPS/W {topsw} vs anchor {}",
            anchor.tops_per_watt
        );
    }

    #[test]
    fn macro_a_output_grouping_changes_energy() {
        let g1 = macro_a().with_output_combine(OutputCombine::WireSum {
            columns_per_group: 1,
        });
        let g8 = macro_a().with_output_combine(OutputCombine::WireSum {
            columns_per_group: 8,
        });
        let (topsw1, _) = headline(&g1, 1, 1);
        let (topsw8, _) = headline(&g8, 1, 1);
        assert_ne!(topsw1, topsw8);
    }

    #[test]
    fn digital_cim_has_no_adc() {
        let h = digital_cim().hierarchy().unwrap();
        assert!(h.component("adc").is_none());
        assert!(h.component("adder_tree").is_some());
    }
}
