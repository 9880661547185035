//! Reflected schemas of the CLI-owned scenario sections, and the
//! whole-document check every entry point runs before resolution.
//!
//! The `!Scenario`, `!Architecture`, `!Row`, and `!Sweep` sections are
//! consumed by this crate's resolvers and runners; their schemas live
//! here. The remaining section kinds are declared by the crates that own
//! them ([`cimloop_noise::NoiseSection`], [`cimloop_dse::SpaceSection`],
//! [`cimloop_workload::WorkloadSection`] / [`cimloop_workload::LayerSection`])
//! and [`check_document`] stitches all of them into one schema-driven
//! validation walk: every key of every section must name a declared
//! field of the section's schema and parse as its declared kind, so a
//! typo'd key fails with a line-numbered error naming the nearest valid
//! field instead of silently falling back to a default.

// The panic policy: a malformed spec is a line-numbered error, never a panic.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use cimloop_core::{ADC_RESOLUTION, DAC_RESOLUTION};
use cimloop_dse::SpaceSection;
use cimloop_noise::NoiseSection;
use cimloop_spec::reflect::nearest;
use cimloop_spec::{Reflect, ScenarioDoc, Schema, SpecError};
use cimloop_workload::{LayerSection, WorkloadSection};

use crate::CliError;

cimloop_spec::reflect_section! {
    /// The reflected schema of the `!Scenario` header section.
    pub struct ScenarioSection: "Scenario" {
        name: [req str], "the scenario's name (also the result-table file stem)";
        title: [opt str], "human-readable experiment title for the result table";
        experiment: [str] = "evaluate", "experiment kind: evaluate, sweep, dse, compare, output_reuse, or speed_record";
        scope: [str] = "macro", "evaluation scope: macro or system";
        storage: [str] = "weight_stationary", "system storage scenario: all_dram, weight_stationary, or io_on_chip";
        accuracy: [str] = "snr", "design-exploration accuracy objective: snr, adc_coverage, or task_accuracy";
        staged: [bool] = false, "dse: enable the staged pre-pass (fingerprint dedup + cheap screens) — the front is bit-identical either way";
        exact_layers: [u64] = 3, "speed_record: value-exact simulated layer count (from the network's end)";
        search_layers: [u64] = 4, "speed_record: layers covered by the mapping search";
        mappings_per_layer: [u64] = 5000, "speed_record: mapping-search candidate limit per layer";
        engine_model: [str] = "vit", "speed_record: zoo model for the amortized engine sweep";
    }
}

cimloop_spec::reflect_section! {
    /// The reflected schema of one `!Architecture` section's settings
    /// (the inline component tree, when present, is parsed separately).
    pub struct ArchitectureSection: "Architecture" {
        name: [opt str], "design-variant name (defaults to design<index>)";
        macro_name as "macro": [opt str], "macro preset: base, macro_a..macro_d, or digital";
        calibrated: [bool] = true, "whether the macro keeps its energy calibration";
        frozen: [bool] = false, "bake the anchor's calibration scales at the preset-default configuration";
        rows: [opt count], "array rows override";
        cols: [opt count], "array columns override";
        node_nm: [opt f64], "technology node override, nm";
        adc_bits: [opt u32 in ADC_RESOLUTION], "ADC resolution override, bits";
        adc_rate: [opt f64], "ADC sample-rate override, Hz";
        cell_bits: [opt u32], "bits stored per cell";
        dac_bits: [opt u32 in DAC_RESOLUTION], "DAC resolution override, bits";
        cell_class: [opt str], "memory-cell component class override";
        dac_class: [opt str], "DAC component class override";
        storage_banks: [opt count], "system storage-bank count";
        buffer_entries: [opt count], "system buffer depth, entries";
        supply_voltage: [opt f64], "supply-voltage override, V";
        input_encoding: [opt str], "input encoding: twos_complement, offset, differential, sign_magnitude, or xnor";
        weight_encoding: [opt str], "weight encoding (same names as input_encoding)";
        combine: [opt str], "output-combine strategy: none, wire_sum, analog_adder, or analog_accumulator";
        columns_per_group: [u64] = 1, "wire_sum: columns summed per output group, 1 to cols";
        operands: [u32] = 2, "analog_adder: operands per adder, 1 to cols";
    }
}

cimloop_spec::reflect_section! {
    /// The reflected schema of one `!Row` selector of a `compare`
    /// experiment (absent keys match any design).
    pub struct RowSection: "Row" {
        label: [req str], "row label in the comparison table";
        rows: [opt u64], "select designs with this array-row count";
        dac_bits: [opt u32], "select designs with this DAC resolution";
        adc_bits: [opt u32], "select designs with this ADC resolution";
    }
}

cimloop_spec::reflect_section! {
    /// The reflected schema of a `!Sweep` section (the union of the
    /// generic sweep axes and the output_reuse controls; each runner
    /// requires the subset it consumes).
    pub struct SweepSection: "Sweep" {
        variations: [list sigma], "cell-variation sigma axis";
        adc_bits: [list u32 in ADC_RESOLUTION], "ADC-resolution axis, bits";
        dac_bits: [list u32 in DAC_RESOLUTION], "DAC-resolution axis, bits";
        square_arrays: [list count], "array-size axis: each n evaluates an nxn array";
        metrics: [list str], "report columns: snr_db, enob, energy, energy_per_mac, tops_per_watt, gops";
        groupings: [list u64], "output_reuse: wire-summed columns per output group";
        workloads: [list str], "output_reuse: zoo workload keys (or max_util)";
    }
}

/// The schema owning a plain-section tag, when one is declared.
fn schema_for(tag: &str) -> Option<&'static Schema> {
    Some(match tag {
        "Workload" => WorkloadSection::schema(),
        "Layer" => LayerSection::schema(),
        "Noise" => NoiseSection::schema(),
        "Space" => SpaceSection::schema(),
        "Sweep" => SweepSection::schema(),
        "Row" => RowSection::schema(),
        _ => return None,
    })
}

const PLAIN_TAGS: [&str; 6] = ["Workload", "Layer", "Noise", "Space", "Sweep", "Row"];

/// Validates every section of a scenario document against its reflected
/// schema: the `!Scenario` header, each `!Architecture`'s settings, and
/// each plain section by tag. Unknown tags and unknown keys fail with a
/// line-numbered error naming the nearest valid alternative.
///
/// # Errors
///
/// Returns the first schema violation as [`CliError::Spec`].
pub fn check_document(doc: &ScenarioDoc) -> Result<(), CliError> {
    ScenarioSection::schema().check(doc.scenario())?;
    for arch in doc.architectures() {
        ArchitectureSection::schema().check(&arch.settings)?;
    }
    for section in doc.plain_sections() {
        match schema_for(section.tag()) {
            Some(schema) => schema.check(section)?,
            None => {
                let mut message = format!("unknown section tag `{}`", section.tag());
                if let Some(near) = nearest(section.tag(), &PLAIN_TAGS) {
                    message.push_str(&format!(" (did you mean `{near}`?)"));
                }
                message.push_str(&format!("; valid tags: {}", PLAIN_TAGS.join(", ")));
                return Err(CliError::Spec(SpecError::Parse {
                    line: section.line(),
                    message,
                }));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misspelled_sweep_axis_names_nearest_field() {
        let doc = ScenarioDoc::parse(
            "!Scenario\nname: s\nexperiment: sweep\n!Sweep\nvariatons: [0.1]\n", // sic
        )
        .unwrap();
        let err = check_document(&doc).unwrap_err();
        let CliError::Spec(SpecError::Parse { line, message }) = err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert_eq!(line, 5);
        assert!(message.contains("`variatons`"), "{message}");
        assert!(message.contains("did you mean `variations`?"), "{message}");
    }

    #[test]
    fn misspelled_scenario_key_names_nearest_field() {
        let doc = ScenarioDoc::parse("!Scenario\nname: s\nexperimnet: dse\n").unwrap();
        let err = check_document(&doc).unwrap_err();
        let CliError::Spec(SpecError::Parse { line, message }) = err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert_eq!(line, 3);
        assert!(message.contains("did you mean `experiment`?"), "{message}");
    }

    #[test]
    fn unknown_section_tag_is_rejected_with_suggestion() {
        let doc = ScenarioDoc::parse("!Scenario\nname: s\n!Sweeep\nmetrics: [energy]\n").unwrap();
        let err = check_document(&doc).unwrap_err();
        let CliError::Spec(SpecError::Parse { line, message }) = err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert_eq!(line, 3);
        assert!(
            message.contains("unknown section tag `Sweeep`"),
            "{message}"
        );
        assert!(message.contains("did you mean `Sweep`?"), "{message}");
    }

    #[test]
    fn architecture_settings_are_checked() {
        let doc = ScenarioDoc::parse(
            "!Scenario\nname: s\n!Architecture\nmacro: base\nadc_bist: 6\n", // sic
        )
        .unwrap();
        let err = check_document(&doc).unwrap_err();
        let CliError::Spec(SpecError::Parse { line, message }) = err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert_eq!(line, 5);
        assert!(message.contains("did you mean `adc_bits`?"), "{message}");
    }

    #[test]
    fn committed_style_document_passes() {
        let doc = ScenarioDoc::parse(
            "!Scenario\nname: s\nexperiment: sweep\nscope: macro\n\
             !Architecture\nmacro: base\nrows: 64\ncols: 64\n\
             !Workload\nmodel: vit\n\
             !Noise\ncell_variation: 0.1\n\
             !Sweep\nadc_bits: [4, 6, 8]\nmetrics: [energy, snr_db]\n",
        )
        .unwrap();
        check_document(&doc).unwrap();
    }
}
