//! Scenario-document resolution: sections → domain objects.
//!
//! This is the glue between the structural parse in
//! [`cimloop_spec::scenario`] and the crates that own each concept:
//! architectures resolve through `cimloop-macros` (preset lookup, the
//! [`ArrayMacro::from_hierarchy`] inverse import, typed overrides),
//! workloads through `cimloop-workload::scenario`, non-idealities through
//! [`NoiseSpec::from_section`], and design-space axes through
//! [`cimloop_dse::DesignSpace::with_section`].

use cimloop_core::{CoreError, Encoding, Evaluator, Representation};
use cimloop_macros::{ArrayMacro, OutputCombine};
use cimloop_noise::NoiseSpec;
use cimloop_spec::{ArchitectureSpec, ScenarioDoc, Section, SpecError};
use cimloop_system::{CimSystem, StorageScenario};
use cimloop_workload::Workload;

use crate::schema::{ArchitectureSection, ScenarioSection};
use crate::CliError;

/// What each evaluation runs as: the bare macro or the full system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The macro alone.
    Macro,
    /// The macro nested in a [`CimSystem`] under a storage scenario.
    System(StorageScenario),
}

/// Resolves the `scope:`/`storage:` keys of the `!Scenario` section.
///
/// # Errors
///
/// Returns a parse error when the section fails its schema, and a usage
/// error on unknown scope or storage names.
pub fn scope(section: &Section) -> Result<Scope, CliError> {
    let header = ScenarioSection::decode(section)?;
    let storage = match header.storage.as_str() {
        "all_dram" | "all_tensors_from_dram" => StorageScenario::AllTensorsFromDram,
        "weight_stationary" => StorageScenario::WeightStationary,
        "io_on_chip" => StorageScenario::IoOnChip,
        other => {
            return Err(CliError::usage(format!(
                "unknown storage scenario `{other}` (expected all_dram, weight_stationary, \
                 or io_on_chip)"
            )))
        }
    };
    match header.scope.as_str() {
        "macro" => Ok(Scope::Macro),
        "system" => Ok(Scope::System(storage)),
        other => Err(CliError::usage(format!(
            "unknown scope `{other}` (expected macro or system)"
        ))),
    }
}

fn encoding(name: &str) -> Result<Encoding, CliError> {
    Ok(match name {
        "twos_complement" => Encoding::TwosComplement,
        "offset" => Encoding::Offset,
        "differential" => Encoding::Differential,
        "sign_magnitude" => Encoding::SignMagnitude,
        "xnor" => Encoding::Xnor,
        other => {
            return Err(CliError::usage(format!(
                "unknown encoding `{other}` (expected twos_complement, offset, differential, \
                 sign_magnitude, or xnor)"
            )))
        }
    })
}

/// Resolves one `!Architecture` section into a configured [`ArrayMacro`]:
/// a named preset or an inline component tree (via the inverse import
/// path), then calibration state, geometry/converter overrides, and the
/// document's `!Noise` spec.
///
/// # Errors
///
/// Propagates parse, preset-lookup, and calibration errors, and returns a
/// parse error at the section's line when the inline tree is not
/// macro-shaped or the final DAC or cell width is outside what a
/// [`Representation`] accepts, or at the key's
/// line when `columns_per_group` or `operands` is 0 or exceeds the
/// array's columns.
pub fn architecture(doc: &ScenarioDoc, arch: &ArchitectureSpec) -> Result<ArrayMacro, CliError> {
    let s = &arch.settings;
    let view = ArchitectureSection::decode(s)?;
    let mut m = match (&arch.hierarchy, &view.macro_name) {
        (Some(h), None) => ArrayMacro::from_hierarchy(h).map_err(|e| {
            let reason = match e {
                CoreError::Spec(SpecError::Parse { message, .. }) => message,
                CoreError::Spec(other) => other.to_string(),
                other => other.to_string(),
            };
            CliError::Spec(SpecError::Parse {
                line: s.line(),
                message: format!(
                    "!Architecture: cannot import the inline component tree as a macro: \
                     {reason}; the import expects a `<name>_macro` container with `dac` and \
                     `cell` components and a `column` container"
                ),
            })
        })?,
        (None, Some(key)) => cimloop_macros::preset(key).ok_or_else(|| {
            CliError::Spec(SpecError::Parse {
                line: s.line(),
                message: format!(
                    "unknown macro preset `{key}` (expected base, macro_a..macro_d, or digital)"
                ),
            })
        })?,
        (Some(_), Some(_)) => {
            return Err(CliError::usage(
                "!Architecture has both a `macro:` preset and an inline component tree — \
                 pick one"
                    .to_owned(),
            ))
        }
        (None, None) => {
            return Err(CliError::Spec(SpecError::Parse {
                line: s.line(),
                message: "!Architecture needs a `macro:` preset or an inline component tree"
                    .to_owned(),
            }))
        }
    };

    // Calibration state first: `frozen` bakes the anchor's scales at the
    // *preset default* configuration, so design sweeps explore variations
    // around the calibrated design (the same discipline as the fig bins).
    if !view.calibrated {
        m = m.uncalibrated();
    }
    if view.frozen {
        m = m.frozen()?;
    }

    if view.rows.is_some() || view.cols.is_some() {
        let rows = view.rows.unwrap_or(m.rows());
        let cols = view.cols.unwrap_or(m.cols());
        m = m.with_array(rows, cols);
    }
    if let Some(nm) = view.node_nm {
        m = m.with_node(nm);
    }
    if let Some(bits) = view.adc_bits {
        m = m.with_adc_bits(bits);
    }
    if let Some(rate) = view.adc_rate {
        let bits = m.adc_bits();
        m = m.with_adc(bits, rate);
    }
    if let Some(bits) = view.cell_bits {
        let dac_now = m.dac_bits();
        m = m.with_slicing(dac_now, bits);
    }
    if let Some(bits) = view.dac_bits {
        m = m.with_dac_resolution(bits);
    }
    if let Some(class) = &view.cell_class {
        m = m.with_cell_class(class);
    }
    if let Some(class) = &view.dac_class {
        m = m.with_dac_class(class);
    }
    if let Some(banks) = view.storage_banks {
        m = m.with_storage_banks(banks);
    }
    if let Some(entries) = view.buffer_entries {
        m = m.with_buffer_entries(entries);
    }
    if let Some(volts) = view.supply_voltage {
        m = m.with_supply_voltage(volts);
    }
    if view.input_encoding.is_some() || view.weight_encoding.is_some() {
        let input = encoding(view.input_encoding.as_deref().unwrap_or("twos_complement"))?;
        let weight = encoding(view.weight_encoding.as_deref().unwrap_or("offset"))?;
        m = m.with_encodings(input, weight);
    }
    // A per-group column count divides the array's columns into groups,
    // so it obeys the bound `groupings:` does: 1 <= n <= cols.
    for (key, n) in [
        ("columns_per_group", view.columns_per_group),
        ("operands", u64::from(view.operands)),
    ] {
        let Some(entry) = s.get(key) else { continue };
        if n == 0 || n > m.cols() {
            return Err(CliError::Spec(SpecError::Parse {
                line: entry.line,
                message: format!(
                    "`{key}: {n}` is invalid: it must satisfy 1 <= {key} <= cols ({} columns \
                     on architecture `{}`)",
                    m.cols(),
                    m.name()
                ),
            }));
        }
    }
    if let Some(kind) = &view.combine {
        let combine = match kind.as_str() {
            "none" => OutputCombine::None,
            "wire_sum" => OutputCombine::WireSum {
                columns_per_group: view.columns_per_group,
            },
            "analog_adder" => OutputCombine::AnalogAdder {
                operands: view.operands,
            },
            "analog_accumulator" => OutputCombine::AnalogAccumulator,
            other => {
                return Err(CliError::usage(format!(
                    "unknown combine strategy `{other}` (expected none, wire_sum, \
                     analog_adder, or analog_accumulator)"
                )))
            }
        };
        m = m.with_output_combine(combine);
    }

    if let Some(noise) = doc.section("Noise") {
        let spec = NoiseSpec::from_section(noise)?;
        if !spec.is_ideal() {
            m = m.with_noise(spec);
        }
    }

    // Both the preset overrides and the inline import end here, and
    // `ArrayMacro::representation` relies on its slice widths being valid.
    // The check reads only the widths, so the encodings are placeholders.
    Representation::new(
        Encoding::TwosComplement,
        Encoding::Offset,
        m.dac_bits(),
        m.cell_bits(),
    )
    .map_err(|e| {
        CliError::Spec(SpecError::Parse {
            line: s.line(),
            message: format!("!Architecture: {e}"),
        })
    })?;
    Ok(m)
}

/// Resolves the document's `!Workload` (+ `!Layer`) sections.
///
/// # Errors
///
/// Returns a parse error when the section is missing or malformed.
pub fn workload(doc: &ScenarioDoc) -> Result<Workload, CliError> {
    let section = doc
        .section("Workload")
        .ok_or_else(|| CliError::usage("scenario has no !Workload section".to_owned()))?;
    let layers: Vec<&Section> = doc.sections("Layer").collect();
    Ok(cimloop_workload::scenario::from_sections(section, &layers)?)
}

/// Builds the scoped evaluator (+ representation) for a resolved macro.
///
/// # Errors
///
/// Propagates hierarchy, model-building, and calibration errors.
pub fn evaluator_for(
    m: &ArrayMacro,
    scope: Scope,
) -> Result<(Evaluator, Representation), CoreError> {
    match scope {
        Scope::Macro => Ok((m.evaluator()?, m.representation())),
        Scope::System(storage) => {
            let system = CimSystem::new(m.clone()).with_scenario(storage);
            Ok((system.evaluator()?, system.representation()))
        }
    }
}
