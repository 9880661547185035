//! Scenario-document parsing: `!Workload` and `!Layer` sections.
//!
//! A `!Workload` section selects a zoo model or declares a custom network
//! built from `!Layer` sections:
//!
//! ```text
//! !Workload
//! model: resnet18      # zoo model …
//! prefix: 6            # … optionally truncated to its first N layers
//! unroll: true         # … and/or expanded to execution order
//! ```
//!
//! ```text
//! !Workload
//! name: custom_net     # custom network: layers follow
//! !Layer
//! name: conv1
//! kind: conv
//! k: 32
//! c: 8
//! p: 16
//! q: 16
//! r: 3
//! s: 3
//! input_profile: relu
//! sparsity: 0.5
//! sigma: 0.2
//! !Layer
//! name: fc
//! kind: linear
//! n: 4
//! k: 64
//! c: 128
//! ```

use cimloop_spec::{Section, SpecError};

use crate::{models, Layer, LayerKind, Shape, ValueProfile, Workload};

fn err(line: usize, message: String) -> SpecError {
    SpecError::Parse { line, message }
}

cimloop_spec::reflect_section! {
    /// The reflected schema of a `!Workload` section. Unknown keys are
    /// rejected by the schema walk (a typo'd key used to be silently
    /// ignored here).
    pub struct WorkloadSection: "Workload" {
        model: [opt str], "zoo model key (resnet18, mobilenet, vit, gpt2, alexnet, bert, mvm)";
        name: [opt str], "custom-network name (layers come from !Layer sections)";
        rows: [count] = 256, "mvm rows";
        cols: [count] = 256, "mvm columns";
        batch: [count] = 256, "mvm batch size";
        prefix: [opt count], "truncate the model to its first N layers";
        unroll: [bool] = false, "expand the model to execution order";
        input_bits: [opt u32], "whole-network input precision override";
        weight_bits: [opt u32], "whole-network weight precision override";
    }
}

cimloop_spec::reflect_section! {
    /// The reflected schema of a `!Layer` section.
    pub struct LayerSection: "Layer" {
        name: [req str], "layer name";
        kind: [str] = "conv", "layer kind: conv, dwconv, or linear";
        n: [u64] = 1, "batch (linear)";
        k: [u64] = 1, "output channels";
        c: [u64] = 1, "input channels";
        p: [u64] = 1, "output height (conv)";
        q: [u64] = 1, "output width (conv)";
        r: [u64] = 1, "filter height (conv)";
        s: [u64] = 1, "filter width (conv)";
        count: [opt count], "repeat count";
        input_bits: [opt u32], "input precision, bits";
        weight_bits: [opt u32], "weight precision, bits";
        input_signed: [opt bool], "inputs are signed";
        weight_signed: [opt bool], "weights are signed";
        input_profile: [opt str], "input value profile (relu, dense, gaussian, uniform, uniform_signed, constant)";
        weight_profile: [opt str], "weight value profile";
        sparsity: [opt f64], "input profile sparsity";
        sigma: [opt f64], "input profile sigma";
        value: [opt f64], "input constant-profile value";
        weight_sparsity: [opt f64], "weight profile sparsity";
        weight_sigma: [opt f64], "weight profile sigma";
        weight_value: [opt f64], "weight constant-profile value";
    }
}

/// Resolves a zoo model by its scenario key.
///
/// Recognized keys: `resnet18`, `mobilenet_v3_large` (alias `mobilenet`),
/// `vit_base` (alias `vit`), `gpt2_small` (alias `gpt2`), `alexnet`,
/// `bert_base` (alias `bert`), and `mvm` (dimensions via `rows`/`cols`/
/// `batch` keys of the `!Workload` section).
pub fn zoo_model(key: &str, rows: u64, cols: u64, batch: u64) -> Option<Workload> {
    Some(match key {
        "resnet18" => models::resnet18(),
        "mobilenet" | "mobilenet_v3_large" => models::mobilenet_v3_large(),
        "vit" | "vit_base" => models::vit_base(),
        "gpt2" | "gpt2_small" => models::gpt2_small(),
        "alexnet" => models::alexnet(),
        "bert" | "bert_base" => models::bert_base(),
        "mvm" => models::mvm_batch(rows, cols, batch),
        _ => return None,
    })
}

/// The human display name of a zoo model key (used by presentation
/// layers; matches the labels of the committed experiment goldens).
pub fn display_name(key: &str) -> &str {
    match key {
        "resnet18" => "ResNet18",
        "mobilenet" | "mobilenet_v3_large" => "MobileNetV3-Large",
        "vit" | "vit_base" => "ViT",
        "gpt2" | "gpt2_small" => "GPT-2",
        "alexnet" => "AlexNet",
        "bert" | "bert_base" => "BERT",
        "mvm" => "MVM",
        other => other,
    }
}

/// Parses a `!Workload` section (plus any `!Layer` sections) into a
/// [`Workload`].
///
/// # Errors
///
/// Returns [`SpecError::Parse`] with a line number on unknown models,
/// missing dimensions, or malformed layer declarations.
pub fn from_sections(workload: &Section, layers: &[&Section]) -> Result<Workload, SpecError> {
    let view = WorkloadSection::decode(workload)?;
    let mut net = match &view.model {
        Some(model) => zoo_model(model, view.rows, view.cols, view.batch)
            .ok_or_else(|| err(workload.line(), format!("unknown workload model `{model}`")))?,
        None => {
            if layers.is_empty() {
                return Err(err(
                    workload.line(),
                    "!Workload needs either `model:` or at least one !Layer section".to_owned(),
                ));
            }
            let name = view.name.clone().unwrap_or_else(|| "custom".to_owned());
            let parsed: Vec<Layer> = layers
                .iter()
                .map(|s| layer_from_section(s))
                .collect::<Result<_, _>>()?;
            Workload::new(name, parsed)
                .map_err(|e| err(workload.line(), format!("invalid workload: {e}")))?
        }
    };

    if let Some(prefix) = view.prefix {
        let n = (prefix as usize).clamp(1, net.layers().len());
        net = Workload::new(format!("{}-prefix", net.name()), net.layers()[..n].to_vec())
            .expect("prefix is at least one layer");
    }
    if view.unroll {
        net = net.unrolled();
    }
    // Whole-network precision overrides (e.g. a 4b/4b quantized run).
    let input_bits = view.input_bits;
    let weight_bits = view.weight_bits;
    if input_bits.is_some() || weight_bits.is_some() {
        let layers = net
            .layers()
            .iter()
            .map(|l| {
                let mut l = l.clone();
                if let Some(bits) = input_bits {
                    l = l.with_input_bits(bits);
                }
                if let Some(bits) = weight_bits {
                    l = l.with_weight_bits(bits);
                }
                l
            })
            .collect();
        net = Workload::new(net.name().to_owned(), layers).expect("same layer count");
    }
    Ok(net)
}

fn layer_from_section(section: &Section) -> Result<Layer, SpecError> {
    let view = LayerSection::decode(section)?;
    let kind = match view.kind.as_str() {
        "conv" => LayerKind::Conv,
        "dwconv" | "depthwise" => LayerKind::DepthwiseConv,
        "linear" | "fc" | "matmul" => LayerKind::Linear,
        other => {
            return Err(err(
                section.line(),
                format!("unknown layer kind `{other}` (expected conv, dwconv, or linear)"),
            ))
        }
    };
    let shape = match kind {
        LayerKind::Linear => Shape::linear(view.n, view.k, view.c),
        _ => Shape::conv(view.k, view.c, view.p, view.q, view.r, view.s),
    }
    .map_err(|e| err(section.line(), format!("invalid layer shape: {e}")))?;

    let mut layer = Layer::new(view.name.clone(), kind, shape);
    if let Some(count) = view.count {
        layer = layer.with_count(count);
    }
    if let Some(bits) = view.input_bits {
        layer = layer.with_input_bits(bits);
    }
    if let Some(bits) = view.weight_bits {
        layer = layer.with_weight_bits(bits);
    }
    if let Some(signed) = view.input_signed {
        layer = layer.with_input_signed(signed);
    }
    if let Some(signed) = view.weight_signed {
        layer = layer.with_weight_signed(signed);
    }
    let input_params = ProfileParams {
        sparsity: view.sparsity,
        sigma: view.sigma,
        value: view.value,
    };
    if let Some(profile) = profile_from_view(&view.input_profile, input_params, section.line())? {
        layer = layer.with_input_profile(profile);
    }
    let weight_params = ProfileParams {
        sparsity: view.weight_sparsity,
        sigma: view.weight_sigma,
        value: view.weight_value,
    };
    if let Some(profile) = profile_from_view(&view.weight_profile, weight_params, section.line())? {
        layer = layer.with_weight_profile(profile);
    }
    Ok(layer)
}

/// Parameters of a value-profile declaration, drawn from the sibling
/// keys of a `!Layer` section (`sparsity`/`sigma`/`value` for the input
/// profile; the `weight_`-prefixed trio for the weight profile).
struct ProfileParams {
    sparsity: Option<f64>,
    sigma: Option<f64>,
    value: Option<f64>,
}

fn profile_from_view(
    kind: &Option<String>,
    params: ProfileParams,
    line: usize,
) -> Result<Option<ValueProfile>, SpecError> {
    let Some(kind) = kind else {
        return Ok(None);
    };
    let profile = match kind.as_str() {
        "relu" => ValueProfile::ReluActivations {
            sparsity: params.sparsity.unwrap_or(0.5),
            sigma: params.sigma.unwrap_or(0.2),
        },
        "dense" | "dense_signed" => ValueProfile::DenseSigned {
            sigma: params.sigma.unwrap_or(0.15),
        },
        "gaussian" | "gaussian_weights" => ValueProfile::GaussianWeights {
            sigma: params.sigma.unwrap_or(0.12),
        },
        "uniform" | "uniform_unsigned" => ValueProfile::UniformUnsigned,
        "uniform_signed" => ValueProfile::UniformSigned,
        "constant" => ValueProfile::Constant(params.value.map(|v| v as i64).unwrap_or(1)),
        other => {
            return Err(err(
                line,
                format!(
                    "unknown value profile `{other}` (expected relu, dense, gaussian, \
                     uniform, uniform_signed, or constant)"
                ),
            ))
        }
    };
    Ok(Some(profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimloop_spec::ScenarioDoc;

    fn parse(doc: &str) -> Result<Workload, SpecError> {
        let doc = ScenarioDoc::parse(doc).expect("document parses");
        let workload = doc.section("Workload").expect("workload section");
        let layers: Vec<&Section> = doc.sections("Layer").collect();
        from_sections(workload, &layers)
    }

    #[test]
    fn zoo_model_with_prefix_and_unroll() {
        let net = parse("!Scenario\nname: t\n!Workload\nmodel: resnet18\nprefix: 4\n").unwrap();
        assert_eq!(net.layers().len(), 4);
        assert_eq!(net.name(), "resnet18-prefix");
        assert_eq!(
            net.layers()[0],
            models::resnet18().layers()[0],
            "prefix layers are the zoo layers, verbatim"
        );

        let net = parse("!Scenario\nname: t\n!Workload\nmodel: vit\nunroll: true\n").unwrap();
        assert_eq!(
            net.layers().len(),
            models::vit_base().unrolled().layers().len()
        );
    }

    #[test]
    fn mvm_takes_dimensions() {
        let net =
            parse("!Scenario\nname: t\n!Workload\nmodel: mvm\nrows: 64\ncols: 32\nbatch: 8\n")
                .unwrap();
        assert_eq!(net.layers().len(), 1);
        assert_eq!(net.layers()[0].shape().macs(), 8 * 32 * 64);
    }

    #[test]
    fn custom_layers_build_a_network() {
        let net = parse(
            "!Scenario\nname: t\n!Workload\nname: tiny\n\
             !Layer\nname: conv1\nkind: conv\nk: 8\nc: 4\np: 6\nq: 6\nr: 3\ns: 3\ncount: 2\n\
             input_profile: relu\nsparsity: 0.7\nsigma: 0.1\n\
             !Layer\nname: fc\nkind: linear\nn: 2\nk: 16\nc: 32\ninput_bits: 4\n\
             input_profile: dense\ninput_signed: true\n",
        )
        .unwrap();
        assert_eq!(net.name(), "tiny");
        assert_eq!(net.layers().len(), 2);
        assert_eq!(net.layers()[0].count(), 2);
        assert_eq!(net.layers()[0].macs(), 8 * 4 * 6 * 6 * 9);
        assert_eq!(
            net.layers()[0].input_profile(),
            &ValueProfile::ReluActivations {
                sparsity: 0.7,
                sigma: 0.1
            }
        );
        assert_eq!(net.layers()[1].input_bits(), 4);
        assert!(net.layers()[1].input_signed());
    }

    #[test]
    fn precision_overrides_apply_to_all_layers() {
        let net = parse(
            "!Scenario\nname: t\n!Workload\nmodel: resnet18\nprefix: 3\n\
             input_bits: 4\nweight_bits: 4\n",
        )
        .unwrap();
        assert!(net
            .layers()
            .iter()
            .all(|l| l.input_bits() == 4 && l.weight_bits() == 4));
    }

    #[test]
    fn errors_name_the_problem() {
        assert!(parse("!Scenario\nname: t\n!Workload\nmodel: resnet99\n").is_err());
        assert!(parse("!Scenario\nname: t\n!Workload\nname: empty\n").is_err());
        assert!(
            parse("!Scenario\nname: t\n!Workload\nname: w\n!Layer\nname: l\nkind: pool\n").is_err()
        );
        assert!(parse(
            "!Scenario\nname: t\n!Workload\nname: w\n!Layer\nname: l\ninput_profile: spiky\n"
        )
        .is_err());
    }
}
