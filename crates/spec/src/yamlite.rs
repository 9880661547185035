//! Parser and serializer for the YAML-subset specification text format used
//! by the paper's Fig 5b.
//!
//! The format is a flat sequence of node declarations:
//!
//! ```text
//! !Component            # opens a component
//! name: buffer
//! temporal_reuse: [Inputs, Outputs]
//! !Container            # opens a container; encloses everything below
//! name: macro
//! !Component
//! name: DAC_bank
//! no_coalesce: [Inputs]
//! spatial: { meshX: 4 }
//! resolution: 8         # unknown keys become attributes
//! ```
//!
//! Recognized keys: `name`, `class`, `spatial` (inline map with
//! `meshX`/`meshY`), `spatial_reuse`, `temporal_reuse`, `coalesce`,
//! `no_coalesce`, `bypass` (tensor lists), and `attributes` (inline map).
//! Any other scalar key is stored as an attribute. `#` starts a comment.
//!
//! Each `!Component`/`!Container` block is a [`Section`], split out by
//! the same line tokenizer that reads scenario documents. This module
//! holds the one node codec every format shares: a section decodes into
//! a [`Node`] and a node encodes back into a section, whether the section
//! came from this text, from a scenario's inline tree, or from JSON. A
//! key may appear once per node; a tensor given two different reuse
//! directives, and a `class` or reuse list on a `!Container`, are
//! line-numbered errors.

use crate::scenario::{tokenize, write_section, Entry, ScalarValue, Section, SpecValue};
use crate::{AttrValue, Attributes, Component, Container, Hierarchy, Node, Reuse, Spatial};
use crate::{SpecError, Tensor};

/// The section tags of component-tree nodes.
pub(crate) const NODE_TAGS: [&str; 2] = ["Component", "Container"];

/// The per-tensor reuse lists, by key. `bypass` is the default, so the
/// writer never emits it.
const REUSE_KEYS: [(&str, Reuse); 4] = [
    ("temporal_reuse", Reuse::Temporal),
    ("coalesce", Reuse::Coalesce),
    ("no_coalesce", Reuse::NoCoalesce),
    ("bypass", Reuse::Bypass),
];

/// Parses the text format into a validated [`Hierarchy`].
///
/// # Errors
///
/// Returns [`SpecError::Parse`] with a 1-based line number on malformed
/// input, plus any validation error from [`Hierarchy::from_nodes`].
pub fn parse(text: &str) -> Result<Hierarchy, SpecError> {
    let nodes = tokenize(text)?
        .iter()
        .map(node_from_section)
        .collect::<Result<Vec<Node>, _>>()?;
    Hierarchy::from_nodes(nodes)
}

/// Serializes a hierarchy back to the text format (round-trips through
/// [`parse`]).
pub fn write(hierarchy: &Hierarchy) -> String {
    let mut out = String::new();
    for node in hierarchy.nodes() {
        write_section(&mut out, &node_to_section(node));
    }
    out
}

/// Decodes one `!Component`/`!Container` section into a [`Node`].
///
/// # Errors
///
/// Returns [`SpecError::Parse`] at the offending entry's line (the
/// section's line for a missing `name` or an unknown tag).
pub(crate) fn node_from_section(section: &Section) -> Result<Node, SpecError> {
    let err = |line: usize, message: String| SpecError::Parse { line, message };
    let tag = section.tag();
    let is_component = match tag {
        "Component" => true,
        "Container" => false,
        other => {
            return Err(err(
                section.line(),
                format!("unknown tag `!{other}` (expected !Component or !Container)"),
            ))
        }
    };
    let mut name = None;
    let mut class = String::new();
    let mut reuse: [Option<Reuse>; 3] = [None; 3];
    let mut spatial = Spatial::UNIT;
    let mut spatial_reuse = [false; 3];
    let mut attrs = Attributes::new();
    for Entry { key, value, line } in section.entries() {
        let line = *line;
        let tensors = || -> Result<Vec<Tensor>, SpecError> {
            let SpecValue::List(items) = value else {
                return Err(err(line, format!("`{key}` must be a `[list]` of tensors")));
            };
            let tensor = |s: &ScalarValue| {
                Tensor::parse(&s.raw).ok_or_else(|| {
                    let message = "(expected Inputs/Weights/Outputs)";
                    err(line, format!("unknown tensor `{}` {message}", s.raw))
                })
            };
            items.iter().map(tensor).collect()
        };
        let directive = REUSE_KEYS.iter().find(|(k, _)| k == key).map(|&(_, r)| r);
        if !is_component && (key == "class" || directive.is_some()) {
            return Err(err(
                line,
                format!("`{key}` is not allowed on a !Container (only components have it)"),
            ));
        }
        if let Some(directive) = directive {
            for tensor in tensors()? {
                match reuse[tensor as usize].replace(directive) {
                    Some(existing) if existing != directive => {
                        return Err(err(
                            line,
                            format!(
                                "tensor {tensor} already has directive {existing:?}, \
                                 cannot also be {directive:?}"
                            ),
                        ))
                    }
                    _ => {}
                }
            }
            continue;
        }
        let mut attr = |k: &str, s: &ScalarValue| match attrs.set(k, s.value.clone()) {
            Some(_) => Err(err(line, format!("duplicate attribute `{k}`"))),
            None => Ok(()),
        };
        match (key.as_str(), value) {
            ("name", SpecValue::Scalar(s)) => name = Some(s.raw.clone()),
            ("class", SpecValue::Scalar(s)) => class = s.raw.clone(),
            ("spatial", SpecValue::Map(pairs)) => {
                for (k, s) in pairs {
                    // A mesh of 0 instances is never meaningful; reject it
                    // here with the line number instead of letting a
                    // fanout-0 node reach hierarchy validation.
                    let Some(n) = s.raw.parse::<u64>().ok().filter(|&n| n > 0) else {
                        let found = &s.raw;
                        let message =
                            format!("mesh size must be a positive integer, found `{found}`");
                        return Err(err(line, message));
                    };
                    match k.as_str() {
                        "meshX" | "mesh_x" => spatial.mesh_x = n,
                        "meshY" | "mesh_y" => spatial.mesh_y = n,
                        other => return Err(err(line, format!("unknown spatial key `{other}`"))),
                    }
                }
            }
            ("spatial_reuse", _) => {
                for tensor in tensors()? {
                    spatial_reuse[tensor as usize] = true;
                }
            }
            ("attributes", SpecValue::Map(pairs)) => {
                for (k, s) in pairs {
                    attr(k, s)?;
                }
            }
            ("spatial" | "attributes", _) => {
                return Err(err(line, format!("`{key}` must be a `{{ map }}`")))
            }
            (_, SpecValue::Scalar(s)) => attr(key, s)?,
            _ => return Err(err(line, format!("`{key}` must be a scalar"))),
        }
    }
    let name = name.ok_or_else(|| err(section.line(), "node is missing a `name`".to_owned()))?;
    let reused = Tensor::ALL
        .into_iter()
        .filter(|t| spatial_reuse[*t as usize]);
    Ok(if is_component {
        let mut c = Component::new(name).with_class(class).with_spatial(spatial);
        for tensor in Tensor::ALL {
            if let Some(r) = reuse[tensor as usize] {
                c = c.with_reuse(tensor, r);
            }
        }
        let mut c = reused.fold(c, Component::with_spatial_reuse);
        *c.attributes_mut() = attrs;
        Node::Component(c)
    } else {
        let c = Container::new(name).with_spatial(spatial);
        let mut c = reused.fold(c, Container::with_spatial_reuse);
        *c.attributes_mut() = attrs;
        Node::Container(c)
    })
}

/// Encodes a [`Node`] as its section: `name`, then a component's `class`
/// and reuse lists, the spatial fanout, and the attributes in name order.
/// [`write_section`] renders it as the canonical text [`write`] emits,
/// which keys the evaluator's hierarchy fingerprint.
pub(crate) fn node_to_section(node: &Node) -> Section {
    let scalar = |raw: &str| SpecValue::Scalar(ScalarValue::parse(raw));
    let tensors = |pick: &dyn Fn(Tensor) -> bool| {
        let items: Vec<ScalarValue> = Tensor::ALL
            .into_iter()
            .filter(|&t| pick(t))
            .map(|t| ScalarValue::parse(t.name()))
            .collect();
        (!items.is_empty()).then_some(SpecValue::List(items))
    };
    let mut entries: Vec<(&str, SpecValue)> = vec![("name", scalar(node.name()))];
    let tag = match node {
        Node::Component(c) => {
            if !c.class().is_empty() {
                entries.push(("class", scalar(c.class())));
            }
            for (key, directive) in &REUSE_KEYS[..3] {
                if let Some(list) = tensors(&|t| c.reuse(t) == *directive) {
                    entries.push((key, list));
                }
            }
            "Component"
        }
        Node::Container(_) => "Container",
    };
    let spatial = node.spatial();
    if spatial.fanout() > 1 {
        let mesh = |raw: u64| ScalarValue::parse(&raw.to_string());
        let pairs = vec![
            ("meshX".to_owned(), mesh(spatial.mesh_x)),
            ("meshY".to_owned(), mesh(spatial.mesh_y)),
        ];
        entries.push(("spatial", SpecValue::Map(pairs)));
    }
    if let Some(list) = tensors(&|t| node.spatial_reuse(t)) {
        entries.push(("spatial_reuse", list));
    }
    for (key, value) in node.attributes().iter() {
        entries.push((key, scalar(&attr_to_text(value))));
    }
    let entries = entries.into_iter().map(|(key, value)| Entry {
        key: key.to_owned(),
        value,
        line: 0,
    });
    Section::new(tag, 0, entries.collect())
}

pub(crate) fn attr_to_text(v: &AttrValue) -> String {
    match v {
        AttrValue::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

pub(crate) fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

pub(crate) fn split_key_value(line: &str, line_no: usize) -> Result<(&str, &str), SpecError> {
    let pos = line.find(':').ok_or_else(|| SpecError::Parse {
        line: line_no,
        message: format!("expected `key: value`, found `{line}`"),
    })?;
    Ok((line[..pos].trim(), line[pos + 1..].trim()))
}

pub(crate) fn parse_list(value: &str, line_no: usize) -> Result<Vec<String>, SpecError> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| SpecError::Parse {
            line: line_no,
            message: format!("expected a `[list]`, found `{value}`"),
        })?;
    Ok(inner
        .split(',')
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .collect())
}

pub(crate) fn parse_inline_map(
    value: &str,
    line_no: usize,
) -> Result<Vec<(String, String)>, SpecError> {
    let inner = value
        .strip_prefix('{')
        .and_then(|v| v.strip_suffix('}'))
        .ok_or_else(|| SpecError::Parse {
            line: line_no,
            message: format!("expected a `{{ map }}`, found `{value}`"),
        })?;
    let mut pairs = Vec::new();
    for entry in inner.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (k, v) = split_key_value(entry, line_no)?;
        pairs.push((k.to_owned(), v.to_owned()));
    }
    Ok(pairs)
}

pub(crate) fn parse_scalar(value: &str) -> AttrValue {
    if let Ok(i) = value.parse::<i64>() {
        return AttrValue::Int(i);
    }
    if let Ok(f) = value.parse::<f64>() {
        return AttrValue::Float(f);
    }
    match value {
        "true" | "True" => AttrValue::Bool(true),
        "false" | "False" => AttrValue::Bool(false),
        other => AttrValue::Str(other.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full specification from the paper's Fig 5b, comments included.
    const FIG5B: &str = "
!Component           # Buffer stores inputs & outputs.
name: buffer
temporal_reuse: [Inputs, Outputs]  # Bypass weights
!Container           # Container includes everything declared in
name: macro          # following lines
!Component           # Adder sums values and coalesces them into
name: adder          # one output.
coalesce: [Outputs]  # Bypasses inputs/weights
!Component           # Inputs pass through DACs, convert to analog.
name: DAC_bank       # DACs can not coalesce.
no_coalesce: [Inputs] # Bypass outputs/weights
!Container           # Inputs are spatially reused between columns,
name: column         # while outputs/weights are not.
spatial: { meshX: 2}  # 2 columns in X dimension
spatial_reuse: [Inputs]  # Reuse inputs, not outputs/weights
!Component           # Outputs pass through ADC, convert to digital
name: ADC
no_coalesce: [Outputs]  # Bypass inputs/weights
!Component           # Memory cells store & temporally reuse weights.
name: memory_cell    # Memory cells spatially reuse outputs.
spatial: { meshY: 2}  # 2 cells in Y dimension
temporal_reuse: [Weights]  # Bypass inputs/outputs
spatial_reuse: [Outputs]   # Reuse outputs not inputs/weights
";

    #[test]
    fn parses_paper_fig5b() {
        let h = parse(FIG5B).unwrap();
        assert_eq!(h.len(), 7);
        let buffer = h.component("buffer").unwrap();
        assert_eq!(buffer.reuse(Tensor::Inputs), Reuse::Temporal);
        assert_eq!(buffer.reuse(Tensor::Outputs), Reuse::Temporal);
        assert_eq!(buffer.reuse(Tensor::Weights), Reuse::Bypass);

        let adder = h.component("adder").unwrap();
        assert_eq!(adder.reuse(Tensor::Outputs), Reuse::Coalesce);

        let dac = h.component("DAC_bank").unwrap();
        assert_eq!(dac.reuse(Tensor::Inputs), Reuse::NoCoalesce);

        let column = h.node("column").unwrap().as_container().unwrap();
        assert_eq!(column.spatial(), Spatial::new(2, 1));
        assert!(column.spatial_reuse(Tensor::Inputs));
        assert!(!column.spatial_reuse(Tensor::Outputs));

        let cell = h.component("memory_cell").unwrap();
        assert_eq!(cell.spatial(), Spatial::new(1, 2));
        assert_eq!(cell.reuse(Tensor::Weights), Reuse::Temporal);
        assert!(cell.spatial_reuse(Tensor::Outputs));
    }

    #[test]
    fn unknown_keys_become_attributes() {
        let h = parse(
            "!Component\nname: ADC\nno_coalesce: [Outputs]\nresolution: 8\nenergy_share: 0.5\nclass: sar_adc\nkind: flash",
        )
        .unwrap();
        let adc = h.component("ADC").unwrap();
        assert_eq!(adc.class(), "sar_adc");
        assert_eq!(adc.attributes().int("resolution"), Some(8));
        assert_eq!(adc.attributes().float("energy_share"), Some(0.5));
        assert_eq!(adc.attributes().str("kind"), Some("flash"));
    }

    #[test]
    fn attributes_inline_map() {
        let h = parse("!Component\nname: x\nattributes: { rows: 256, cols: 256, device: ReRAM }")
            .unwrap();
        let x = h.component("x").unwrap();
        assert_eq!(x.attributes().int("rows"), Some(256));
        assert_eq!(x.attributes().str("device"), Some("ReRAM"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("!Component\nname: a\n!Widget\nname: b").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 3, .. }), "{err:?}");

        let err = parse("name: orphan").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 1, .. }), "{err:?}");

        let err = parse("!Component\ntemporal_reuse: [Inputs]").unwrap_err();
        assert!(matches!(err, SpecError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn conflicting_directives_rejected() {
        let err = parse("!Component\nname: a\ntemporal_reuse: [Inputs]\nno_coalesce: [Inputs]")
            .unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 4, .. }), "{err:?}");
    }

    #[test]
    fn repeated_keys_in_a_node_are_errors() {
        // Regression: a repeated directive line used to be merged, and a
        // top-level attribute could silently override `attributes: {…}`.
        for (text, line) in [
            (
                "!Component\nname: a\nno_coalesce: [Inputs]\nno_coalesce: [Inputs]",
                4,
            ),
            ("!Component\nname: a\nattributes: { bits: 2 }\nbits: 4", 4),
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                matches!(err, SpecError::Parse { line: l, .. } if l == line),
                "{err:?}"
            );
        }
    }

    #[test]
    fn bad_tensor_name_rejected() {
        let err = parse("!Component\nname: a\ntemporal_reuse: [Psums]").unwrap_err();
        assert!(matches!(err, SpecError::Parse { .. }));
    }

    #[test]
    fn bad_spatial_rejected() {
        let err = parse("!Component\nname: a\nspatial: { meshZ: 2 }").unwrap_err();
        assert!(matches!(err, SpecError::Parse { .. }));
        let err = parse("!Component\nname: a\nspatial: { meshX: two }").unwrap_err();
        assert!(matches!(err, SpecError::Parse { .. }));
    }

    #[test]
    fn round_trip_through_writer() {
        let h = parse(FIG5B).unwrap();
        let text = write(&h);
        let h2 = parse(&text).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(matches!(parse(""), Err(SpecError::Empty)));
        assert!(matches!(parse("# only comments\n"), Err(SpecError::Empty)));
    }
}
