//! Component trees decode by one rule set whatever format carries them:
//! yamlite text, a scenario's inline tree, JSON `{tag, entries}` node
//! sections, and the older JSON node shape (`{node: …, attributes: {…}}`).

use cimloop_spec::{Hierarchy, ScenarioDoc, SpecError};

/// A scenario whose architecture is one inline tree of `body` nodes.
fn yamlite_doc(body: &str) -> Result<ScenarioDoc, SpecError> {
    ScenarioDoc::parse(&format!("!Scenario\nname: t\n!Architecture\n{body}"))
}

/// The same scenario in JSON, the tree given as raw JSON node values.
fn json_doc(nodes: &str) -> Result<ScenarioDoc, SpecError> {
    ScenarioDoc::from_json(&format!(
        r#"{{"scenario": {{"name": "t"}}, "architectures": [{{"settings": {{}}, "hierarchy": [{nodes}]}}]}}"#
    ))
}

fn parse_error(result: Result<ScenarioDoc, SpecError>) -> (usize, String) {
    match result {
        Err(SpecError::Parse { line, message }) => (line, message),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn invalid_trees_fail_alike_in_every_format() {
    // Regressions: JSON let the later of two reuse lists win (failing
    // only at macro import, with no line), and yamlite dropped `class:`
    // on a !Container. Reuse lists on a !Container fail too.
    for (text, line, section, legacy) in [
        (
            "!Component\nname: cell\ntemporal_reuse: [Inputs]\nno_coalesce: [Inputs]\n",
            7,
            r#"{"tag": "Component", "entries": {"name": "cell", "temporal_reuse": ["Inputs"], "no_coalesce": ["Inputs"]}}"#,
            r#"{"node": "Component", "name": "cell", "temporal_reuse": ["Inputs"], "no_coalesce": ["Inputs"]}"#,
        ),
        (
            "!Container\nname: macro\nclass: adder\n!Component\nname: cell\n",
            6,
            r#"{"tag": "Container", "entries": {"name": "macro", "class": "adder"}}, {"tag": "Component", "entries": {"name": "cell"}}"#,
            r#"{"node": "Container", "name": "macro", "class": "adder"}, {"node": "Component", "name": "cell"}"#,
        ),
        (
            "!Container\nname: macro\nbypass: [Weights]\n!Component\nname: cell\n",
            6,
            r#"{"tag": "Container", "entries": {"name": "macro", "bypass": ["Weights"]}}, {"tag": "Component", "entries": {"name": "cell"}}"#,
            r#"{"node": "Container", "name": "macro", "bypass": ["Weights"]}, {"node": "Component", "name": "cell"}"#,
        ),
    ] {
        let (at, message) = parse_error(yamlite_doc(text));
        assert_eq!(at, line, "{message}");
        assert_eq!(parse_error(json_doc(section)).1, message);
        assert_eq!(parse_error(json_doc(legacy)).1, message);
    }
}

#[test]
fn bypass_and_top_level_attributes_decode_from_every_format() {
    let expected = Hierarchy::from_yamlite(
        "!Component\nname: adc\nbypass: [Inputs]\nno_coalesce: [Outputs]\nresolution: 8\n",
    )
    .unwrap();
    assert_eq!(
        expected
            .component("adc")
            .unwrap()
            .attributes()
            .int("resolution"),
        Some(8)
    );
    for nodes in [
        r#"{"tag": "Component", "entries": {"name": "adc", "bypass": ["Inputs"], "no_coalesce": ["Outputs"], "resolution": 8}}"#,
        r#"{"node": "Component", "name": "adc", "bypass": ["Inputs"], "no_coalesce": ["Outputs"], "resolution": 8}"#,
        r#"{"node": "Component", "name": "adc", "no_coalesce": ["Outputs"], "attributes": {"resolution": 8}}"#,
    ] {
        let doc = json_doc(nodes).unwrap_or_else(|e| panic!("{nodes}: {e}"));
        assert_eq!(
            doc.architecture().unwrap().hierarchy.as_ref(),
            Some(&expected)
        );
    }
}

#[test]
fn the_older_json_node_shape_decodes_to_the_same_document() {
    // `data/custom_macro_node_shape.json` is `cimloop convert
    // examples/specs/custom_macro.yaml --to json` as written before JSON
    // tree nodes became `{tag, entries}` sections.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let read = |path: &str| std::fs::read_to_string(format!("{root}/{path}")).unwrap();
    let legacy =
        ScenarioDoc::from_json(&read("crates/spec/tests/data/custom_macro_node_shape.json"))
            .unwrap();
    let doc = ScenarioDoc::parse(&read("examples/specs/custom_macro.yaml")).unwrap();
    assert_eq!(legacy.write(), doc.write());
    assert_eq!(
        legacy.architecture().unwrap().hierarchy,
        doc.architecture().unwrap().hierarchy
    );
    // Re-emitted JSON uses the section shape and round-trips.
    let json = legacy.to_json();
    assert!(json.contains("\"tag\": \"Container\"") && !json.contains("\"node\""));
    assert_eq!(ScenarioDoc::from_json(&json).unwrap().write(), doc.write());
}
