//! Property tests: arbitrary hierarchies round-trip through the yamlite
//! text format, and level flattening preserves structure.

use cimloop_spec::{yamlite, Component, Container, Hierarchy, Node, Reuse, Spatial, Tensor};
use proptest::prelude::*;

fn arb_reuse() -> impl Strategy<Value = Reuse> {
    prop_oneof![
        Just(Reuse::Temporal),
        Just(Reuse::Coalesce),
        Just(Reuse::NoCoalesce),
        Just(Reuse::Bypass),
    ]
}

/// The noise-spec attribute names the circuit library understands; the
/// round-trip suite exercises them explicitly so the accuracy model's
/// parameters provably survive spec serialization.
const NOISE_ATTRS: [&str; 3] = [
    "noise_variation_sigma",
    "noise_read_sigma",
    "noise_offset_sigma",
];

/// A float attribute value that round-trips through the text format
/// exactly: non-integral (so it re-parses as a float, not an int) and
/// shortest-repr printable.
fn arb_float_attr() -> impl Strategy<Value = f64> {
    (0u32..2000).prop_map(|i| f64::from(i) + 0.5)
}

fn arb_component(idx: usize) -> impl Strategy<Value = Component> {
    (
        arb_reuse(),
        arb_reuse(),
        arb_reuse(),
        1u64..8,
        1u64..8,
        prop::collection::vec(0usize..3, 0..3),
        0i64..1000,
        // Optional extra attributes of every scalar kind the format
        // carries: a noise-spec float, a boolean, and a string (leading
        // letter, so it can never re-parse as a number or bool).
        (any::<bool>(), 0usize..NOISE_ATTRS.len(), arb_float_attr()),
        (any::<bool>(), any::<bool>()),
        (any::<bool>(), 0u32..1000),
    )
        .prop_map(
            move |(ri, rw, ro, mx, my, spatial_reuse, attr, noise, flag, tag)| {
                let mut c = Component::new(format!("comp_{idx}"))
                    .with_class("free")
                    .with_reuse(Tensor::Inputs, ri)
                    .with_reuse(Tensor::Weights, rw)
                    .with_reuse(Tensor::Outputs, ro)
                    .with_spatial(Spatial::new(mx, my))
                    .with_attr("param", attr);
                if let (true, which, sigma) = noise {
                    c = c.with_attr(NOISE_ATTRS[which], sigma);
                }
                if let (true, value) = flag {
                    c = c.with_attr("slice_storage", value);
                }
                if let (true, i) = tag {
                    c = c.with_attr("device", format!("dev_{i}"));
                }
                for t in spatial_reuse {
                    c = c.with_spatial_reuse(Tensor::ALL[t]);
                }
                c
            },
        )
}

fn arb_hierarchy() -> impl Strategy<Value = Hierarchy> {
    prop::collection::vec((any::<bool>(), 1u64..6), 0..7).prop_flat_map(|kinds| {
        let mut comps: Vec<_> = kinds
            .iter()
            .enumerate()
            .map(|(i, &(is_container, mesh))| {
                if is_container {
                    Just(Node::Container(
                        Container::new(format!("cont_{i}")).with_spatial(Spatial::new(mesh, 1)),
                    ))
                    .boxed()
                } else {
                    arb_component(i).prop_map(Node::Component).boxed()
                }
            })
            .collect();
        // Guarantee at least one component (hierarchies of only containers
        // are rejected by validation).
        comps.push(arb_component(999).prop_map(Node::Component).boxed());
        comps.prop_map(|nodes| Hierarchy::from_nodes(nodes).expect("unique names, >=1 component"))
    })
}

#[test]
fn zero_mesh_is_a_parse_error_with_line_number() {
    // Regression: the parser used to accept `meshX: 0` (its own error
    // message notwithstanding) and defer to hierarchy validation, losing
    // the line number on the way.
    for spec in [
        "!Component\nname: a\nspatial: { meshX: 0 }",
        "!Component\nname: a\nspatial: { meshY: 0 }",
        "!Container\nname: a\nspatial: { meshX: 0, meshY: 2 }",
    ] {
        let err = cimloop_spec::Hierarchy::from_yamlite(spec).unwrap_err();
        assert!(
            matches!(err, cimloop_spec::SpecError::Parse { line: 3, .. }),
            "{spec:?} -> {err:?}"
        );
    }
}

#[test]
fn duplicate_name_and_class_keys_are_parse_errors() {
    // Regression: a second `name:`/`class:` used to silently win.
    let err = yamlite::parse("!Component\nname: a\nname: b").unwrap_err();
    assert!(
        matches!(err, cimloop_spec::SpecError::Parse { line: 3, .. }),
        "{err:?}"
    );
    let err = yamlite::parse("!Component\nname: a\nclass: x\nclass: y").unwrap_err();
    assert!(
        matches!(err, cimloop_spec::SpecError::Parse { line: 4, .. }),
        "{err:?}"
    );
    // One of each is still fine.
    assert!(yamlite::parse("!Component\nname: a\nclass: x").is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn parsed_hierarchies_never_contain_zero_fanout(h in arb_hierarchy()) {
        // Every node that survives parse/validation has fanout >= 1, so
        // downstream instance math can never multiply by zero.
        let parsed = Hierarchy::from_yamlite(&yamlite::write(&h)).expect("written spec parses");
        for node in parsed.nodes() {
            prop_assert!(node.spatial().fanout() >= 1);
        }
    }

    #[test]
    fn yamlite_round_trips(h in arb_hierarchy()) {
        let text = yamlite::write(&h);
        let parsed = Hierarchy::from_yamlite(&text).expect("written spec parses");
        prop_assert_eq!(&h, &parsed);
    }

    #[test]
    fn parse_serialize_parse_is_a_fixpoint(h in arb_hierarchy()) {
        // parse -> serialize -> parse equals the original parse: after one
        // round the serialized text is a fixpoint of the loop, so noise
        // attrs (and everything else) can be stored in specs losslessly.
        let first = Hierarchy::from_yamlite(&yamlite::write(&h)).expect("first parse");
        let text = yamlite::write(&first);
        let second = Hierarchy::from_yamlite(&text).expect("second parse");
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(yamlite::write(&second), text);
    }

    #[test]
    fn levels_cover_all_nodes_in_order(h in arb_hierarchy()) {
        let levels = h.levels();
        prop_assert_eq!(levels.len(), h.len());
        for (i, level) in levels.iter().enumerate() {
            prop_assert_eq!(level.index(), i);
            prop_assert_eq!(level.name(), h.nodes()[i].name());
        }
    }

    #[test]
    fn outer_fanout_is_monotone_product(h in arb_hierarchy()) {
        let levels = h.levels();
        let mut expected = 1u64;
        for level in &levels {
            prop_assert_eq!(level.outer_fanout(), expected);
            expected = expected.saturating_mul(level.node().spatial().fanout());
        }
        prop_assert_eq!(expected, h.total_fanout());
    }

    #[test]
    fn noise_attributes_round_trip_with_exact_bits(
        sigma in arb_float_attr(),
        which in 0usize..NOISE_ATTRS.len(),
    ) {
        let text = format!(
            "!Component\nname: adc\nclass: sar_adc\nresolution: 8\n\
             no_coalesce: [Outputs]\n{}: {sigma}\n",
            NOISE_ATTRS[which]
        );
        let parsed = Hierarchy::from_yamlite(&text).expect("noise spec parses");
        let reparsed =
            Hierarchy::from_yamlite(&yamlite::write(&parsed)).expect("serialized spec parses");
        prop_assert_eq!(&parsed, &reparsed);
        prop_assert_eq!(
            reparsed
                .component("adc")
                .unwrap()
                .attributes()
                .float(NOISE_ATTRS[which]),
            Some(sigma)
        );
    }

    #[test]
    fn scenario_embeds_arbitrary_component_trees(h in arb_hierarchy()) {
        // Any valid yamlite tree can ride inline inside a scenario's
        // !Architecture section and parse back identically, from the
        // text and through JSON.
        let doc = format!(
            "!Scenario\nname: prop\nexperiment: evaluate\n!Architecture\n{}",
            yamlite::write(&h)
        );
        let parsed = cimloop_spec::ScenarioDoc::parse(&doc).expect("scenario parses");
        let arch = parsed.architecture().expect("architecture present");
        prop_assert_eq!(arch.hierarchy.as_ref().expect("inline tree"), &h);
        let json = cimloop_spec::ScenarioDoc::from_json(&parsed.to_json()).expect("JSON parses");
        prop_assert_eq!(json.architecture().expect("architecture").hierarchy.as_ref(), Some(&h));
        prop_assert_eq!(json.write(), parsed.write());
    }

    #[test]
    fn nesting_preserves_both_parts(a in arb_hierarchy(), b in arb_hierarchy()) {
        // Rename b's nodes to avoid collisions, then nest.
        let renamed: Vec<Node> = b
            .nodes()
            .iter()
            .map(|n| match n {
                Node::Component(c) => {
                    let mut c2 = Component::new(format!("inner_{}", c.name())).with_class(c.class());
                    for t in Tensor::ALL {
                        c2 = c2.with_reuse(t, c.reuse(t));
                    }
                    Node::Component(c2.with_spatial(c.spatial()))
                }
                Node::Container(c) => Node::Container(
                    Container::new(format!("inner_{}", c.name())).with_spatial(c.spatial()),
                ),
            })
            .collect();
        let b2 = Hierarchy::from_nodes(renamed).expect("renamed nodes are valid");
        let nested = a.nest(&b2).expect("no collisions after rename");
        prop_assert_eq!(nested.len(), a.len() + b2.len());
        prop_assert_eq!(nested.nodes()[0].name(), a.nodes()[0].name());
    }
}
