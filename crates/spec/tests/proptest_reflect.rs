//! Property tests of the reflected spec data model: arbitrary scenario
//! documents survive the canonical yamlite writer byte-identically, the
//! JSON interchange codec is lossless in both directions, and the
//! structural differ pinpoints exactly the field that changed.

use cimloop_spec::{diff, ScenarioDoc, Value};
use proptest::prelude::*;

/// Identifier pool for keys and string-valued scalars. Deliberately free
/// of `true`/`false` (those are generated as boolean tokens) and of the
/// sentinel token the differ test plants.
const WORDS: [&str; 12] = [
    "alpha", "beta", "gamma", "delta", "rows", "cols", "vit", "snr", "macro_a", "wl", "x0", "k7",
];

/// Section-entry key pool (distinct from WORDS so a string scalar never
/// shadows a key, keeping generated documents easy to read in failures).
const KEYS: [&str; 10] = [
    "sparsity", "sigma", "bits", "count", "label", "mode", "scale", "period", "depth", "rate",
];

fn word(pool: &'static [&'static str]) -> BoxedStrategy<String> {
    (0..pool.len())
        .prop_map(move |i| pool[i].to_owned())
        .boxed()
}

/// A canonical scalar token: one the yamlite writer emits verbatim and
/// the parser reproduces exactly. Covers every kind the spec format
/// carries — integers, decimal floats, scientific notation, negatives,
/// booleans, and letter-leading strings.
fn arb_token() -> BoxedStrategy<String> {
    prop_oneof![
        (0u64..100_000).prop_map(|i| i.to_string()),
        (0u32..2000).prop_map(|i| format!("{i}.5")),
        Just("1e-9".to_owned()),
        Just("-0.5".to_owned()),
        Just("2.5e3".to_owned()),
        Just("true".to_owned()),
        Just("false".to_owned()),
        word(&WORDS),
    ]
    .boxed()
}

#[derive(Debug, Clone)]
enum EntryShape {
    Scalar(String),
    List(Vec<String>),
    Map(Vec<(String, String)>),
}

/// One section entry: `key: scalar`, `key: [list]`, or `key: { map }`.
fn arb_entry() -> BoxedStrategy<(String, EntryShape)> {
    let shape = prop_oneof![
        arb_token().prop_map(EntryShape::Scalar),
        arb_token().prop_map(EntryShape::Scalar),
        arb_token().prop_map(EntryShape::Scalar),
        prop::collection::vec(arb_token(), 1..4).prop_map(EntryShape::List),
        prop::collection::vec((word(&WORDS), arb_token()), 1..3)
            .prop_map(|pairs| EntryShape::Map(dedup_keys(pairs))),
    ];
    (word(&KEYS), shape).boxed()
}

fn dedup_keys<V>(pairs: Vec<(String, V)>) -> Vec<(String, V)> {
    let mut seen = std::collections::BTreeSet::new();
    pairs
        .into_iter()
        .filter(|(k, _)| seen.insert(k.clone()))
        .collect()
}

fn entry_text(key: &str, shape: &EntryShape) -> String {
    match shape {
        EntryShape::Scalar(token) => format!("{key}: {token}\n"),
        EntryShape::List(items) => format!("{key}: [{}]\n", items.join(", ")),
        EntryShape::Map(pairs) => {
            let body: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}: {v}")).collect();
            format!("{key}: {{ {} }}\n", body.join(", "))
        }
    }
}

/// An arbitrary scenario document *text*: a `!Scenario` header plus a few
/// plain sections with arbitrary entries. Not necessarily canonical —
/// the properties parse it and compare canonical forms.
fn arb_document() -> BoxedStrategy<String> {
    let section = (
        prop_oneof![
            Just("Noise"),
            Just("Sweep"),
            Just("Workload"),
            Just("Extra")
        ],
        prop::collection::vec(arb_entry(), 1..5).prop_map(dedup_keys),
    );
    (
        prop::collection::vec(arb_entry(), 0..4).prop_map(dedup_keys),
        prop::collection::vec(section, 0..3),
    )
        .prop_map(|(scenario_entries, sections)| {
            let mut text = String::from("!Scenario\nname: prop\n");
            for (key, shape) in &scenario_entries {
                text.push_str(&entry_text(key, shape));
            }
            let mut used = std::collections::BTreeSet::new();
            for (tag, entries) in &sections {
                if !used.insert(*tag) {
                    continue; // duplicate plain tags would merge on lookup
                }
                text.push_str(&format!("!{tag}\n"));
                for (key, shape) in entries {
                    text.push_str(&entry_text(key, shape));
                }
            }
            text
        })
        .boxed()
}

/// Every scalar leaf path of a reflected value, in the differ's own
/// path syntax (maps join with `.`, root keys bare, lists index `[i]`).
fn scalar_paths(path: &str, value: &Value, out: &mut Vec<String>) {
    match value {
        Value::Scalar(_) => out.push(path.to_owned()),
        Value::List(items) => {
            for (i, item) in items.iter().enumerate() {
                scalar_paths(&format!("{path}[{i}]"), item, out);
            }
        }
        Value::Map(entries) => {
            for (key, item) in entries {
                let key_path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                scalar_paths(&key_path, item, out);
            }
        }
    }
}

/// Replaces the scalar at leaf index `target` (in traversal order) with
/// a sentinel token no generator produces, returning the mutated value.
fn mutate_scalar(value: &Value, target: usize, counter: &mut usize) -> Value {
    match value {
        Value::Scalar(_) => {
            let index = *counter;
            *counter += 1;
            if index == target {
                Value::scalar("999999999")
            } else {
                value.clone()
            }
        }
        Value::List(items) => Value::List(
            items
                .iter()
                .map(|item| mutate_scalar(item, target, counter))
                .collect(),
        ),
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .map(|(k, item)| (k.clone(), mutate_scalar(item, target, counter)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn canonical_write_is_a_byte_fixpoint(text in arb_document()) {
        let doc = ScenarioDoc::parse(&text).expect("generated document parses");
        let canonical = doc.write();
        let reparsed = ScenarioDoc::parse(&canonical).expect("canonical form parses");
        prop_assert_eq!(reparsed.write(), canonical, "write must be a fixpoint under parse");
    }

    #[test]
    fn yamlite_json_yamlite_is_byte_identical(text in arb_document()) {
        let doc = ScenarioDoc::parse(&text).expect("generated document parses");
        let canonical = doc.write();
        let json = doc.to_json();
        let back = ScenarioDoc::from_json(&json).expect("emitted JSON parses");
        prop_assert_eq!(back.write(), canonical, "yamlite -> JSON -> yamlite must be lossless");
    }

    #[test]
    fn json_yamlite_json_is_byte_identical(text in arb_document()) {
        let doc = ScenarioDoc::parse(&text).expect("generated document parses");
        let json = doc.to_json();
        let through_yamlite =
            ScenarioDoc::parse(&ScenarioDoc::from_json(&json).expect("JSON parses").write())
                .expect("canonical form parses");
        prop_assert_eq!(through_yamlite.to_json(), json, "JSON -> yamlite -> JSON must be lossless");
    }

    #[test]
    fn differ_reports_exactly_the_mutated_field(
        text in arb_document(),
        pick in any::<usize>(),
    ) {
        let doc = ScenarioDoc::parse(&text).expect("generated document parses");
        let value = doc.to_value();
        let mut paths = Vec::new();
        scalar_paths("", &value, &mut paths);
        // Every document has at least the scenario name scalar.
        prop_assert!(!paths.is_empty());
        let target = pick % paths.len();
        let mutated = mutate_scalar(&value, target, &mut 0);
        let entries = diff(&value, &mutated);
        prop_assert_eq!(entries.len(), 1, "exactly one field changed: {:?}", entries);
        prop_assert_eq!(&entries[0].path, &paths[target]);
        prop_assert_eq!(entries[0].right.as_deref(), Some("999999999"));
    }
}
