//! Experiment-document extension of the yamlite dialect.
//!
//! A *scenario* is a full experiment description: architecture (a macro
//! preset with overrides, or an inline component tree), workload selection
//! (zoo model or custom layer shapes), non-ideality spec, design-space
//! axes, and run configuration, as a document of tagged sections:
//!
//! ```text
//! !Scenario                 # run configuration (required, first)
//! name: my_experiment
//! experiment: evaluate
//! !Architecture             # macro preset + overrides …
//! macro: base
//! rows: 256
//! !Component                # … or an inline yamlite component tree
//! name: buffer
//! temporal_reuse: [Inputs, Outputs]
//! !Workload
//! model: resnet18
//! !Noise
//! cell_variation: 0.1
//! ```
//!
//! One tokenizer splits every `!Tag` block into a line-numbered
//! [`Section`] in a single pass, component-tree nodes included: a run of
//! `!Component`/`!Container` sections is the inline tree of the
//! `!Architecture` before it, and [`crate::yamlite`]'s node codec turns
//! each of them into a [`crate::Node`] (and back). In JSON a tree node is
//! the same `{tag, entries}` section as every other section.
//!
//! The section *structure* is parsed here; the domain crates interpret
//! their own sections (`cimloop-workload` parses `!Workload`/`!Layer`,
//! `cimloop-noise` parses `!Noise`, `cimloop-dse` parses `!Space`, and
//! `cimloop-macros` resolves `!Architecture`). This keeps the dependency
//! graph acyclic: the spec crate knows sections and scalars, not DNNs or
//! Pareto grids.
//!
//! Scalar values keep their **raw source token** alongside the parsed
//! [`AttrValue`], so presentation layers can echo exactly what the author
//! wrote (`0.10` stays `0.10`, not `0.1`).

use crate::json;
use crate::reflect::Value;
use crate::yamlite::{self, NODE_TAGS};
use crate::{AttrValue, Hierarchy, SpecError};

/// A scalar with both its parsed value and its raw source token.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarValue {
    /// The parsed value (int/float/bool/string).
    pub value: AttrValue,
    /// The raw token as written in the document (for faithful display).
    pub raw: String,
}

impl ScalarValue {
    /// Parses a raw token with the yamlite scalar rules (int, then
    /// float, then `true`/`false`, else string), keeping the raw text.
    pub fn parse(token: &str) -> Self {
        ScalarValue {
            value: yamlite::parse_scalar(token),
            raw: token.to_owned(),
        }
    }

    /// The scalar as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        self.value.as_float()
    }

    /// The scalar as an integer, if integral.
    pub fn as_i64(&self) -> Option<i64> {
        self.value.as_int()
    }
}

/// A parsed entry value: scalar, `[list]`, or `{ map }`.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecValue {
    /// A single scalar.
    Scalar(ScalarValue),
    /// A `[a, b, c]` list of scalars.
    List(Vec<ScalarValue>),
    /// A `{ k: v, … }` inline map.
    Map(Vec<(String, ScalarValue)>),
}

/// One `key: value` entry of a section, with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The entry key.
    pub key: String,
    /// The parsed value.
    pub value: SpecValue,
    /// 1-based source line.
    pub line: usize,
}

/// One tagged section of a scenario document (`!Scenario`, `!Workload`,
/// …), holding its `key: value` entries in document order.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    tag: String,
    line: usize,
    entries: Vec<Entry>,
}

impl Section {
    pub(crate) fn new(tag: &str, line: usize, entries: Vec<Entry>) -> Self {
        Section {
            tag: tag.to_owned(),
            line,
            entries,
        }
    }

    /// The section's tag (without the `!`).
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// 1-based line the section opened on.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The entries in document order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Looks up an entry by key.
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// Whether the section has an entry with this key.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn parse_err(&self, line: usize, message: String) -> SpecError {
        SpecError::Parse { line, message }
    }

    fn scalar(&self, key: &str) -> Option<(&ScalarValue, usize)> {
        match self.get(key) {
            Some(Entry {
                value: SpecValue::Scalar(s),
                line,
                ..
            }) => Some((s, *line)),
            _ => None,
        }
    }

    /// String value of `key` (any scalar's raw token qualifies).
    pub fn str(&self, key: &str) -> Option<&str> {
        self.scalar(key).map(|(s, _)| s.raw.as_str())
    }

    /// String value of `key`, or `default` when absent.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.str(key).unwrap_or(default)
    }

    /// Required string value of `key`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] naming the section when absent.
    pub fn require_str(&self, key: &str) -> Result<&str, SpecError> {
        self.str(key).ok_or_else(|| {
            self.parse_err(
                self.line,
                format!("section !{} is missing required key `{key}`", self.tag),
            )
        })
    }

    /// Float value of `key` (ints convert).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] if present but not numeric.
    pub fn f64(&self, key: &str) -> Result<Option<f64>, SpecError> {
        match self.scalar(key) {
            None => Ok(None),
            Some((s, line)) => s.as_f64().map(Some).ok_or_else(|| {
                self.parse_err(line, format!("`{key}` must be a number, found `{}`", s.raw))
            }),
        }
    }

    /// Unsigned integer value of `key`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] if present but not a non-negative
    /// integer.
    pub fn u64(&self, key: &str) -> Result<Option<u64>, SpecError> {
        match self.scalar(key) {
            None => Ok(None),
            // Full `u64` range: checkpoint files store space fingerprints
            // and IEEE-754 bit patterns, which routinely exceed
            // `i64::MAX` (the sign bit of any negative float does).
            Some((s, line)) => match s.as_i64().filter(|v| *v >= 0) {
                Some(v) => Ok(Some(v as u64)),
                None => s.raw.trim().parse::<u64>().map(Some).map_err(|_| {
                    self.parse_err(
                        line,
                        format!("`{key}` must be a non-negative integer, found `{}`", s.raw),
                    )
                }),
            },
        }
    }

    /// `u64` with a default.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::u64`].
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, SpecError> {
        Ok(self.u64(key)?.unwrap_or(default))
    }

    /// `u32` value of `key`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] if present but out of `u32` range.
    pub fn u32(&self, key: &str) -> Result<Option<u32>, SpecError> {
        let line = self.get(key).map(|e| e.line).unwrap_or(self.line);
        match self.u64(key)? {
            None => Ok(None),
            Some(v) => u32::try_from(v)
                .map(Some)
                .map_err(|_| self.parse_err(line, format!("`{key}` is out of range: {v}"))),
        }
    }

    /// Boolean value of `key`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] if present but not `true`/`false`.
    pub fn bool(&self, key: &str) -> Result<Option<bool>, SpecError> {
        match self.scalar(key) {
            None => Ok(None),
            Some((s, line)) => s.value.as_bool().map(Some).ok_or_else(|| {
                self.parse_err(
                    line,
                    format!("`{key}` must be true or false, found `{}`", s.raw),
                )
            }),
        }
    }

    /// `bool` with a default.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::bool`].
    pub fn bool_or(&self, key: &str, default: bool) -> Result<bool, SpecError> {
        Ok(self.bool(key)?.unwrap_or(default))
    }

    /// The scalar list under `key`, if present.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] if the entry is not a `[list]`.
    pub fn list(&self, key: &str) -> Result<Option<&[ScalarValue]>, SpecError> {
        match self.get(key) {
            None => Ok(None),
            Some(Entry {
                value: SpecValue::List(items),
                ..
            }) => Ok(Some(items)),
            Some(e) => Err(self.parse_err(e.line, format!("`{key}` must be a `[list]`"))),
        }
    }

    /// The list under `key` as `u64`s.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] on non-integer items.
    pub fn u64_list(&self, key: &str) -> Result<Option<Vec<u64>>, SpecError> {
        let Some(items) = self.list(key)? else {
            return Ok(None);
        };
        let line = self.get(key).map(|e| e.line).unwrap_or(self.line);
        items
            .iter()
            .map(|s| match s.as_i64().filter(|v| *v >= 0) {
                Some(v) => Ok(v as u64),
                // Same full-`u64`-range rule as [`Self::u64`].
                None => s.raw.trim().parse::<u64>().map_err(|_| {
                    self.parse_err(
                        line,
                        format!(
                            "`{key}` entries must be non-negative integers, found `{}`",
                            s.raw
                        ),
                    )
                }),
            })
            .collect::<Result<Vec<u64>, _>>()
            .map(Some)
    }

    /// The list under `key` as `u32`s.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] on non-integer or out-of-range items.
    pub fn u32_list(&self, key: &str) -> Result<Option<Vec<u32>>, SpecError> {
        let line = self.get(key).map(|e| e.line).unwrap_or(self.line);
        match self.u64_list(key)? {
            None => Ok(None),
            Some(v) => v
                .into_iter()
                .map(|n| {
                    u32::try_from(n).map_err(|_| {
                        self.parse_err(line, format!("`{key}` entry is out of range: {n}"))
                    })
                })
                .collect::<Result<Vec<u32>, _>>()
                .map(Some),
        }
    }

    /// The list under `key` as floats.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] on non-numeric items.
    pub fn f64_list(&self, key: &str) -> Result<Option<Vec<f64>>, SpecError> {
        let Some(items) = self.list(key)? else {
            return Ok(None);
        };
        let line = self.get(key).map(|e| e.line).unwrap_or(self.line);
        items
            .iter()
            .map(|s| {
                s.as_f64().ok_or_else(|| {
                    self.parse_err(
                        line,
                        format!("`{key}` entries must be numbers, found `{}`", s.raw),
                    )
                })
            })
            .collect::<Result<Vec<f64>, _>>()
            .map(Some)
    }

    /// The list under `key` as raw string tokens.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] if the entry is not a list.
    pub fn str_list(&self, key: &str) -> Result<Option<Vec<String>>, SpecError> {
        Ok(self
            .list(key)?
            .map(|items| items.iter().map(|s| s.raw.clone()).collect()))
    }

    /// The section's entries as a reflected ordered map (raw tokens
    /// preserved; source lines are not part of the reflected value).
    pub fn value(&self) -> Value {
        Value::Map(
            self.entries
                .iter()
                .map(|e| (e.key.clone(), spec_value_to_value(&e.value)))
                .collect(),
        )
    }

    /// Rebuilds a section from a reflected map. Entries carry line 0
    /// (reflected documents have no source lines).
    fn from_value(tag: &str, value: &Value) -> Result<Section, SpecError> {
        let Value::Map(pairs) = value else {
            return Err(err0(format!("section !{tag} must be a map of entries")));
        };
        let mut entries = Vec::new();
        for (key, v) in pairs {
            entries.push(Entry {
                key: key.clone(),
                value: value_to_spec_value(key, v)?,
                line: 0,
            });
        }
        Ok(Section::new(tag, 0, entries))
    }

    /// The section as a reflected `{tag, entries}` map.
    fn tagged_value(&self) -> Value {
        let mut m = Value::map();
        m.insert("tag", Value::scalar(&self.tag));
        m.insert("entries", self.value());
        m
    }

    /// Rebuilds a section from a reflected `{tag, entries}` map.
    fn from_tagged_value(item: &Value) -> Result<Section, SpecError> {
        let tag = item
            .get("tag")
            .and_then(Value::raw)
            .ok_or_else(|| err0("section is missing a scalar `tag`"))?;
        let entries = item
            .get("entries")
            .ok_or_else(|| err0(format!("section !{tag} is missing `entries`")))?;
        Section::from_value(tag, entries)
    }
}

/// Splits yamlite text into its `!Tag` sections in one pass over the
/// lines. Every `key: value` line joins the section opened most recently;
/// blank lines and `#` comments are skipped.
///
/// # Errors
///
/// Returns [`SpecError::Parse`] at the offending line for a line that is
/// not `key: value`, an entry before any tag, a key repeated within one
/// section, or a malformed `[list]`/`{ map }`.
pub(crate) fn tokenize(text: &str) -> Result<Vec<Section>, SpecError> {
    let mut sections: Vec<Section> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = yamlite::strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(tag) = line.strip_prefix('!') {
            sections.push(Section::new(tag.trim(), line_no, Vec::new()));
            continue;
        }
        let (key, value) = yamlite::split_key_value(line, line_no)?;
        let Some(section) = sections.last_mut() else {
            return Err(SpecError::Parse {
                line: line_no,
                message: format!("`{key}` appears before any !Section tag"),
            });
        };
        if section.contains(key) {
            return Err(SpecError::Parse {
                line: line_no,
                message: format!("duplicate key `{key}` in section !{}", section.tag),
            });
        }
        let value = parse_value(value, line_no)?;
        section.entries.push(Entry {
            key: key.to_owned(),
            value,
            line: line_no,
        });
    }
    Ok(sections)
}

fn err0(message: impl Into<String>) -> SpecError {
    // Structural (non-textual) document errors have no source line;
    // line 0 marks "the document as a whole".
    SpecError::Parse {
        line: 0,
        message: message.into(),
    }
}

fn spec_value_to_value(value: &SpecValue) -> Value {
    match value {
        SpecValue::Scalar(s) => Value::Scalar(s.clone()),
        SpecValue::List(items) => {
            Value::List(items.iter().map(|s| Value::Scalar(s.clone())).collect())
        }
        SpecValue::Map(pairs) => Value::Map(
            pairs
                .iter()
                .map(|(k, s)| (k.clone(), Value::Scalar(s.clone())))
                .collect(),
        ),
    }
}

fn value_to_spec_value(key: &str, value: &Value) -> Result<SpecValue, SpecError> {
    match value {
        Value::Scalar(s) => Ok(SpecValue::Scalar(s.clone())),
        Value::List(items) => Ok(SpecValue::List(
            items
                .iter()
                .map(|item| match item {
                    Value::Scalar(s) => Ok(s.clone()),
                    _ => Err(err0(format!("`{key}` entries must be scalars"))),
                })
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Value::Map(pairs) => Ok(SpecValue::Map(
            pairs
                .iter()
                .map(|(k, item)| match item {
                    Value::Scalar(s) => Ok((k.clone(), s.clone())),
                    _ => Err(err0(format!("`{key}.{k}` must be a scalar"))),
                })
                .collect::<Result<Vec<_>, _>>()?,
        )),
    }
}

/// One `!Architecture` section: its key-value settings plus an optional
/// inline component tree (the yamlite nodes that followed it).
#[derive(Debug, Clone, PartialEq)]
pub struct ArchitectureSpec {
    /// The architecture's key-value settings (preset name, overrides).
    pub settings: Section,
    /// The inline component tree, when the section embeds one.
    pub hierarchy: Option<Hierarchy>,
}

/// A parsed scenario document: the `!Scenario` header plus any number of
/// tagged sections, in document order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDoc {
    scenario: Section,
    architectures: Vec<ArchitectureSpec>,
    sections: Vec<Section>,
}

impl ScenarioDoc {
    /// Parses a scenario document.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] with a 1-based line number on
    /// malformed input, on duplicate keys within a section, or when the
    /// required `!Scenario` section is missing; inline component trees
    /// additionally surface the node decoder's errors and
    /// [`Hierarchy::from_nodes`] validation errors.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut sections: Vec<Section> = Vec::new();
        let mut architectures: Vec<ArchitectureSpec> = Vec::new();
        let mut tokens = tokenize(text)?.into_iter().peekable();
        while let Some(section) = tokens.next() {
            if NODE_TAGS.contains(&section.tag()) {
                // A run of node sections is one inline component tree; it
                // attaches to the most recent !Architecture section.
                let Some(owner) = architectures.last_mut() else {
                    return Err(SpecError::Parse {
                        line: section.line,
                        message: format!(
                            "`!{}` component tree must follow an !Architecture section",
                            section.tag
                        ),
                    });
                };
                if owner.hierarchy.is_some() {
                    return Err(SpecError::Parse {
                        line: section.line,
                        message: "architecture already has a component tree".to_owned(),
                    });
                }
                let mut nodes = vec![yamlite::node_from_section(&section)?];
                while let Some(node) = tokens.next_if(|s| NODE_TAGS.contains(&s.tag())) {
                    nodes.push(yamlite::node_from_section(&node)?);
                }
                owner.hierarchy = Some(Hierarchy::from_nodes(nodes)?);
            } else if section.tag == "Architecture" {
                architectures.push(ArchitectureSpec {
                    settings: section,
                    hierarchy: None,
                });
            } else {
                sections.push(section);
            }
        }

        let scenario_idx = sections
            .iter()
            .position(|s| s.tag == "Scenario")
            .ok_or_else(|| SpecError::Parse {
                line: 1,
                message: "document has no !Scenario section".to_owned(),
            })?;
        let scenario = sections.remove(scenario_idx);
        Ok(ScenarioDoc {
            scenario,
            architectures,
            sections,
        })
    }

    /// The `!Scenario` header section.
    pub fn scenario(&self) -> &Section {
        &self.scenario
    }

    /// The scenario's name (the `name:` key of `!Scenario`).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] when the name is missing.
    pub fn name(&self) -> Result<&str, SpecError> {
        self.scenario.require_str("name")
    }

    /// The experiment kind (`experiment:` key; defaults to `evaluate`).
    pub fn experiment(&self) -> &str {
        self.scenario.str_or("experiment", "evaluate")
    }

    /// All `!Architecture` sections, in document order.
    pub fn architectures(&self) -> &[ArchitectureSpec] {
        &self.architectures
    }

    /// The first `!Architecture` section, if any.
    pub fn architecture(&self) -> Option<&ArchitectureSpec> {
        self.architectures.first()
    }

    /// The first section with `tag` (besides `!Scenario`/`!Architecture`).
    pub fn section(&self, tag: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.tag == tag)
    }

    /// All sections with `tag`, in document order.
    pub fn sections(&self, tag: &str) -> impl Iterator<Item = &Section> {
        let tag = tag.to_owned();
        self.sections.iter().filter(move |s| s.tag == tag)
    }

    /// Every plain section (everything but `!Scenario` and
    /// `!Architecture`), in document order.
    pub fn plain_sections(&self) -> &[Section] {
        &self.sections
    }

    /// Serializes the document to canonical yamlite: the `!Scenario`
    /// section first, then each `!Architecture` (with its inline
    /// component tree, if any), then the remaining sections in document
    /// order. Raw scalar tokens are preserved (`0.10` stays `0.10`,
    /// `1e-9` stays `1e-9`); comments and blank lines are not.
    ///
    /// `write` is a fixpoint under [`Self::parse`]:
    /// `write(parse(write(doc))) == write(doc)` byte-for-byte.
    pub fn write(&self) -> String {
        let mut out = String::new();
        write_section(&mut out, &self.scenario);
        for arch in &self.architectures {
            write_section(&mut out, &arch.settings);
            if let Some(h) = &arch.hierarchy {
                out.push_str(&yamlite::write(h));
            }
        }
        for section in &self.sections {
            write_section(&mut out, section);
        }
        out
    }

    /// The document as a reflected value: a map with `scenario`
    /// (entries), `architectures` (list of `settings` + optional
    /// `hierarchy`), and `sections` (list of `tag` + `entries`).
    pub fn to_value(&self) -> Value {
        let mut root = Value::map();
        root.insert("scenario", self.scenario.value());
        root.insert(
            "architectures",
            Value::List(
                self.architectures
                    .iter()
                    .map(|arch| {
                        let mut m = Value::map();
                        m.insert("settings", arch.settings.value());
                        if let Some(h) = &arch.hierarchy {
                            let nodes = h
                                .nodes()
                                .iter()
                                .map(|node| yamlite::node_to_section(node).tagged_value());
                            m.insert("hierarchy", Value::List(nodes.collect()));
                        }
                        m
                    })
                    .collect(),
            ),
        );
        root.insert(
            "sections",
            Value::List(self.sections.iter().map(Section::tagged_value).collect()),
        );
        root
    }

    /// Rebuilds a document from a reflected value (the inverse of
    /// [`Self::to_value`]). Reconstructed sections carry line 0, so
    /// later schema errors cite the document as a whole.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] on structural mismatches (missing
    /// `scenario`, non-map sections, unknown document keys, invalid
    /// hierarchy nodes).
    pub fn from_value(value: &Value) -> Result<Self, SpecError> {
        let Value::Map(pairs) = value else {
            return Err(err0("scenario document must be a map"));
        };
        for (key, _) in pairs {
            if !matches!(key.as_str(), "scenario" | "architectures" | "sections") {
                return Err(err0(format!(
                    "unknown document key `{key}` (expected scenario, architectures, sections)"
                )));
            }
        }
        let scenario = Section::from_value(
            "Scenario",
            value
                .get("scenario")
                .ok_or_else(|| err0("document has no `scenario` key"))?,
        )?;
        let mut architectures = Vec::new();
        if let Some(archs) = value.get("architectures") {
            let items = archs
                .items()
                .ok_or_else(|| err0("`architectures` must be a list"))?;
            for item in items {
                if let Value::Map(pairs) = item {
                    for (key, _) in pairs {
                        if !matches!(key.as_str(), "settings" | "hierarchy") {
                            return Err(err0(format!(
                                "unknown architecture key `{key}` (expected settings, hierarchy)"
                            )));
                        }
                    }
                }
                let settings = Section::from_value(
                    "Architecture",
                    item.get("settings")
                        .ok_or_else(|| err0("architecture is missing `settings`"))?,
                )?;
                let hierarchy = item
                    .get("hierarchy")
                    .map(hierarchy_from_value)
                    .transpose()?;
                architectures.push(ArchitectureSpec {
                    settings,
                    hierarchy,
                });
            }
        }
        let mut sections = Vec::new();
        if let Some(list) = value.get("sections") {
            let items = list
                .items()
                .ok_or_else(|| err0("`sections` must be a list"))?;
            for item in items {
                let section = Section::from_tagged_value(item)?;
                let tag = section.tag();
                if tag == "Scenario" || tag == "Architecture" || NODE_TAGS.contains(&tag) {
                    return Err(err0(format!(
                        "section tag `{tag}` is reserved (use the scenario/architectures keys)"
                    )));
                }
                sections.push(section);
            }
        }
        Ok(ScenarioDoc {
            scenario,
            architectures,
            sections,
        })
    }

    /// Serializes the document as JSON (see [`crate::json`]): the same
    /// reflected value the yamlite writer uses, so
    /// yamlite → JSON → yamlite round-trips byte-identically.
    pub fn to_json(&self) -> String {
        json::to_json(&self.to_value())
    }

    /// Parses a JSON scenario document (the inverse of
    /// [`Self::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] with the JSON source line on
    /// malformed JSON, plus the structural errors of
    /// [`Self::from_value`].
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        Self::from_value(&json::parse(text)?)
    }
}

pub(crate) fn write_section(out: &mut String, section: &Section) {
    out.push('!');
    out.push_str(&section.tag);
    out.push('\n');
    for entry in &section.entries {
        match &entry.value {
            SpecValue::Scalar(s) => {
                if s.raw.is_empty() {
                    out.push_str(&format!("{}:\n", entry.key));
                } else {
                    out.push_str(&format!("{}: {}\n", entry.key, s.raw));
                }
            }
            SpecValue::List(items) => {
                let tokens: Vec<&str> = items.iter().map(|s| s.raw.as_str()).collect();
                out.push_str(&format!("{}: [{}]\n", entry.key, tokens.join(", ")));
            }
            SpecValue::Map(pairs) => {
                if pairs.is_empty() {
                    out.push_str(&format!("{}: {{}}\n", entry.key));
                } else {
                    let tokens: Vec<String> = pairs
                        .iter()
                        .map(|(k, s)| format!("{k}: {}", s.raw))
                        .collect();
                    out.push_str(&format!("{}: {{ {} }}\n", entry.key, tokens.join(", ")));
                }
            }
        }
    }
}

fn hierarchy_from_value(value: &Value) -> Result<Hierarchy, SpecError> {
    let items = value
        .items()
        .ok_or_else(|| err0("`hierarchy` must be a list of nodes"))?;
    let mut nodes = Vec::with_capacity(items.len());
    for item in items {
        let section = match (item, item.get("node").and_then(Value::raw)) {
            // The older node shape, `{node: Component, name: …,
            // attributes: {…}}`, is the node's entries with its tag inline.
            (Value::Map(pairs), Some(tag)) => {
                let entries = pairs.iter().filter(|(key, _)| key != "node").cloned();
                Section::from_value(tag, &Value::Map(entries.collect()))?
            }
            _ => Section::from_tagged_value(item)?,
        };
        nodes.push(yamlite::node_from_section(&section)?);
    }
    Hierarchy::from_nodes(nodes)
}

fn parse_value(value: &str, line_no: usize) -> Result<SpecValue, SpecError> {
    if value.starts_with('[') {
        let items = yamlite::parse_list(value, line_no)?;
        Ok(SpecValue::List(
            items.iter().map(|t| ScalarValue::parse(t)).collect(),
        ))
    } else if value.starts_with('{') {
        let pairs = yamlite::parse_inline_map(value, line_no)?;
        Ok(SpecValue::Map(
            pairs
                .into_iter()
                .map(|(k, v)| (k, ScalarValue::parse(&v)))
                .collect(),
        ))
    } else {
        Ok(SpecValue::Scalar(ScalarValue::parse(value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "
!Scenario
name: demo          # comments still work
experiment: sweep
!Architecture
macro: base
rows: 256
calibrated: false
!Sweep
variations: [0.00, 0.05]
adc_bits: [8, 6]
metrics: [snr_db, enob]
!Noise
cell_variation: 0.1
";

    #[test]
    fn parses_sections_and_scalars() {
        let doc = ScenarioDoc::parse(DOC).unwrap();
        assert_eq!(doc.name().unwrap(), "demo");
        assert_eq!(doc.experiment(), "sweep");
        let arch = doc.architecture().unwrap();
        assert_eq!(arch.settings.str("macro"), Some("base"));
        assert_eq!(arch.settings.u64("rows").unwrap(), Some(256));
        assert_eq!(arch.settings.bool("calibrated").unwrap(), Some(false));
        assert!(arch.hierarchy.is_none());
        let sweep = doc.section("Sweep").unwrap();
        assert_eq!(
            sweep.f64_list("variations").unwrap().unwrap(),
            vec![0.0, 0.05]
        );
        // Raw tokens are preserved for display.
        let raw: Vec<String> = sweep.str_list("variations").unwrap().unwrap();
        assert_eq!(raw, vec!["0.00", "0.05"]);
        assert_eq!(sweep.u32_list("adc_bits").unwrap().unwrap(), vec![8, 6]);
        let noise = doc.section("Noise").unwrap();
        assert_eq!(noise.f64("cell_variation").unwrap(), Some(0.1));
    }

    #[test]
    fn inline_component_tree_attaches_to_architecture() {
        let doc = ScenarioDoc::parse(
            "
!Scenario
name: inline
!Architecture
!Component
name: buffer
class: sram_buffer
temporal_reuse: [Inputs, Outputs]
!Container
name: macro
!Component
name: cell
temporal_reuse: [Weights]
spatial: { meshY: 4 }
!Workload
model: mvm
",
        )
        .unwrap();
        let arch = doc.architecture().unwrap();
        let h = arch.hierarchy.as_ref().expect("inline tree parsed");
        assert_eq!(h.len(), 3);
        assert!(h.component("cell").is_some());
        assert_eq!(doc.section("Workload").unwrap().str("model"), Some("mvm"));
    }

    #[test]
    fn headerless_attribute_lines_are_line_numbered_errors_not_panics() {
        // Regression: key-value lines before any `!Section` tag must
        // fail with a parse error citing the offending line, not panic.
        for (text, line) in [
            ("name: orphan\n!Scenario\nname: x\n", 1),
            ("# leading comment\n\nrows: 3\n!Scenario\nname: x\n", 3),
        ] {
            match ScenarioDoc::parse(text) {
                Err(SpecError::Parse { line: at, message }) => {
                    assert_eq!(at, line, "wrong line for {text:?}");
                    assert!(
                        message.contains("before any !Section"),
                        "unhelpful message `{message}`"
                    );
                }
                other => panic!("expected a line-numbered parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn headerless_component_tree_lines_are_line_numbered_errors_not_panics() {
        // Regression twin: an inline `!Component`/`!Container` tree with
        // no preceding !Architecture must report the tree's own line.
        for (text, line) in [
            ("!Component\nname: cell\n!Scenario\nname: x\n", 1),
            ("!Scenario\nname: x\n!Container\nname: macro\n", 3),
        ] {
            match ScenarioDoc::parse(text) {
                Err(SpecError::Parse { line: at, message }) => {
                    assert_eq!(at, line, "wrong line for {text:?}");
                    assert!(
                        message.contains("must follow an !Architecture"),
                        "unhelpful message `{message}`"
                    );
                }
                other => panic!("expected a line-numbered parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn u64_accepts_the_full_unsigned_range() {
        // Checkpoint files store space fingerprints and IEEE-754 bit
        // patterns, which exceed i64::MAX whenever the hash's (or a
        // negative float's) top bit is set.
        let doc = ScenarioDoc::parse(&format!(
            "!Scenario\nname: bits\n!Checkpoint\nspace: {}\nzero: 0\nsmall: 42\n\
             processed: [1, {}]\nbad: -3\n",
            u64::MAX,
            (-1.5f64).to_bits(),
        ))
        .unwrap();
        let section = doc.section("Checkpoint").unwrap();
        assert_eq!(section.u64("space").unwrap(), Some(u64::MAX));
        assert_eq!(section.u64("zero").unwrap(), Some(0));
        assert_eq!(section.u64("small").unwrap(), Some(42));
        assert_eq!(
            section.u64_list("processed").unwrap().unwrap(),
            vec![1, (-1.5f64).to_bits()]
        );
        assert!(section.u64("bad").is_err());
    }

    #[test]
    fn missing_scenario_section_is_an_error() {
        let err = ScenarioDoc::parse("!Workload\nmodel: resnet18\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn duplicate_keys_rejected_with_line() {
        let err = ScenarioDoc::parse("!Scenario\nname: a\nname: b\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn inline_tree_errors_map_to_document_lines() {
        // Line 5 of the document is the bad spatial line.
        let err = ScenarioDoc::parse(
            "!Scenario\nname: a\n!Architecture\n!Component\nname: c\nspatial: { meshX: 0 }\n",
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 6, .. }), "{err:?}");
    }

    #[test]
    fn inline_tree_errors_map_through_blank_and_comment_lines() {
        // Blank and comment-only lines inside the tree must not shift the
        // reported line: the bad spatial is on document line 8.
        let err = ScenarioDoc::parse(
            "!Scenario\nname: a\n!Architecture\n!Component\n\n# a comment\nname: c\nspatial: { meshX: 0 }\n",
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 8, .. }), "{err:?}");
    }

    #[test]
    fn orphan_tree_rejected() {
        let err = ScenarioDoc::parse("!Scenario\nname: a\n!Component\nname: c\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn entries_before_any_section_rejected() {
        let err = ScenarioDoc::parse("name: orphan\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn write_is_a_fixpoint_and_preserves_raw_tokens() {
        // Regression (raw-token drift): scientific-notation and negative
        // scalars must survive parse → reflect → serialize byte-identically.
        let text = "!Scenario\nname: fixpoint\nexperiment: sweep\n\
                    !Architecture\nmacro: base\nsupply_voltage: -0.5\nadc_rate: 1e-9\n\
                    !Sweep\nvariations: [0.00, 1e-9, -0.5]\nmetrics: [snr_db]\n\
                    !Noise\ncell_variation: 0.10\n";
        let doc = ScenarioDoc::parse(text).unwrap();
        let written = doc.write();
        assert_eq!(
            written, text,
            "canonical input must re-serialize byte-identically"
        );
        let redoc = ScenarioDoc::parse(&written).unwrap();
        assert_eq!(redoc.write(), written, "write is a fixpoint under parse");
        assert!(
            crate::reflect::diff(&doc.to_value(), &redoc.to_value()).is_empty(),
            "reflected values agree"
        );
    }

    #[test]
    fn yamlite_json_yamlite_roundtrip_is_byte_identical() {
        let doc = ScenarioDoc::parse(DOC).unwrap();
        let json = doc.to_json();
        let redoc = ScenarioDoc::from_json(&json).unwrap();
        assert_eq!(redoc.write(), doc.write());
        assert_eq!(redoc.to_json(), json, "JSON is stable too");
        // Raw tokens carried through JSON: `0.00` stays `0.00`.
        assert!(redoc.write().contains("variations: [0.00, 0.05]"));
    }

    #[test]
    fn inline_trees_roundtrip_through_value_and_json() {
        let text = "!Scenario\nname: tree\n!Architecture\nrows: 16\n\
                    !Component\nname: buffer\nclass: sram\ntemporal_reuse: [Inputs, Outputs]\n\
                    !Container\nname: column\nspatial: { meshX: 4, meshY: 1 }\nspatial_reuse: [Inputs]\n\
                    !Component\nname: cell\ntemporal_reuse: [Weights]\nresolution: 8\n\
                    !Workload\nmodel: mvm\n";
        let doc = ScenarioDoc::parse(text).unwrap();
        let redoc = ScenarioDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(
            redoc.architecture().unwrap().hierarchy,
            doc.architecture().unwrap().hierarchy
        );
        assert_eq!(redoc.write(), doc.write());
    }

    #[test]
    fn from_value_rejects_unknown_document_keys() {
        let doc = ScenarioDoc::parse(DOC).unwrap();
        let mut v = doc.to_value();
        v.insert("scneario", Value::map());
        let err = ScenarioDoc::from_value(&v).unwrap_err();
        assert!(matches!(err, SpecError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn multiple_architectures_for_variants() {
        let doc = ScenarioDoc::parse(
            "!Scenario\nname: multi\n!Architecture\nname: quiet\nmacro: base\n\
             !Architecture\nname: noisy\nmacro: base\ncell_variation: 0.1\n",
        )
        .unwrap();
        assert_eq!(doc.architectures().len(), 2);
        assert_eq!(doc.architectures()[1].settings.str("name"), Some("noisy"));
    }
}
