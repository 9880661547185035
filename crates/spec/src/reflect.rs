//! Home-grown reflection over spec-facing types: one data model, many
//! formats.
//!
//! The yamlite scenario dialect grew a bespoke `from_section` surface in
//! every domain crate — each with its own unknown-key policy (some
//! rejected, some silently ignored) and its own hand-rolled type checks.
//! This module centralizes that surface into three small pieces:
//!
//! - [`Value`] — an ordered, raw-token-preserving document tree. Every
//!   scalar keeps the exact source token (`0.10` stays `0.10`), which is
//!   what makes yamlite → JSON → yamlite round-trips byte-identical.
//! - [`Schema`] / [`FieldDescriptor`] — a field-descriptor model (name,
//!   kind, required, doc) declared once per section type via the
//!   [`crate::reflect_section!`] macro. [`Schema::check`] is the single
//!   schema-driven walk that replaces the per-crate parse bodies:
//!   unknown keys fail with a line-numbered error naming the nearest
//!   valid field, and type errors keep their source lines.
//! - [`diff`] — a structural differ over [`Value`] trees that turns
//!   byte-equality failures ("golden hash mismatch") into field-level
//!   "what changed" reports.
//!
//! The JSON codec over the same model lives in [`crate::json`]; the
//! yamlite codec is [`crate::ScenarioDoc::parse`] /
//! [`crate::ScenarioDoc::write`].

use crate::scenario::{ScalarValue, Section, SpecValue};
use crate::SpecError;

/// An ordered, raw-token-preserving reflected value.
///
/// This is the format-agnostic core the yamlite and JSON codecs share.
/// Maps preserve insertion (document) order; scalars carry both the
/// parsed [`crate::AttrValue`] and the raw source token.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A single scalar (int/float/bool/string) with its raw token.
    Scalar(ScalarValue),
    /// An ordered sequence.
    List(Vec<Value>),
    /// An ordered key → value map (document order, keys unique).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// A scalar value parsed from a raw token (yamlite scalar rules).
    pub fn scalar(raw: &str) -> Value {
        Value::Scalar(ScalarValue::parse(raw))
    }

    /// An empty map.
    pub fn map() -> Value {
        Value::Map(Vec::new())
    }

    /// Pushes `key: value` onto a map value; no-op on other variants.
    pub fn insert(&mut self, key: &str, value: Value) {
        if let Value::Map(pairs) = self {
            pairs.push((key.to_owned(), value));
        }
    }

    /// Looks up `key` in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The scalar's raw token, when this is a scalar.
    pub fn raw(&self) -> Option<&str> {
        match self {
            Value::Scalar(s) => Some(s.raw.as_str()),
            _ => None,
        }
    }

    /// The list items, when this is a list.
    pub fn items(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// A one-line summary for diff reports: the raw token for scalars,
    /// a size summary for lists/maps.
    pub fn summary(&self) -> String {
        match self {
            Value::Scalar(s) => s.raw.clone(),
            Value::List(items) => format!("[{} items]", items.len()),
            Value::Map(pairs) => format!("{{{} keys}}", pairs.len()),
        }
    }
}

/// The declared type of a schema field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// A numeric scalar (ints convert).
    F64,
    /// A non-negative integer scalar.
    U64,
    /// A non-negative integer scalar within `u32` range.
    U32,
    /// An integer scalar within `min..=max`.
    U32Range {
        /// The smallest accepted value.
        min: u32,
        /// The largest accepted value.
        max: u32,
    },
    /// A positive integer scalar: a count, where 0 is an error.
    Count,
    /// A finite, non-negative number: a noise sigma.
    Sigma,
    /// A `true`/`false` scalar.
    Bool,
    /// Any scalar, kept as its raw token.
    Str,
    /// A `[list]` of numbers.
    F64List,
    /// A `[list]` of non-negative integers.
    U64List,
    /// A `[list]` of non-negative integers within `u32` range.
    U32List,
    /// A `[list]` of integers within `min..=max`.
    U32RangeList {
        /// The smallest accepted value.
        min: u32,
        /// The largest accepted value.
        max: u32,
    },
    /// A `[list]` of positive integers.
    CountList,
    /// A `[list]` of finite, non-negative numbers.
    SigmaList,
    /// A `[list]` of raw tokens.
    StrList,
}

impl FieldKind {
    /// Human description used in type-error messages.
    pub fn describe(self) -> String {
        let fixed = match self {
            FieldKind::U32Range { min, max } => return format!("an integer in {min}..={max}"),
            FieldKind::U32RangeList { min, max } => {
                return format!("a `[list]` of integers in {min}..={max}")
            }
            FieldKind::F64 => "a number",
            FieldKind::U64 | FieldKind::U32 => "a non-negative integer",
            FieldKind::Count => "a positive integer",
            FieldKind::Sigma => "a finite number >= 0",
            FieldKind::Bool => "true or false",
            FieldKind::Str => "a scalar",
            FieldKind::F64List => "a `[list]` of numbers",
            FieldKind::U64List | FieldKind::U32List => "a `[list]` of non-negative integers",
            FieldKind::CountList => "a `[list]` of positive integers",
            FieldKind::SigmaList => "a `[list]` of finite numbers >= 0",
            FieldKind::StrList => "a `[list]`",
        };
        fixed.to_owned()
    }

    /// Type-checks the entry under `key` (absent entries pass).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] at the entry's source line when the
    /// value does not match this kind (a count of 0, a negative or
    /// non-finite sigma, and an integer outside a declared range
    /// included).
    pub fn check(self, section: &Section, key: &str) -> Result<(), SpecError> {
        let Some(entry) = section.get(key) else {
            return Ok(());
        };
        let shape_ok = match self {
            FieldKind::F64
            | FieldKind::U64
            | FieldKind::U32
            | FieldKind::U32Range { .. }
            | FieldKind::Count
            | FieldKind::Sigma
            | FieldKind::Bool
            | FieldKind::Str => matches!(entry.value, SpecValue::Scalar(_)),
            FieldKind::F64List
            | FieldKind::U64List
            | FieldKind::U32List
            | FieldKind::U32RangeList { .. }
            | FieldKind::CountList
            | FieldKind::SigmaList
            | FieldKind::StrList => matches!(entry.value, SpecValue::List(_)),
        };
        let mismatch = |found: &str| SpecError::Parse {
            line: entry.line,
            message: format!("`{key}` must be {}{found}", self.describe()),
        };
        if !shape_ok {
            return Err(mismatch(""));
        }
        let nonzero = |zero: bool| {
            if zero {
                Err(mismatch(", got 0"))
            } else {
                Ok(())
            }
        };
        let sigma = |bad: Option<f64>| match bad {
            Some(v) => Err(mismatch(&format!(", got {v}"))),
            None => Ok(()),
        };
        let not_sigma = |v: &f64| !(v.is_finite() && *v >= 0.0);
        // Read as `u64` so a value past `u32` is reported at its own line.
        let range = |min: u32, max: u32, values: Vec<u64>| {
            let bounds = u64::from(min)..=u64::from(max);
            match values.into_iter().find(|v| !bounds.contains(v)) {
                Some(v) => Err(mismatch(&format!(", got {v}"))),
                None => Ok(()),
            }
        };
        match self {
            FieldKind::F64 => section.f64(key).map(drop),
            FieldKind::U64 => section.u64(key).map(drop),
            FieldKind::U32 => section.u32(key).map(drop),
            FieldKind::U32Range { min, max } => {
                range(min, max, section.u64(key)?.into_iter().collect())
            }
            FieldKind::Count => nonzero(section.u64(key)? == Some(0)),
            FieldKind::Sigma => sigma(section.f64(key)?.filter(not_sigma)),
            FieldKind::Bool => section.bool(key).map(drop),
            FieldKind::Str => Ok(()),
            FieldKind::F64List => section.f64_list(key).map(drop),
            FieldKind::U64List => section.u64_list(key).map(drop),
            FieldKind::U32List => section.u32_list(key).map(drop),
            FieldKind::U32RangeList { min, max } => {
                range(min, max, section.u64_list(key)?.unwrap_or_default())
            }
            FieldKind::CountList => nonzero(section.u64_list(key)?.is_some_and(|v| v.contains(&0))),
            FieldKind::SigmaList => sigma(
                section
                    .f64_list(key)?
                    .and_then(|v| v.into_iter().find(not_sigma)),
            ),
            FieldKind::StrList => section.str_list(key).map(drop),
        }
    }
}

/// One reflected field of a section schema.
#[derive(Debug, Clone, Copy)]
pub struct FieldDescriptor {
    /// The spec key (e.g. `cell_variation`).
    pub name: &'static str,
    /// The declared value type.
    pub kind: FieldKind,
    /// Whether the key must be present.
    pub required: bool,
    /// One-line documentation (surfaced by tooling).
    pub doc: &'static str,
}

/// The reflected schema of one section type: its tag and fields.
#[derive(Debug, Clone, Copy)]
pub struct Schema {
    /// The section tag this schema describes (without the `!`).
    pub tag: &'static str,
    /// The declared fields.
    pub fields: &'static [FieldDescriptor],
}

impl Schema {
    /// Looks up a field descriptor by key.
    pub fn field(&self, name: &str) -> Option<&FieldDescriptor> {
        self.fields.iter().find(|d| d.name == name)
    }

    /// Validates a section against this schema: every entry must name a
    /// declared field and match its kind, and required fields must be
    /// present. This is the one schema-driven walk shared by every
    /// section decoder — unknown keys fail with a line-numbered error
    /// naming the nearest valid field.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] with the offending entry's line (or
    /// the section's line for missing required fields).
    pub fn check(&self, section: &Section) -> Result<(), SpecError> {
        for entry in section.entries() {
            match self.field(&entry.key) {
                Some(d) => d.kind.check(section, d.name)?,
                None => {
                    return Err(SpecError::Parse {
                        line: entry.line,
                        message: unknown_key_message(
                            &entry.key,
                            section.tag(),
                            self.fields.iter().map(|d| d.name),
                        ),
                    })
                }
            }
        }
        for d in self.fields.iter().filter(|d| d.required) {
            if !section.contains(d.name) {
                return Err(SpecError::Parse {
                    line: section.line(),
                    message: format!(
                        "section !{} is missing required key `{}`",
                        section.tag(),
                        d.name
                    ),
                });
            }
        }
        Ok(())
    }
}

/// A type with a reflected section schema (implemented by
/// [`crate::reflect_section!`]).
pub trait Reflect {
    /// The type's field-descriptor schema.
    fn schema() -> &'static Schema;
}

/// Builds the "unknown key" diagnostic: names the nearest valid field
/// (edit distance) and lists the valid keys.
pub fn unknown_key_message<'a>(
    key: &str,
    tag: &str,
    valid: impl Iterator<Item = &'a str>,
) -> String {
    let valid: Vec<&str> = valid.collect();
    let mut message = format!("unknown key `{key}` in section !{tag}");
    if let Some(near) = nearest(key, &valid) {
        message.push_str(&format!(" (did you mean `{near}`?)"));
    }
    if !valid.is_empty() {
        message.push_str(&format!("; valid keys: {}", valid.join(", ")));
    }
    message
}

/// The candidate closest to `key` by edit distance, when close enough
/// to plausibly be a typo.
pub fn nearest<'a>(key: &str, candidates: &[&'a str]) -> Option<&'a str> {
    let best = candidates
        .iter()
        .map(|c| (edit_distance(key, c), *c))
        .min_by_key(|(d, _)| *d)?;
    let threshold = (key.chars().count() / 3).max(2);
    (best.0 <= threshold).then_some(best.1)
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            curr[j + 1] = sub.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// One entry of a structural diff: the path that changed and the value
/// on each side (`None` when the side lacks the path).
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Dotted/indexed path, e.g. `sections[1].entries.adc_bits[0]`.
    pub path: String,
    /// The left-hand value's summary, when present on the left.
    pub left: Option<String>,
    /// The right-hand value's summary, when present on the right.
    pub right: Option<String>,
}

impl std::fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.left, &self.right) {
            (Some(l), Some(r)) => write!(f, "{}: `{}` -> `{}`", self.path, l, r),
            (Some(l), None) => write!(f, "- {}: `{}`", self.path, l),
            (None, Some(r)) => write!(f, "+ {}: `{}`", self.path, r),
            (None, None) => write!(f, "{}: (no change)", self.path),
        }
    }
}

/// Structurally compares two reflected values, reporting every path
/// whose raw content differs. An empty result means the values are
/// identical (including raw scalar tokens).
pub fn diff(left: &Value, right: &Value) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    walk("", left, right, &mut out);
    out
}

/// Renders a diff as one line per changed path.
pub fn render_diff(entries: &[DiffEntry]) -> String {
    entries
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

fn join_key(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_owned()
    } else {
        format!("{path}.{key}")
    }
}

fn walk(path: &str, left: &Value, right: &Value, out: &mut Vec<DiffEntry>) {
    match (left, right) {
        (Value::Scalar(l), Value::Scalar(r)) => {
            if l.raw != r.raw {
                out.push(DiffEntry {
                    path: path.to_owned(),
                    left: Some(l.raw.clone()),
                    right: Some(r.raw.clone()),
                });
            }
        }
        (Value::List(ls), Value::List(rs)) => {
            for i in 0..ls.len().max(rs.len()) {
                let item_path = format!("{path}[{i}]");
                match (ls.get(i), rs.get(i)) {
                    (Some(l), Some(r)) => walk(&item_path, l, r, out),
                    (Some(l), None) => out.push(DiffEntry {
                        path: item_path,
                        left: Some(l.summary()),
                        right: None,
                    }),
                    (None, Some(r)) => out.push(DiffEntry {
                        path: item_path,
                        left: None,
                        right: Some(r.summary()),
                    }),
                    (None, None) => {}
                }
            }
        }
        (Value::Map(ls), Value::Map(rs)) => {
            let rget = |k: &str| rs.iter().find(|(rk, _)| rk == k).map(|(_, v)| v);
            for (k, l) in ls {
                let key_path = join_key(path, k);
                match rget(k) {
                    Some(r) => walk(&key_path, l, r, out),
                    None => out.push(DiffEntry {
                        path: key_path,
                        left: Some(l.summary()),
                        right: None,
                    }),
                }
            }
            for (k, r) in rs {
                if !ls.iter().any(|(lk, _)| lk == k) {
                    out.push(DiffEntry {
                        path: join_key(path, k),
                        left: None,
                        right: Some(r.summary()),
                    });
                }
            }
        }
        // Shape mismatch: report the node itself.
        (l, r) => out.push(DiffEntry {
            path: path.to_owned(),
            left: Some(l.summary()),
            right: Some(r.summary()),
        }),
    }
}

/// Declares a reflected section view: a struct with one public field per
/// spec key, a [`Reflect`] schema built from the same declarations, and
/// a `decode` constructor that runs the generic schema walk
/// ([`Schema::check`]) before reading the typed fields.
///
/// Field kinds (in brackets) pick the storage type and decoder:
///
/// | kind         | type          | behavior                         |
/// |--------------|---------------|----------------------------------|
/// | `[f64]`      | `f64`         | scalar number, with `= default`  |
/// | `[opt f64]`  | `Option<f64>` | scalar number, optional          |
/// | `[u64]`      | `u64`         | non-negative int, with default   |
/// | `[opt u64]`  | `Option<u64>` | non-negative int, optional       |
/// | `[u32]`      | `u32`         | `u32`-ranged int, with default   |
/// | `[opt u32]`  | `Option<u32>` | `u32`-ranged int, optional       |
/// | `[opt u32 in R]` | `Option<u32>` | int in the `RangeInclusive<u32>` const `R`, optional |
/// | `[count]`    | `u64`         | positive int, with default       |
/// | `[opt count]`| `Option<u64>` | positive int, optional           |
/// | `[sigma]`    | `f64`         | finite number >= 0, with default |
/// | `[bool]`     | `bool`        | true/false, with default         |
/// | `[opt bool]` | `Option<bool>`| true/false, optional             |
/// | `[str]`      | `String`      | raw token, with `= default`      |
/// | `[opt str]`  | `Option<String>` | raw token, optional           |
/// | `[req str]`  | `String`      | raw token, required              |
/// | `[list f64]` | `Vec<f64>`    | number list, empty when absent   |
/// | `[list u64]` | `Vec<u64>`    | int list, empty when absent      |
/// | `[list u32]` | `Vec<u32>`    | int list, empty when absent      |
/// | `[list u32 in R]` | `Vec<u32>` | list of ints in the const `R`, empty when absent |
/// | `[list count]` | `Vec<u64>`  | positive-int list, empty when absent |
/// | `[list sigma]` | `Vec<f64>`  | list of finite numbers >= 0      |
/// | `[list str]` | `Vec<String>` | raw-token list, empty when absent|
///
/// A field may rename its spec key with `as "key"` (for keys that are
/// Rust keywords, like `macro`):
///
/// ```
/// use cimloop_spec::{reflect_section, ScenarioDoc};
///
/// reflect_section! {
///     /// The `!Noise` statistical non-ideality section.
///     pub struct NoiseView: "Noise" {
///         cell_variation: [f64] = 0.0, "per-cell conductance sigma";
///         read_noise: [f64] = 0.0, "column read-noise sigma";
///     }
/// }
///
/// let doc = ScenarioDoc::parse("!Scenario\nname: x\n!Noise\ncell_variation: 0.1\n").unwrap();
/// let v = NoiseView::decode(doc.section("Noise").unwrap()).unwrap();
/// assert_eq!(v.cell_variation, 0.1);
/// assert_eq!(v.read_noise, 0.0);
/// ```
#[macro_export]
macro_rules! reflect_section {
    (
        $(#[$smeta:meta])*
        $vis:vis struct $name:ident : $tag:literal {
            $(
                $fname:ident $(as $fkey:literal)? : [$($kind:tt)+] $(= $default:expr)? , $fdoc:literal ;
            )+
        }
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Clone, PartialEq)]
        $vis struct $name {
            $( #[doc = $fdoc] pub $fname : $crate::reflect_field_ty!($($kind)+), )+
        }

        impl $crate::Reflect for $name {
            fn schema() -> &'static $crate::Schema {
                static SCHEMA: $crate::Schema = $crate::Schema {
                    tag: $tag,
                    fields: &[
                        $(
                            $crate::FieldDescriptor {
                                name: $crate::reflect_field_key!($fname $($fkey)?),
                                kind: $crate::reflect_field_kind!($($kind)+),
                                required: $crate::reflect_field_required!($($kind)+),
                                doc: $fdoc,
                            },
                        )+
                    ],
                };
                &SCHEMA
            }
        }

        impl $name {
            /// Decodes a section: validates it against the schema
            /// (unknown keys rejected with the nearest valid field
            /// named, line numbers preserved), then reads the typed
            /// fields.
            ///
            /// # Errors
            ///
            /// Returns [`cimloop_spec::SpecError::Parse`] on unknown
            /// keys, type mismatches, or missing required fields.
            $vis fn decode(section: &$crate::Section) -> Result<Self, $crate::SpecError> {
                <Self as $crate::Reflect>::schema().check(section)?;
                Ok(Self {
                    $(
                        $fname : $crate::reflect_field_decode!(
                            section,
                            $crate::reflect_field_key!($fname $($fkey)?),
                            [$($kind)+] $(($default))?
                        ),
                    )+
                })
            }
        }
    };
}

/// Internal: storage type for a [`crate::reflect_section!`] field kind.
#[doc(hidden)]
#[macro_export]
macro_rules! reflect_field_ty {
    (f64) => { f64 };
    (opt f64) => { Option<f64> };
    (u64) => { u64 };
    (opt u64) => { Option<u64> };
    (u32) => { u32 };
    (opt u32) => { Option<u32> };
    (opt u32 in $range:path) => { Option<u32> };
    (count) => { u64 };
    (opt count) => { Option<u64> };
    (sigma) => { f64 };
    (bool) => { bool };
    (opt bool) => { Option<bool> };
    (str) => { String };
    (opt str) => { Option<String> };
    (req str) => { String };
    (list f64) => { Vec<f64> };
    (list u64) => { Vec<u64> };
    (list u32) => { Vec<u32> };
    (list u32 in $range:path) => { Vec<u32> };
    (list count) => { Vec<u64> };
    (list sigma) => { Vec<f64> };
    (list str) => { Vec<String> };
}

/// Internal: [`FieldKind`] for a [`crate::reflect_section!`] field kind.
#[doc(hidden)]
#[macro_export]
macro_rules! reflect_field_kind {
    (f64) => {
        $crate::FieldKind::F64
    };
    (opt f64) => {
        $crate::FieldKind::F64
    };
    (u64) => {
        $crate::FieldKind::U64
    };
    (opt u64) => {
        $crate::FieldKind::U64
    };
    (u32) => {
        $crate::FieldKind::U32
    };
    (opt u32) => {
        $crate::FieldKind::U32
    };
    (opt u32 in $range:path) => {
        $crate::FieldKind::U32Range {
            min: *$range.start(),
            max: *$range.end(),
        }
    };
    (count) => {
        $crate::FieldKind::Count
    };
    (opt count) => {
        $crate::FieldKind::Count
    };
    (sigma) => {
        $crate::FieldKind::Sigma
    };
    (bool) => {
        $crate::FieldKind::Bool
    };
    (opt bool) => {
        $crate::FieldKind::Bool
    };
    (str) => {
        $crate::FieldKind::Str
    };
    (opt str) => {
        $crate::FieldKind::Str
    };
    (req str) => {
        $crate::FieldKind::Str
    };
    (list f64) => {
        $crate::FieldKind::F64List
    };
    (list u64) => {
        $crate::FieldKind::U64List
    };
    (list u32) => {
        $crate::FieldKind::U32List
    };
    (list u32 in $range:path) => {
        $crate::FieldKind::U32RangeList {
            min: *$range.start(),
            max: *$range.end(),
        }
    };
    (list count) => {
        $crate::FieldKind::CountList
    };
    (list sigma) => {
        $crate::FieldKind::SigmaList
    };
    (list str) => {
        $crate::FieldKind::StrList
    };
}

/// Internal: required flag for a [`crate::reflect_section!`] field kind.
#[doc(hidden)]
#[macro_export]
macro_rules! reflect_field_required {
    (req str) => {
        true
    };
    ($($other:tt)+) => {
        false
    };
}

/// Internal: spec key for a [`crate::reflect_section!`] field (the `as`
/// rename when given, the field name otherwise).
#[doc(hidden)]
#[macro_export]
macro_rules! reflect_field_key {
    ($fname:ident) => {
        stringify!($fname)
    };
    ($fname:ident $fkey:literal) => {
        $fkey
    };
}

/// Internal: typed decode expression for a [`crate::reflect_section!`] field.
#[doc(hidden)]
#[macro_export]
macro_rules! reflect_field_decode {
    ($section:expr, $key:expr, [f64] ($default:expr)) => {
        $section.f64($key)?.unwrap_or($default)
    };
    ($section:expr, $key:expr, [opt f64]) => {
        $section.f64($key)?
    };
    ($section:expr, $key:expr, [u64] ($default:expr)) => {
        $section.u64_or($key, $default)?
    };
    ($section:expr, $key:expr, [opt u64]) => {
        $section.u64($key)?
    };
    ($section:expr, $key:expr, [u32] ($default:expr)) => {
        $section.u32($key)?.unwrap_or($default)
    };
    ($section:expr, $key:expr, [opt u32]) => {
        $section.u32($key)?
    };
    ($section:expr, $key:expr, [opt u32 in $range:path]) => {
        $section.u32($key)?
    };
    ($section:expr, $key:expr, [count] ($default:expr)) => {
        $section.u64_or($key, $default)?
    };
    ($section:expr, $key:expr, [opt count]) => {
        $section.u64($key)?
    };
    ($section:expr, $key:expr, [sigma] ($default:expr)) => {
        $section.f64($key)?.unwrap_or($default)
    };
    ($section:expr, $key:expr, [bool] ($default:expr)) => {
        $section.bool_or($key, $default)?
    };
    ($section:expr, $key:expr, [opt bool]) => {
        $section.bool($key)?
    };
    ($section:expr, $key:expr, [str] ($default:expr)) => {
        $section.str_or($key, $default).to_owned()
    };
    ($section:expr, $key:expr, [opt str]) => {
        $section.str($key).map(str::to_owned)
    };
    ($section:expr, $key:expr, [req str]) => {
        $section.require_str($key)?.to_owned()
    };
    ($section:expr, $key:expr, [list f64]) => {
        $section.f64_list($key)?.unwrap_or_default()
    };
    ($section:expr, $key:expr, [list u64]) => {
        $section.u64_list($key)?.unwrap_or_default()
    };
    ($section:expr, $key:expr, [list u32]) => {
        $section.u32_list($key)?.unwrap_or_default()
    };
    ($section:expr, $key:expr, [list u32 in $range:path]) => {
        $section.u32_list($key)?.unwrap_or_default()
    };
    ($section:expr, $key:expr, [list count]) => {
        $section.u64_list($key)?.unwrap_or_default()
    };
    ($section:expr, $key:expr, [list sigma]) => {
        $section.f64_list($key)?.unwrap_or_default()
    };
    ($section:expr, $key:expr, [list str]) => {
        $section.str_list($key)?.unwrap_or_default()
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioDoc;

    crate::reflect_section! {
        /// Test view with one of each kind family.
        pub struct TestView: "Test" {
            sigma: [f64] = 0.5, "a float with a default";
            rows: [opt u64], "an optional integer";
            label as "tag_name": [req str], "a required renamed string";
            axes: [list u32], "an integer list";
            flags: [opt bool], "an optional bool";
        }
    }

    fn doc(body: &str) -> ScenarioDoc {
        ScenarioDoc::parse(&format!("!Scenario\nname: t\n!Test\n{body}")).unwrap()
    }

    #[test]
    fn decode_reads_typed_fields_and_defaults() {
        let d = doc("tag_name: hello\nrows: 128\naxes: [1, 2, 3]\n");
        let v = TestView::decode(d.section("Test").unwrap()).unwrap();
        assert_eq!(v.sigma, 0.5);
        assert_eq!(v.rows, Some(128));
        assert_eq!(v.label, "hello");
        assert_eq!(v.axes, vec![1, 2, 3]);
        assert_eq!(v.flags, None);
    }

    #[test]
    fn unknown_key_names_nearest_field_with_line() {
        let d = doc("tag_name: hello\nsigm: 0.2\n");
        let err = TestView::decode(d.section("Test").unwrap()).unwrap_err();
        match err {
            SpecError::Parse { line, message } => {
                assert_eq!(line, 5, "error must cite the typo'd entry's line");
                assert!(message.contains("sigm"), "{message}");
                assert!(message.contains("did you mean `sigma`"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_required_field_cites_section() {
        let d = doc("sigma: 0.1\n");
        let err = TestView::decode(d.section("Test").unwrap()).unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn scalar_where_list_expected_is_a_shape_error() {
        let d = doc("tag_name: hi\naxes: 3\n");
        let err = TestView::decode(d.section("Test").unwrap()).unwrap_err();
        match err {
            SpecError::Parse { line, message } => {
                assert_eq!(line, 5);
                assert!(message.contains("[list]"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn list_where_scalar_expected_is_a_shape_error() {
        // Regression: `sigma: [1, 2]` used to slip through `Section::f64`
        // (which returns None for non-scalars) and silently decode to the
        // default. The schema walk rejects the shape.
        let d = doc("tag_name: hi\nsigma: [1, 2]\n");
        let err = TestView::decode(d.section("Test").unwrap()).unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 5, .. }), "{err:?}");
    }

    #[test]
    fn schema_exposes_descriptors() {
        let schema = <TestView as Reflect>::schema();
        assert_eq!(schema.tag, "Test");
        assert_eq!(schema.fields.len(), 5);
        let label = schema.field("tag_name").expect("renamed key");
        assert!(label.required);
        assert_eq!(label.kind, FieldKind::Str);
        assert!(schema.field("label").is_none(), "rust name is not the key");
    }

    #[test]
    fn nearest_rejects_far_candidates() {
        assert_eq!(nearest("sigm", &["sigma", "rows"]), Some("sigma"));
        assert_eq!(nearest("zzzzz", &["sigma", "rows"]), None);
    }

    #[test]
    fn diff_reports_exact_scalar_path() {
        let a = Value::Map(vec![
            ("x".to_owned(), Value::scalar("1")),
            (
                "ys".to_owned(),
                Value::List(vec![Value::scalar("0.10"), Value::scalar("0.2")]),
            ),
        ]);
        let mut b = a.clone();
        if let Value::Map(pairs) = &mut b {
            pairs[1].1 = Value::List(vec![Value::scalar("0.10"), Value::scalar("0.3")]);
        }
        let d = diff(&a, &b);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].path, "ys[1]");
        assert_eq!(d[0].left.as_deref(), Some("0.2"));
        assert_eq!(d[0].right.as_deref(), Some("0.3"));
    }

    #[test]
    fn diff_reports_added_and_removed_keys() {
        let a = Value::Map(vec![("x".to_owned(), Value::scalar("1"))]);
        let b = Value::Map(vec![("y".to_owned(), Value::scalar("2"))]);
        let d = diff(&a, &b);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].path, "x");
        assert!(d[0].right.is_none());
        assert_eq!(d[1].path, "y");
        assert!(d[1].left.is_none());
        assert!(render_diff(&d).contains("- x"), "{}", render_diff(&d));
    }

    #[test]
    fn identical_values_diff_empty() {
        let a = Value::Map(vec![("x".to_owned(), Value::scalar("0.10"))]);
        assert!(diff(&a, &a.clone()).is_empty());
    }
}
