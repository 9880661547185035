//! Hand-rolled JSON codec over reflected [`Value`] trees.
//!
//! This is the second frontend over the reflection core (yamlite being
//! the first): `cimloop serve` accepts `RUNJSON` frames and
//! `cimloop evaluate --format json` runs JSON scenario documents with
//! zero format-specific decode code — both parse to the same [`Value`]
//! model and flow through [`crate::ScenarioDoc::from_value`].
//!
//! Raw scalar tokens are preserved in both directions so that
//! yamlite → JSON → yamlite round-trips are **byte-identical**:
//!
//! - Emitting: a numeric scalar whose raw token is a valid JSON number
//!   (`1e-9`, `-0.5`, `0.10`) is emitted verbatim as a number; any other
//!   token (`.5`, `+3`, `True`) is emitted as a JSON string, which still
//!   re-parses to the identical scalar.
//! - Parsing: JSON number tokens are kept as raw text; JSON strings go
//!   through the yamlite scalar rules, so `"True"` comes back as the
//!   boolean it was in the source document.
//!
//! The model has no `null`: absent keys are simply absent.

use crate::reflect::Value;
use crate::scenario::ScalarValue;
use crate::{AttrValue, SpecError};

/// Serializes a reflected value as pretty-printed JSON (2-space indent,
/// trailing newline).
pub fn to_json(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, value: &Value, indent: usize) {
    match value {
        Value::Scalar(s) => out.push_str(&scalar_to_json(s)),
        Value::List(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                push_indent(out, indent + 1);
                write_value(out, item, indent + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            push_indent(out, indent);
            out.push(']');
        }
        Value::Map(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, v)) in pairs.iter().enumerate() {
                push_indent(out, indent + 1);
                out.push_str(&quote(k));
                out.push_str(": ");
                write_value(out, v, indent + 1);
                if i + 1 < pairs.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            push_indent(out, indent);
            out.push('}');
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn scalar_to_json(s: &ScalarValue) -> String {
    match &s.value {
        AttrValue::Int(_) | AttrValue::Float(_) if is_json_number(&s.raw) => s.raw.clone(),
        AttrValue::Bool(_) if s.raw == "true" || s.raw == "false" => s.raw.clone(),
        _ => quote(&s.raw),
    }
}

/// Whether `token` matches the JSON number grammar exactly (so it can be
/// emitted verbatim as a JSON number).
fn is_json_number(token: &str) -> bool {
    let rest = token.strip_prefix('-').unwrap_or(token);
    let bytes = rest.as_bytes();
    let mut i = 0;
    // Integer part: `0` or a nonzero digit followed by digits.
    match bytes.first() {
        Some(b'0') => i = 1,
        Some(b'1'..=b'9') => {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
        _ => return false,
    }
    // Fraction.
    if i < bytes.len() && bytes[i] == b'.' {
        i += 1;
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i == start {
            return false;
        }
    }
    // Exponent.
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        i += 1;
        if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
            i += 1;
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i == start {
            return false;
        }
    }
    i == bytes.len()
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so the cap keeps hostile input from
/// overflowing the stack; the committed specs nest at most 6 deep.
pub const MAX_DEPTH: usize = 128;

/// Parses JSON text into a reflected [`Value`].
///
/// # Errors
///
/// Returns [`SpecError::Parse`] with the 1-based source line on
/// malformed JSON, `null` values (the model has no null), nesting deeper
/// than [`MAX_DEPTH`], or trailing garbage.
pub fn parse(text: &str) -> Result<Value, SpecError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("unexpected trailing content"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn line(&self) -> usize {
        1 + self.bytes[..self.pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    }

    fn error(&self, message: &str) -> SpecError {
        SpecError::Parse {
            line: self.line(),
            message: format!("json: {message}"),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), SpecError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, SpecError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Scalar(ScalarValue::parse(&self.string()?))),
            Some(b't') | Some(b'f') => self.keyword(),
            Some(b'n') => Err(self.error("`null` is not supported (omit the key instead)")),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, SpecError>,
    ) -> Result<Value, SpecError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, SpecError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.error(&format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(pairs));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, SpecError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::List(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn keyword(&mut self) -> Result<Value, SpecError> {
        for (word, _) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(Value::scalar(word));
            }
        }
        Err(self.error("expected a value"))
    }

    fn number(&mut self) -> Result<Value, SpecError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid utf-8 in number"))?;
        if !is_json_number(token) {
            return Err(self.error(&format!("invalid number `{token}`")));
        }
        Ok(Value::scalar(token))
    }

    fn string(&mut self) -> Result<String, SpecError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("invalid \\u code point"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(self.error(&format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Consume the full UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let s = self
                        .bytes
                        .get(start..end)
                        .and_then(|chunk| std::str::from_utf8(chunk).ok())
                        .ok_or_else(|| self.error("invalid utf-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        parse(&to_json(v)).expect("emitted json parses")
    }

    #[test]
    fn numbers_preserve_raw_tokens() {
        for raw in ["1e-9", "-0.5", "0.10", "256", "-3", "2.5E3"] {
            let v = Value::scalar(raw);
            let json = to_json(&v);
            assert_eq!(json.trim(), raw, "valid JSON numbers are emitted verbatim");
            assert_eq!(roundtrip(&v), v, "{raw}");
        }
    }

    #[test]
    fn non_json_numeric_tokens_fall_back_to_strings_losslessly() {
        for raw in [".5", "+3", "00.5", "True", "False"] {
            let v = Value::scalar(raw);
            let json = to_json(&v);
            assert!(json.starts_with('"'), "`{raw}` must be quoted: {json}");
            assert_eq!(roundtrip(&v), v, "{raw}");
        }
    }

    #[test]
    fn structures_roundtrip() {
        let v = Value::Map(vec![
            ("name".to_owned(), Value::scalar("fig12")),
            (
                "axes".to_owned(),
                Value::List(vec![Value::scalar("1"), Value::scalar("0.05")]),
            ),
            ("empty".to_owned(), Value::List(vec![])),
            ("nested".to_owned(), Value::Map(vec![])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn strings_escape_and_roundtrip() {
        let v = Value::scalar("a \"quoted\" title: with colons");
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("{\n  \"a\": 1,\n  \"b\": nope\n}").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 3, .. }), "{err:?}");
        let err = parse("{\"a\": null}").unwrap_err();
        assert!(matches!(err, SpecError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn trailing_garbage_is_a_positioned_error() {
        // A complete value followed by anything — a second document, a
        // stray token — is rejected, citing the line the garbage starts
        // on (not just a generic failure at line 1).
        for (text, line) in [
            ("{\"a\": 1} {\"b\": 2}", 1),
            ("{\n  \"a\": 1\n}\ngarbage", 4),
            ("[1, 2]\n\n  tail", 3),
        ] {
            match parse(text) {
                Err(SpecError::Parse { line: at, message }) => {
                    assert_eq!(at, line, "wrong line for {text:?}");
                    assert!(
                        message.contains("trailing"),
                        "unhelpful message `{message}`"
                    );
                }
                other => panic!("{text:?}: expected a trailing-content error, got {other:?}"),
            }
        }
    }

    #[test]
    fn nesting_past_the_cap_is_a_positioned_error_not_a_stack_overflow() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        for deep in [
            format!("\n{}", "[".repeat(200_000)),
            format!("\n{}", "{\"a\": ".repeat(MAX_DEPTH + 1)),
        ] {
            match parse(&deep) {
                Err(SpecError::Parse { line: 2, message }) => {
                    assert!(message.contains("nesting deeper than 128"), "{message}");
                }
                other => panic!("expected a line-2 nesting error, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_keys_are_positioned_errors_at_any_depth() {
        // Last-wins would silently drop the first binding; duplicates in
        // nested maps (including maps inside lists) must be rejected
        // too, citing the duplicate's own line.
        for (text, line) in [
            ("{\"a\": 1, \"a\": 2}", 1),
            ("{\n  \"outer\": {\n    \"k\": 1,\n    \"k\": 2\n  }\n}", 4),
            (
                "{\n  \"list\": [\n    {\"x\": 1},\n    {\"y\": 1,\n     \"y\": 2}\n  ]\n}",
                5,
            ),
        ] {
            match parse(text) {
                Err(SpecError::Parse { line: at, message }) => {
                    assert_eq!(at, line, "wrong line for {text:?}");
                    assert!(
                        message.contains("duplicate key"),
                        "unhelpful message `{message}`"
                    );
                }
                other => panic!("{text:?}: expected a duplicate-key error, got {other:?}"),
            }
        }
    }

    #[test]
    fn json_number_grammar() {
        for good in ["0", "-0", "10", "0.5", "1e9", "1E+9", "1e-9", "-0.5"] {
            assert!(is_json_number(good), "{good}");
        }
        for bad in ["", "-", "01", ".5", "+3", "1.", "1e", "1e+", "nan", "5 "] {
            assert!(!is_json_number(bad), "{bad}");
        }
    }
}
