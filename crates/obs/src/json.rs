//! Hand-rolled JSON values, serialization, and a small parser.
//!
//! The workspace builds with zero external dependencies, so this module
//! supplies the JSON plumbing previously provided by `serde_json`:
//! a [`JsonValue`] tree, a [`ToJson`] conversion trait with an
//! [`impl_to_json!`](crate::impl_to_json) helper macro for plain structs,
//! deterministic (insertion-ordered) serialization, and a parser sufficient
//! for tests to read back what the exporters wrote.

use std::collections::HashMap;
use std::fmt::Write as _;

/// A JSON document node.
///
/// Objects preserve insertion order so exported files are byte-for-byte
/// deterministic across runs — a requirement for reproducible figures.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// Signed integers serialize without a decimal point.
    Int(i64),
    /// Unsigned integers preserve the full `u64` range.
    UInt(u64),
    Float(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns the array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns a numeric payload widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns a numeric payload as `u64` when losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            JsonValue::Int(v) if *v >= 0 => Some(*v as u64),
            JsonValue::Float(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Serializes to a compact single-line string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Float(v) => write_f64(out, *v),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            // Keep a decimal point so the value round-trips as a float.
            let _ = write!(out, "{v:.1}");
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        // JSON has no NaN/Infinity; null is the conventional stand-in.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`JsonValue`]; the workspace-wide replacement for
/// `serde::Serialize`.
pub trait ToJson {
    fn to_json(&self) -> JsonValue;
}

/// Implements [`ToJson`] for a struct by listing its fields.
///
/// ```
/// use obs::json::ToJson;
///
/// struct Point { x: f64, label: String }
/// obs::impl_to_json!(Point { x, label });
///
/// let p = Point { x: 1.5, label: "a".into() };
/// assert_eq!(p.to_json().get("x").unwrap().as_f64(), Some(1.5));
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                $crate::json::JsonValue::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
    };
}

impl ToJson for JsonValue {
    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Float(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Float(*self as f64)
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str((*self).to_string())
    }
}

macro_rules! impl_to_json_int {
    ($($signed:ty),*; $($unsigned:ty),*) => {
        $(impl ToJson for $signed {
            fn to_json(&self) -> JsonValue {
                JsonValue::Int(*self as i64)
            }
        })*
        $(impl ToJson for $unsigned {
            fn to_json(&self) -> JsonValue {
                JsonValue::UInt(*self as u64)
            }
        })*
    };
}

impl_to_json_int!(i8, i16, i32, i64, isize; u8, u16, u32, u64, usize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            Some(v) => v.to_json(),
            None => JsonValue::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> JsonValue {
        (*self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<V: ToJson> ToJson for HashMap<String, V> {
    fn to_json(&self) -> JsonValue {
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        JsonValue::Obj(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].to_json()))
                .collect(),
        )
    }
}

// `simcore` types serialized by reports and exporters. The trait lives
// here, so implementing it for foreign types is allowed.
impl ToJson for simcore::stats::LatencySummary {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("count", JsonValue::UInt(self.count)),
            ("mean_us", JsonValue::Float(self.mean_us)),
            ("min_us", JsonValue::Float(self.min_us)),
            ("p50_us", JsonValue::Float(self.p50_us)),
            ("p90_us", JsonValue::Float(self.p90_us)),
            ("p99_us", JsonValue::Float(self.p99_us)),
            ("max_us", JsonValue::Float(self.max_us)),
        ])
    }
}

/// Parses a JSON document (for tests and tools that read exports back).
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_literal(
    b: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad utf8"))
                            .map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad hex: {e}"))?;
                        *pos += 4;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                }
            }
            c => {
                // Re-decode multi-byte UTF-8 sequences.
                if c < 0x80 {
                    out.push(c as char);
                } else {
                    let start = *pos - 1;
                    let width = match c {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = b
                        .get(start..start + width)
                        .ok_or("truncated utf8 sequence")?;
                    let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
                    out.push_str(s);
                    *pos = start + width;
                }
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if text.contains(['.', 'e', 'E']) {
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    } else if let Ok(v) = text.parse::<i64>() {
        Ok(JsonValue::Int(v))
    } else if let Ok(v) = text.parse::<u64>() {
        Ok(JsonValue::UInt(v))
    } else {
        Err(format!("bad number {text:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = JsonValue::obj(vec![
            ("name", JsonValue::Str("dne \"tx\"".into())),
            ("count", JsonValue::UInt(42)),
            ("delta", JsonValue::Int(-7)),
            ("ratio", JsonValue::Float(0.5)),
            ("whole", JsonValue::Float(3.0)),
            ("flag", JsonValue::Bool(true)),
            ("missing", JsonValue::Null),
            (
                "items",
                JsonValue::Arr(vec![JsonValue::UInt(1), JsonValue::Str("two".into())]),
            ),
        ]);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            let back = parse(&text).unwrap();
            assert_eq!(back.get("name").unwrap().as_str(), Some("dne \"tx\""));
            assert_eq!(back.get("count").unwrap().as_u64(), Some(42));
            assert_eq!(back.get("delta").unwrap().as_f64(), Some(-7.0));
            assert_eq!(back.get("ratio").unwrap().as_f64(), Some(0.5));
            assert_eq!(back.get("whole").unwrap().as_f64(), Some(3.0));
            assert_eq!(back.get("items").unwrap().as_arr().unwrap().len(), 2);
        }
    }

    #[test]
    fn control_chars_and_unicode_escape() {
        let doc = JsonValue::Str("tab\there\nnewline \u{1} end".into());
        let text = doc.to_string_compact();
        assert!(text.contains("\\t"));
        assert!(text.contains("\\u0001"));
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::Float(f64::NAN).to_string_compact(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn macro_generates_field_objects() {
        struct Row {
            rps: f64,
            label: String,
            n: u64,
        }
        impl_to_json!(Row { rps, label, n });
        let r = Row {
            rps: 10.0,
            label: "x".into(),
            n: 3,
        };
        let j = r.to_json();
        assert_eq!(j.get("rps").unwrap().as_f64(), Some(10.0));
        assert_eq!(j.get("label").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("n").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("12 34").is_err());
    }

    #[test]
    fn unicode_roundtrip() {
        let doc = JsonValue::Str("naïve – ünïcode 🚀".into());
        assert_eq!(parse(&doc.to_string_compact()).unwrap(), doc);
    }
}
