//! The workspace's one JSON representation: [`Json`] values, the
//! reader ([`parse`]) and the writer (`impl Display for Json`), with no
//! dependency outside `std`.
//!
//! Every JSON document the toolchain writes — the daemon protocol,
//! metric snapshots, Chrome traces, analysis and bench reports, LSP
//! messages — is built as a [`Json`] value and printed through
//! [`Display`](std::fmt::Display), so they all share one number rule
//! and one escape rule:
//!
//! * Numbers: finite integral values below 1e15 print without a
//!   fraction (`3`, not `3.0`), other finite values as Rust's shortest
//!   round-trip decimal, and non-finite values as `null`.
//! * Strings: `"`, `\\`, `\n`, `\r` and `\t` take their short escapes,
//!   other control characters `\u00XX`; everything else is verbatim.
//!
//! `{}` prints the compact form (no whitespace); `{:#}` indents by two
//! spaces, for the files people read and diff.
//!
//! The reader supports the full JSON value grammar: objects, arrays,
//! strings (with escapes, including `\uXXXX` and surrogate pairs),
//! numbers, booleans and `null`. Numbers are `f64`, which is lossless
//! for every value this workspace serializes (integers below 2^53).

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, preserving source key order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup (first match) when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(text) => Some(text.as_str()),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Appends a member when this is an object (a no-op otherwise):
    /// the builder step after [`object`].
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        if let Json::Object(members) = self {
            members.push((key.to_string(), value.into()));
        }
    }

    /// [`Json::push`] for an optional member: `None` adds nothing.
    pub fn push_some(&mut self, key: &str, value: Option<impl Into<Json>>) {
        if let Some(value) = value {
            self.push(key, value);
        }
    }
}

/// An object with the given members, in order.
pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Object(
        members
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

macro_rules! json_from {
    ($($ty:ty => |$value:ident| $json:expr),* $(,)?) => {$(
        impl From<$ty> for Json {
            fn from($value: $ty) -> Json {
                $json
            }
        }
    )*};
}

json_from! {
    bool => |value| Json::Bool(value),
    f64 => |value| Json::Number(value),
    u32 => |value| Json::Number(value.into()),
    i32 => |value| Json::Number(value.into()),
    u64 => |value| Json::Number(value as f64),
    usize => |value| Json::Number(value as f64),
    &str => |value| Json::String(value.to_string()),
    &String => |value| Json::String(value.clone()),
    String => |value| Json::String(value),
}

impl<T: Clone + Into<Json>> From<&[T]> for Json {
    fn from(items: &[T]) -> Json {
        items.iter().cloned().collect()
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    /// Collects into an array.
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    /// Compact with `{}`, indented by two spaces with `{:#}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let indent = f.alternate().then_some(0);
        write_value(self, indent, f)
    }
}

/// Writes `value`; `indent` is the current depth in the indented form,
/// `None` in the compact form.
fn write_value(value: &Json, indent: Option<usize>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match value {
        Json::Null => f.write_str("null"),
        Json::Bool(flag) => f.write_str(if *flag { "true" } else { "false" }),
        Json::Number(n) => write_number(*n, f),
        Json::String(text) => write_string(text, f),
        Json::Array(items) => write_sequence(('[', ']'), items, indent, f, |item, f| {
            write_value(item, indent.map(|depth| depth + 1), f)
        }),
        Json::Object(members) => {
            write_sequence(('{', '}'), members, indent, f, |(key, member), f| {
                write_string(key, f)?;
                f.write_str(if indent.is_some() { ": " } else { ":" })?;
                write_value(member, indent.map(|depth| depth + 1), f)
            })
        }
    }
}

/// Writes a bracketed, comma-separated sequence; the indented form puts
/// each element on its own line and keeps empty sequences as `[]`/`{}`.
fn write_sequence<T>(
    (open, close): (char, char),
    items: &[T],
    indent: Option<usize>,
    f: &mut fmt::Formatter<'_>,
    mut write_item: impl FnMut(&T, &mut fmt::Formatter<'_>) -> fmt::Result,
) -> fmt::Result {
    f.write_char(open)?;
    for (index, item) in items.iter().enumerate() {
        if index > 0 {
            f.write_char(',')?;
        }
        if let Some(depth) = indent {
            write!(f, "\n{:width$}", "", width = 2 * (depth + 1))?;
        }
        write_item(item, f)?;
    }
    if let (Some(depth), false) = (indent, items.is_empty()) {
        write!(f, "\n{:width$}", "", width = 2 * depth)?;
    }
    f.write_char(close)
}

/// The one number rule (see the module docs).
fn write_number(value: f64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if !value.is_finite() {
        f.write_str("null")
    } else if value == value.trunc() && value.abs() < 1e15 {
        write!(f, "{}", value as i64)
    } else {
        write!(f, "{value}")
    }
}

/// The one escape rule (see the module docs).
fn write_string(text: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_char('"')?;
    escape_json(text, f)?;
    f.write_char('"')
}

fn escape_json(text: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    // Every escaped character is ASCII, so the unescaped runs between
    // them are char-boundary slices written in one call each.
    let mut start = 0;
    for (index, byte) in text.bytes().enumerate() {
        if byte != b'"' && byte != b'\\' && byte >= 0x20 {
            continue;
        }
        f.write_str(&text[start..index])?;
        match byte {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{byte:04x}")?,
        }
        start = index + 1;
    }
    f.write_str(&text[start..])
}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {}, found {:?}",
            byte as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|&b| b as char),
            *pos
        )),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(format!("invalid keyword at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            other => {
                return Err(format!(
                    "expected `,` or `}}` at byte {}, found {:?}",
                    *pos,
                    other.map(|&b| b as char)
                ))
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            other => {
                return Err(format!(
                    "expected `,` or `]` at byte {}, found {:?}",
                    *pos,
                    other.map(|&b| b as char)
                ))
            }
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let unit = parse_hex4(bytes, pos)?;
                        let c = if (0xD800..0xDC00).contains(&unit) {
                            // High surrogate: a `\uXXXX` low surrogate
                            // must follow.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err("lone high surrogate".to_string());
                            }
                            *pos += 2;
                            let low = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate".to_string());
                            }
                            let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(code).ok_or("invalid surrogate pair")?
                        } else {
                            char::from_u32(unit).ok_or("invalid \\u escape")?
                        };
                        out.push(c);
                        continue;
                    }
                    other => {
                        return Err(format!(
                            "invalid escape {:?} at byte {}",
                            other.map(|&b| b as char),
                            *pos
                        ))
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash at once:
                // both are ASCII, so the run ends on a char boundary of
                // the (valid UTF-8) input.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    if *pos + 4 > bytes.len() {
        return Err("truncated \\u escape".to_string());
    }
    let hex = std::str::from_utf8(&bytes[*pos..*pos + 4]).map_err(|e| e.to_string())?;
    let value = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
    *pos += 4;
    Ok(value)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Number)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\n\"y\" é"}"#;
        let value = parse(doc).unwrap();
        let a = value.get("a").and_then(|v| v.as_array()).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(
            value.get("b").and_then(|v| v.get("c")),
            Some(&Json::Bool(true))
        );
        assert_eq!(value.get("b").and_then(|v| v.get("d")), Some(&Json::Null));
        assert_eq!(value.get("e").and_then(|v| v.as_str()), Some("x\n\"y\" é"));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let value = parse(r#""😀""#).unwrap();
        assert_eq!(value.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse("nul").is_err());
        assert!(parse("01a").is_err());
    }

    #[test]
    fn object_key_order_is_preserved() {
        let value = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let members = value.as_object().unwrap();
        assert_eq!(members[0].0, "z");
        assert_eq!(members[1].0, "a");
        assert_eq!(value.get("a").and_then(|v| v.as_f64()), Some(2.0));
    }

    #[test]
    fn writer_prints_compact_and_indented_forms() {
        let mut value = object([
            ("a", [1.0, 2.5].into_iter().collect()),
            ("b", object([("c", true.into()), ("d", Json::Null)])),
            ("e", Json::Array(Vec::new())),
        ]);
        value.push("f", "x");
        assert_eq!(
            value.to_string(),
            r#"{"a":[1,2.5],"b":{"c":true,"d":null},"e":[],"f":"x"}"#
        );
        assert_eq!(
            format!("{value:#}"),
            "{\n  \"a\": [\n    1,\n    2.5\n  ],\n  \"b\": {\n    \"c\": true,\n    \"d\": null\n  },\n  \"e\": [],\n  \"f\": \"x\"\n}"
        );
        for text in [value.to_string(), format!("{value:#}")] {
            assert_eq!(parse(&text), Ok(value.clone()));
        }
    }

    #[test]
    fn writer_has_one_number_rule() {
        let print = |n: f64| Json::Number(n).to_string();
        assert_eq!(print(0.0), "0");
        assert_eq!(print(-3.0), "-3");
        assert_eq!(print(1e14), "100000000000000");
        assert_eq!(print(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(print(1e15), "1000000000000000");
        assert_eq!(print(f64::NAN), "null");
        assert_eq!(print(f64::INFINITY), "null");
    }

    #[test]
    fn writer_escapes_specials_only() {
        let text = Json::from("a\"b\\c\nd\re\tf\u{1}g\u{1f}é😀").to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fé😀\"");
        assert_eq!(
            parse(&text).unwrap().as_str(),
            Some("a\"b\\c\nd\re\tf\u{1}g\u{1f}é😀")
        );
    }
}
