//! The workspace's one JSON path: a small recursive-descent parser with
//! typed field accessors, and an ordered writer.
//!
//! The workspace is dependency-free by policy, and every JSON document
//! it exports — the compare reports, the span JSONL and Chrome trace,
//! the incident bundle's `meta.json` and streams, the live `/slo` and
//! `/healthz` bodies — is written by [`Writer`], and every document it
//! reads back is read through [`Value::at`]. This is not a serde
//! replacement. Numbers are kept as `f64`, which is enough: exported
//! counts and timestamps are cycle counts well under 2^53.
//!
//! The writer streams keys in the order they are written (a [`Value`]
//! object is a `BTreeMap`, so emitting from one would reorder them), and
//! a [`Layout`] per container places the line breaks, so each document
//! keeps the exact bytes its format has always had.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; `BTreeMap` keeps iteration deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// The required field `key` read as a `T`: integers must be exact
    /// and in `T`'s range, so a `u32` field never truncates.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or holds the wrong type.
    pub fn at<'a, T: FromValue<'a>>(&'a self, key: &str) -> Result<T, String> {
        let v = self.get(key).ok_or_else(|| format!("missing field {key:?}"))?;
        T::from_value(v).ok_or_else(|| match v {
            Value::Number(n) => format!("field {key:?}: {n} is not {}", T::EXPECTED),
            _ => format!("field {key:?} is not {}", T::EXPECTED),
        })
    }

    /// The optional field `key`: `default` when absent, else as [`Value::at`].
    ///
    /// # Errors
    ///
    /// Names the key when it is present with the wrong type.
    pub fn at_or<'a, T: FromValue<'a>>(&'a self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(_) => self.at(key),
        }
    }
}

/// A type a JSON value can be read as, through [`Value::at`].
pub trait FromValue<'a>: Sized {
    /// What the type is called in an error message.
    const EXPECTED: &'static str;
    /// The value as `Self`, if it is one.
    fn from_value(v: &'a Value) -> Option<Self>;
}

impl FromValue<'_> for u64 {
    const EXPECTED: &'static str = "an unsigned integer";
    fn from_value(v: &Value) -> Option<Self> {
        v.as_u64()
    }
}

impl FromValue<'_> for u32 {
    const EXPECTED: &'static str = "a u32";
    fn from_value(v: &Value) -> Option<Self> {
        v.as_u64().and_then(|n| n.try_into().ok())
    }
}

impl FromValue<'_> for i64 {
    const EXPECTED: &'static str = "an integer";
    fn from_value(v: &Value) -> Option<Self> {
        match v {
            Value::Number(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }
}

impl FromValue<'_> for f64 {
    const EXPECTED: &'static str = "a number";
    fn from_value(v: &Value) -> Option<Self> {
        v.as_f64()
    }
}

impl FromValue<'_> for bool {
    const EXPECTED: &'static str = "a boolean";
    fn from_value(v: &Value) -> Option<Self> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl<'a> FromValue<'a> for &'a str {
    const EXPECTED: &'static str = "a string";
    fn from_value(v: &'a Value) -> Option<Self> {
        v.as_str()
    }
}

impl FromValue<'_> for String {
    const EXPECTED: &'static str = "a string";
    fn from_value(v: &Value) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl<'a> FromValue<'a> for &'a [Value] {
    const EXPECTED: &'static str = "an array";
    fn from_value(v: &'a Value) -> Option<Self> {
        v.as_array()
    }
}

/// A required sub-object (any value; its own fields are checked as read).
impl<'a> FromValue<'a> for &'a Value {
    const EXPECTED: &'static str = "a value";
    fn from_value(v: &'a Value) -> Option<Self> {
        Some(v)
    }
}

/// `null` reads as `None`.
impl<'a, T: FromValue<'a>> FromValue<'a> for Option<T> {
    const EXPECTED: &'static str = T::EXPECTED;
    fn from_value(v: &'a Value) -> Option<Self> {
        match v {
            Value::Null => Some(None),
            v => T::from_value(v).map(Some),
        }
    }
}

/// Parses a complete JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, b"true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, b"false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, b"null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8], v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not produced by our exporters;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            c if c < 0x20 => return Err(format!("raw control byte at {}", *pos)),
            _ => {
                // Copy the run of plain bytes up to the next quote,
                // backslash or control byte in one piece. All three are
                // ASCII, so the run ends on a char boundary of the `&str`
                // that `parse` was given.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\' | 0..=0x1f) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid UTF-8")?);
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

/// Escapes a string for embedding in JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

fn push_escaped(out: &mut String, s: &str) {
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
}

/// Where a container puts its line breaks: the text written after the
/// opening bracket (before the first member), between members, before
/// the closing bracket, and between a key and its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    open: &'static str,
    sep: &'static str,
    close: &'static str,
    colon: &'static str,
}

impl Layout {
    /// `{"a":1,"b":2}`: spans, streams, endpoint bodies, report rows.
    pub const COMPACT: Layout = Layout { open: "", sep: ",", close: "", colon: ":" };
    /// One member per line, unindented: the soak report, `meta.json`.
    pub const LINES: Layout = Layout { open: "", sep: ",\n", close: "", colon: ":" };
    /// Brackets on their own lines around one member per line: the
    /// Chrome trace's event list.
    pub const ROWS: Layout = Layout { open: "\n", sep: ",\n", close: "\n", colon: ":" };
    /// The profile and service reports' top level: one member per line,
    /// indented two spaces, `": "` after each key.
    pub const INDENTED: Layout = Layout { open: "\n  ", sep: ",\n  ", close: "\n", colon: ": " };
    /// The profile and service reports' row list, one level deeper.
    pub const INDENTED_ROWS: Layout =
        Layout { open: "\n    ", sep: ",\n    ", close: "\n  ", colon: ":" };
}

/// A value the [`Writer`] writes in one token.
pub trait Scalar {
    /// Appends the JSON text of `self`.
    fn write_to(&self, out: &mut String);
}

macro_rules! integer_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_to(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
integer_scalar!(u64, u32, usize, i64, bool);

/// Floats are written with six decimals, the precision every exported
/// float has.
impl Scalar for f64 {
    fn write_to(&self, out: &mut String) {
        let _ = write!(out, "{self:.6}");
    }
}

/// Strings are always escaped.
impl Scalar for &str {
    fn write_to(&self, out: &mut String) {
        out.push('"');
        push_escaped(out, self);
        out.push('"');
    }
}

/// `None` is written as `null`.
impl<T: Scalar> Scalar for Option<T> {
    fn write_to(&self, out: &mut String) {
        match self {
            Some(v) => v.write_to(out),
            None => out.push_str("null"),
        }
    }
}

/// The ordered JSON writer: members stream out in the order they are
/// written, each container laid out by its [`Layout`].
///
/// ```
/// use oram_telemetry::json::{Layout, Writer};
/// let mut w = Writer::new();
/// w.object(Layout::COMPACT).field("b", 1u64).field("a", "x").end();
/// assert_eq!(w.finish(), r#"{"b":1,"a":"x"}"#);
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Open containers, innermost last.
    open: Vec<Open>,
}

#[derive(Debug)]
struct Open {
    layout: Layout,
    bracket: char,
    /// A member has been written.
    started: bool,
    /// A key was written and waits for its value.
    keyed: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Writes the separator (or the container's opening break) before a
    /// member, unless a key already did.
    fn member(&mut self) {
        let Some(c) = self.open.last_mut() else { return };
        if !std::mem::take(&mut c.keyed) {
            self.out.push_str(if c.started { c.layout.sep } else { c.layout.open });
            c.started = true;
        }
    }

    /// Starts the member `key` of the open object; write its value next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.member();
        key.write_to(&mut self.out);
        let c = self.open.last_mut().expect("a key outside an object");
        self.out.push_str(c.layout.colon);
        c.keyed = true;
        self
    }

    /// Writes one scalar: an array element, a keyed value, or a whole
    /// document.
    pub fn value(&mut self, v: impl Scalar) -> &mut Self {
        self.member();
        v.write_to(&mut self.out);
        self
    }

    /// Writes the member `key: v`.
    pub fn field(&mut self, key: &str, v: impl Scalar) -> &mut Self {
        self.key(key).value(v)
    }

    /// Writes the member `key: [items…]` on one line.
    pub fn list<T: Scalar>(&mut self, key: &str, items: impl IntoIterator<Item = T>) -> &mut Self {
        self.key(key).array(Layout::COMPACT);
        for v in items {
            self.value(v);
        }
        self.end()
    }

    /// Opens an object.
    pub fn object(&mut self, layout: Layout) -> &mut Self {
        self.open_container('{', '}', layout)
    }

    /// Opens an array.
    pub fn array(&mut self, layout: Layout) -> &mut Self {
        self.open_container('[', ']', layout)
    }

    fn open_container(&mut self, open: char, close: char, layout: Layout) -> &mut Self {
        self.member();
        self.out.push(open);
        self.open.push(Open { layout, bracket: close, started: false, keyed: false });
        self
    }

    /// Closes the innermost open object or array.
    pub fn end(&mut self) -> &mut Self {
        let c = self.open.pop().expect("end without an open container");
        self.out.push_str(c.layout.close);
        self.out.push(c.bracket);
        self
    }

    /// Ends a top-level document with a newline: a JSONL row, or a
    /// file's last line.
    pub fn newline(&mut self) -> &mut Self {
        debug_assert!(self.open.is_empty(), "newline inside an open container");
        self.out.push('\n');
        self
    }

    /// The text written.
    pub fn finish(self) -> String {
        debug_assert!(self.open.is_empty(), "unclosed container");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true, "e": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} x").is_err());
        assert!(parse(r#"{"a": "#).is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let s = "line\nwith \"quotes\" and \\slash\\ and tab\t.";
        let doc = format!("{{\"k\": \"{}\"}}", escape(s));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(s));
    }

    #[test]
    fn multibyte_strings_next_to_escapes_roundtrip() {
        // 2-, 3- and 4-byte UTF-8 characters against escapes on both
        // sides, many times over in one long document.
        let s = "é\"ü\\€\n日本\t😀\u{1}ß";
        let mut w = Writer::new();
        w.array(Layout::COMPACT);
        for _ in 0..2000 {
            w.value(s);
        }
        w.end();
        let doc = w.finish();
        let items = parse(&doc).unwrap();
        let items = items.as_array().unwrap();
        assert_eq!(items.len(), 2000);
        assert!(items.iter().all(|v| v.as_str() == Some(s)));
        let mut again = Writer::new();
        again.array(Layout::COMPACT);
        for v in items {
            again.value(v.as_str().unwrap());
        }
        again.end();
        assert_eq!(again.finish(), doc);
        // Every rejection still holds.
        assert!(parse("[\"a\u{1}b\"]").is_err(), "raw control byte");
        assert!(parse(r#"["é\q"]"#).is_err(), "bad escape");
        assert!(parse(r#"["日本"#).is_err(), "unterminated string");
    }

    #[test]
    fn u64_detection() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("42.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
