//! A small JSON value model, parser and printer, plus the [`ToJson`] /
//! [`FromJson`] traits used for catalog persistence and benchmark reports.
//!
//! Types serialize by building a [`Json`] value and deserialize by pattern
//! matching on one; there is no derive machinery. Integers are kept exact
//! (`Int`/`UInt` variants) so 64-bit identifiers round-trip without f64
//! precision loss.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative integer (non-negative integers parse as [`Json::UInt`]).
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. Key order is preserved as written.
    Object(Vec<(String, Json)>),
}

/// Error raised by JSON parsing or [`FromJson`] decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl JsonError {
    /// An error with the given message.
    #[must_use]
    pub fn msg(m: impl Into<String>) -> Self {
        JsonError(m.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required key, erroring with the key name when missing.
    ///
    /// # Errors
    /// [`JsonError`] when `self` is not an object or the key is absent.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::msg(format!("missing field {key:?}")))
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64` (accepts `UInt` and non-negative `Int`).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an `i64` (accepts `Int` and in-range `UInt`).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            _ => None,
        }
    }

    /// The value as an `f64` (accepts every numeric variant).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Compact serialization.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        // Seeding capacity from the embedded string payloads avoids the
        // doubling-growth copies that otherwise dominate serialization of
        // responses carrying large (e.g. hex tile) strings.
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the compact serialization to `out`, so a caller can put
    /// bytes in front of a document without copying it afterwards.
    pub fn write_compact(&self, out: &mut String) {
        out.reserve(self.size_hint() + 64);
        write_json(self, out, None, 0);
    }

    /// A lower bound on the serialized size: string/key bytes plus
    /// punctuation, ignoring escapes and number widths.
    fn size_hint(&self) -> usize {
        match self {
            Json::Null | Json::Bool(_) => 5,
            Json::Int(_) | Json::UInt(_) | Json::Float(_) => 8,
            Json::Str(s) => s.len() + 2,
            Json::Array(items) => items.iter().map(|i| i.size_hint() + 1).sum::<usize>() + 2,
            Json::Object(fields) => {
                fields
                    .iter()
                    .map(|(k, v)| k.len() + 4 + v.size_hint())
                    .sum::<usize>()
                    + 2
            }
        }
    }

    /// Pretty serialization (two-space indent).
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_json(self, &mut out, Some(2), 0);
        out
    }

    /// Parses a JSON document (rejects trailing garbage).
    ///
    /// # Errors
    /// [`JsonError`] describing the first syntax error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::msg(format!(
                "trailing characters at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn write_json(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::UInt(u) => out.push_str(&u.to_string()),
        Json::Float(f) => {
            if f.is_finite() {
                // `{}` prints the shortest round-trip form; integral floats
                // print without a fraction, which is still valid JSON.
                out.push_str(&f.to_string());
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => write_escaped(s, out),
        Json::Array(items) => {
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
                write_json(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Json::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_json(val, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Flags each byte of `x` that JSON source treats specially inside a string:
/// `"` (0x22), `\` (0x5C), or a control byte (< 0x20). The result is nonzero
/// iff any byte of the word needs attention; used by both the serializer
/// (bytes that need escaping) and the parser (bytes that end the fast path).
#[inline]
fn special_string_bytes(x: u64) -> u64 {
    const LSB: u64 = 0x0101_0101_0101_0101;
    const MSB: u64 = 0x8080_8080_8080_8080;
    let zero = |w: u64| w.wrapping_sub(LSB) & !w & MSB;
    let quote = zero(x ^ (LSB * u64::from(b'"')));
    let backslash = zero(x ^ (LSB * u64::from(b'\\')));
    // v < 0x20 exactly: the subtraction borrows for v < 0x20 or v >= 0xA0,
    // and `!x` clears the false positives with the high bit already set.
    let control = x.wrapping_sub(LSB * 0x20) & !x & MSB;
    quote | backslash | control
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    // Copy maximal runs that need no escaping in one `push_str` each,
    // skipping eight clean bytes per word probe; only quotes, backslashes
    // and control bytes drop to per-character handling. Multi-byte UTF-8
    // passes through untouched (every byte is >= 0x80), so scanning raw
    // bytes is safe and run boundaries stay on char boundaries.
    let bytes = s.as_bytes();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        if i + 8 <= bytes.len() {
            let w = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
            let mask = special_string_bytes(w);
            if mask == 0 {
                i += 8;
                continue;
            }
            i += (mask.trailing_zeros() / 8) as usize;
        }
        let b = bytes[i];
        if b == b'"' || b == b'\\' || b < 0x20 {
            out.push_str(&s[start..i]);
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                0x08 => out.push_str("\\b"),
                0x0C => out.push_str("\\f"),
                c => out.push_str(&format!("\\u{c:04x}")),
            }
            start = i + 1;
        }
        i += 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::msg(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(JsonError::msg(format!(
                "unexpected character {:?} at byte {}",
                b as char, self.pos
            ))),
            None => Err(JsonError::msg("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::msg(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => {
                    return Err(JsonError::msg(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => {
                    return Err(JsonError::msg(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes, probed a word at a time.
            while self.pos + 8 <= self.bytes.len() {
                let w = u64::from_le_bytes(
                    self.bytes[self.pos..self.pos + 8]
                        .try_into()
                        .expect("8 bytes"),
                );
                let mask = special_string_bytes(w);
                if mask != 0 {
                    self.pos += (mask.trailing_zeros() / 8) as usize;
                    break;
                }
                self.pos += 8;
            }
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::msg("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::msg("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((hi - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| JsonError::msg("invalid \\u escape"))?);
                        }
                        other => {
                            return Err(JsonError::msg(format!(
                                "invalid escape \\{}",
                                other as char
                            )))
                        }
                    }
                }
                Some(b) if b < 0x20 => return Err(JsonError::msg("control character in string")),
                _ => return Err(JsonError::msg("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::msg("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError::msg("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| JsonError::msg("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::msg("invalid number"))?;
        if !is_float {
            if let Some(rest) = text.strip_prefix('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
                let _ = rest;
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError::msg(format!("invalid number {text:?}")))
    }
}

/// Serialization into a [`Json`] value.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Deserialization from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decodes a value, erroring on shape mismatches.
    ///
    /// # Errors
    /// [`JsonError`] describing the mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serializes any [`ToJson`] value compactly.
pub fn to_string<T: ToJson>(value: &T) -> String {
    value.to_json().to_string_compact()
}

/// Serializes any [`ToJson`] value with indentation.
pub fn to_string_pretty<T: ToJson>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Parses and decodes any [`FromJson`] value.
///
/// # Errors
/// [`JsonError`] on syntax or shape errors.
pub fn from_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(input)?)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::msg("expected bool"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::msg("expected string"))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let u = v.as_u64().ok_or_else(|| {
                    JsonError::msg(concat!("expected ", stringify!($t)))
                })?;
                <$t>::try_from(u).map_err(|_| {
                    JsonError::msg(concat!("out of range for ", stringify!($t)))
                })
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let i = *self as i64;
                if i >= 0 {
                    Json::UInt(i as u64)
                } else {
                    Json::Int(i)
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let i = v.as_i64().ok_or_else(|| {
                    JsonError::msg(concat!("expected ", stringify!($t)))
                })?;
                <$t>::try_from(i).map_err(|_| {
                    JsonError::msg(concat!("out of range for ", stringify!($t)))
                })
            }
        }
    )*};
}

impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::msg("expected number"))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(*self as f64)
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(f64::from_json(v)? as f32)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::msg("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::msg("expected two-element array")),
        }
    }
}

impl<K: ToString + Ord, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_scalars() {
        for text in ["null", "true", "false", "0", "42", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v, "{text}");
        }
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-17").unwrap(), Json::Int(-17));
        assert_eq!(Json::parse("2.5e3").unwrap(), Json::Float(2500.0));
    }

    #[test]
    fn big_u64_is_exact() {
        let big = u64::MAX - 3;
        let v = Json::UInt(big);
        let back = Json::parse(&v.to_string_compact()).unwrap();
        assert_eq!(back.as_u64(), Some(big));
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2,{"b":null}],"c":{"d":[true,false]},"e":"x\ny"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
        assert_eq!(v.field("e").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn string_escapes_round_trip() {
        let tricky = "quote\" backslash\\ newline\n tab\t unicode \u{1F600} nul\u{0001}";
        let v = Json::Str(tricky.to_string());
        let text = v.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(tricky));
        // Explicit \u escapes, including a surrogate pair.
        let parsed = Json::parse(r#""A😀""#).unwrap();
        assert_eq!(parsed.as_str(), Some("A\u{1F600}"));
    }

    #[test]
    fn escapes_round_trip_at_every_word_offset() {
        // The serializer and parser probe strings eight bytes at a time;
        // walk a special character across every offset within and beyond a
        // word so both the SWAR probe and the scalar tail see it.
        for special in ['"', '\\', '\n', '\u{0001}'] {
            for offset in 0..20 {
                let mut s = "x".repeat(offset);
                s.push(special);
                s.push_str(&"y".repeat(19 - (offset + 1).min(19)));
                let text = Json::Str(s.clone()).to_string_compact();
                assert_eq!(
                    Json::parse(&text).unwrap().as_str(),
                    Some(s.as_str()),
                    "special {special:?} at offset {offset}"
                );
            }
        }
        // A long clean string exercises the multi-word fast path.
        let long = "abcdefgh".repeat(512);
        let text = Json::Str(long.clone()).to_string_compact();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(long.as_str()));
    }

    #[test]
    fn syntax_errors_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "1 2",
            "[1,]",
            "{\"a\":1,}",
            "\"bad \\x escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn trait_impls_round_trip() {
        let v: Vec<(u64, String)> = vec![(1, "a".into()), (2, "b".into())];
        let text = to_string(&v);
        let back: Vec<(u64, String)> = from_str(&text).unwrap();
        assert_eq!(back, v);

        let opt: Option<i64> = None;
        assert_eq!(to_string(&opt), "null");
        let some: Option<i64> = from_str("-5").unwrap();
        assert_eq!(some, Some(-5));

        assert_eq!(from_str::<f64>("2").unwrap(), 2.0);
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u64>("-1").is_err());
    }

    #[test]
    fn float_round_trip_via_display() {
        for f in [0.0, 1.5, -2.25, 0.5e-3, 1.0e9, f64::MAX] {
            let text = Json::Float(f).to_string_compact();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, f, "{text}");
        }
    }

    #[test]
    fn pretty_printing_shape() {
        let v = Json::obj(vec![("k", Json::Array(vec![Json::UInt(1)]))]);
        assert_eq!(v.to_string_pretty(), "{\n  \"k\": [\n    1\n  ]\n}");
        assert_eq!(v.to_string_compact(), "{\"k\":[1]}");
    }
}
