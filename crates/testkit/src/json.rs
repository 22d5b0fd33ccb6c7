//! A small JSON value model, pull reader and printer, plus the [`ToJson`] /
//! [`FromJson`] traits used for catalog persistence and benchmark reports.
//!
//! Types serialize by building a [`Json`] value and deserialize by pulling
//! their fields straight from the text with a [`JsonReader`]; there is no
//! derive machinery. The [`Json`] tree is one more [`FromJson`] type, built
//! by the same reader. Integers are kept exact (`Int`/`UInt` variants) so
//! 64-bit identifiers round-trip without f64 precision loss.

use std::borrow::Cow;
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

    /// Parses a JSON document (rejects trailing garbage and nesting deeper
    /// than [`MAX_DEPTH`]).
    ///
    /// # Errors
    /// [`JsonError`] describing the first syntax error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        from_str(input)
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
        Json::Int(i) => push_display(out, i),
        Json::UInt(u) => push_display(out, u),
        Json::Float(f) => {
            if f.is_finite() {
                // `{}` prints the shortest round-trip form; integral floats
                // print without a fraction, which is still valid JSON.
                push_display(out, f);
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

fn push_display(out: &mut String, v: &impl fmt::Display) {
    use fmt::Write;
    // Writing to a `String` cannot fail.
    let _ = write!(out, "{v}");
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

/// How deep arrays and objects may nest before [`JsonReader`] refuses the
/// document. Every document the workspace writes nests less than a dozen
/// levels; the bound keeps a hostile `[[[[…` from recursing off the end of
/// a thread's stack.
pub const MAX_DEPTH: usize = 128;

/// The kind of the next value in a [`JsonReader`], judged by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    Str,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull reader over JSON text: types decode themselves straight from the
/// bytes ([`FromJson::read_json`]) without building a [`Json`] tree first.
///
/// Object members are visited in written order; keys and escape-free
/// strings are borrowed from the input. Nesting deeper than [`MAX_DEPTH`]
/// is an error, so no input can exhaust the stack. Syntax errors name the
/// byte offset they were found at. Cloning a reader is cheap (it is a
/// position in borrowed text), which is how [`JsonReader::tag`] looks ahead.
#[derive(Debug, Clone)]
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        JsonReader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// Decodes the next value as a `T`.
    ///
    /// # Errors
    /// [`JsonError`] on syntax or shape errors.
    pub fn read<T: FromJson>(&mut self) -> Result<T, JsonError> {
        T::read_json(self)
    }

    /// Decodes the next value into `slot` unless an earlier member with the
    /// same key already filled it, in which case the value is skipped: the
    /// first of duplicate keys wins.
    ///
    /// # Errors
    /// [`JsonError`] on syntax or shape errors.
    pub fn field<T: FromJson>(&mut self, slot: &mut Option<T>) -> Result<(), JsonError> {
        if slot.is_some() {
            self.skip()
        } else {
            *slot = Some(self.read()?);
            Ok(())
        }
    }

    /// Checks that only whitespace follows the last value read.
    ///
    /// # Errors
    /// [`JsonError`] naming the first trailing byte.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters"))
        }
    }

    /// An error carrying the reader's current byte offset.
    #[must_use]
    pub fn error(&self, what: &str) -> JsonError {
        JsonError::msg(format!("{what} at byte {}", self.pos))
    }

    /// The kind of the next value, without consuming it.
    ///
    /// # Errors
    /// [`JsonError`] at the end of input or on a byte no value starts with.
    pub fn kind(&mut self) -> Result<Kind, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            Some(b) if b == b'-' || b.is_ascii_digit() => Ok(Kind::Number),
            Some(b) => Err(self.error(&format!("unexpected character {:?}", b as char))),
            None => Err(JsonError::msg("unexpected end of input")),
        }
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    /// [`JsonError`] when the next value is not a bool.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        match self.kind()? {
            Kind::Bool if self.peek() == Some(b't') => self.keyword("true").map(|()| true),
            Kind::Bool => self.keyword("false").map(|()| false),
            _ => Err(self.error("expected bool")),
        }
    }

    /// Reads a non-negative integer, exact over the whole `u64` range.
    ///
    /// # Errors
    /// [`JsonError`] when the next value is not an integer in range.
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        self.integer("expected unsigned integer")
    }

    /// Reads an integer in the `i64` range.
    ///
    /// # Errors
    /// [`JsonError`] when the next value is not an integer in range.
    pub fn i64(&mut self) -> Result<i64, JsonError> {
        self.integer("expected integer")
    }

    /// Reads any number as an `f64` through std's correctly rounded parse.
    ///
    /// # Errors
    /// [`JsonError`] when the next value is not a number.
    pub fn f64(&mut self) -> Result<f64, JsonError> {
        let start = self.value_start();
        let (text, _) = self.number_text()?;
        text.parse()
            .map_err(|_| error_at(start, &format!("invalid number {text:?}")))
    }

    /// Reads a string. One without escapes is borrowed from the input.
    ///
    /// # Errors
    /// [`JsonError`] when the next value is not a well-formed string.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes, probed a word at a time.
            while self.pos + 8 <= bytes.len() {
                let w =
                    u64::from_le_bytes(bytes[self.pos..self.pos + 8].try_into().expect("8 bytes"));
                let mask = special_string_bytes(w);
                if mask != 0 {
                    self.pos += (mask.trailing_zeros() / 8) as usize;
                    break;
                }
                self.pos += 8;
            }
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // Every delimiter is ASCII, so the run ends on a char boundary.
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(b) if b < 0x20 => return Err(self.error("control character in string")),
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Visits an array, calling `item` once per element; `item` must
    /// consume exactly that element.
    ///
    /// # Errors
    /// [`JsonError`] from the syntax or from `item`.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.open(b'[')?;
        if self.close(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                _ if self.close(b']') => return Ok(()),
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    /// Visits an object, calling `member` with each key in written order;
    /// `member` must consume exactly that key's value (or [`skip`] it).
    ///
    /// # Errors
    /// [`JsonError`] from the syntax or from `member`.
    ///
    /// [`skip`]: JsonReader::skip
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.open(b'{')?;
        if self.close(b'}') {
            return Ok(());
        }
        loop {
            let key = self.str()?;
            self.skip_ws();
            self.expect(b':')?;
            member(self, &key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                _ if self.close(b'}') => return Ok(()),
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    /// Passes over the next value, checking its syntax.
    ///
    /// # Errors
    /// [`JsonError`] on a syntax error.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.kind()? {
            Kind::Null => self.keyword("null"),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::Str => self.str().map(drop),
            Kind::Array => self.array(Self::skip),
            Kind::Object => self.object(|r, _| r.skip()),
        }
    }

    /// Looks ahead in the object that comes next for a string member
    /// `key`, without consuming anything: how a tagged enum finds its
    /// variant wherever the writer put the tag.
    ///
    /// # Errors
    /// [`JsonError`] when the next value is not an object, or the member is
    /// not a string.
    pub fn tag(&self, key: &str) -> Result<Option<Cow<'a, str>>, JsonError> {
        let mut probe = self.clone();
        let mut found = None;
        probe.object(|r, k| {
            if k == key && found.is_none() {
                found = Some(r.str()?);
                Ok(())
            } else {
                r.skip()
            }
        })?;
        Ok(found)
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", b as char)))
        }
    }

    /// Skips whitespace and returns where the next value starts.
    fn value_start(&mut self) -> usize {
        self.skip_ws();
        self.pos
    }

    /// Enters an array or object, counting the level against [`MAX_DEPTH`].
    fn open(&mut self, b: u8) -> Result<(), JsonError> {
        self.skip_ws();
        self.expect(b)?;
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.skip_ws();
        Ok(())
    }

    /// Leaves the current array or object if `b` closes it here.
    fn close(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            self.depth -= 1;
            true
        } else {
            false
        }
    }

    fn keyword(&mut self, word: &str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error("invalid literal"))
        }
    }

    /// The next number as an integer `T`; `what` names the error.
    fn integer<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, JsonError> {
        let start = self.value_start();
        match self.number_text()? {
            (text, false) => text.parse().map_err(|_| error_at(start, what)),
            _ => Err(error_at(start, what)),
        }
    }

    /// The text of the next number and whether it has a fraction or
    /// exponent. The scan is permissive; the caller's parse decides.
    fn number_text(&mut self) -> Result<(&'a str, bool), JsonError> {
        if self.kind()? != Kind::Number {
            return Err(self.error("expected number"));
        }
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
        Ok((&self.text[start..self.pos], is_float))
    }

    /// The next number as the [`Json`] variant that holds it exactly:
    /// `UInt` for non-negative and `Int` for negative integers, `Float`
    /// for the rest.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.value_start();
        let (text, is_float) = self.number_text()?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse() {
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse()
            .map(Json::Float)
            .map_err(|_| error_at(start, &format!("invalid number {text:?}")))
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let esc = self
            .peek()
            .ok_or_else(|| JsonError::msg("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'u' => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        let combined =
                            0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF);
                        char::from_u32(combined)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(hi)
                };
                c.ok_or_else(|| JsonError::msg("invalid \\u escape"))?
            }
            other => {
                return Err(JsonError::msg(format!(
                    "invalid escape \\{}",
                    other as char
                )))
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError::msg("truncated \\u escape"))?;
        let v =
            u32::from_str_radix(digits, 16).map_err(|_| JsonError::msg("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }
}

fn error_at(pos: usize, what: &str) -> JsonError {
    JsonError::msg(format!("{what} at byte {pos}"))
}

/// The value of a required member, or the error naming it.
///
/// # Errors
/// [`JsonError`] when the member was absent.
pub fn required<T>(slot: Option<T>, key: &str) -> Result<T, JsonError> {
    slot.ok_or_else(|| JsonError::msg(format!("missing field {key:?}")))
}

/// Serialization into a [`Json`] value.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Deserialization from JSON text through a [`JsonReader`].
///
/// Each type has exactly one decoder, [`FromJson::read_json`]; a value
/// already held as a [`Json`] tree decodes through it too
/// ([`FromJson::from_json`]).
pub trait FromJson: Sized {
    /// Decodes the reader's next value, erroring on syntax or shape
    /// mismatches. An object decoder visits the members in written order,
    /// skips unknown keys and reports missing required ones.
    ///
    /// # Errors
    /// [`JsonError`] describing the mismatch.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError>;

    /// Decodes a value from a tree by reading its compact text, so the
    /// tree and the text can never decode differently.
    ///
    /// # Errors
    /// [`JsonError`] describing the mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        from_str(&v.to_string_compact())
    }
}

/// Serializes any [`ToJson`] value compactly.
pub fn to_string<T: ToJson>(value: &T) -> String {
    value.to_json().to_string_compact()
}

/// Serializes any [`ToJson`] value with indentation.
pub fn to_string_pretty<T: ToJson>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Decodes one [`FromJson`] value from a whole document.
///
/// # Errors
/// [`JsonError`] on syntax or shape errors, or trailing characters.
pub fn from_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    let mut r = JsonReader::new(input);
    let value = r.read()?;
    r.finish()?;
    Ok(value)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        Ok(match r.kind()? {
            Kind::Null => {
                r.skip()?;
                Json::Null
            }
            Kind::Bool => Json::Bool(r.bool()?),
            Kind::Number => r.number()?,
            Kind::Str => Json::Str(r.str()?.into_owned()),
            Kind::Array => {
                let mut items = Vec::new();
                r.array(|r| {
                    items.push(r.read()?);
                    Ok(())
                })?;
                Json::Array(items)
            }
            Kind::Object => {
                let mut fields = Vec::new();
                r.object(|r, key| {
                    fields.push((key.to_string(), r.read()?));
                    Ok(())
                })?;
                Json::Object(fields)
            }
        })
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        r.bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        r.str().map(Cow::into_owned)
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
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
                let u = r.u64()?;
                <$t>::try_from(u).map_err(|_| {
                    r.error(concat!("out of range for ", stringify!($t)))
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
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
                let i = r.i64()?;
                <$t>::try_from(i).map_err(|_| {
                    r.error(concat!("out of range for ", stringify!($t)))
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
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        r.f64()
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(*self as f64)
    }
}

impl FromJson for f32 {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        Ok(r.f64()? as f32)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let mut items = Vec::new();
        r.array(|r| {
            items.push(r.read()?);
            Ok(())
        })?;
        Ok(items)
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
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        if r.kind()? == Kind::Null {
            r.skip()?;
            Ok(None)
        } else {
            r.read().map(Some)
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut a, mut b, mut n) = (None, None, 0);
        r.array(|r| {
            match n {
                0 => a = Some(r.read()?),
                1 => b = Some(r.read()?),
                _ => return Err(r.error("expected two-element array")),
            }
            n += 1;
            Ok(())
        })?;
        match (a, b) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(r.error("expected two-element array")),
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
