//! Minimal JSON document model: build, render and parse JSON values without
//! `serde_json`.
//!
//! The offline build cannot pull `serde_json`, but the experiment harness
//! needs machine-readable output (`experiments --format json`) and reads JSON
//! back on real paths. This module provides the smallest useful subset: a
//! [`Value`] tree, a compact writer ([`Value::render`]) and a parser. When
//! the real `serde_json` becomes available, callers can migrate to it
//! mechanically — the shapes are deliberately the same.
//!
//! The parser is one tokenizer, the pull [`Reader`], with two ways to use it:
//!
//! * **field by field**, straight off a `Reader`: the cell cache decodes
//!   every entry this way (`laser_bench::cache`), because a warm
//!   `experiments all` is almost nothing but cache hits and a tree per hit
//!   was most of a hit's cost. Strings come back borrowed unless escaped,
//!   and [`Reader::str_eq`] compares one in place;
//! * **as a tree**, through [`Value::parse`], a thin builder over
//!   [`Reader::value`]: scenario files, topology files, tests and the
//!   benchmark's own documents, where a `Value` is the natural shape.
//!
//! Neither is a test utility, so the tokenizer is:
//!
//! * **linear** in the input: a string is scanned a run at a time, up to the
//!   next `"`, `\` or control byte;
//! * **strict** per RFC 8259: numbers follow
//!   `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, `\u` takes exactly four
//!   hex digits, raw control bytes in strings are rejected. Two deliberate
//!   narrowings: surrogate `\u` escapes are rejected rather than paired, and
//!   an integer that does not fit `i64` is an error rather than a float;
//! * **depth-bounded**: arrays and objects nest at most [`MAX_DEPTH`] deep, so
//!   a hostile document is a [`ParseError`], never a stack overflow.
//!
//! Every error carries the byte offset of the first offending byte, the same
//! whichever way the document is read. `json/reference.rs` keeps the parser
//! as it was before the linear scanner, as the tests' differential oracle.

use std::borrow::Cow;
use std::fmt;

/// How deep arrays and objects may nest before a [`Reader`] gives up.
///
/// Real documents nest at most 6 deep (cache entries 5; figure documents and
/// scenarios fewer). The bound exists for hostile input: without it, 100,000
/// `[` abort the process with a stack overflow, which no caller can catch.
/// Parsing runs on campaign pool and service worker threads, whose stacks are
/// Rust's 2 MiB default. One nesting level is one [`Reader::value`] frame —
/// measured at 2.2 KiB unoptimised and 0.3 KiB optimised ([`Reader::skip`]:
/// 1.5 and 0.1) — so 128 levels take about 285 KiB of a debug build's 2 MiB
/// (35 KiB optimised), a seventh of the stack, leaving the callers' frames
/// ample room. 128 is also `serde_json`'s default recursion limit.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (covers every count this workspace emits).
    Int(i64),
    /// A floating-point number; non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Insertion order is preserved so output is deterministic.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An empty object, to be filled with [`Value::set`].
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// Append a key/value pair to an object (panics on non-objects: emission
    /// code constructs objects locally, so a mismatch is a programming error).
    pub fn set(mut self, key: &str, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Object(pairs) => pairs.push((key.to_string(), value.into())),
            other => panic!("Value::set on non-object {other:?}"),
        }
        self
    }

    /// Look up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        use fmt::Write as _;
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // `{:?}` keeps a decimal point or exponent, so the value
                    // stays a float on round-trip.
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (strict: the whole input must be one value; see
    /// the module docs for the grammar and the depth bound).
    ///
    /// # Errors
    /// Returns a [`ParseError`] describing the first offending byte offset.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut reader = Reader::new(input);
        let value = reader.value()?;
        reader.end()?;
        Ok(value)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}
impl From<u64> for Value {
    fn from(u: u64) -> Value {
        i64::try_from(u)
            .map(Value::Int)
            .unwrap_or(Value::Float(u as f64))
    }
}
impl From<u32> for Value {
    fn from(u: u32) -> Value {
        Value::Int(i64::from(u))
    }
}
impl From<usize> for Value {
    fn from(u: usize) -> Value {
        Value::from(u as u64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Array(items)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

fn write_json_string(s: &str, out: &mut String) {
    use fmt::Write as _;
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

/// A JSON parse error: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn new(offset: usize, message: &str) -> ParseError {
        ParseError {
            offset,
            message: message.to_string(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// What the next value of a [`Reader`] is, from its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    Bool,
    /// A number — or a byte no value starts with, which reading it as a
    /// number reports.
    Number,
    Str,
    Array,
    Object,
}

/// A pull reader over one JSON document: the parser's one tokenizer.
///
/// A caller reads values in document order and never holds a tree. Every
/// read consumes exactly one value; a typed read of a value of another type
/// skips it and returns `None` (or `false`). Nothing is skipped unchecked:
/// [`Reader::skip`] checks syntax, nesting and numbers like
/// [`Value::parse`], so a document a caller reads to [`Reader::end`]
/// without an error is one `Value::parse` accepts, and an error is
/// `Value::parse`'s error, at the same byte.
///
/// Objects and arrays are walked with [`Reader::enter_object`] /
/// [`Reader::next_key`] and [`Reader::enter_array`] /
/// [`Reader::next_item`]: after each key or item, read (or skip) its value
/// before asking for the next one.
///
/// ```
/// use serde::json::Reader;
///
/// let mut reader = Reader::new(r#"{"name": "dedup", "cycles": 42, "extra": [1, {}]}"#);
/// let (mut name, mut cycles) = (None, None);
/// assert!(reader.enter_object().unwrap());
/// while let Some(key) = reader.next_key().unwrap() {
///     match &*key {
///         "name" => name = reader.str().unwrap(),
///         "cycles" => cycles = reader.i64().unwrap(),
///         _ => reader.skip().unwrap(),
///     }
/// }
/// reader.end().unwrap();
/// assert_eq!((name.as_deref(), cycles), (Some("dedup"), Some(42)));
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around the position.
    depth: usize,
    /// Whether the innermost open array or object has no member yet.
    first: bool,
}

/// One piece of a string literal: a run of literal text, or one escape.
enum Piece<'a> {
    Run(&'a str),
    Char(char),
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn error(&self, message: &str) -> ParseError {
        ParseError::new(self.pos, message)
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The kind of the next value, without consuming it; an error at the
    /// end of the input.
    fn peek(&mut self) -> Result<Kind, ParseError> {
        self.skip_ws();
        match self.byte() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            Some(_) => Ok(Kind::Number),
        }
    }

    /// Consume the next value if it is `null` (`true`); leave any other
    /// value unread (`false`).
    ///
    /// # Errors
    /// On malformed input.
    pub fn null(&mut self) -> Result<bool, ParseError> {
        if self.peek()? != Kind::Null {
            return Ok(false);
        }
        self.literal()?;
        Ok(true)
    }

    /// The next value as a boolean.
    ///
    /// # Errors
    /// On malformed input.
    pub fn bool(&mut self) -> Result<Option<bool>, ParseError> {
        match self.peek()? {
            Kind::Bool => self.literal(),
            _ => self.skip().map(|()| None),
        }
    }

    /// The next value as an integer (a number without fraction or exponent).
    ///
    /// # Errors
    /// On malformed input, including an integer beyond `i64`.
    pub fn i64(&mut self) -> Result<Option<i64>, ParseError> {
        match self.peek()? {
            Kind::Number => Ok(match self.number()? {
                Number::Int(i) => Some(i),
                Number::Float { .. } => None,
            }),
            _ => self.skip().map(|()| None),
        }
    }

    /// The next value as a float; an integer converts.
    ///
    /// # Errors
    /// On malformed input, including an integer beyond `i64`.
    pub fn f64(&mut self) -> Result<Option<f64>, ParseError> {
        match self.peek()? {
            Kind::Number => self.number()?.to_f64().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// The next value as a string: borrowed from the input unless it has
    /// escapes.
    ///
    /// # Errors
    /// On malformed input.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        match self.peek()? {
            Kind::Str => self.string().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// Whether the next value is a string equal to `expected`, compared
    /// piece by piece without allocating; the value is consumed either way.
    ///
    /// # Errors
    /// On malformed input.
    pub fn str_eq(&mut self, expected: &str) -> Result<bool, ParseError> {
        if self.peek()? != Kind::Str {
            return self.skip().map(|()| false);
        }
        // The part of `expected` not yet matched; `None` after a mismatch.
        let mut rest = Some(expected);
        self.scan_string(|piece| {
            rest = rest.and_then(|rest| match piece {
                Piece::Run(run) => rest.strip_prefix(run),
                Piece::Char(c) => rest.strip_prefix(c),
            });
        })?;
        Ok(rest == Some(""))
    }

    /// Enter the next value if it is an object (`true`), to walk with
    /// [`Reader::next_key`]; skip it otherwise (`false`).
    ///
    /// # Errors
    /// On malformed input, or an object nested deeper than [`MAX_DEPTH`].
    pub fn enter_object(&mut self) -> Result<bool, ParseError> {
        if self.peek()? != Kind::Object {
            return self.skip().map(|()| false);
        }
        self.open()?;
        Ok(true)
    }

    /// The next key of the object entered last, with the reader at its
    /// value; `None` past the object's closing `}`.
    ///
    /// # Errors
    /// On malformed input.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.next_member(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        if self.byte() != Some(b':') {
            return Err(self.error("expected ':'"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Enter the next value if it is an array (`true`), to walk with
    /// [`Reader::next_item`]; skip it otherwise (`false`).
    ///
    /// # Errors
    /// On malformed input, or an array nested deeper than [`MAX_DEPTH`].
    pub fn enter_array(&mut self) -> Result<bool, ParseError> {
        if self.peek()? != Kind::Array {
            return self.skip().map(|()| false);
        }
        self.open()?;
        Ok(true)
    }

    /// Whether the array entered last has another item, with the reader at
    /// it; `false` past the array's closing `]`.
    ///
    /// # Errors
    /// On malformed input.
    pub fn next_item(&mut self) -> Result<bool, ParseError> {
        self.next_member(b']', "expected ',' or ']'")
    }

    /// Consume the next value unread, checking it as [`Value::parse`]
    /// would.
    ///
    /// # Errors
    /// On malformed input.
    pub fn skip(&mut self) -> Result<(), ParseError> {
        match self.peek()? {
            Kind::Null | Kind::Bool => {
                self.literal()?;
            }
            Kind::Number => {
                self.number()?;
            }
            Kind::Str => self.scan_string(|_| {})?,
            Kind::Array => {
                self.open()?;
                while self.next_item()? {
                    self.skip()?;
                }
            }
            Kind::Object => {
                self.open()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
        }
        Ok(())
    }

    /// The next value as a [`Value`] tree.
    ///
    /// # Errors
    /// On malformed input.
    pub fn value(&mut self) -> Result<Value, ParseError> {
        Ok(match self.peek()? {
            Kind::Null | Kind::Bool => self.literal()?.map_or(Value::Null, Value::Bool),
            Kind::Number => match self.number()? {
                Number::Int(i) => Value::Int(i),
                float => Value::Float(float.to_f64()?),
            },
            Kind::Str => Value::Str(self.string()?.into_owned()),
            Kind::Array => {
                self.open()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Value::Array(items)
            }
            Kind::Object => {
                self.open()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    pairs.push((key.into_owned(), value));
                }
                Value::Object(pairs)
            }
        })
    }

    /// Check that only whitespace follows the values read.
    ///
    /// # Errors
    /// On anything else.
    pub fn end(mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing data after value"))
        }
    }

    /// Open the array or object at the position, within [`MAX_DEPTH`].
    fn open(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError {
                offset: self.pos,
                message: format!("nested deeper than {MAX_DEPTH} levels"),
            });
        }
        self.depth += 1;
        self.pos += 1;
        self.first = true;
        Ok(())
    }

    /// Step to the next member of the innermost open array or object: past
    /// its `,` (`true`, also for a first member), or past `close` (`false`).
    fn next_member(&mut self, close: u8, expected: &str) -> Result<bool, ParseError> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.error(expected)),
        }
    }

    /// `null` (`None`), `true` or `false` at the position.
    fn literal(&mut self) -> Result<Option<bool>, ParseError> {
        let (text, value) = match self.byte() {
            Some(b'n') => ("null", None),
            Some(b't') => ("true", Some(true)),
            _ => ("false", Some(false)),
        };
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error("unexpected token"))
        }
    }

    /// The string literal at the position.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let mut out = Cow::Borrowed("");
        self.scan_string(|piece| match piece {
            // Only a literal without escapes is one run.
            Piece::Run(run) if out.is_empty() => out = Cow::Borrowed(run),
            Piece::Run(run) => out.to_mut().push_str(run),
            Piece::Char(c) => out.to_mut().push(c),
        })?;
        Ok(out)
    }

    /// Scan the string literal at the position, handing each piece to
    /// `piece` in order.
    fn scan_string(&mut self, mut piece: impl FnMut(Piece<'a>)) -> Result<(), ParseError> {
        let bytes = self.text.as_bytes();
        if bytes.get(self.pos) != Some(&b'"') {
            return Err(self.error("expected '\"'"));
        }
        self.pos += 1;
        loop {
            // A run up to the next byte that needs a decision. All three
            // stops are ASCII, so the run ends on a character boundary.
            let start = self.pos;
            self.pos += bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(bytes.len() - start);
            let run = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| ParseError::new(start, "invalid utf-8"))?;
            piece(Piece::Run(run));
            match bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    piece(Piece::Char(self.escape()?));
                    self.pos += 1;
                }
                Some(_) => return Err(self.error("control byte in string")),
            }
        }
    }

    /// The character an escape stands for, with the position at the byte
    /// after the `\` and left at the escape's last byte.
    fn escape(&mut self) -> Result<char, ParseError> {
        Ok(match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                // Exactly four hex digits: no sign, no short form.
                let code = self
                    .text
                    .as_bytes()
                    .get(self.pos + 1..self.pos + 5)
                    .and_then(|hex| {
                        hex.iter()
                            .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
                    })
                    .ok_or_else(|| self.error("bad \\u escape"))?;
                // Surrogate pairs are not needed for this workspace's
                // output; reject them rather than mis-decode.
                let c = char::from_u32(code).ok_or_else(|| self.error("surrogate \\u escape"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.error("bad escape")),
        })
    }

    /// One RFC 8259 number at the position:
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. Without fraction or
    /// exponent it must fit an [`i64`]; a float is checked, not converted.
    fn number(&mut self) -> Result<Number<'a>, ParseError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        // Consume a run of digits, failing at the first byte if there are
        // none.
        let digits = |pos: &mut usize| {
            let first = *pos;
            while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            if *pos == first {
                Err(ParseError::new(first, "expected a digit"))
            } else {
                Ok(())
            }
        };
        let pos = &mut self.pos;
        let negative = bytes.get(*pos) == Some(&b'-');
        if negative {
            *pos += 1;
        } else if !bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            return Err(ParseError::new(start, "expected a value"));
        }
        let integer = *pos;
        if bytes.get(*pos) == Some(&b'0') {
            *pos += 1;
            if bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                return Err(ParseError::new(*pos, "leading zero in number"));
            }
        } else {
            digits(pos)?;
        }
        let integer = &bytes[integer..*pos];
        let mut is_float = false;
        if bytes.get(*pos) == Some(&b'.') {
            *pos += 1;
            digits(pos)?;
            is_float = true;
        }
        if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            digits(pos)?;
            is_float = true;
        }
        if is_float {
            return Ok(Number::Float {
                start,
                text: self.text.get(start..self.pos).unwrap_or_default(),
            });
        }
        // Accumulate downwards: `i64::MIN` has no positive counterpart.
        let below = integer.iter().try_fold(0i64, |value, &digit| {
            value.checked_mul(10)?.checked_sub(i64::from(digit - b'0'))
        });
        if negative {
            below
        } else {
            below.and_then(i64::checked_neg)
        }
        .map(Number::Int)
        .ok_or_else(|| ParseError::new(start, "invalid number"))
    }
}

/// A number a [`Reader`] has checked: an integer, converted, or a float's
/// text, converted only when read.
#[derive(Clone, Copy)]
enum Number<'a> {
    Int(i64),
    Float { start: usize, text: &'a str },
}

impl Number<'_> {
    /// The number as a float; an integer converts.
    fn to_f64(self) -> Result<f64, ParseError> {
        match self {
            Number::Int(i) => Ok(i as f64),
            Number::Float { start, text } => text
                .parse()
                .map_err(|_| ParseError::new(start, "invalid number")),
        }
    }
}

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;
