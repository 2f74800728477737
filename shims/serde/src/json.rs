//! Minimal JSON document model: build, render and parse JSON values without
//! `serde_json`.
//!
//! The offline build cannot pull `serde_json`, but the experiment harness
//! needs machine-readable output (`experiments --format json`) and reads JSON
//! back on real paths. This module provides the smallest useful subset: a
//! [`Value`] tree, a compact writer ([`Value::render`]) and a
//! recursive-descent parser ([`Value::parse`]). When the real `serde_json`
//! becomes available, callers can migrate to it mechanically — the shapes are
//! deliberately the same.
//!
//! The parser is not a test utility. Every warm cell-cache hit (`experiments
//! --cache`, `laser-serve --cache`) parses its entry here — on a warm
//! `experiments all` the parse was most of the run — and so does every
//! scenario file and every topology file. It is therefore:
//!
//! * **linear** in the input: a string is copied a run at a time, up to the
//!   next `"`, `\` or control byte, with one UTF-8 check per run;
//! * **strict** per RFC 8259: numbers follow
//!   `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, `\u` takes exactly four
//!   hex digits, raw control bytes in strings are rejected. Two deliberate
//!   narrowings: surrogate `\u` escapes are rejected rather than paired, and
//!   an integer that does not fit `i64` is an error rather than a float;
//! * **depth-bounded**: arrays and objects nest at most [`MAX_DEPTH`] deep, so
//!   a hostile document is a [`ParseError`], never a stack overflow.
//!
//! Every error carries the byte offset of the first offending byte.

use std::fmt;

/// How deep arrays and objects may nest before [`Value::parse`] gives up.
///
/// Real documents nest at most 6 deep (cache entries 5; figure documents and
/// scenarios fewer). The bound exists for hostile input: without it, 100,000
/// `[` abort the process with a stack overflow, which no caller can catch.
/// Parsing runs on campaign pool and service worker threads, whose stacks are
/// Rust's 2 MiB default. One nesting level is one `parse_value` frame —
/// measured at 1.6 KiB unoptimised and 0.3 KiB optimised — so 128 levels take
/// about 210 KiB of a debug build's 2 MiB (36 KiB optimised), a tenth of the
/// stack, leaving the callers' frames ample room. 128 is also `serde_json`'s
/// default recursion limit.
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
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError::new(pos, "trailing data after value"));
        }
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(ParseError::new(*pos, "unexpected token"))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError::new(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(ParseError {
            offset: *pos,
            message: format!("nested deeper than {MAX_DEPTH} levels"),
        }),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(ParseError::new(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(ParseError::new(*pos, "expected ':'"));
                }
                *pos += 1;
                pairs.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(pairs));
                    }
                    _ => return Err(ParseError::new(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError::new(*pos, "expected '\"'"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next byte that needs a decision. All three
        // stops are ASCII, so on `&str` input the run ends on a character
        // boundary and is valid UTF-8 on its own.
        let start = *pos;
        *pos += bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(bytes.len() - start);
        let run = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|e| ParseError::new(start + e.valid_up_to(), "invalid utf-8"))?;
        out.push_str(run);
        match bytes.get(*pos) {
            None => return Err(ParseError::new(*pos, "unterminated string")),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        // Exactly four hex digits: no sign, no short form.
                        let code = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|hex| {
                                hex.iter().try_fold(0, |code, &b| {
                                    Some(code * 16 + char::from(b).to_digit(16)?)
                                })
                            })
                            .ok_or_else(|| ParseError::new(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not needed for this workspace's
                        // output; reject them rather than mis-decode.
                        let c = char::from_u32(code)
                            .ok_or_else(|| ParseError::new(*pos, "surrogate \\u escape"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(ParseError::new(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => return Err(ParseError::new(*pos, "control byte in string")),
        }
    }
}

/// One RFC 8259 number: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
/// A fraction or exponent makes it a [`Value::Float`], otherwise it must fit
/// an [`i64`].
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    // Consume a run of digits, failing at the first byte if there are none.
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
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    } else if !bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        return Err(ParseError::new(start, "expected a value"));
    }
    if bytes.get(*pos) == Some(&b'0') {
        *pos += 1;
        if bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            return Err(ParseError::new(*pos, "leading zero in number"));
        }
    } else {
        digits(pos)?;
    }
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
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| ParseError::new(start, "invalid number"))?;
    if is_float {
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| ParseError::new(start, "invalid number"))
    } else {
        text.parse::<i64>()
            .map(Value::Int)
            .map_err(|_| ParseError::new(start, "invalid number"))
    }
}

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;
