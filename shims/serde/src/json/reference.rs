//! The parser as it was before the linear string scanner, the strict number
//! grammar and the depth bound: the differential oracle for the string
//! scanner of [`Reader`](super::Reader) and, on well-formed documents, for
//! [`Value::parse`](super::Value::parse).
//!
//! Kept verbatim apart from this header and [`parse`]: `parse_string`
//! decodes one character per `from_utf8` call over the whole rest of the
//! input (quadratic), numbers go straight to Rust's `f64` / `i64` parsers,
//! `\u` goes through `u32::from_str_radix` (which takes a sign) and nesting is
//! unbounded. Only tests call it.

use super::{ParseError, Value};

/// `Value::parse` as it was.
pub(super) fn parse(input: &str) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError::new(pos, "trailing data after value"));
    }
    Ok(value)
}

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

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError::new(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
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
                pairs.push((key, parse_value(bytes, pos)?));
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

pub(super) fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError::new(*pos, "expected '\"'"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
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
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| ParseError::new(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not needed for this workspace's
                        // output; reject them rather than mis-decode.
                        let c = char::from_u32(hex)
                            .ok_or_else(|| ParseError::new(*pos, "surrogate \\u escape"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(ParseError::new(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(ParseError::new(*pos, "control byte in string"));
            }
            Some(_) => {
                // Consume one UTF-8 character (input is a &str, so this is
                // always well-formed).
                let s = &bytes[*pos..];
                let c = std::str::from_utf8(s)
                    .map_err(|_| ParseError::new(*pos, "invalid utf-8"))?
                    .chars()
                    .next()
                    .unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| ParseError::new(start, "invalid number"))?;
    if text.is_empty() || text == "-" {
        return Err(ParseError::new(start, "expected a value"));
    }
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
