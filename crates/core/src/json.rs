//! Minimal JSON reader/writer for campaign checkpoints.
//!
//! Campaign checkpoints are the one thing the campaign layer reads from or
//! writes to disk, and they are encoded by hand against this module; the
//! workspace has no serialization framework. The value model is
//! deliberately small: objects keep insertion order and reject repeated
//! keys, numbers are `f64`, and callers encode floats they need bit-exact as
//! hex strings of their IEEE-754 bits (see
//! [`crate::campaign::CampaignCheckpoint`]).

use crate::error::CampaignError;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers included), as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// A required object field, with a typed error naming the key.
    pub(crate) fn field(&self, key: &str) -> Result<&Value, CampaignError> {
        let found = match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        };
        found.ok_or_else(|| CampaignError::malformed(format!("missing field `{key}`")))
    }

    /// The value as a string slice.
    pub(crate) fn as_str(&self) -> Result<&str, CampaignError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(CampaignError::malformed(format!(
                "expected a string, found {}",
                other.kind()
            ))),
        }
    }

    /// The value as an `f64`.
    pub(crate) fn as_f64(&self) -> Result<f64, CampaignError> {
        match self {
            Value::Num(n) => Ok(*n),
            other => Err(CampaignError::malformed(format!(
                "expected a number, found {}",
                other.kind()
            ))),
        }
    }

    /// The value as a non-negative integer (rejects fractions and numbers
    /// too large for exact `f64` representation).
    pub(crate) fn as_usize(&self) -> Result<usize, CampaignError> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
            return Err(CampaignError::malformed(format!(
                "expected a non-negative integer, found {n}"
            )));
        }
        Ok(n as usize)
    }

    /// The value as an array slice.
    pub(crate) fn as_arr(&self) -> Result<&[Value], CampaignError> {
        match self {
            Value::Arr(items) => Ok(items),
            other => Err(CampaignError::malformed(format!(
                "expected an array, found {}",
                other.kind()
            ))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a bool",
            Value::Num(_) => "a number",
            Value::Str(_) => "a string",
            Value::Arr(_) => "an array",
            Value::Obj(_) => "an object",
        }
    }
}

/// Parses one JSON document (surrounding whitespace allowed, trailing
/// garbage and repeated object keys rejected).
pub(crate) fn parse(text: &str) -> Result<Value, CampaignError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(CampaignError::malformed(format!(
            "trailing characters at byte {pos}"
        )));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), CampaignError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(CampaignError::malformed(format!(
            "expected `{}` at byte {pos}",
            byte as char
        )))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, CampaignError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(CampaignError::malformed("unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key_at = *pos;
                let key = parse_string(bytes, pos)?;
                if fields.iter().any(|(k, _)| *k == key) {
                    return Err(CampaignError::malformed(format!(
                        "duplicate key `{key}` at byte {key_at}"
                    )));
                }
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => {
                        return Err(CampaignError::malformed(format!(
                            "expected `,` or `}}` at byte {pos}"
                        )))
                    }
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => {
                        return Err(CampaignError::malformed(format!(
                            "expected `,` or `]` at byte {pos}"
                        )))
                    }
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, CampaignError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(CampaignError::malformed(format!(
            "invalid literal at byte {pos}"
        )))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, CampaignError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| CampaignError::malformed("non-UTF-8 number"))?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| CampaignError::malformed(format!("invalid number `{text}` at byte {start}")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, CampaignError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(CampaignError::malformed("unterminated string")),
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| CampaignError::malformed("truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| CampaignError::malformed("invalid \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| CampaignError::malformed("invalid \\u escape"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(CampaignError::malformed("invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (strings arrive as valid UTF-8).
                let rest = &bytes[*pos..];
                let text = std::str::from_utf8(rest)
                    .map_err(|_| CampaignError::malformed("non-UTF-8 string"))?;
                let ch = text.chars().next().expect("non-empty by match arm");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

/// Escapes a string for embedding in a JSON document (quotes included).
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_objects_arrays_and_escapes() {
        let doc = r#"{"a": [1, -2.5, 1e3], "b": {"nested": "q\"uote\\n"}, "c": true, "d": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.field("a").unwrap().as_arr().unwrap()[2].as_f64().unwrap(),
            1e3
        );
        assert_eq!(
            v.field("b")
                .unwrap()
                .field("nested")
                .unwrap()
                .as_str()
                .unwrap(),
            "q\"uote\\n"
        );
        assert_eq!(v.field("c"), Ok(&Value::Bool(true)));
        assert_eq!(v.field("d"), Ok(&Value::Null));
        // quote() output parses back to the same string.
        let tricky = "line\nbreak \"and\" \\slash\\ \u{0001}";
        let parsed = parse(&quote(tricky)).unwrap();
        assert_eq!(parsed.as_str().unwrap(), tricky);
    }

    #[test]
    fn rejects_malformed_documents_with_typed_errors() {
        for bad in [
            "{",
            "[1, 2",
            "\"unterminated",
            "{\"a\": }",
            "12x",
            "[1] trailing",
            "",
            r#"{"a": 1, "a": 2}"#,
            r#"[{"k": {"x": 1, "y": 2, "x": 3}}]"#,
        ] {
            assert!(
                matches!(parse(bad), Err(CampaignError::CheckpointMalformed { .. })),
                "`{bad}` should be rejected"
            );
        }
        assert!(Value::Num(1.5).as_usize().is_err());
        assert!(Value::Num(-1.0).as_usize().is_err());
        assert_eq!(Value::Num(7.0).as_usize().unwrap(), 7);
    }
}
