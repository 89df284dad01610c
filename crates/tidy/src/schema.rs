//! `BENCH_kernels.json` schema check.
//!
//! The bench-smoke JSON is machine-written and machine-gated (`bench_gate`
//! regresses on its `"speedup"` values and skips cross-ISA comparisons via
//! its `"isa"` strings), so a malformed file must fail fast with a precise
//! diagnostic instead of silently weakening the gate. The rules:
//!
//! * the file parses as a JSON object, and no object repeats a key (an
//!   entry must never carry two `"speedup"`s for a reader to pick from);
//! * every **entry** — an object recording at least one timing field
//!   (`"speedup"` or a key ending in `_ms`), at top level or as an element
//!   of a top-level array — carries an `"isa"` string naming a known SIMD
//!   level ([`KNOWN_ISAS`]);
//! * every `"speedup"` value parses as a finite number `> 0` (a speedup of
//!   `inf`, `NaN` or `-1` is a broken measurement, not a slow kernel);
//! * every `*_ms` value parses as a finite number `>= 0`.
//!
//! The check is exposed as a library function so `bench_gate --schema-only`
//! and the `falvolt-tidy` pass enforce the **same** schema: the gate fails
//! fast at bench time, tidy fails the committed baseline at lint time. The
//! parser ([`parse`]) is public too: `bench_gate` reads its speedups through
//! it, so there is one reader of the file format.
//!
//! The parser is a minimal recursive-descent JSON reader (the workspace has
//! no external dependencies) that tracks the 1-based line of every value so
//! violations point at `file:line` like every other tidy diagnostic.

use std::fmt;

/// The SIMD levels `falvolt_tensor::simd` can report. A new ISA must be
/// added here in the same PR that teaches the dispatcher about it — a typo
/// in a hand-edited baseline must not silently disable ISA matching.
pub const KNOWN_ISAS: &[&str] = &["scalar", "avx2", "avx512", "neon"];

/// One schema violation: the `/`-joined entry path, the 1-based line in the
/// JSON file, and what is wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaViolation {
    /// `/`-joined path of object keys / array indices (e.g.
    /// `sparse_matmul_1024x512x64/[2]/speedup`).
    pub path: String,
    /// 1-based line in the JSON file.
    pub line: u32,
    /// Human-oriented description of the violation.
    pub message: String,
}

impl fmt::Display for SchemaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (line {}): {}", self.path, self.line, self.message)
    }
}

/// A parsed JSON value with the line its first character sits on.
#[derive(Debug, Clone)]
pub struct Value {
    /// 1-based source line.
    pub line: u32,
    /// The value's payload.
    pub node: Node,
}

/// JSON value payloads. Scalars that are not strings keep their raw token
/// so the schema check can distinguish "parses as a finite number" from
/// garbage like `inf` or `NaN` (which `f64::from_str` happily accepts).
#[derive(Debug, Clone)]
pub enum Node {
    /// `{…}` with members in file order.
    Object(Vec<(String, Value)>),
    /// `[…]`.
    Array(Vec<Value>),
    /// `"…"` with escapes resolved enough for comparisons.
    Str(String),
    /// A number / `true` / `false` / `null` token, verbatim.
    Raw(String),
}

impl Node {
    /// The member of an object by key, if this is an object that has it.
    fn member(&self, key: &str) -> Option<&Value> {
        match self {
            Node::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Checks `text` (the contents of a `BENCH_kernels.json`) against the bench
/// schema. Returns every violation found; an empty vector means the file
/// conforms.
pub fn check_bench_schema(text: &str) -> Vec<SchemaViolation> {
    let mut violations = Vec::new();
    let root = match parse(text) {
        Ok(v) => v,
        Err(e) => {
            violations.push(SchemaViolation {
                path: String::new(),
                line: e.line,
                message: format!("not valid JSON: {}", e.message),
            });
            return violations;
        }
    };
    let Node::Object(members) = &root.node else {
        violations.push(SchemaViolation {
            path: String::new(),
            line: root.line,
            message: "top level must be a JSON object".into(),
        });
        return violations;
    };
    for (key, value) in members {
        match &value.node {
            Node::Object(_) => check_entry(key, value, &mut violations),
            Node::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    check_entry(&format!("{key}/[{i}]"), item, &mut violations);
                }
            }
            // Scalar members (bench name, command line, thread count) are
            // metadata, not entries.
            _ => {}
        }
    }
    violations
}

/// Checks one entry object: `isa` present and known whenever the object
/// records a timing field, numeric fields finite and in range. Recurses
/// into nested objects/arrays (e.g. the `simd_kernels` section groups
/// entries one level down).
fn check_entry(path: &str, value: &Value, violations: &mut Vec<SchemaViolation>) {
    let Node::Object(members) = &value.node else {
        return;
    };
    let records_timing = members
        .iter()
        .any(|(k, _)| k == "speedup" || k.ends_with("_ms"));
    if records_timing {
        match value.node.member("isa") {
            None => violations.push(SchemaViolation {
                path: path.to_string(),
                line: value.line,
                message: "entry records timing fields but has no \"isa\" string".into(),
            }),
            Some(isa) => match &isa.node {
                Node::Str(name) if KNOWN_ISAS.contains(&name.as_str()) => {}
                Node::Str(name) => violations.push(SchemaViolation {
                    path: format!("{path}/isa"),
                    line: isa.line,
                    message: format!("unknown ISA {name:?} (known: {KNOWN_ISAS:?})"),
                }),
                _ => violations.push(SchemaViolation {
                    path: format!("{path}/isa"),
                    line: isa.line,
                    message: "\"isa\" must be a string".into(),
                }),
            },
        }
    }
    for (key, member) in members {
        let member_path = format!("{path}/{key}");
        match &member.node {
            Node::Object(_) => check_entry(&member_path, member, violations),
            Node::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    check_entry(&format!("{member_path}/[{i}]"), item, violations);
                }
            }
            Node::Raw(token) if key == "speedup" => match token.parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 => {}
                _ => violations.push(SchemaViolation {
                    path: member_path,
                    line: member.line,
                    message: format!("\"speedup\" value {token:?} is not a finite number > 0"),
                }),
            },
            Node::Raw(token) if key.ends_with("_ms") => match token.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => {}
                _ => violations.push(SchemaViolation {
                    path: member_path,
                    line: member.line,
                    message: format!("{key:?} value {token:?} is not a finite number >= 0"),
                }),
            },
            Node::Str(_) if key == "speedup" || key.ends_with("_ms") => {
                violations.push(SchemaViolation {
                    path: member_path,
                    line: member.line,
                    message: format!("{key:?} must be a number, not a string"),
                });
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON parser
// ---------------------------------------------------------------------------

/// A parse failure with the line it happened on.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line of the offending character.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

/// Parses a JSON document. Numbers, booleans and `null` are kept as raw
/// tokens (see [`Node::Raw`]). An object that repeats a key is an error at
/// the repeated key's line.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        chars: text.chars().collect(),
        pos: 0,
        line: 1,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos < p.chars.len() {
        return Err(p.error("trailing content after the top-level value"));
    }
    Ok(value)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Parser {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            line: self.line,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn expect_char(&mut self, want: char) -> Result<(), ParseError> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            other => Err(self.error(&format!("expected {want:?}, found {other:?}"))),
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        let line = self.line;
        match self.peek() {
            Some('{') => {
                self.bump();
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some('}') {
                    self.bump();
                    return Ok(Value {
                        line,
                        node: Node::Object(members),
                    });
                }
                loop {
                    self.skip_ws();
                    let key_line = self.line;
                    let key = self.string()?;
                    if members.iter().any(|(k, _)| *k == key) {
                        return Err(ParseError {
                            line: key_line,
                            message: format!("duplicate key {key:?}"),
                        });
                    }
                    self.skip_ws();
                    self.expect_char(':')?;
                    self.skip_ws();
                    let value = self.value()?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.bump() {
                        Some(',') => {}
                        Some('}') => break,
                        other => {
                            return Err(
                                self.error(&format!("expected ',' or '}}', found {other:?}"))
                            )
                        }
                    }
                }
                Ok(Value {
                    line,
                    node: Node::Object(members),
                })
            }
            Some('[') => {
                self.bump();
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(']') {
                    self.bump();
                    return Ok(Value {
                        line,
                        node: Node::Array(items),
                    });
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bump() {
                        Some(',') => {}
                        Some(']') => break,
                        other => {
                            return Err(self.error(&format!("expected ',' or ']', found {other:?}")))
                        }
                    }
                }
                Ok(Value {
                    line,
                    node: Node::Array(items),
                })
            }
            Some('"') => {
                let s = self.string()?;
                Ok(Value {
                    line,
                    node: Node::Str(s),
                })
            }
            Some(_) => {
                let mut token = String::new();
                while let Some(c) = self.peek() {
                    if c.is_whitespace() || matches!(c, ',' | '}' | ']') {
                        break;
                    }
                    token.push(c);
                    self.bump();
                }
                if token.is_empty() {
                    return Err(self.error("expected a value"));
                }
                Ok(Value {
                    line,
                    node: Node::Raw(token),
                })
            }
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_char('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('u') => {
                        let mut code = String::new();
                        for _ in 0..4 {
                            code.push(self.bump().ok_or_else(|| {
                                self.error("unexpected end of input in \\u escape")
                            })?);
                        }
                        let c = u32::from_str_radix(&code, 16)
                            .ok()
                            .and_then(char::from_u32)
                            .ok_or_else(|| self.error("invalid \\u escape"))?;
                        out.push(c);
                    }
                    Some(c) => out.push(c),
                    None => return Err(self.error("unexpected end of input in string")),
                },
                Some(c) => out.push(c),
                None => return Err(self.error("unterminated string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conforming_file_passes() {
        let json = r#"{
            "bench": "kernels",
            "threads": 1,
            "a": { "isa": "avx512", "naive_ms": 2.0, "speedup": 1.4 },
            "b": [ { "isa": "scalar", "dense_ms": 0.5, "speedup": 2.0 },
                   { "isa": "scalar", "dense_ms": 0.5 } ]
        }"#;
        assert_eq!(check_bench_schema(json), Vec::new());
    }

    #[test]
    fn missing_isa_on_a_timing_entry_fails_with_line() {
        let json = "{\n  \"a\": { \"speedup\": 1.2 }\n}";
        let v = check_bench_schema(json);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].path, "a");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("isa"));
    }

    #[test]
    fn unknown_isa_is_rejected() {
        let json = r#"{ "a": { "isa": "avx1024", "speedup": 1.2 } }"#;
        let v = check_bench_schema(json);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("avx1024"));
    }

    #[test]
    fn unparseable_and_nonpositive_speedups_fail() {
        let json = r#"{
            "a": { "isa": "avx2", "speedup": inf },
            "b": { "isa": "avx2", "speedup": -1.0 },
            "c": { "isa": "avx2", "speedup": "fast" }
        }"#;
        let v = check_bench_schema(json);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|x| x.path.ends_with("speedup")));
    }

    #[test]
    fn negative_ms_fields_fail() {
        let json = r#"{ "a": { "isa": "neon", "naive_ms": -3.0, "speedup": 1.0 } }"#;
        let v = check_bench_schema(json);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].path, "a/naive_ms");
    }

    #[test]
    fn entries_nested_one_level_down_are_checked() {
        let json = r#"{ "section": { "inner": { "dense_ms": 1.0 } } }"#;
        let v = check_bench_schema(json);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].path, "section/inner");
    }

    #[test]
    fn array_elements_without_timing_fields_need_no_isa() {
        let json = r#"{ "choices": [ { "layer": "fc1", "event_fraction": 1.0 } ] }"#;
        assert_eq!(check_bench_schema(json), Vec::new());
    }

    #[test]
    fn invalid_json_is_one_violation() {
        let v = check_bench_schema("{ \"a\": ");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("JSON"));
    }

    #[test]
    fn repeated_keys_are_a_parse_error_with_line() {
        let json =
            "{\n  \"a\": { \"isa\": \"avx2\",\n    \"speedup\": 0.5,\n    \"speedup\": 9.0 }\n}";
        let err = parse(json).unwrap_err();
        assert_eq!(err.line, 4);
        assert_eq!(err.message, "duplicate key \"speedup\"");
        let v = check_bench_schema(json);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
        assert!(v[0].message.contains("duplicate key"));
        // The same key in sibling objects is fine.
        assert!(parse(r#"[{"a": 1}, {"a": 2}]"#).is_ok());
    }

    #[test]
    fn committed_bench_file_conforms() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_kernels.json");
        assert_eq!(check_bench_schema(&text), Vec::new());
    }
}
