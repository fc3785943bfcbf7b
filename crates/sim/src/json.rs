//! A dependency-free JSON value, parser, and writer.
//!
//! The build environment has no crates registry, so there is no
//! `serde`, but the sweep supervisor needs a real wire format for its
//! checkpoint manifests. This module is the smallest JSON that
//! round-trips the workspace's report types **exactly**:
//!
//! * numbers keep their source lexeme (`Value::Num` stores the raw
//!   token), so `u64` cycle counts survive beyond 2^53 and `f64`s
//!   written with Rust's shortest round-trip formatting re-parse to
//!   the identical bits — the property the byte-identical
//!   checkpoint/resume guarantee rests on;
//! * object entries preserve insertion order, so a written manifest
//!   line is byte-stable across write → parse → write.
//!
//! The parser accepts the non-standard lexemes `NaN`, `inf`, and
//! `-inf` because that is how [`fmt_f64`] (and Rust's `{:?}`) spells
//! non-finite floats; we only ever parse our own output.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw lexeme for lossless round-trips.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; entries keep insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field by key, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number parsed as `u64`, if this is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `u32`, if it fits.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `i64`, if this is a (possibly negative)
    /// integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64` (accepting `NaN`/`inf`/`-inf`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => match n.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                other => other.parse().ok(),
            },
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor: a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Convenience constructor: an unsigned integer value.
    pub fn u64(n: u64) -> Value {
        Value::Num(n.to_string())
    }

    /// Convenience constructor: an `f64` value written with shortest
    /// round-trip formatting (re-parses to identical bits).
    pub fn f64(v: f64) -> Value {
        Value::Num(fmt_f64(v))
    }
}

impl fmt::Display for Value {
    /// Compact JSON (no whitespace), object order preserved.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Num(n) => f.write_str(n),
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Value::Obj(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Formats an `f64` so that parsing the text yields identical bits:
/// Rust's `{:?}` shortest round-trip form, with explicit `NaN`/`inf`
/// spellings.
pub fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "inf".into()
    } else if v == f64::NEG_INFINITY {
        "-inf".into()
    } else {
        format!("{v:?}")
    }
}

/// Writes `s` as a JSON string. Each run of characters that needs no
/// escape goes out in one `write_str`; the escaped ones are ASCII, so
/// every byte where a run ends is a character boundary.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        f.write_str(&s[run..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

// ---------------------------------------------------------------------------
// Typed field readers: the one way every document in the workspace is
// decoded (checkpoint state, sweep manifest, daemon journal and wire
// lines, the sandbox child protocol).
// ---------------------------------------------------------------------------

/// A missing or mistyped field found by one of the typed readers below;
/// `?` converts it into each document's own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError(String);

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FieldError {}

impl From<FieldError> for String {
    fn from(e: FieldError) -> String {
        e.0
    }
}

fn mistyped(what: &str, key: &str) -> FieldError {
    FieldError(format!("missing or non-{what} field {key:?}"))
}

/// Looks up `key` in an object value.
///
/// # Errors
///
/// [`FieldError`] naming the missing key.
pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, FieldError> {
    v.get(key)
        .ok_or_else(|| FieldError(format!("missing field {key:?}")))
}

/// Moves field `key` out of an object value, dropping the rest: how a
/// large field (a checkpoint's state) leaves its document uncopied.
///
/// # Errors
///
/// [`FieldError`] naming the missing key.
pub fn take_field(v: Value, key: &str) -> Result<Value, FieldError> {
    match v {
        Value::Obj(entries) => entries.into_iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
    .ok_or_else(|| FieldError(format!("missing field {key:?}")))
}

/// Reads a `u64` field.
///
/// # Errors
///
/// [`FieldError`] when missing or mistyped.
pub fn u64_field(v: &Value, key: &str) -> Result<u64, FieldError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| mistyped("u64", key))
}

/// Reads a `u32` field.
///
/// # Errors
///
/// [`FieldError`] when missing, mistyped, or out of range.
pub fn u32_field(v: &Value, key: &str) -> Result<u32, FieldError> {
    u64_field(v, key)?
        .try_into()
        .map_err(|_| FieldError(format!("field {key:?} exceeds u32")))
}

/// Reads a `usize` field.
///
/// # Errors
///
/// [`FieldError`] when missing, mistyped, or out of range.
pub fn usize_field(v: &Value, key: &str) -> Result<usize, FieldError> {
    u64_field(v, key)?
        .try_into()
        .map_err(|_| FieldError(format!("field {key:?} exceeds usize")))
}

/// Reads an `f64` field; the lexeme round-trips bit-exactly because
/// both sides use [`fmt_f64`]'s shortest representation.
///
/// # Errors
///
/// [`FieldError`] when missing or mistyped.
pub fn f64_field(v: &Value, key: &str) -> Result<f64, FieldError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| mistyped("f64", key))
}

/// Reads a `bool` field.
///
/// # Errors
///
/// [`FieldError`] when missing or mistyped.
pub fn bool_field(v: &Value, key: &str) -> Result<bool, FieldError> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| mistyped("bool", key))
}

/// Reads a string field.
///
/// # Errors
///
/// [`FieldError`] when missing or mistyped.
pub fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, FieldError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| mistyped("string", key))
}

/// Reads an array field.
///
/// # Errors
///
/// [`FieldError`] when missing or mistyped.
pub fn arr_field<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], FieldError> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| mistyped("array", key))
}

/// Reads an optional field with `read`: `None` when `key` is absent. A
/// field that is present but that `read` rejects is an error, never
/// silently its default.
///
/// # Errors
///
/// `read`'s [`FieldError`].
pub fn if_present<'a, T>(
    v: &'a Value,
    key: &str,
    read: impl FnOnce(&'a Value, &str) -> Result<T, FieldError>,
) -> Result<Option<T>, FieldError> {
    match v.get(key) {
        None => Ok(None),
        Some(_) => read(v, key).map(Some),
    }
}

/// A parse failure, with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON value, requiring the whole input to be consumed
/// (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a [`ParseError`] naming the first offending byte offset.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            msg: msg.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {lit}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'N') => self.literal("NaN", Value::Num("NaN".into())),
            Some(b'i') => self.literal("inf", Value::Num("inf".into())),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-inf") => {
                self.literal("-inf", Value::Num("-inf".into()))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates never appear in our own output.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let lexeme = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if lexeme.is_empty() || lexeme == "-" {
            return Err(self.err("malformed number"));
        }
        // Validate the lexeme parses as a float (the superset).
        lexeme
            .parse::<f64>()
            .map_err(|_| self.err(format!("malformed number {lexeme:?}")))?;
        Ok(Value::Num(lexeme.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for src in ["null", "true", "false", "0", "-17", "1.5", "\"hi\""] {
            let v = parse(src).unwrap();
            assert_eq!(v.to_string(), src, "{src}");
        }
    }

    #[test]
    fn u64_beyond_f64_precision_is_exact() {
        let big = u64::MAX - 1;
        let v = parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(v.to_string(), big.to_string());
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -0.0,
            2.2250738585072014e-308,
        ] {
            let v = Value::f64(x);
            let back = parse(&v.to_string()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        let nan = parse(&Value::f64(f64::NAN).to_string())
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(nan.is_nan());
        assert_eq!(
            parse("inf").unwrap().as_f64(),
            Some(f64::INFINITY),
            "inf lexeme"
        );
        assert_eq!(parse("-inf").unwrap().as_f64(), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn objects_preserve_order_and_nest() {
        let src = r#"{"b":1,"a":{"x":[1,2,3],"y":"z"},"c":null}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_string(), src);
        assert_eq!(v.get("a").unwrap().get("y").unwrap().as_str(), Some("z"));
        assert_eq!(
            v.get("a")
                .unwrap()
                .get("x")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            3
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode λ";
        let v = Value::str(nasty);
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
    }

    #[test]
    fn escaped_text_is_pinned() {
        let table = [
            ("", r#""""#),
            ("plain", r#""plain""#),
            ("a\"b", r#""a\"b""#),
            ("a\\b", r#""a\\b""#),
            ("line\n", r#""line\n""#),
            ("\rcr", r#""\rcr""#),
            ("\t", r#""\t""#),
            ("\u{1}x", r#""\u0001x""#),
            ("\u{1f}", r#""\u001f""#),
            ("café", r#""café""#),
            ("🐍 \"é\"\n", r#""🐍 \"é\"\n""#),
        ];
        for (raw, text) in table {
            let v = Value::str(raw);
            assert_eq!(v.to_string(), text, "{raw:?}");
            assert_eq!(parse(text).unwrap(), v, "{raw:?}");
        }
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse("{\"a\":}").unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(parse("").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("12 34").unwrap_err().msg.contains("trailing"));
        assert!(parse("\"open").is_err());
        assert!(parse("-").is_err());
    }

    #[test]
    fn field_readers_report_the_key() {
        let v = parse(r#"{"a":1,"x":-5,"n":null,"s":"t"}"#).unwrap();
        assert_eq!(u64_field(&v, "a").unwrap(), 1);
        let err = u64_field(&v, "b").unwrap_err();
        assert_eq!(err.to_string(), r#"missing or non-u64 field "b""#);
        // Optional fields: absent is `None`, present but mistyped is an
        // error.
        assert_eq!(if_present(&v, "b", u64_field).unwrap(), None);
        assert_eq!(if_present(&v, "a", u64_field).unwrap(), Some(1));
        let err = if_present(&v, "s", u64_field).unwrap_err();
        assert_eq!(String::from(err), r#"missing or non-u64 field "s""#);
    }

    #[test]
    fn a_taken_field_leaves_its_document() {
        let v = parse(r#"{"a":1,"big":[1,2],"big":3}"#).unwrap();
        assert_eq!(
            take_field(v.clone(), "big").unwrap(),
            parse("[1,2]").unwrap()
        );
        let err = take_field(v, "b").unwrap_err();
        assert_eq!(err.to_string(), r#"missing field "b""#);
        assert!(take_field(Value::Null, "a").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.to_string(), r#"{"a":[1,2]}"#);
    }
}
