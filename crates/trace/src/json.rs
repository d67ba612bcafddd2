//! The workspace's one dependency-free JSON module: a document builder
//! ([`Json`]) and a recursive-descent parser ([`parse`], with [`validate`]
//! for callers that only need the verdict).
//!
//! The workspace builds fully offline, so everything that speaks JSON — the
//! trace attributes and Chrome sink in this crate, the criticality and
//! campaign reports in `tmr-analyze`/`tmr-bench`, the artifact-store metadata
//! in `tmr-store` and the campaign-service wire protocol in `tmr-serve` —
//! shares this module instead of pulling in `serde`. It lives in
//! `tmr-trace`, the bottom of the dependency order, and `tmr-core` re-exports
//! it as `tmr_core::json`. Only what those layers need is implemented:
//! objects with insertion-ordered keys, arrays, escaped strings, integers,
//! floats, booleans and null, rendered compactly and parsed back with
//! byte-offset errors.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float (serialized with enough precision to round-trip; non-finite
    /// values degrade to `null`, as JSON has no representation for them).
    Float(f64),
    /// A string (escaped on serialization).
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array(values: impl IntoIterator<Item = Json>) -> Self {
        Json::Array(values.into_iter().collect())
    }

    /// Builds a string value.
    pub fn str(value: impl Into<String>) -> Self {
        Json::Str(value.into())
    }

    /// Serializes to a compact JSON string.
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Looks a key up in an object (`None` on other variants or a missing
    /// key; the first occurrence wins on duplicate keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload of a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload of a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as an `i64` ([`Json::Int`], or a [`Json::Float`]
    /// that is exactly integral).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(x) if x.fract() == 0.0 && x.abs() < 9.0e18 => Some(*x as i64),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// The numeric payload as an `f64` (accepts both numeric variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The elements of a [`Json::Array`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(values) => Some(values),
            _ => None,
        }
    }

    /// The `(key, value)` pairs of a [`Json::Object`].
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

impl From<usize> for Json {
    fn from(value: usize) -> Self {
        Json::Int(value as i64)
    }
}

impl From<u64> for Json {
    fn from(value: u64) -> Self {
        Json::Int(value as i64)
    }
}

impl From<u32> for Json {
    fn from(value: u32) -> Self {
        Json::Int(i64::from(value))
    }
}

impl From<bool> for Json {
    fn from(value: bool) -> Self {
        Json::Bool(value)
    }
}

impl From<f64> for Json {
    fn from(value: f64) -> Self {
        Json::Float(value)
    }
}

impl From<&str> for Json {
    fn from(value: &str) -> Self {
        Json::Str(value.to_string())
    }
}

impl From<String> for Json {
    fn from(value: String) -> Self {
        Json::Str(value)
    }
}

fn escape_into(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Float(x) if x.is_finite() => write!(f, "{x}"),
            Json::Float(_) => f.write_str("null"),
            Json::Str(s) => escape_into(f, s),
            Json::Array(values) => {
                f.write_str("[")?;
                for (i, value) in values.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{value}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape_into(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Validates that `text` is one complete, well-formed JSON value. Returns
/// the byte offset and a message on the first error.
pub fn validate(text: &str) -> Result<(), String> {
    parse(text).map(|_| ())
}

/// Parses `text` into a [`Json`] tree. Returns the byte offset and a message
/// on the first error; the whole input must be one JSON value.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    let parsed = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(parsed)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn fail(pos: usize, what: &str) -> String {
    format!("{what} at byte {pos}")
}

/// One recursive-descent step: the value starting at `pos`.
fn value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    match bytes.get(*pos) {
        Some(b'{') => object(bytes, pos),
        Some(b'[') => array(bytes, pos),
        Some(b'"') => string(bytes, pos).map(Json::Str),
        Some(b'-' | b'0'..=b'9') => number(bytes, pos),
        Some(b't') => literal(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => literal(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => literal(bytes, pos, b"null", Json::Null),
        Some(_) => Err(fail(*pos, "unexpected character")),
        None => Err(fail(*pos, "unexpected end of input")),
    }
}

fn literal(bytes: &[u8], pos: &mut usize, expected: &[u8], parsed: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(expected) {
        *pos += expected.len();
        Ok(parsed)
    } else {
        Err(fail(*pos, "malformed literal"))
    }
}

fn object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(fail(*pos, "expected object key"));
        }
        let key = string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(fail(*pos, "expected ':'"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        pairs.push((key, value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(pairs));
            }
            _ => return Err(fail(*pos, "expected ',' or '}'")),
        }
    }
}

fn array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut values = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(values));
    }
    loop {
        skip_ws(bytes, pos);
        values.push(value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(values));
            }
            _ => return Err(fail(*pos, "expected ',' or ']'")),
        }
    }
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    let mut out = String::new();
    *pos += 1; // consume opening quote
    let mut run = *pos; // start of the current escape-free run
    while let Some(&byte) = bytes.get(*pos) {
        match byte {
            b'"' => {
                out.push_str(str_run(bytes, run, *pos)?);
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(str_run(bytes, run, *pos)?);
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
                        let mut code = hex4(bytes, pos)?;
                        // A non-BMP character is an escaped UTF-16
                        // surrogate pair (RFC 8259 §7).
                        if (0xd800..0xdc00).contains(&code) && bytes[*pos + 1..].starts_with(b"\\u")
                        {
                            let mut next = *pos + 2;
                            if let Ok(low @ 0xdc00..=0xdfff) = hex4(bytes, &mut next) {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                *pos = next;
                            }
                        }
                        // Unpaired surrogates degrade to the replacement
                        // character rather than rejecting the document.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(fail(*pos, "bad escape")),
                }
                *pos += 1;
                run = *pos;
            }
            byte if byte < 0x20 => return Err(fail(*pos, "control character in string")),
            _ => *pos += 1,
        }
    }
    Err(fail(*pos, "unterminated string"))
}

/// The four hex digits after the `u` of a `\u` escape at `pos`; leaves `pos`
/// on the last digit.
fn hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let mut code = 0;
    for _ in 0..4 {
        *pos += 1;
        let digit = bytes
            .get(*pos)
            .and_then(|byte| (*byte as char).to_digit(16))
            .ok_or_else(|| fail(*pos, "bad \\u escape"))?;
        code = code * 16 + digit;
    }
    Ok(code)
}

/// The escape-free byte run `[from, to)` as UTF-8 (the input may be any byte
/// slice, so the run is checked).
fn str_run(bytes: &[u8], from: usize, to: usize) -> Result<&str, String> {
    std::str::from_utf8(&bytes[from..to]).map_err(|_| fail(from, "invalid UTF-8 in string"))
}

fn number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |bytes: &[u8], pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(|byte| byte.is_ascii_digit()) {
            *pos += 1;
        }
        *pos > from
    };
    let int_start = *pos;
    if !digits(bytes, pos) {
        return Err(fail(start, "malformed number"));
    }
    // RFC 8259 §6: no leading zeros.
    if bytes[int_start] == b'0' && *pos - int_start > 1 {
        return Err(fail(int_start, "leading zero in number"));
    }
    let mut integral = true;
    if bytes.get(*pos) == Some(&b'.') {
        integral = false;
        *pos += 1;
        if !digits(bytes, pos) {
            return Err(fail(*pos, "malformed fraction"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        integral = false;
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(bytes, pos) {
            return Err(fail(*pos, "malformed exponent"));
        }
    }
    // The run is ASCII digits/sign/dot/exponent, so from_utf8 cannot fail.
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number run");
    match text.parse::<i64>() {
        Ok(i) if integral => Ok(Json::Int(i)),
        _ => text
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|_| fail(start, "number out of range")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_wellformed_documents() {
        for text in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#"{"a":[1,2,{"b":"c\nd"}],"e":true}"#,
            r#"  {"traceEvents":[{"ph":"X","ts":0.5,"dur":1.25}]} "#,
        ] {
            assert_eq!(validate(text), Ok(()), "{text}");
            assert!(parse(text).is_ok(), "{text}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in ["", "{", "[1,]", "{\"a\":}", "01x", "\"abc", "{}extra"] {
            assert!(validate(text).is_err(), "{text}");
            assert!(parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn renders_nested_documents() {
        let doc = Json::object([
            ("name", Json::str("tmr_p2")),
            ("bits", Json::from(42usize)),
            ("fraction", Json::from(0.5)),
            ("ok", Json::from(true)),
            ("rows", Json::array([Json::from(1usize), Json::Null])),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"name":"tmr_p2","bits":42,"fraction":0.5,"ok":true,"rows":[1,null]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(
            Json::str("a\"b\\c\nd\te\u{1}").render(),
            r#""a\"b\\c\nd\te\u0001""#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
        assert_eq!(Json::Float(2.25).render(), "2.25");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::array([]).render(), "[]");
        assert_eq!(Json::object::<String>([]).render(), "{}");
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Json::object([
            ("design", Json::str("fir\n\"q\"")),
            ("injected", Json::from(4000usize)),
            ("rate", Json::from(0.0403)),
            ("negative", Json::Int(-7)),
            ("stopped", Json::from(false)),
            (
                "batches",
                Json::array([Json::from(1usize), Json::Null, Json::Float(1.5)]),
            ),
            ("nested", Json::object([("empty", Json::array([]))])),
        ]);
        assert_eq!(parse(&doc.render()), Ok(doc));
    }

    #[test]
    fn parse_distinguishes_ints_from_floats() {
        assert_eq!(parse("42"), Ok(Json::Int(42)));
        assert_eq!(parse("-42"), Ok(Json::Int(-42)));
        assert_eq!(parse("42.0"), Ok(Json::Float(42.0)));
        assert_eq!(parse("1e3"), Ok(Json::Float(1000.0)));
        // Beyond i64 range, integers degrade to floats instead of failing.
        assert_eq!(parse("99999999999999999999"), Ok(Json::Float(1e20)));
    }

    #[test]
    fn parse_decodes_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\ndA☺""#),
            Ok(Json::Str("a\"b\\c\ndA\u{263a}".to_string()))
        );
    }

    #[test]
    fn parse_decodes_surrogate_pairs() {
        assert_eq!(
            parse(r#""job-\ud83d\ude00""#),
            Ok(Json::str("job-\u{1f600}"))
        );
        // Lone or reversed surrogates degrade to U+FFFD; the escape after a
        // lone high surrogate still decodes.
        assert_eq!(parse(r#""\ud83d""#), Ok(Json::str("\u{fffd}")));
        assert_eq!(parse(r#""\ude00x""#), Ok(Json::str("\u{fffd}x")));
        assert_eq!(parse(r#""\ud83d\u0041""#), Ok(Json::str("\u{fffd}A")));
        assert_eq!(
            parse(r#""\ude00\ud83d""#),
            Ok(Json::str("\u{fffd}\u{fffd}"))
        );
        assert!(parse(r#""\ud83d\u12""#).is_err());
    }

    #[test]
    fn parse_rejects_leading_zeros_only() {
        for text in ["01", "-012", "00", "[1,007]"] {
            assert!(parse(text).is_err(), "{text}");
            assert!(validate(text).is_err(), "{text}");
        }
        assert_eq!(parse("0"), Ok(Json::Int(0)));
        assert_eq!(parse("-0"), Ok(Json::Int(0)));
        assert_eq!(parse("0.5"), Ok(Json::Float(0.5)));
        assert_eq!(parse("-0.5e1"), Ok(Json::Float(-5.0)));
        assert_eq!(parse("10"), Ok(Json::Int(10)));
    }

    #[test]
    fn accessors_navigate_documents() {
        let doc = parse(r#"{"type":"progress","job":3,"ci":0.01,"done":false,"rows":[1,2]}"#)
            .expect("well-formed");
        assert_eq!(doc.get("type").and_then(Json::as_str), Some("progress"));
        assert_eq!(doc.get("job").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("ci").and_then(Json::as_f64), Some(0.01));
        assert_eq!(doc.get("done").and_then(Json::as_bool), Some(false));
        assert_eq!(
            doc.get("rows").and_then(Json::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("type"), None);
    }
}
