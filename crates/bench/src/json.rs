//! A minimal JSON reader and writer, with no serde stack.
//!
//! It is the wire format of `qirana-server`: request bodies go through
//! [`parse`], responses through [`render`], and the server's tests read
//! responses back the same way. The reader accepts exactly RFC 8259 JSON —
//! no comments, no trailing commas.
//!
//! Numbers are the round-trip-critical piece: prices travel as JSON
//! numbers and must arrive bit for bit. [`write_f64`] leans on Rust's
//! shortest-round-trip `Display` (never exponent form, always re-parses to
//! the same bits) and the reader's `str::parse::<f64>` (correctly
//! rounded), which together make serialize → parse → serialize a fixpoint
//! for every finite `f64`; `render` + [`parse`] extend that to whole
//! documents. The proptest in this module pins the invariant.

use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON value. Objects keep their key order (the emitter's order
/// is deterministic, so golden comparisons stay stable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Short type tag for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub detail: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.detail)
    }
}

/// Serializes a finite `f64` as a JSON number, `null` otherwise (JSON has
/// no NaN/Infinity). Rust's `Display` is shortest-round-trip and never
/// uses exponent form, so the emitted text re-parses to the identical
/// bits and re-serializes to the identical bytes — including `-0.0`
/// (`"-0"`). Every emitter funnels floats through here.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Serializes one value compactly (no whitespace), the writer-side twin
/// of [`parse`]: `parse(&render(v))` reproduces `v` exactly (modulo
/// non-finite numbers, which JSON cannot carry and `write_f64` maps to
/// `null`), and `render(&parse(s)?)` is a fixpoint.
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

fn write_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_f64(out, *n),
        Json::Str(s) => out.push_str(&qirana_core::telemetry::json_string(s)),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&qirana_core::telemetry::json_string(k));
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

/// Nesting bound: wire documents are a few levels deep; a pathological
/// input must not blow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, detail: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            detail: detail.into(),
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

    fn consume(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.consume(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.consume(b'"')?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not emitted by `render`;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    if let Some(c) = s.chars().next() {
                        if (c as u32) < 0x20 {
                            return Err(self.err("unescaped control character"));
                        }
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\n","d":true,"e":null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\n"));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Json::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_tokens() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn round_trips_escapes() {
        let v = parse(r#""tab\there A""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\there A"));
    }

    #[test]
    fn renders_documents_parse_back_exactly() {
        let doc = Json::Obj(vec![
            ("sql".into(), Json::Str("SELECT * FROM T".into())),
            (
                "samples".into(),
                Json::Arr(vec![
                    Json::Num(1.5),
                    Json::Num(-0.0),
                    Json::Num(f64::NAN),
                    Json::Bool(true),
                    Json::Null,
                ]),
            ),
            ("note".into(), Json::Str("tab\th \"q\" \\ \u{1}".into())),
        ]);
        let text = render(&doc);
        let back = parse(&text).unwrap();
        // NaN cannot survive (JSON has no NaN) — it becomes null; every
        // other leaf round-trips exactly, and the rendering is a fixpoint.
        assert_eq!(render(&back), text);
        assert_eq!(
            back.get("samples").unwrap().as_arr().unwrap()[2],
            Json::Null
        );
        assert_eq!(
            back.get("note").unwrap().as_str(),
            doc.get("note").unwrap().as_str()
        );
    }

    /// The round-trip checker: serialize → parse must reproduce
    /// the exact bits, and re-serializing must reproduce the exact bytes.
    fn check_f64_round_trip(x: f64) {
        if !x.is_finite() {
            return;
        }
        let mut s1 = String::new();
        write_f64(&mut s1, x);
        let back = match parse(&s1) {
            Ok(Json::Num(n)) => n,
            other => panic!("`{s1}` did not parse back as a number: {other:?}"),
        };
        assert_eq!(back.to_bits(), x.to_bits(), "bits drifted through `{s1}`");
        let mut s2 = String::new();
        write_f64(&mut s2, back);
        assert_eq!(s1, s2, "serialization is not a fixpoint");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]
        /// Serialize → parse → serialize is byte-stable for *all* finite
        /// `f64` — uniform bit patterns cover subnormals, extremes, and
        /// ulp neighbors, not just round values.
        #[test]
        fn f64_round_trip_is_byte_stable_for_uniform_bits(bits in any::<u64>()) {
            check_f64_round_trip(f64::from_bits(bits));
        }

        /// Same invariant over the generator's mixed magnitudes/specials.
        #[test]
        fn f64_round_trip_is_byte_stable_for_mixed_magnitudes(x in any::<f64>()) {
            check_f64_round_trip(x);
        }
    }

    /// The boundary cases worth naming, checked unconditionally.
    #[test]
    fn f64_round_trip_boundary_cases() {
        for x in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
            1e300,
            -1e-300,
            2.0f64.powi(53) + 2.0,
        ] {
            check_f64_round_trip(x);
        }
    }
}
