//! The benchmark's own small JSON value, emitter and reader.
//!
//! It lives here, not in a repository crate, so a later change that moves
//! or reshapes the repository's JSON code cannot change what the benchmark
//! writes or how it reads a price off the wire. Numbers are the part that
//! matters: prices are compared bitwise, so a finite `f64` must survive
//! emit → parse unchanged. Rust's `Display` for `f64` is shortest
//! round-trip and `str::parse::<f64>` is correctly rounded, which gives
//! exactly that; the unit test below pins it.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so emitted files are stable.
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
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// `get` through a chain of object keys.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        keys.iter().try_fold(self, |v, k| v.get(k))
    }
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(fields: Vec<(K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Renders on one line. Non-finite numbers have no JSON spelling and are
/// written as `null`.
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

fn write_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_string(out, s),
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
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// Writes `s` as a JSON string literal (quotes included).
pub fn write_string(out: &mut String, s: &str) {
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

/// Parses one JSON document (RFC 8259; surrogate pairs in `\u` escapes are
/// not needed by anything the benchmark reads and are rejected).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.pos))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return self.fail("expected `,` or `]`");
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return self.fail("expected `:`");
                    }
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(",") {
                        return self.fail("expected `,` or `}`");
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                // The slice holds ASCII only, so it is valid UTF-8.
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
                match text.parse::<f64>() {
                    Ok(n) => Ok(Json::Num(n)),
                    Err(_) => self.fail("malformed number"),
                }
            }
            _ => self.fail("expected a JSON value"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.fail("expected a string");
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return self.fail("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out).or_else(|_| self.fail("string is not UTF-8"))
                }
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return self.fail("unterminated escape");
                    };
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            let Some(c) = code else {
                                return self.fail("unsupported \\u escape");
                            };
                            self.pos += 4;
                            c
                        }
                        _ => return self.fail("unknown escape"),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_f64_round_trips_bitwise() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            0.1,
            1e-300,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            100.0 / 3.0,
            2502.123456789,
        ];
        for _ in 0..2000 {
            // splitmix64 over the whole bit space, keeping the finite ones
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let v = f64::from_bits(z ^ (z >> 31));
            if v.is_finite() {
                values.push(v);
            }
        }
        for v in values {
            let text = render(&Json::Num(v));
            let back = parse(&text).unwrap().num().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:e} went out as {text}");
            assert_eq!(render(&Json::Num(back)), text);
        }
    }

    #[test]
    fn documents_round_trip_and_non_finite_is_null() {
        let doc = obj(vec![
            ("name", Json::Str("a \"quoted\"\n\\ line\u{1}".into())),
            (
                "items",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-2.5)]),
            ),
            ("nested", obj(vec![("k", Json::Arr(vec![]))])),
        ]);
        assert_eq!(parse(&render(&doc)).unwrap(), doc);
        assert_eq!(render(&Json::Num(f64::NAN)), "null");
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1] x").is_err());
        assert_eq!(
            parse(" {\"a\" : [1, 2 ] } ")
                .unwrap()
                .path(&["a"])
                .unwrap()
                .arr()
                .unwrap()
                .len(),
            2
        );
    }
}
