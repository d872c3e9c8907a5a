//! A keep-alive HTTP/1.1 client for one closed-loop connection.
//!
//! It does as little as possible between the request write and the last
//! response byte, because that interval is the reported latency: buffers
//! are reused, the body is kept as bytes, and the only field read during a
//! run is sliced out by [`number_field`] without building a document.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use crate::json;

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
    line: String,
    /// Body of the last response.
    pub body: Vec<u8>,
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            request: Vec::with_capacity(1024),
            line: String::new(),
            body: Vec::new(),
        })
    }

    /// Sends one request and reads the whole response; returns the status.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<u16> {
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.stream.write_all(&self.request)?;

        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        let status: u16 = self
            .line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed inside headers"));
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad("response lacks Content-Length"))?;
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }

    pub fn get(&mut self, path: &str) -> io::Result<u16> {
        self.call("GET", path, "")
    }

    pub fn post(&mut self, path: &str, body: &str) -> io::Result<u16> {
        self.call("POST", path, body)
    }

    /// The last response body as a document (outside timed code only).
    pub fn body_json(&self) -> Result<json::Json, String> {
        json::parse(std::str::from_utf8(&self.body).map_err(|e| e.to_string())?)
    }
}

/// Slices the first `"key":<number>` out of a JSON body. The service
/// writes `price`, `total_paid` and `row_count` ahead of any string a
/// buyer controls, so the first match is the field itself.
pub fn number_field(body: &[u8], key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = body
        .windows(needle.len())
        .position(|w| w == needle.as_bytes())?
        + needle.len();
    let rest = &body[at..];
    let end = rest
        .iter()
        .position(|b| !matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        .unwrap_or(rest.len());
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

/// `{"sql":…}` and `{"buyer":…,"sql":…}` request bodies.
pub fn quote_body(sql: &str) -> String {
    let mut out = String::from("{\"sql\":");
    json::write_string(&mut out, sql);
    out.push('}');
    out
}

pub fn buy_body(buyer: &str, sql: &str) -> String {
    let mut out = String::from("{\"buyer\":");
    json::write_string(&mut out, buyer);
    out.push_str(",\"sql\":");
    json::write_string(&mut out, sql);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_numbers_bitwise() {
        let price: f64 = 100.0 / 3.0;
        let body = format!(
            "{{\"price\":{price},\"total_paid\":{},\"degraded\":false,\"row_count\":12,\"rows\":[[\"\\\"price\\\":7\"]]}}",
            price * 2.0
        );
        let b = body.as_bytes();
        assert_eq!(number_field(b, "price").unwrap().to_bits(), price.to_bits());
        assert_eq!(number_field(b, "total_paid"), Some(price * 2.0));
        assert_eq!(number_field(b, "row_count"), Some(12.0));
        assert_eq!(number_field(b, "missing"), None);
        assert_eq!(number_field(b"{\"price\":}", "price"), None);
    }

    #[test]
    fn bodies_escape_what_json_requires() {
        assert_eq!(
            buy_body("b1", "select 'a\"b' from T"),
            "{\"buyer\":\"b1\",\"sql\":\"select 'a\\\"b' from T\"}"
        );
        let doc = json::parse(&quote_body("x\ny")).unwrap();
        assert_eq!(doc.get("sql").unwrap().str(), Some("x\ny"));
    }
}
