//! Line-delimited JSON for the `optiwised` wire protocol.
//!
//! The daemon speaks one flat JSON object per line: string, unsigned
//! integer and boolean values only, no nesting, no floats, no nulls. That
//! subset is all the protocol needs, and a hand-rolled codec keeps the
//! build hermetic (no registry access for a real JSON crate). Parsing
//! fails closed: anything outside the subset is an error, never a guess.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read};

use optiwise::export::json_escape;

/// A protocol value: the subset of JSON the daemon wire format uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A non-negative integer (`u64`; the protocol has no floats).
    Int(u64),
    /// A JSON boolean.
    Bool(bool),
}

/// Outcome of [`read_bounded_line`]: one line, or proof the peer exceeded
/// the budget.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// One line, newline stripped (or the whole stream if it ended
    /// without one while still under budget).
    Line(String),
    /// The peer sent more than the budget without a newline. The reader
    /// stopped buffering at the cap; the rest of the stream is unread.
    TooLong,
}

/// Reads one `\n`-terminated line, buffering at most `max_bytes` of it.
///
/// This is the daemon's first line of defense against a hostile client:
/// `BufReader::read_line` on its own buffers until the peer hangs up,
/// so a newline-free flood grows the daemon's heap without bound. Here
/// the underlying reader is hard-capped via [`Read::take`] — not one
/// byte past the budget is ever pulled, let alone buffered.
///
/// Invalid UTF-8 surfaces as an [`io::ErrorKind::InvalidData`] error,
/// exactly as `read_line` reports it.
pub fn read_bounded_line(reader: impl Read, max_bytes: usize) -> io::Result<LineRead> {
    // One byte of slack distinguishes "exactly max_bytes then newline"
    // (fine) from "more than max_bytes and still no newline" (flood).
    let cap = max_bytes.saturating_add(1);
    let mut bytes = Vec::new();
    BufReader::new(reader.take(cap as u64)).read_until(b'\n', &mut bytes)?;
    if bytes.last() != Some(&b'\n') && bytes.len() >= cap {
        return Ok(LineRead::TooLong);
    }
    if bytes.last() == Some(&b'\n') {
        bytes.pop();
    }
    match String::from_utf8(bytes) {
        Ok(line) => Ok(LineRead::Line(line)),
        Err(e) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line is not UTF-8: {e}"),
        )),
    }
}

/// Serialises one flat object as a single JSON line (no trailing newline).
/// `BTreeMap` ordering makes the output deterministic.
pub fn to_line(object: &BTreeMap<String, Value>) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in object.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", json_escape(key));
        match value {
            Value::Str(s) => {
                let _ = write!(out, "\"{}\"", json_escape(s));
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
    out.push('}');
    out
}

/// Parses one flat JSON object line into a map. Duplicate keys, nesting,
/// floats, negative numbers, nulls and trailing garbage are all errors.
pub fn parse_object(line: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut p = Parser {
        chars: line.chars().collect(),
        pos: 0,
    };
    p.skip_ws();
    p.expect('{')?;
    let mut object = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some('}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(':')?;
            p.skip_ws();
            let value = p.value()?;
            if object.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key `{key}`"));
            }
            p.skip_ws();
            match p.next() {
                Some(',') => continue,
                Some('}') => break,
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }
    p.skip_ws();
    match p.peek() {
        None => Ok(object),
        Some(c) => Err(format!("trailing garbage starting at `{c}`")),
    }
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.next() {
            Some(c) if c == want => Ok(()),
            other => Err(format!("expected `{want}`, got {other:?}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        // Surrogate pairs are outside the protocol subset.
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) if (c as u32) < 0x20 => {
                    return Err("raw control character in string".into())
                }
                Some(c) => out.push(c),
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('t') => self.literal("true").map(|()| Value::Bool(true)),
            Some('f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(c) if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(d) = self.peek().and_then(|c| c.to_digit(10)) {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(d as u64))
                        .ok_or("integer overflow")?;
                    self.pos += 1;
                }
                if matches!(self.peek(), Some('.' | 'e' | 'E')) {
                    return Err("floats are outside the protocol subset".into());
                }
                Ok(Value::Int(n))
            }
            other => Err(format!("expected a value, got {other:?}")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        for want in word.chars() {
            self.expect(want)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(pairs: &[(&str, Value)]) -> String {
        to_line(
            &pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn round_trips_every_value_kind() {
        let text = line(&[
            ("cmd", Value::Str("submit".into())),
            ("seed", Value::Int(42)),
            ("ok", Value::Bool(true)),
            ("draining", Value::Bool(false)),
        ]);
        let parsed = parse_object(&text).unwrap();
        assert_eq!(parsed.get("cmd"), Some(&Value::Str("submit".into())));
        assert_eq!(parsed.get("seed"), Some(&Value::Int(42)));
        assert_eq!(parsed.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(parsed.get("draining"), Some(&Value::Bool(false)));
        assert_eq!(to_line(&parsed), text, "canonical form is stable");
    }

    #[test]
    fn escapes_round_trip() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g";
        let text = line(&[("msg", Value::Str(nasty.into()))]);
        assert!(!text.contains('\n'), "one line on the wire: {text}");
        let parsed = parse_object(&text).unwrap();
        assert_eq!(parsed.get("msg"), Some(&Value::Str(nasty.into())));
    }

    #[test]
    fn parses_whitespace_and_empty_object() {
        assert!(parse_object("{}").unwrap().is_empty());
        let parsed = parse_object(" { \"a\" : 1 , \"b\" : \"x\" } ").unwrap();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn bounded_reader_returns_lines_under_budget() {
        assert_eq!(
            read_bounded_line(&b"{\"cmd\":\"ping\"}\nrest of the stream"[..], 64).unwrap(),
            LineRead::Line("{\"cmd\":\"ping\"}".into())
        );
        // A stream that ends without a newline but under budget is a line.
        assert_eq!(
            read_bounded_line(&b"{}"[..], 64).unwrap(),
            LineRead::Line("{}".into())
        );
        // Exactly at the budget with a newline is still fine.
        assert_eq!(
            read_bounded_line(&b"abcd\n"[..], 4).unwrap(),
            LineRead::Line("abcd".into())
        );
    }

    #[test]
    fn bounded_reader_stops_buffering_a_newline_free_flood() {
        let flood = vec![b'x'; 1 << 20];
        assert_eq!(
            read_bounded_line(&flood[..], 4096).unwrap(),
            LineRead::TooLong
        );
        // Too long even when a newline exists past the cap.
        let mut late = vec![b'y'; 8192];
        late.push(b'\n');
        assert_eq!(
            read_bounded_line(&late[..], 4096).unwrap(),
            LineRead::TooLong
        );
    }

    #[test]
    fn bounded_reader_reports_invalid_utf8_as_data_error() {
        let err = read_bounded_line(&b"\xff\xfe{}\n"[..], 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_everything_outside_the_subset() {
        for bad in [
            "",
            "{",
            "{}}",
            "[1]",
            "{\"a\":null}",
            "{\"a\":-1}",
            "{\"a\":1.5}",
            "{\"a\":1e3}",
            "{\"a\":{\"b\":1}}",
            "{\"a\":[1]}",
            "{\"a\":1,\"a\":2}",
            "{\"a\":\"unterminated}",
            "{\"a\":1} extra",
            "{\"a\":18446744073709551616}",
        ] {
            assert!(parse_object(bad).is_err(), "accepted: {bad}");
        }
        // Largest representable integer still parses.
        let max = format!("{{\"a\":{}}}", u64::MAX);
        assert_eq!(
            parse_object(&max).unwrap().get("a"),
            Some(&Value::Int(u64::MAX))
        );
    }
}
