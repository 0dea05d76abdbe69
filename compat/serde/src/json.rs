//! JSON text reading and writing for [`Value`].
//!
//! Lives in the `serde` stub (rather than the `serde_json` stub) so both
//! crates and the derive output share one implementation.

use crate::{Error, Value};

/// Maximum nesting depth accepted by the parser (stack-overflow guard).
const MAX_DEPTH: usize = 128;

/// Writes compact JSON.
pub fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => out.push_str(n),
        Value::String(s) => write_escaped(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}

/// Writes pretty-printed JSON with 2-space indentation (serde_json style).
pub fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = |n: usize, out: &mut String| {
        for _ in 0..n {
            out.push_str("  ");
        }
    };
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(indent + 1, out);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            pad(indent, out);
            out.push(']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(indent + 1, out);
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            pad(indent, out);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), Error> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
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
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid codepoint"))?);
                            // hex4 leaves pos after the digits; compensate
                            // for the unconditional advance below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the whole run of plain bytes up to the next
                    // quote, escape or control byte, validating only that
                    // run: every byte is looked at once, so parsing stays
                    // linear in the document.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..self.pos]) {
                        Ok(run) => out.push_str(run),
                        Err(e) => {
                            self.pos = start + e.valid_up_to();
                            return Err(self.err("invalid UTF-8"));
                        }
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser| {
            let s = p.pos;
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(self.err("invalid number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("invalid number fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("invalid number exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        Ok(Value::Number(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let text = r#"{"a":[1,2.5,-3e2],"b":"hi\n\"x\"","c":null,"d":true,"e":{}}"#;
        let v = parse(text).unwrap();
        let mut out = String::new();
        write_compact(&v, &mut out);
        assert_eq!(parse(&out).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "tru",
            "1.2.3",
            "{\"a\" 1}",
            "nul",
            "[1]x",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""A😀""#).unwrap();
        assert_eq!(v, Value::String("A😀".to_string()));
    }

    #[test]
    fn string_rejections_name_the_byte() {
        for (bad, why) in [
            ("\"a\u{1}b\"", "control character in string at byte 2"),
            ("\"ab\\u12", "truncated \\u escape at byte 5"),
            ("\"ab\\q\"", "invalid escape at byte 4"),
            ("\"ab", "unterminated string at byte 3"),
        ] {
            let err = parse(bad).unwrap_err().to_string();
            assert!(err.contains(why), "{bad:?}: got {err}");
        }
    }

    #[test]
    fn four_byte_char_at_the_end_of_input() {
        // Whole: the last plain run ends in a 4-byte char right before
        // the closing quote, the final byte of the document.
        assert_eq!(parse("\"ab😀\"").unwrap(), Value::String("ab😀".into()));
        // Cut anywhere inside the char (only reachable below `parse`,
        // whose `&str` input is already valid): a typed error at the
        // char's first byte, never a slice past the end.
        let whole = "\"ab😀".as_bytes();
        for cut in 1..4 {
            let mut p = Parser {
                bytes: &whole[..whole.len() - cut],
                pos: 0,
            };
            let err = p.string().unwrap_err().to_string();
            assert!(err.contains("invalid UTF-8 at byte 3"), "cut {cut}: {err}");
        }
    }

    #[test]
    fn large_string_heavy_document_parses_in_linear_time() {
        // 16 MiB of strings: finishes only if each byte is validated once,
        // not once per character that precedes it.
        let item = format!("\"{}é😀\\n{}\"", "x".repeat(500), "y".repeat(500));
        let count = (16 << 20) / item.len() + 1;
        let mut text = String::with_capacity(count * (item.len() + 1) + 2);
        text.push('[');
        for i in 0..count {
            if i > 0 {
                text.push(',');
            }
            text.push_str(&item);
        }
        text.push(']');
        assert!(text.len() >= 16 << 20);
        let Value::Array(items) = parse(&text).unwrap() else {
            panic!("expected an array");
        };
        assert_eq!(items.len(), count);
        let want = format!("{}é😀\n{}", "x".repeat(500), "y".repeat(500));
        assert_eq!(items[count - 1], Value::String(want));
    }

    #[test]
    fn pretty_output_reparses() {
        let v = parse(r#"{"a":[1,2],"b":{"c":"d"}}"#).unwrap();
        let mut out = String::new();
        write_pretty(&v, 0, &mut out);
        assert_eq!(parse(&out).unwrap(), v);
        assert!(out.contains('\n'));
    }
}
