//! The workspace's one JSON codec: a string escaper ([`escape`]), an
//! `f64` writer ([`number`]) and a reader ([`parse`]).
//!
//! Every JSON artifact goes through here: the per-round traces and run
//! summaries in [`crate::metrics`], the `np-manifest/v1` journal and the
//! `np-bench/v1` reports of `np_sweep`, and the schema checks of
//! `cargo xtask check-artifacts`. Writers lay out their own fields in a
//! fixed order with `format!`; this module only owns the two value
//! encodings whose bytes must agree everywhere, and the grammar.
//!
//! The reader keeps each number's *raw text* ([`Json::Num`]), so `u64`
//! seeds above 2⁵³ survive exactly and a writer's output re-encodes to
//! the same bytes. It reads untrusted bytes (a crashed sweep's last
//! manifest line, a hand-edited artifact), so it returns a [`JsonError`]
//! on any input: nesting is capped at [`MAX_DEPTH`], so a run of `[[[…`
//! cannot overflow the stack, and the compiler rules out every panicking
//! index, `panic!`, `unwrap` and `expect` in this file.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used
)]

use std::fmt;

/// Deepest nesting of arrays and objects [`parse`] accepts. The
/// workspace's artifacts nest at most three levels and cargo's
/// diagnostics a few more; deeper input is an error, not a stack
/// overflow.
pub const MAX_DEPTH: usize = 128;

/// Renders `s` as a JSON string literal, quotes included. `"`, `\` and
/// the control characters are escaped (`\n`, `\r`, `\t` by name, the rest
/// as `\u00XX`); every other character is written as raw UTF-8.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f64` as a JSON number. Rust's shortest-roundtrip `Display`
/// is deterministic and never uses exponent notation, so equal values
/// render to equal bytes and [`parse`] reads them back bit for bit.
/// Non-finite values (not representable in JSON) become `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, its source text preserved.
    Num(String),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order preserved as written.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The first field named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is a non-negative integer number
    /// that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// A short name for the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
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

/// Why [`parse`] rejected its input, and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset at which decoding stopped.
    pub offset: usize,
    /// What was expected or found there.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Parses exactly one JSON value spanning the whole input; whitespace
/// around it is allowed.
///
/// # Errors
///
/// Returns [`JsonError`] for anything outside the JSON grammar (RFC 8259,
/// including a `\u` escape naming a lone surrogate), for nesting deeper
/// than [`MAX_DEPTH`], and for trailing data after the value.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut reader = Reader {
        text,
        pos: 0,
        depth: 0,
    };
    reader.skip_ws();
    let value = reader.value()?;
    reader.skip_ws();
    if reader.pos != text.len() {
        return Err(reader.error("trailing data after the value"));
    }
    Ok(value)
}

/// Recursive-descent state: the input and the byte offset into it.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Reader<'_> {
    fn error(&self, reason: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        if found {
            self.pos += 1;
        }
        found
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'[' | b'{') => self.nested(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// An array or object, one level deeper.
    fn nested(&mut self) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        let value = if self.eat(b'[') {
            self.array()
        } else {
            self.pos += 1; // `{`
            self.object()
        };
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or `]`"));
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected an object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.error("expected `:`"));
            }
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or `}`"));
            }
        }
    }

    fn literal(&mut self, word: &'static str, value: Json) -> Result<Json, JsonError> {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    /// Skips ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        // No leading zeros: `0` alone, or a nonzero digit first.
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(self.error("invalid number"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.error("invalid number"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.error("invalid number"));
            }
        }
        let raw = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| self.error("invalid number"))?;
        Ok(Json::Num(raw.to_owned()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening `"`
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control character in one go.
            let rest = self.text.get(self.pos..).unwrap_or_default();
            let run = rest
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .unwrap_or(rest.len());
            out.push_str(rest.get(..run).unwrap_or_default());
            self.pos += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escaped()?);
                }
                Some(_) => return Err(self.error("raw control character in string")),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escaped(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes the code point of a `\u` escape, joining a UTF-16
    /// surrogate pair written as two escapes.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4()?;
        let code = match high {
            0xd800..=0xdbff => {
                let next = self.text.as_bytes().get(self.pos..self.pos + 2);
                if next != Some(b"\\u".as_slice()) {
                    return Err(self.error("lone surrogate in \\u escape"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&low) {
                    return Err(self.error("lone surrogate in \\u escape"));
                }
                0x1_0000 + ((high - 0xd800) << 10) + (low - 0xdc00)
            }
            0xdc00..=0xdfff => return Err(self.error("lone surrogate in \\u escape")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))
    }

    /// Reads the four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -1.5e3 ").unwrap(), Json::Num("-1.5e3".into()));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn numbers_keep_raw_text() {
        // u64::MAX survives (an f64 round-trip would corrupt it).
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(parse("-0").unwrap(), Json::Num("-0".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(false)));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
        assert_eq!(v.get("zzz"), None);
        assert_eq!(Json::Null.get("a"), None);
    }

    #[test]
    fn rejects_malformed_input_with_an_offset() {
        for bad in [
            "",
            "{} extra",
            "{,}",
            "[1,]",
            "\"open",
            "01",
            "1.",
            "-",
            "1e",
            "+1",
            "tru",
            "{\"a\" 1}",
            "{1:2}",
            "\"\\x\"",
            "\"\\u12g4\"",
            "\"\\u+123\"",
            "\"a\u{1}b\"",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` parsed");
        }
        let err = parse("[1, 2 3]").unwrap_err();
        assert_eq!(err.offset, 6);
        assert_eq!(
            err.to_string(),
            "malformed JSON at byte 6: expected `,` or `]`"
        );
        assert!(parse("{} x").unwrap_err().reason.contains("trailing"));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_errors() {
        assert_eq!(
            parse("\"\\ud835\\udec5\"").unwrap(),
            Json::Str("\u{1d6c5}".into())
        );
        for bad in [
            "\"\\ud835\"",
            "\"\\ud835x\"",
            "\"\\ud835\\u0041\"",
            "\"\\udec5\"",
        ] {
            assert!(
                parse(bad).unwrap_err().reason.contains("surrogate"),
                "{bad}"
            );
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().reason.contains("MAX_DEPTH"));
        for unit in ["[", "{\"a\":"] {
            let hostile = unit.repeat((1 << 20) / unit.len());
            assert!(parse(&hostile).is_err(), "{unit}");
        }
    }

    #[test]
    fn escape_matches_the_artifact_bytes() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(escape("\u{1}\u{1f}é"), "\"\\u0001\\u001fé\"");
        let s = "a\"b\\c\nd\te\u{1}f\r";
        assert_eq!(parse(&escape(s)).unwrap(), Json::Str(s.into()));
    }

    #[test]
    fn number_writes_shortest_roundtrip_and_null_for_non_finite() {
        assert_eq!(number(1.0), "1");
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(1e-7), "0.0000001");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
    }
}
