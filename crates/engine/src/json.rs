//! A minimal, dependency-free JSON value model, parser, and string
//! escaper — the workspace is offline, so the report/spec serialization in
//! [`crate::report`] and [`crate::serialize`] hand-rolls its JSON on top
//! of this module instead of pulling in serde.
//!
//! Numbers are kept as their **raw source token** rather than eagerly
//! converted to `f64`: the consumer parses each token as `i64` or `f64`
//! according to the column/field type it expects, so 64-bit integers
//! survive the trip without the 2^53 precision cliff.

use crate::report::ParseError;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    /// A number, as the raw token from the source (e.g. `-12`, `3.5e-7`).
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    /// Members in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up an object member by key (first occurrence).
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A short name for error messages.
    pub(crate) fn type_name(&self) -> &'static str {
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

/// Appends `s` to `out` as a quoted JSON string with the minimal, canonical
/// escape set: `"` and `\` are backslash-escaped, `\n`/`\r`/`\t` use their
/// short forms, other control characters use `\u00XX`. Everything else is
/// emitted verbatim (UTF-8), so emit → parse → emit is byte-identical.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// content rejected).
pub(crate) fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { src: input, pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing content after the JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// The unparsed bytes from the cursor on (empty at the end).
    fn rest(&self) -> &[u8] {
        self.src.as_bytes().get(self.pos..).unwrap_or_default()
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.rest().starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX for the low half.
                                if !self.rest().starts_with(b"\\u") {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("surrogate pair outside Unicode"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("unpaired surrogate"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character. The cursor only ever
                    // advances by whole characters, so it sits on a char
                    // boundary; a miss is unreachable but degrades to an
                    // error.
                    let c = self
                        .src
                        .get(self.pos..)
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses exactly four hex digits and advances past them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(self.err("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected digits in exponent"));
            }
        }
        // The number lexer only consumes ASCII, so the slice cannot miss;
        // degrade to a parse error rather than panicking on the emit path.
        let raw =
            self.src.get(start..self.pos).ok_or_else(|| self.err("non-ASCII number token"))?;
        Ok(Json::Num(raw.to_string()))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structure() {
        let doc = r#"{"a": [1, -2.5, 3e4], "b": null, "c": true, "d": "x"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("b"), Some(&Json::Null));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Str("x".into())));
        let Some(Json::Arr(items)) = v.get("a") else { panic!("a is not an array") };
        // Raw tokens are preserved for the consumer to type.
        assert_eq!(items[0], Json::Num("1".into()));
        assert_eq!(items[1], Json::Num("-2.5".into()));
        assert_eq!(items[2], Json::Num("3e4".into()));
    }

    #[test]
    fn escape_and_parse_round_trip() {
        let tricky = "a\"b\\c\nd\te,f\u{1}g — ünïcode 🎯";
        let mut doc = String::new();
        escape_into(&mut doc, tricky);
        assert_eq!(parse(&doc).unwrap(), Json::Str(tricky.to_string()));
        // Canonical escapes: re-escaping the parsed value is byte-identical.
        let Json::Str(parsed) = parse(&doc).unwrap() else { panic!("not a string") };
        let mut again = String::new();
        escape_into(&mut again, &parsed);
        assert_eq!(doc, again);
    }

    #[test]
    fn decodes_surrogate_pairs_and_unicode_escapes() {
        assert_eq!(parse(r#""Aé""#).unwrap(), Json::Str("Aé".into()));
        assert_eq!(parse(r#""🎯""#).unwrap(), Json::Str("🎯".into()));
        assert!(parse(r#""\ud83c""#).is_err(), "unpaired high surrogate");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01x",
            "1 2",
            "\"abc",
            "{\"a\" 1}",
            "[1 2]",
            "nul",
            "-",
            "1.",
            "1e",
            "\"\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn big_integers_keep_their_digits() {
        let v = parse("[9223372036854775807, -9223372036854775808]").unwrap();
        let Json::Arr(items) = v else { panic!("not an array") };
        assert_eq!(items[0], Json::Num("9223372036854775807".into()));
        assert_eq!(items[1], Json::Num("-9223372036854775808".into()));
    }
}
