//! The one JSON reader: strict RFC 8259, into a [`Value`] tree. It
//! also refuses a duplicate key and bytes after the value. A number
//! keeps its text, so a `u64` reads back exact and `10.5` is no
//! integer; a refusal names the byte where it was found.

use std::fmt;

/// Nesting this deep is refused, so no input can exhaust the stack.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its text.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members, in file order, no key twice.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object, read by `read`; an error says the
    /// key is `missing`, or that its value `is not` `what`.
    pub fn field<'v, T>(
        &'v self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'v Value) -> Option<T>,
    ) -> Result<T, String> {
        let Value::Object(members) = self else {
            return Err(format!("missing {key}"));
        };
        let (_, value) = members
            .iter()
            .find(|(k, _)| k == key)
            .ok_or_else(|| format!("missing {key}"))?;
        read(value).ok_or_else(|| format!("{key} is not {what}"))
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        let Value::String(s) = self else { return None };
        Some(s)
    }

    /// The value itself, if it is an object.
    pub fn as_object(&self) -> Option<&Value> {
        matches!(self, Value::Object(_)).then_some(self)
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        let Value::Array(items) = self else {
            return None;
        };
        Some(items)
    }

    /// A number written as bare digits (no sign, fraction or exponent)
    /// that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        let Value::Number(t) = self else { return None };
        t.bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| t.parse().ok())?
    }

    /// A number as the nearest `f64`, if that is finite.
    pub fn as_f64(&self) -> Option<f64> {
        let Value::Number(t) = self else { return None };
        t.parse().ok().filter(|v: &f64| v.is_finite())
    }
}

/// A refused JSON text: what was wrong, at which byte (from 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    /// Byte offset into the text.
    pub at: usize,
    /// What was wrong there.
    pub what: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.what)
    }
}

fn fail<T>(at: usize, what: &'static str) -> Result<T, Error> {
    Err(Error { at, what })
}

/// Parses `text` as exactly one JSON value, whitespace around it
/// allowed; the error is the first offence against the grammar.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut reader = Reader { text, at: 0 };
    let value = reader.value(0)?;
    match reader.skip_ws() {
        Some(_) => fail(reader.at, "trailing bytes after the value"),
        None => Ok(value),
    }
}

/// The reader's position in the text.
struct Reader<'t> {
    text: &'t str,
    at: usize,
}

impl Reader<'_> {
    /// Skips whitespace and returns the byte after it.
    fn skip_ws(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
        bytes.get(self.at).copied()
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.skip_ws() == Some(byte);
        self.at += usize::from(next);
        next
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        let next = self.skip_ws();
        if depth == MAX_DEPTH {
            return fail(self.at, "nesting too deep");
        }
        for (word, value) in [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ] {
            if self.text[self.at..].starts_with(word) {
                self.at += word.len();
                return Ok(value);
            }
        }
        match next {
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |r| r.value(depth + 1).map(|v| items.push(v)))?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut members: Vec<(String, Value)> = Vec::new();
                self.items(b'}', |r| {
                    let (at, key) = (r.at, r.string()?);
                    if members.iter().any(|(k, _)| *k == key) {
                        return fail(at, "duplicate key");
                    }
                    if !r.eat(b':') {
                        return fail(r.at, "expected ':'");
                    }
                    r.value(depth + 1).map(|v| members.push((key, v)))
                })?;
                Ok(Value::Object(members))
            }
            Some(_) => fail(self.at, "expected a value"),
            None => fail(self.at, "unexpected end of input"),
        }
    }

    /// The comma-separated items after the opening bracket at the
    /// reader, up to `close`, each read by `item`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.at += 1;
        let mut more = !self.eat(close);
        while more {
            self.skip_ws();
            item(self)?;
            more = !self.eat(close);
            if more && !self.eat(b',') {
                return fail(self.at, "expected ',' or a closing bracket");
            }
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, Error> {
        if !self.eat(b'"') {
            return fail(self.at, "expected a string");
        }
        let mut out = String::new();
        loop {
            // A run of plain bytes ends at an ASCII byte, so on a char
            // boundary, and is copied whole.
            let (run, bytes) = (self.at, self.text.as_bytes());
            while matches!(bytes.get(self.at), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.at += 1;
            }
            out.push_str(&self.text[run..self.at]);
            let at = self.at;
            match bytes.get(at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.at += 2,
                Some(_) => return fail(at, "control character in string"),
                None => return fail(at, "unterminated string"),
            }
            let escape = bytes.get(at + 1).copied().unwrap_or_default();
            if let Some(i) = br#""\/bfnrt"#.iter().position(|&e| e == escape) {
                out.push(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
            } else if escape == b'u' {
                out.push(self.unicode(at)?);
            } else {
                return fail(at, "invalid escape");
            }
        }
    }

    /// The character of the `\u` escape at `at`, whose hex digits are
    /// at the reader: a high surrogate takes the low one after it.
    fn unicode(&mut self, at: usize) -> Result<char, Error> {
        let mut code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) && self.text[self.at..].starts_with("\\u") {
            self.at += 2;
            code = match self.hex4()? {
                low @ 0xdc00..=0xdfff => 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00),
                _ => 0xd800,
            };
        }
        char::from_u32(code).map_or_else(|| fail(at, "lone surrogate in \\u escape"), Ok)
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self.text.get(self.at..self.at + 4).unwrap_or_default();
        if hex.len() < 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return fail(self.at, "expected four hex digits");
        }
        self.at += 4;
        Ok(u32::from_str_radix(hex, 16).unwrap_or_default())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`; a
    /// refusal points at the number's first byte.
    fn number(&mut self) -> Result<Value, Error> {
        let (start, bytes) = (self.at, self.text.as_bytes());
        let digits = |at: &mut usize| {
            let from = *at;
            while bytes.get(*at).is_some_and(u8::is_ascii_digit) {
                *at += 1;
            }
            *at - from
        };
        let mut at = start + usize::from(bytes[start] == b'-');
        let int = digits(&mut at);
        let mut valid = int == 1 || (int > 1 && bytes[at - int] != b'0');
        if bytes.get(at) == Some(&b'.') {
            at += 1;
            valid &= digits(&mut at) > 0;
        }
        if matches!(bytes.get(at), Some(b'e' | b'E')) {
            at += 1 + usize::from(matches!(bytes.get(at + 1), Some(b'+' | b'-')));
            valid &= digits(&mut at) > 0;
        }
        if !valid {
            return fail(start, "malformed number");
        }
        self.at = at;
        Ok(Value::Number(self.text[start..at].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(text: &str) -> Value {
        Value::String(text.to_string())
    }

    fn n(text: &str) -> Value {
        Value::Number(text.to_string())
    }

    /// The error `parse` gives, as `(byte offset, what)`.
    fn refused(text: &str) -> (usize, &'static str) {
        let e = parse(text).expect_err(text);
        (e.at, e.what)
    }

    #[test]
    fn escapes_decode_to_their_characters() {
        let text = r#""q\" b\\ s\/ \b\f\n\r\t \u0041\u00e9\u20AC""#;
        assert_eq!(parse(text), Ok(s("q\" b\\ s/ \u{8}\u{c}\n\r\t Aé€")));
        // A surrogate pair is one character; UTF-8 passes through.
        assert_eq!(parse(r#""\ud83d\ude00 ü""#), Ok(s("😀 ü")));
        assert_eq!(parse(r#""\uDBFF\uDFFF""#), Ok(s("\u{10ffff}")));
        for (text, at) in [
            (r#""\ud83d""#, 1),
            (r#""\ud83dx""#, 1),
            (r#""\ud83d\u0041""#, 1),
            (r#""\ude00\ud83d""#, 1),
            (r#"["ok", "\udfff"]"#, 8),
        ] {
            assert_eq!(
                refused(text),
                (at, "lone surrogate in \\u escape"),
                "{text}"
            );
        }
        assert_eq!(refused(r#""\x""#), (1, "invalid escape"));
        assert_eq!(refused(r#""\u12g4""#), (3, "expected four hex digits"));
        assert_eq!(refused(r#""\u12"#), (3, "expected four hex digits"));
        assert_eq!(refused("\"tab\there\""), (4, "control character in string"));
        assert_eq!(refused("\"open"), (5, "unterminated string"));
        assert_eq!(refused("\"open\\"), (5, "invalid escape"));
    }

    #[test]
    fn numbers_follow_the_grammar_and_keep_their_text() {
        for text in [
            "0", "-0", "7", "-12", "1.5", "0.25", "1e10", "1E-2", "-12.5e+3", "2e0",
        ] {
            assert_eq!(parse(text), Ok(n(text)), "{text}");
        }
        for text in ["01", "-01", "00", "-", "1.", "1.e3", "1e", "1e+", "- 1"] {
            assert_eq!(refused(text), (0, "malformed number"), "{text}");
        }
        assert_eq!(refused("[0, 012]"), (4, "malformed number"));
        for text in ["+1", ".5"] {
            assert_eq!(refused(text), (0, "expected a value"), "{text}");
        }
        // Integers read exactly, to the last bit of a u64 and no further.
        assert_eq!(n("18446744073709551615").as_u64(), Some(u64::MAX));
        for text in ["18446744073709551616", "10.5", "1e2", "-1", "-0"] {
            assert_eq!(n(text).as_u64(), None, "{text}");
        }
        assert_eq!(n("-12.5e+3").as_f64(), Some(-12500.0));
        assert_eq!(n("1e400").as_f64(), None, "past f64 range");
        assert_eq!(s("7").as_u64(), None, "a string is no number");
    }

    #[test]
    fn nesting_and_member_order() {
        let v = parse(r#"{"a": [1, {"b": null}, [], {}], "c": {"d": [true, false]}}"#).unwrap();
        assert_eq!(
            v,
            Value::Object(vec![
                (
                    "a".into(),
                    Value::Array(vec![
                        n("1"),
                        Value::Object(vec![("b".into(), Value::Null)]),
                        Value::Array(vec![]),
                        Value::Object(vec![]),
                    ])
                ),
                (
                    "c".into(),
                    Value::Object(vec![(
                        "d".into(),
                        Value::Array(vec![Value::Bool(true), Value::Bool(false)])
                    )])
                ),
            ])
        );
        let c = v.field("c", "an object", Value::as_object).unwrap();
        assert_eq!(
            v.field("a", "an object", Value::as_object),
            Err("a is not an object".to_string())
        );
        assert_eq!(
            c.field("d", "an array", Value::as_array).map(<[_]>::len),
            Ok(2)
        );
        assert_eq!(
            v.field("missing", "", Some),
            Err("missing missing".to_string())
        );
        assert_eq!(n("1").field("a", "", Some), Err("missing a".to_string()));
        let deep = |k| "[".repeat(k) + &"]".repeat(k);
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert_eq!(
            refused(&deep(MAX_DEPTH + 1)),
            (MAX_DEPTH, "nesting too deep")
        );
    }

    #[test]
    fn whitespace_is_the_four_bytes_between_tokens() {
        let spaced = " \t\r\n{ \"k\" \n:\t[ 1 ,\r\n2 ] , \"s\" : \"a b\" }\n ";
        assert_eq!(parse(spaced), parse(r#"{"k":[1,2],"s":"a b"}"#));
        assert_eq!(refused("\u{a0}1"), (0, "expected a value"));
        assert_eq!(
            refused("[1\u{c}]"),
            (2, "expected ',' or a closing bracket")
        );
    }

    #[test]
    fn refusals_name_their_byte_offset() {
        assert_eq!(refused(""), (0, "unexpected end of input"));
        assert_eq!(refused("  "), (2, "unexpected end of input"));
        assert_eq!(refused("{} x"), (3, "trailing bytes after the value"));
        assert_eq!(refused("[1] [2]"), (4, "trailing bytes after the value"));
        assert_eq!(refused(r#"{"a": 1, "a": 2}"#), (9, "duplicate key"));
        assert_eq!(refused(r#"{"a": 1,}"#), (8, "expected a string"));
        assert_eq!(refused("[1,]"), (3, "expected a value"));
        assert_eq!(refused(r#"{"a" 1}"#), (5, "expected ':'"));
        assert_eq!(
            refused(r#"{"a": 1 "b": 2}"#),
            (8, "expected ',' or a closing bracket")
        );
        assert_eq!(refused("[1 2]"), (3, "expected ',' or a closing bracket"));
        assert_eq!(refused("{1: 2}"), (1, "expected a string"));
        assert_eq!(refused("nul"), (0, "expected a value"));
        assert_eq!(refused("True"), (0, "expected a value"));
        assert_eq!(
            parse("[1").unwrap_err().to_string(),
            "invalid JSON at byte 2: expected ',' or a closing bracket"
        );
    }

    #[test]
    fn field_names_the_key_it_could_not_read() {
        let v = parse(r#"{"seed": 7, "days": 10.5, "name": "x"}"#).unwrap();
        assert_eq!(v.field("seed", "an unsigned integer", Value::as_u64), Ok(7));
        assert_eq!(
            v.field("days", "an unsigned integer", Value::as_u64),
            Err("days is not an unsigned integer".to_string())
        );
        assert_eq!(v.field("name", "a string", Value::as_str), Ok("x"));
        assert_eq!(
            v.field("gone", "a string", Value::as_str),
            Err("missing gone".to_string())
        );
    }
}
