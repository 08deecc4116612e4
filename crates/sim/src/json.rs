//! The one strict JSON codec behind every frame and file the code reads
//! back: planner queries, worker frames, campaign group specs and
//! checkpoints, and the `--validate` schema gates.
//!
//! [`Json::parse`] follows RFC 8259 strictly: one value and nothing after
//! it but whitespace, no duplicate keys, validated escapes and surrogate
//! pairs, no raw control characters in strings, no non-grammar numbers
//! (`NaN`, `01`, `1.`), and nesting capped at [`MAX_DEPTH`] so a frame of
//! a million `[` is an error, not a stack overflow. No number is rounded
//! on the way in: an unsigned integer up to `u64::MAX` (an `f64` bit
//! pattern, an AS id) is held exactly, without an allocation, and any
//! other number keeps its source lexeme, so a `{:.6}` value reads back
//! verbatim. [`Json::as_u64`] refuses anything out of range instead of
//! wrapping it. `Display` is the matching compact writer: no whitespace,
//! members in insertion order, every number as it was read.

use std::fmt::{self, Write as _};

/// The deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer in `0..=u64::MAX`. Its decimal form is its
    /// source lexeme (the grammar allows no leading zeros).
    Int(u64),
    /// Any other number, as its grammar-checked source lexeme.
    Num(String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: members in source order, keys unique.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON text.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            at: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.at < text.len() {
            return Err(p.error("trailing data"));
        }
        Ok(v)
    }

    /// An object from `(key, value)` members (keys must be distinct).
    pub fn obj<'k>(members: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The member `key` of an object; `None` when absent or not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let (_, v) = self.as_object()?.iter().find(|(k, _)| k == key)?;
        Some(v)
    }

    /// A string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An unsigned integer in `0..=u64::MAX`: no sign, fraction or
    /// exponent, and never wrapped.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// A finite number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(n) => n.parse().ok().filter(|v: &f64| v.is_finite()),
            _ => None,
        }
    }

    /// An array's items.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object's members.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// An array of unsigned integers (see [`Json::as_u64`]).
    pub fn as_u64s(&self) -> Option<Vec<u64>> {
        self.as_array()?.iter().map(Json::as_u64).collect()
    }

    /// An array of strings.
    pub fn as_strs(&self) -> Option<Vec<&str>> {
        self.as_array()?.iter().map(Json::as_str).collect()
    }

    /// Check that this is an object whose keys all come from `allowed`.
    pub fn only_keys(&self, allowed: &[&str]) -> Result<(), String> {
        let members = self.as_object().ok_or("expected a JSON object")?;
        match members.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown key {k:?}")),
            None => Ok(()),
        }
    }

    /// The member `key` read by `read`: `Ok(None)` only when the key is
    /// absent. A present value that `read` rejects is an error naming the
    /// key and the `expected` type, never a silent default.
    pub fn opt<'a, T>(
        &'a self,
        key: &str,
        expected: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        read(v)
            .map(Some)
            .ok_or_else(|| format!("{key}: expected {expected}"))
    }

    /// Like [`Json::opt`], but an absent key is an error too.
    pub fn req<'a, T>(
        &'a self,
        key: &str,
        expected: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        self.opt(key, expected, read)?
            .ok_or_else(|| format!("missing key {key:?}"))
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.into())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// The compact writer.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Num(n) => f.write_str(n),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    v.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_string(f, k)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

struct Parser<'t> {
    text: &'t str,
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    /// Consume `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.at += hit as usize;
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members: Vec<(String, Json)> = Vec::new();
                self.items(b'}', |p| {
                    p.skip_ws();
                    let at = p.at;
                    let key = p.string()?;
                    if members.iter().any(|(k, _)| *k == key) {
                        return Err(format!("duplicate key {key:?} at byte {at}"));
                    }
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.error("expected ':'"));
                    }
                    members.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let rest = &self.text[self.at..];
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if rest.starts_with(word) {
                        self.at += word.len();
                        return Ok(v);
                    }
                }
                Err(self.error("expected a JSON value"))
            }
        }
    }

    /// The comma-separated items after an opening bracket, through the
    /// matching `close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.at += 1;
        self.skip_ws();
        if !self.eat(close) {
            loop {
                item(self)?;
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.error(&format!("expected ',' or '{}'", close as char)));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        let digits = |p: &mut Self| {
            let from = p.at;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.at += 1;
            }
            if p.at == from {
                return Err(p.error("expected a digit"));
            }
            Ok(())
        };
        let negative = self.eat(b'-');
        if !self.eat(b'0') {
            digits(self)?;
        }
        let integer = !negative && !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if self.eat(b'.') {
            digits(self)?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            digits(self)?;
        }
        let lexeme = &self.text[start..self.at];
        Ok(match lexeme.parse() {
            Ok(v) if integer => Json::Int(v),
            _ => Json::Num(lexeme.into()),
        })
    }

    /// A string, from its opening quote.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            let text = self.text;
            let Some(run) = text[self.at..].find(|c: char| c == '"' || c == '\\' || c < ' ') else {
                self.at = text.len();
                return Err(self.error("unterminated string"));
            };
            out.push_str(&text[self.at..self.at + run]);
            self.at += run;
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.error("raw control character in string"));
            }
            let esc = self.peek();
            self.at += 1;
            out.push(match esc {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(self.error("invalid escape")),
            });
        }
    }

    /// The code point of a `\u` escape (its `\u` already consumed),
    /// joining a surrogate pair and rejecting a lone surrogate.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hex4 = |p: &mut Self| {
            let hex = p.text.get(p.at..p.at + 4).unwrap_or("");
            if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(p.error("expected four hex digits"));
            }
            p.at += 4;
            Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
        };
        let code = match hex4(self)? {
            hi @ 0xd800..=0xdbff => {
                let lo = if self.eat(b'\\') && self.eat(b'u') {
                    hex4(self)?
                } else {
                    0
                };
                if !(0xdc00..=0xdfff).contains(&lo) {
                    return Err(self.error("lone high surrogate"));
                }
                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
            }
            0xdc00..=0xdfff => return Err(self.error("lone low surrogate")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid code point"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_writes_compactly() {
        let text = " { \"a\" : [1, -2.5e3, true, null], \"b\": {\"c\": \"x\\ny\"} } ";
        let v = Json::parse(text).unwrap();
        assert_eq!(
            v.to_string(),
            "{\"a\":[1,-2.5e3,true,null],\"b\":{\"c\":\"x\\ny\"}}"
        );
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\ny")
        );
    }

    #[test]
    fn numbers_keep_their_lexeme_and_integers_never_wrap() {
        let max = Json::parse("18446744073709551615").unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX));
        assert_eq!(Json::from(u64::MAX), max);
        for not_u64 in ["18446744073709551616", "-5", "1.0", "1e2", "-0"] {
            assert_eq!(Json::parse(not_u64).unwrap().as_u64(), None, "{not_u64}");
        }
        for lexeme in ["0.620991", "-0", "1e2", "18446744073709551616", "7"] {
            assert_eq!(Json::parse(lexeme).unwrap().to_string(), lexeme);
        }
        assert_eq!(Json::parse("1028.212").unwrap().as_f64(), Some(1028.212));
        assert_eq!(Json::parse("1e999").unwrap().as_f64(), None);
    }

    #[test]
    fn strings_round_trip_escapes_and_surrogates() {
        let s = Json::parse("\"a\\\"b\\\\c\\/d\\u00e9\\ud83d\\ude00\\t\"").unwrap();
        assert_eq!(s.as_str(), Some("a\"b\\c/dé😀\t"));
        let tricky = Json::from("q\"uote\\back\u{1}slash\u{7f}é");
        assert_eq!(Json::parse(&tricky.to_string()).unwrap(), tricky);
    }

    #[test]
    fn rejects_everything_outside_the_grammar() {
        let deep = "[".repeat(1 << 20);
        for bad in [
            "",
            "{\"a\":1",
            "[1,2",
            "[1,,]",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\":1,\"a\":2}",
            "{a:1}",
            "[\"sec1\",sec2]",
            "{} x",
            "NaN",
            "01",
            "1.",
            "-",
            ".5",
            "+1",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"tab\there\"",
            "\"open",
            "tru",
            &deep,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:.40}");
        }
        let nested = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&nested).is_ok());
    }

    #[test]
    fn typed_accessors_name_the_key() {
        let v = Json::parse("{\"n\":5,\"s\":\"x\",\"l\":[1,[2]]}").unwrap();
        assert_eq!(v.opt("n", "an integer", Json::as_u64), Ok(Some(5)));
        assert_eq!(v.opt("z", "an integer", Json::as_u64), Ok(None));
        assert_eq!(
            v.opt("s", "an integer", Json::as_u64),
            Err("s: expected an integer".to_string())
        );
        assert!(v.opt("l", "integers", Json::as_u64s).is_err());
        assert_eq!(
            v.req("z", "an integer", Json::as_u64),
            Err("missing key \"z\"".to_string())
        );
        assert!(v.only_keys(&["n", "s", "l"]).is_ok());
        assert_eq!(
            v.only_keys(&["n", "s"]),
            Err("unknown key \"l\"".to_string())
        );
        assert!(Json::parse("[]").unwrap().only_keys(&[]).is_err());
    }
}
