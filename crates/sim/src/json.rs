//! The one owner of the artifacts' JSON syntax.
//!
//! Every JSON artifact the workspace writes — the metrics snapshot, the
//! events and spans JSONL, the delivery SLO, `MANIFEST.json`, serve's
//! `pulse.jsonl` and `BENCH_profile.json` — goes through [`object`] and
//! its [`Fields`] writer, and every one read back (`hbr timeline`,
//! `hbr spans`) is parsed by [`Json::parse`]. String escaping, the
//! float rule and the grammar live here and nowhere else.
//!
//! The writer is allocation-free: it appends to the caller's `String`,
//! and a string with nothing to escape goes in with one `push_str`.
//!
//! # Examples
//!
//! ```
//! use hbr_sim::json::{self, Json};
//!
//! let mut line = String::new();
//! json::object(&mut line, |o| {
//!     o.field("t_us", 1_500_000u64)
//!         .field("cause", "no-relay")
//!         .field("span", None::<u64>)
//!         .field("uah", 2.0);
//! });
//! assert_eq!(line, r#"{"t_us":1500000,"cause":"no-relay","uah":2.0}"#);
//!
//! let parsed = Json::parse(&line).unwrap();
//! assert_eq!(parsed["t_us"].num(), Some(1_500_000u64));
//! assert_eq!(parsed["cause"].as_str(), Some("no-relay"));
//! assert_eq!(parsed["span"], Json::Null);
//! ```

use std::fmt::{self, Write as _};
use std::ops::Index;
use std::str::FromStr;

/// A value [`Fields::field`] can write.
pub trait ToJson {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);

    /// `true` for an absent optional, which [`Fields::field`] leaves out
    /// together with its key.
    fn is_absent(&self) -> bool {
        false
    }
}

macro_rules! display_json {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )+};
}

display_json!(u32, u64, usize, bool);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{}", Float(*self));
    }
}

impl ToJson for &str {
    #[inline(always)]
    fn write_json(&self, out: &mut String) {
        push_string(out, self);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        if let Some(value) = self {
            value.write_json(out);
        }
    }
    fn is_absent(&self) -> bool {
        self.is_none()
    }
}

impl<T: ToJson> ToJson for &[T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, value) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            value.write_json(out);
        }
        out.push(']');
    }
}

/// The float rule of every artifact: Rust's shortest round-trip `{}`
/// notation, deterministic across platforms, except that an integral
/// value below 1e15 keeps its `.0` (`3.0`, so a float never reads like
/// a counter). The Prometheus exposition formats its floats with it too.
pub(crate) struct Float(pub f64);

impl fmt::Display for Float {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v == v.trunc() && v.abs() < 1e15 {
            write!(f, "{v:.1}")
        } else {
            write!(f, "{v}")
        }
    }
}

/// A float written with a fixed number of decimals (`Fixed(v, 6)` is
/// `{v:.6}`), for the summaries whose keys promise a precision.
pub struct Fixed(pub f64, pub usize);

impl ToJson for Fixed {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{:.*}", self.1, self.0);
    }
}

/// Appends `s` as a quoted JSON string: `"` and `\` are escaped, as are
/// control characters; everything else, non-ASCII text included, goes
/// in as it is.
///
/// Inlined into every field, so the escape scan of a literal key (the
/// writers' own `"t_us"`, `"device"`, …) folds away at compile time; on
/// the events and spans writers that measured faster than scanning at
/// run time.
#[inline(always)]
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().any(|b| matches!(b, 0..=0x1f | b'"' | b'\\')) {
        push_escaped(out, s);
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// The rare path of [`push_string`], kept out of line so the common one
/// stays small enough to inline into every field.
#[cold]
fn push_escaped(out: &mut String, s: &str) {
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
}

/// Appends `{`, the members `body` writes, and `}` to `out`.
pub fn object(out: &mut String, body: impl FnOnce(&mut Fields<'_>)) {
    out.push('{');
    body(&mut Fields { out, first: true });
    out.push('}');
}

/// The members of one JSON object being written: each call places the
/// comma, escapes the key and writes the value.
pub struct Fields<'a> {
    out: &'a mut String,
    first: bool,
}

impl Fields<'_> {
    #[inline(always)]
    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_string(self.out, key);
        self.out.push(':');
    }

    /// Appends `"key":value`, or nothing when `value` is an absent
    /// optional.
    #[inline(always)]
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        if !value.is_absent() {
            self.key(key);
            value.write_json(self.out);
        }
        self
    }

    /// Appends `"key":{…}` holding the members `body` writes.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Fields<'_>)) -> &mut Self {
        self.key(key);
        object(self.out, body);
        self
    }

    /// Appends `"key":[{…},…]`, one object per item, holding the members
    /// `each` writes for it.
    pub fn objects<I: IntoIterator>(
        &mut self,
        key: &str,
        items: I,
        mut each: impl FnMut(&mut Fields<'_>, I::Item),
    ) -> &mut Self {
        self.key(key);
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            object(self.out, |o| each(o, item));
        }
        self.out.push(']');
        self
    }
}

/// A parsed JSON value. A number keeps its token, so an integer reads
/// back exactly whatever type it is read as.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its token.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object's members, in their written order.
    Object(Vec<(String, Json)>),
}

/// `tree["key"]`: the member `key` of an object (the last, if the key
/// repeats), or `null` for a missing key or a value that is not an
/// object, so lookups chain like `tree["events"].as_array()`.
impl Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        static NULL: Json = Json::Null;
        let Json::Object(members) = self else {
            return &NULL;
        };
        members
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map_or(&NULL, |(_, v)| v)
    }
}

/// Deeper nesting is refused rather than risking the stack; the
/// artifacts nest at most four levels.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses `text`, which must hold exactly one JSON value (whitespace
    /// around it is allowed). `None` if it is malformed.
    pub fn parse(text: &str) -> Option<Json> {
        let mut parser = Parser { text, pos: 0 };
        let value = parser.value(0)?;
        parser.skip_ws();
        (parser.pos == text.len()).then_some(value)
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }

    /// The value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        let Json::Array(items) = self else {
            return None;
        };
        Some(items)
    }

    /// The number's token parsed as `T` (`u32`, `u64`, `f64`, …); `None`
    /// for a non-number or a token `T` cannot hold.
    pub fn num<T: FromStr>(&self) -> Option<T> {
        let Json::Num(token) = self else { return None };
        token.parse().ok()
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return None;
        }
        match self.peek()? {
            b'{' => self
                .list(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.eat(b':').then_some(())?;
                    Some((key, p.value(depth + 1)?))
                })
                .map(Json::Object),
            b'[' => self.list(b']', |p| p.value(depth + 1)).map(Json::Array),
            b'"' => self.string().map(Json::Str),
            _ => {
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.text[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Some(value);
                    }
                }
                self.number()
            }
        }
    }

    /// Consumes the opening bracket at `pos`, then `item (, item)*` up
    /// to `close`, or just `close`; returns the items.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        self.pos += 1;
        let mut items = Vec::new();
        if self.eat(close) {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Some(items);
            }
            self.eat(b',').then_some(())?;
        }
    }

    /// A number: a run of `[0-9+-.eE]` that starts with `-` or a digit
    /// and parses as a float, kept as its token.
    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        let leads = token.starts_with(|c: char| c == '-' || c.is_ascii_digit());
        (leads && token.parse::<f64>().is_ok()).then(|| Json::Num(token.to_string()))
    }

    /// A quoted string at `pos`, unescaped. Raw control characters, bad
    /// escapes, a `\u` escape of a UTF-16 surrogate (the writer never
    /// writes one) and a missing closing quote are refused.
    fn string(&mut self) -> Option<String> {
        if self.peek() != Some(b'"') {
            return None;
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // Both ends sit next to ASCII bytes, so on char boundaries.
            out.push_str(&self.text[start..self.pos]);
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    let escaped = match *self.text.as_bytes().get(self.pos + 1)? {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self.text.get(self.pos + 2..self.pos + 6)?;
                            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                                return None;
                            }
                            self.pos += 4;
                            char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                        }
                        _ => return None,
                    };
                    self.pos += 2;
                    out.push(escaped);
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Writes a parsed tree back out: numbers as their tokens, members in
    /// their order, strings through the one escaper.
    impl ToJson for &Json {
        fn write_json(&self, out: &mut String) {
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => b.write_json(out),
                Json::Num(token) => out.push_str(token),
                Json::Str(s) => s.as_str().write_json(out),
                Json::Array(items) => items.iter().collect::<Vec<_>>().as_slice().write_json(out),
                Json::Object(members) => object(out, |o| {
                    for (key, value) in members {
                        o.field(key, value);
                    }
                }),
            }
        }
    }

    /// `line` parsed by [`Json::parse`] and written back by the field
    /// writer: the same bytes for every line an artifact holds.
    pub(crate) fn rewritten(line: &str) -> String {
        let mut out = String::new();
        (&Json::parse(line).unwrap_or_else(|| panic!("parses: {line}"))).write_json(&mut out);
        out
    }

    fn written(body: impl FnOnce(&mut Fields<'_>)) -> String {
        let mut out = String::new();
        object(&mut out, body);
        out
    }

    #[test]
    fn float_rule_keeps_integral_values_marked() {
        let text = |v: f64| Float(v).to_string();
        assert_eq!(text(3.0), "3.0");
        assert_eq!(text(3.25), "3.25");
        assert_eq!(text(0.1), "0.1");
        assert_eq!(text(-2.0), "-2.0");
        assert_eq!(text(1.5e15), "1500000000000000");
        assert_eq!(
            written(|o| {
                o.field("x", Fixed(0.5, 3));
            }),
            r#"{"x":0.500}"#
        );
    }

    #[test]
    fn strings_round_trip_through_the_writer_and_the_reader() {
        for s in [
            "plain",
            "a \"quoted\" word",
            "back\\slash",
            "bell \u{7}, tab \t, newline \n, return \r",
            "non-ASCII: µAh, Zürich, 東京, 🛰",
            "",
        ] {
            let line = written(|o| {
                o.field("s", s);
            });
            assert_eq!(Json::parse(&line).unwrap()["s"].as_str(), Some(s), "{line}");
            assert_eq!(rewritten(&line), line);
        }
        assert_eq!(
            written(|o| {
                o.field("s", "a\"b\\c\n\u{1}");
            }),
            r#"{"s":"a\"b\\c\n\u0001"}"#
        );
    }

    #[test]
    fn keys_are_escaped_like_values() {
        let name = "hbr_fallback_total{cause=\"no-relay\"}";
        let line = written(|o| {
            o.field(name, 3u64);
        });
        assert_eq!(line, r#"{"hbr_fallback_total{cause=\"no-relay\"}":3}"#);
        assert_eq!(Json::parse(&line).unwrap()[name].num(), Some(3u64));
    }

    #[test]
    fn absent_optionals_are_left_out_with_their_comma() {
        let line = written(|o| {
            o.field("a", None::<u32>)
                .field("b", 1u32)
                .field("c", None::<&str>)
                .field("d", Some("x"))
                .field("e", None::<u64>);
        });
        assert_eq!(line, r#"{"b":1,"d":"x"}"#);
        assert_eq!(written(|_| {}), "{}");
    }

    #[test]
    fn nested_objects_and_arrays_round_trip() {
        let line = written(|o| {
            o.field("bounds", &[0.5, 1.0][..])
                .object("inner", |o| {
                    o.field("n", 1usize);
                })
                .objects("events", [1u64, 2], |o, t| {
                    o.field("t_us", t).field("last", t == 2);
                })
                .objects("none", Vec::<u8>::new(), |_, _| {});
        });
        assert_eq!(
            line,
            r#"{"bounds":[0.5,1.0],"inner":{"n":1},"events":[{"t_us":1,"last":false},{"t_us":2,"last":true}],"none":[]}"#
        );
        assert_eq!(rewritten(&line), line);
        let tree = Json::parse(&line).unwrap();
        let events = tree["events"].as_array().unwrap();
        assert_eq!(events[1]["last"], Json::Bool(true));
        assert_eq!(events[0]["t_us"].num(), Some(1u32));
        assert_eq!(tree["bounds"].as_array().unwrap()[1].num(), Some(1.0f64));
        assert_eq!(tree["inner"]["n"].num(), Some(1u8));
    }

    #[test]
    fn reader_takes_every_value_kind_and_whitespace() {
        let tree = Json::parse(
            " {\"s\" : \"a\\\"b\\n\\/\" , \"n\":-1.5e-3,\"b\":true,\"z\":null,\"a\":[ ] } ",
        )
        .unwrap();
        assert_eq!(tree["s"].as_str(), Some("a\"b\n/"));
        assert_eq!(tree["n"], Json::Num("-1.5e-3".into()));
        assert_eq!(tree["n"].num(), Some(-0.0015f64));
        assert_eq!(tree["n"].num::<u64>(), None);
        assert_eq!(tree["b"], Json::Bool(true));
        assert_eq!(tree["z"], Json::Null);
        assert_eq!(tree["missing"], Json::Null);
        assert_eq!(tree["s"]["not an object"], Json::Null);
        assert_eq!(tree["a"].as_array(), Some(&[][..]));
        assert_eq!(Json::parse("{}"), Some(Json::Object(Vec::new())));
        assert_eq!(Json::parse("\"\\u00b5\""), Some(Json::Str("µ".into())));
        assert_eq!(Json::parse("0").and_then(|n| n.num()), Some(0u64));
    }

    /// What the old event and span readers refused, the one reader
    /// refuses too, plus what strict JSON forbids.
    #[test]
    fn reader_refuses_malformed_text() {
        for bad in [
            "",
            "not json",
            "{\"unterminated\":\"",
            "{\"unterminated\":\"abc}",
            "{\"bad\":\"\\x\"}",
            "{\"bad\":\"\\u12\"}",
            "{\"bad\":\"\\u+041\"}",
            "{\"a\":1} trailing",
            "{\"a\":1}}",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1,2,]",
            "{,\"a\":1}",
            "{\"a\":1 \"b\":2}",
            "{\"a\":foo}",
            "{\"a\":inf}",
            "{\"a\":NaN}",
            "{\"a\":tru}",
            "{\"a\":.5}",
            "{\"a\":+1}",
            "{\"a\":1e}",
            "{\"a\":-}",
            "{\"a\":1-}",
            "{a:1}",
            "{\"raw\":\"tab\there\"}",
            "{\"a\":[1,2}",
            "{\"a\":{\"b\":1]}",
        ] {
            assert_eq!(Json::parse(bad), None, "{bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(Json::parse(&deep), None, "too deep");
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_some(), "deep enough");
    }
}
