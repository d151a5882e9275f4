//! The one owner of the artifacts' JSON syntax.
//!
//! Every JSON artifact the workspace writes — the metrics snapshot, the
//! events and spans JSONL, the delivery SLO, `MANIFEST.json`, serve's
//! `pulse.jsonl` and `BENCH_profile.json` — goes through [`object`] and
//! its [`Fields`] writer, and every one read back (`hbr timeline`,
//! `hbr spans`) is parsed by [`Json::parse`]; [`scan_flat_object`]
//! reads the keys of a flat line without building a tree, for the lines
//! a reader may drop. String escaping, the float rule and the grammar
//! live here and nowhere else.
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

use std::fmt::Write as _;
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

macro_rules! integer_json {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            #[inline(always)]
            fn write_json(&self, out: &mut String) {
                push_u64(out, *self as u64);
            }
        }
    )+};
}

integer_json!(u32, u64, usize);

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for f64 {
    #[inline(always)]
    fn write_json(&self, out: &mut String) {
        push_f64(out, *self);
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

/// `00`, `01`, …, `99`: the two digits of each pair, so [`push_u64`]
/// divides once per two digits.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// Appends `n` in decimal, the bytes of `n.to_string()`, without the
/// `core::fmt` machinery that every number of every event and span line
/// would otherwise go through.
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0; 20];
    let mut at = digits.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + n as u8;
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Appends `v` by the float rule of every artifact: Rust's shortest
/// round-trip `{}` notation, deterministic across platforms, except that
/// an integral value below 1e15 keeps its `.0` (`3.0`, so a float never
/// reads like a counter). The Prometheus exposition formats its floats
/// with it too.
///
/// Two common forms skip `core::fmt` and write the same bytes. An
/// integral value below 1e15 is its sign, its digits and `.0`. A value
/// below 2³² that a decimal with at most six fractional digits rounds to
/// is that decimal, trailing zeros dropped: below 2³² one ulp is under
/// 10⁻⁶, so no other such decimal rounds to `v`, and no shorter one
/// does, which makes it the shortest round-trip form `{}` writes.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    let abs = v.abs();
    if v == v.trunc() && abs < 1e15 {
        if v.is_sign_negative() {
            out.push('-');
        }
        push_u64(out, abs as u64);
        out.push_str(".0");
        return;
    }
    if abs < 4_294_967_296.0 {
        let micros = (abs * 1e6).round();
        if micros / 1e6 == abs {
            let micros = micros as u64;
            if v.is_sign_negative() {
                out.push('-');
            }
            push_u64(out, micros / 1_000_000);
            out.push('.');
            let mut fraction = micros % 1_000_000;
            let mut digits = [0; 6];
            for digit in digits.iter_mut().rev() {
                *digit = b'0' + (fraction % 10) as u8;
                fraction /= 10;
            }
            // `v` is not integral, so some digit is not zero.
            let kept = digits
                .iter()
                .rposition(|&d| d != b'0')
                .map_or(0, |last| last + 1);
            out.push_str(std::str::from_utf8(&digits[..kept]).expect("decimal digits are ASCII"));
            return;
        }
    }
    let _ = write!(out, "{v}");
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

/// A member value [`scan_flat_object`] reads: a number's token or a
/// string with nothing escaped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Flat<'a> {
    /// A number, as its token.
    Num(&'a str),
    /// A string's text between its quotes.
    Str(&'a str),
}

impl<'a> Flat<'a> {
    /// The value as a string slice, if it is a string.
    pub fn as_str(self) -> Option<&'a str> {
        let Flat::Str(s) = self else { return None };
        Some(s)
    }

    /// The number's token parsed as `T`, as [`Json::num`] reads it.
    pub fn num<T: FromStr>(self) -> Option<T> {
        let Flat::Num(token) = self else { return None };
        token.parse().ok()
    }
}

/// Reads `text` as an object in the form the writer emits an event
/// line — numbers and strings only, no whitespace and no escape — and
/// hands each member to `member` in order, without building a tree.
/// Returns `false` once `text` leaves that form; it may still be JSON,
/// for [`Json::parse`] to read. On `true`, `Json::parse(text)` reads an
/// object with the same members.
///
/// ```
/// use hbr_sim::json::{scan_flat_object, Flat};
///
/// let mut members = Vec::new();
/// assert!(scan_flat_object(r#"{"t_us":5,"event":"rrc"}"#, |k, v| members.push((k, v))));
/// assert_eq!(members, [("t_us", Flat::Num("5")), ("event", Flat::Str("rrc"))]);
/// assert!(!scan_flat_object(r#"{"t_us": 5}"#, |_, _| {}));
/// ```
pub fn scan_flat_object<'a>(text: &'a str, mut member: impl FnMut(&'a str, Flat<'a>)) -> bool {
    let Some(mut rest) = text.strip_prefix('{').and_then(|t| t.strip_suffix('}')) else {
        return false;
    };
    while !rest.is_empty() {
        let Some((key, after)) = flat_string(rest) else {
            return false;
        };
        let Some(after) = after.strip_prefix(':') else {
            return false;
        };
        let (value, after) = if after.starts_with('"') {
            let Some((s, after)) = flat_string(after) else {
                return false;
            };
            (Flat::Str(s), after)
        } else {
            let (token, after) = after.split_at(after.find(',').unwrap_or(after.len()));
            if !is_number(token) {
                return false;
            }
            (Flat::Num(token), after)
        };
        member(key, value);
        rest = match after.strip_prefix(',') {
            Some(next) if !next.is_empty() => next,
            None if after.is_empty() => after,
            _ => return false,
        };
    }
    true
}

/// The text of the string that opens `text` when nothing in it is
/// escaped or a control character, and the text after its closing
/// quote.
fn flat_string(text: &str) -> Option<(&str, &str)> {
    let body = text.strip_prefix('"')?;
    let end = body.find(|c: char| c == '"' || c == '\\' || c < ' ')?;
    (body.as_bytes()[end] == b'"').then(|| (&body[..end], &body[end + 1..]))
}

/// Whether `token`, all of it, is a number: a run of `[0-9+-.eE]` that
/// starts with `-` or a digit and parses as a float.
fn is_number(token: &str) -> bool {
    let number_byte = |b: u8| matches!(b, b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E');
    let leads = token.starts_with(|c: char| c == '-' || c.is_ascii_digit());
    leads
        && token.bytes().all(number_byte)
        && (token.bytes().all(|b| b.is_ascii_digit()) || token.parse::<f64>().is_ok())
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

    /// A number ([`is_number`]), kept as its token.
    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        is_number(token).then(|| Json::Num(token.to_string()))
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

    fn float_text(v: f64) -> String {
        let mut out = String::new();
        push_f64(&mut out, v);
        out
    }

    #[test]
    fn float_rule_keeps_integral_values_marked() {
        let text = float_text;
        assert_eq!(text(3.0), "3.0");
        assert_eq!(text(3.25), "3.25");
        assert_eq!(text(0.1), "0.1");
        assert_eq!(text(-2.0), "-2.0");
        assert_eq!(text(-0.0), "-0.0");
        assert_eq!(text(2.5), "2.5");
        assert_eq!(text(0.000001), "0.000001");
        assert_eq!(text(0.0000001), "0.0000001");
        assert_eq!(text(1.5e15), "1500000000000000");
        assert_eq!(text(f64::NAN), "NaN");
        assert_eq!(text(f64::NEG_INFINITY), "-inf");
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

    /// The members [`scan_flat_object`] reads, or `None` when it stops.
    fn scanned(text: &str) -> Option<Vec<(&str, Flat<'_>)>> {
        let mut members = Vec::new();
        scan_flat_object(text, |key, value| members.push((key, value))).then_some(members)
    }

    /// Whether the scan read exactly the members the parser reads.
    fn scan_agrees_with_parse(text: &str) -> bool {
        let (Some(members), Some(Json::Object(parsed))) = (scanned(text), Json::parse(text)) else {
            return false;
        };
        members.len() == parsed.len()
            && members.iter().zip(&parsed).all(|((k, flat), (key, json))| {
                *k == key.as_str()
                    && match (flat, json) {
                        (Flat::Num(token), Json::Num(have)) => token == have,
                        (Flat::Str(s), Json::Str(have)) => s == have,
                        _ => false,
                    }
            })
    }

    #[test]
    fn the_flat_scan_reads_the_writers_lines_as_the_parser_does() {
        for line in [
            "{}",
            r#"{"t_us":5000000,"event":"match","device":7,"relay":0}"#,
            r#"{"run":"d2d-framework","t_us":1,"event":"rrc","dwell_secs":6.5,"uah":-1.5e3}"#,
            r#"{"t_us":1,"t_us":"late"}"#,
            r#"{"name":"héllo ☃","n":0123}"#,
        ] {
            assert!(scan_agrees_with_parse(line), "{line}");
        }
        // JSON outside the writer's form is left to the parser.
        for other in [
            r#"{"a":true,"b":null}"#,
            r#" {"a":1}"#,
            r#"{"a": 1}"#,
            r#"{"a":"say \"hi\""}"#,
            r#"{"a":{"b":1}}"#,
            r#"{"a":[1]}"#,
            r#"{"\u0041":1}"#,
        ] {
            assert!(
                Json::parse(other).is_some() && scanned(other).is_none(),
                "{other}"
            );
        }
        // Malformed text never scans.
        for bad in [
            "",
            "{",
            "{\"a\":1,}",
            "{,\"a\":1}",
            "{\"a\":}",
            "{\"a\":1}}",
            "{\"a\"1}",
            "{\"a\":1\"b\":2}",
            "{\"a\":tru}",
            "{\"a\":truex}",
            "{\"a\":.5}",
            "{\"a\":+1}",
            "{\"a\":1e}",
            "{\"a\":-}",
            "{\"a\":inf}",
            "{\"a\":\"open}",
            "{\"raw\":\"tab\there\"}",
            "{a:1}",
        ] {
            assert!(
                Json::parse(bad).is_none() && scanned(bad).is_none(),
                "{bad:?}"
            );
        }
    }

    mod number_properties {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::ProptestConfig;

        /// The float rule as `core::fmt` writes it, which the writer
        /// must match byte for byte.
        fn reference(v: f64) -> String {
            if v == v.trunc() && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }

        /// A value of the `kind`-th family, from 64 random bits.
        fn family(kind: u8, bits: u64) -> f64 {
            const MICROS_BELOW_2_32: u64 = (1 << 32) * 1_000_000;
            match kind {
                // Integral, up to 2⁵³ and down to a few digits.
                0 => (bits >> (bits % 64)) as f64,
                // Multiples of 10⁻⁶ below 2³², where the short path runs.
                1 => (bits % MICROS_BELOW_2_32) as f64 / 1e6,
                // Small multiples of 10⁻⁶ and of 10⁻¹, like dwell times.
                2 => (bits % 100_000_000) as f64 / 1e6,
                3 => (bits % 1_000) as f64 / 10.0,
                // Multiples of 10⁻⁶ just above 2³², where it does not.
                4 => (MICROS_BELOW_2_32 + bits % 1_000_000_000_000) as f64 / 1e6,
                // Around 1e15, integral and halves.
                5 => 1e15 + (bits % 4_001) as f64 / 2.0 - 1_000.0,
                // Subnormals.
                6 => f64::from_bits(bits % (1 << 52)),
                // Seven fractional digits, which the short path refuses.
                7 => (bits % 10_000_000_000) as f64 / 1e7,
                // ±0.0.
                8 => 0.0,
                // Any bit pattern: huge, tiny, infinite and NaN too.
                _ => f64::from_bits(bits),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(20_000))]
            /// The integer writer writes `n.to_string()` and the float
            /// writer the float rule, for every family of values the
            /// artifacts hold and for arbitrary bits, either sign.
            #[test]
            fn number_writers_match_core_fmt(
                bits in any::<u64>(),
                shift in 0u32..64,
                kind in 0u8..10,
                negative in any::<bool>(),
            ) {
                let n = bits >> shift;
                let mut out = String::new();
                push_u64(&mut out, n);
                prop_assert_eq!(&out, &n.to_string());
                let v = family(kind, bits);
                let v = if negative { -v } else { v };
                prop_assert_eq!(float_text(v), reference(v), "{:?} (bits {:#x})", v, v.to_bits());
            }
        }
    }

    mod flat_scan_properties {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::ProptestConfig;

        const KEYS: [&str; 5] = [
            r#""t_us""#,
            r#""event""#,
            r#""run""#,
            r#""a\"b""#,
            r#""x y""#,
        ];
        const VALUES: [&str; 16] = [
            "5",
            "0123",
            "-1.5e3",
            "1e",
            "+1",
            ".5",
            "-",
            "true",
            "null",
            "tru",
            r#""rrc""#,
            r#""a\\""#,
            r#"{"b":1}"#,
            "[1]",
            r#""""#,
            " 5",
        ];
        const JUNK: [&str; 8] = ["{", "}", ",", ":", " ", "\"", "\\", "x"];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            /// On objects of writer-like members, some of them escaped,
            /// nested, literal or malformed, and some lines with a stray
            /// piece inserted, the scan reads what the parser reads, and
            /// it reads every object of numbers and strings the parser
            /// takes that has no whitespace or escape.
            #[test]
            fn the_scan_is_exact_where_it_reads(
                members in proptest::collection::vec((0usize..KEYS.len(), 0usize..VALUES.len()), 0..6),
                junk in proptest::collection::vec((0usize..64, 0usize..JUNK.len()), 0..2),
            ) {
                let body: Vec<String> =
                    members.iter().map(|&(k, v)| format!("{}:{}", KEYS[k], VALUES[v])).collect();
                let mut line = format!("{{{}}}", body.join(","));
                for &(at, piece) in &junk {
                    line.insert_str(at % (line.len() + 1), JUNK[piece]);
                }
                if scanned(&line).is_some() {
                    prop_assert!(scan_agrees_with_parse(&line), "{line}");
                }
                let flat_form = line.starts_with('{')
                    && !line[1..].contains(['{', '[', ' ', '\\'])
                    && !["true", "null"].iter().any(|word| line.contains(word));
                if flat_form && matches!(Json::parse(&line), Some(Json::Object(_))) {
                    prop_assert!(scanned(&line).is_some(), "{line}");
                }
            }
        }
    }
}
