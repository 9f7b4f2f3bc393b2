//! The one JSON codec for everything this workspace writes and reads back:
//! trace lines ([`crate::jsonl`]), the `dp-serve` wire protocol, golden
//! records. The build is offline (no `serde`), and every format here is a
//! *flat* object — string keys; string, number or boolean values; no
//! nesting — so the codec is a string escaper, an exact-float writer, a
//! line builder ([`Object`]) and a flat-object reader ([`parse_flat`]).
//!
//! Two other modules know JSON syntax on purpose (DESIGN.md §11): the
//! validating readers in `dp-check` (`trace`, `checkpoint`), independent so
//! an encode bug here cannot hide behind a shared implementation, and the
//! frozen benchmark reader in `crates/perf`.

use std::fmt::{Display, Write as _};

/// Appends `s` JSON-escaped (without surrounding quotes) to `out`.
pub fn push_escaped(out: &mut String, s: &str) {
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

/// `s` JSON-escaped and quoted.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    push_escaped(&mut out, s);
    out.push('"');
    out
}

/// Appends an `f64` in exact-round-trip form (`{:.17e}`), or a quoted
/// marker (`"NaN"`, `"inf"`, `"-inf"`) for the non-finite values JSON has
/// no literal for.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.17e}");
    } else if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Builds one flat object on one line, no whitespace, fields in call
/// order. Keys are the caller's own literals and are written unescaped.
///
/// ```
/// use dp_telemetry::json::Object;
/// let line = Object::new().str("event", "state").num("job", 3).finish();
/// assert_eq!(line, r#"{"event":"state","job":3}"#);
/// ```
#[derive(Debug, Default)]
pub struct Object(String);

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Self(String::with_capacity(96))
    }

    fn key(&mut self, key: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        self.0.push('"');
        self.0.push_str(key);
        self.0.push_str("\":");
    }

    /// A string field, escaped.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.0.push('"');
        push_escaped(&mut self.0, value);
        self.0.push('"');
        self
    }

    /// A number field in whatever form `value` displays as: an integer, or
    /// `format_args!("{:.3}", seconds)` when the wire pins a float form.
    pub fn num(mut self, key: &str, value: impl Display) -> Self {
        self.key(key);
        let _ = write!(self.0, "{value}");
        self
    }

    /// A float field in the exact-round-trip form of [`push_f64`].
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        push_f64(&mut self.0, value);
        self
    }

    /// A field whose value is already JSON (an embedded record).
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.0.push_str(json);
        self
    }

    /// The finished line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.0.push_str(if self.0.is_empty() { "{}" } else { "}" });
        self.0
    }
}

/// A value in a flat object.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string, escapes resolved.
    Str(String),
    /// Number text, verbatim, so a digit-only integer is read exactly
    /// (a `u64` seed above 2^53 survives) while `1e3` still means 1000.
    Num(String),
    /// `true` / `false`.
    Bool(bool),
}

impl Value {
    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an unsigned integer: exact for digit-only text,
    /// otherwise (`1e3`, `7.0`) the float's value when it is integral and
    /// in range.
    pub fn as_u64(&self) -> Option<u64> {
        let Value::Num(text) = self else { return None };
        if let Ok(n) = text.parse::<u64>() {
            return Some(n);
        }
        let n: f64 = text.parse().ok()?;
        (n.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(&n)).then_some(n as u64)
    }

    /// [`Value::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        usize::try_from(self.as_u64()?).ok()
    }
}

/// Parses one `{"key":value,...}` object with string/number/bool values.
/// Duplicate keys are kept in order (lookups take the first).
///
/// # Errors
///
/// A one-line diagnosis when `line` is not such an object.
pub fn parse_flat(line: &str) -> Result<Vec<(String, Value)>, String> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    skip_ws(&mut i);
    if bytes.get(i) != Some(&b'{') {
        return Err("expected '{'".into());
    }
    i += 1;
    loop {
        skip_ws(&mut i);
        if bytes.get(i) == Some(&b'}') {
            i += 1;
            break;
        }
        let key = parse_string(bytes, &mut i)?;
        skip_ws(&mut i);
        if bytes.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i += 1;
        skip_ws(&mut i);
        let value = if bytes.get(i) == Some(&b'"') {
            Value::Str(parse_string(bytes, &mut i)?)
        } else if bytes[i..].starts_with(b"true") {
            i += 4;
            Value::Bool(true)
        } else if bytes[i..].starts_with(b"false") {
            i += 5;
            Value::Bool(false)
        } else {
            let start = i;
            while matches!(bytes.get(i), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
                i += 1;
            }
            let text = std::str::from_utf8(&bytes[start..i]).map_err(|_| "bad utf8")?;
            if text.parse::<f64>().is_err() {
                return Err(format!("bad number {text:?}"));
            }
            Value::Num(text.to_string())
        };
        out.push((key, value));
        skip_ws(&mut i);
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                break;
            }
            _ => return Err("expected ',' or '}'".into()),
        }
    }
    skip_ws(&mut i);
    if i != bytes.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(out)
}

/// Parses the `"..."` string at `bytes[*i]` (every JSON escape, surrogate
/// pairs included) and leaves `*i` past its closing quote.
///
/// # Errors
///
/// Unterminated strings and unsupported escapes (unknown letters,
/// malformed `\u` hex, lone surrogates).
pub fn parse_string(bytes: &[u8], i: &mut usize) -> Result<String, String> {
    if bytes.get(*i) != Some(&b'"') {
        return Err("expected string".into());
    }
    *i += 1;
    let mut out = String::new();
    while let Some(&b) = bytes.get(*i) {
        match b {
            b'"' => {
                *i += 1;
                return Ok(out);
            }
            b'\\' => {
                *i += 1;
                out.push(match bytes.get(*i) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    Some(b'r') => '\r',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'u') => parse_unicode_escape(bytes, i).ok_or("unsupported escape")?,
                    _ => return Err("unsupported escape".into()),
                });
                *i += 1;
            }
            _ => {
                // Consume one UTF-8 scalar, not one byte.
                let rest = std::str::from_utf8(&bytes[*i..]).map_err(|_| "bad utf8")?;
                let ch = rest.chars().next().ok_or("unterminated string")?;
                out.push(ch);
                *i += ch.len_utf8();
            }
        }
    }
    Err("unterminated string".into())
}

/// The scalar of the `uXXXX` (or surrogate pair `uXXXX\uXXXX`) escape whose
/// `u` is at `bytes[*i]`, leaving `*i` on its last hex digit; `None` for
/// malformed hex and lone surrogates.
fn parse_unicode_escape(bytes: &[u8], i: &mut usize) -> Option<char> {
    let hex4 = |at: usize| {
        let mut digits = bytes.get(at..at + 4)?.iter();
        digits.try_fold(0u32, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
    };
    let mut code = hex4(*i + 1)?;
    *i += 4;
    if (0xD800..0xDC00).contains(&code) && bytes.get(*i + 1..*i + 3) == Some(b"\\u") {
        let low = hex4(*i + 3).filter(|low| (0xDC00..0xE000).contains(low))?;
        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        *i += 6;
    }
    char::from_u32(code)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn parse_quoted(text: &str) -> Result<String, String> {
        let mut i = 0;
        let s = parse_string(text.as_bytes(), &mut i)?;
        assert_eq!(i, text.len(), "consumed the whole literal {text}");
        Ok(s)
    }

    #[test]
    fn object_builder_writes_fields_in_call_order_without_whitespace() {
        let line = Object::new()
            .str("event", "done")
            .num("job", 7u64)
            .num("hpwl", format_args!("{:e}", 1234.5f64))
            .num("seconds", format_args!("{:.3}", 0.41234f64))
            .f64("overflow", 0.25)
            .raw("data", "{\"ev\":\"end\"}")
            .str("path", "a\"b")
            .finish();
        assert_eq!(
            line,
            "{\"event\":\"done\",\"job\":7,\"hpwl\":1.2345e3,\"seconds\":0.412,\
             \"overflow\":2.50000000000000000e-1,\"data\":{\"ev\":\"end\"},\"path\":\"a\\\"b\"}"
        );
        assert_eq!(Object::new().finish(), "{}");
    }

    #[test]
    fn quote_then_parse_round_trips_every_awkward_char() {
        // Every C0 control (the writer's \u00XX form included), the two
        // characters JSON must escape, a line separator, a non-BMP scalar.
        let mut s: String = (0u8..0x20).map(char::from).collect();
        s.push_str("\"\\/\u{2028}\u{1F600}é");
        let quoted = quote(&s);
        assert!(quoted.contains("\\u0001") && quoted.contains("\\u001f"));
        assert!(!quoted.chars().any(|c| (c as u32) < 0x20));
        assert_eq!(parse_quoted(&quoted).unwrap(), s);
    }

    #[test]
    fn reader_accepts_the_full_string_grammar() {
        assert_eq!(parse_quoted(r#""A\b\f\/""#).unwrap(), "A\u{8}\u{c}/");
        assert_eq!(parse_quoted(r#""\uD83D\uDE00""#).unwrap(), "\u{1F600}");
        assert_eq!(parse_quoted(r#""\ud83d\ude00!""#).unwrap(), "\u{1F600}!");
        for bad in [
            r#""\uD83D""#,       // high surrogate, nothing after
            r#""\uD83Dx""#,      // high surrogate, no low one
            r#""\uD83D\u0041""#, // high surrogate, then a non-surrogate
            r#""\uDE00""#,       // low surrogate alone
            r#""\u12""#,         // truncated
            r#""\u+123""#,       // a sign is not a hex digit
            r#""\q""#,
            r#""\"#,
            r#""abc"#,
        ] {
            let mut i = 0;
            assert!(parse_string(bad.as_bytes(), &mut i).is_err(), "{bad}");
        }
    }

    #[test]
    fn numbers_keep_their_text_and_integers_stay_exact() {
        let fields =
            parse_flat(r#"{"seed":9007199254740993,"cells":1e3,"x":-7,"f":0.25,"ok":true}"#)
                .unwrap();
        let get = |k: &str| &fields.iter().find(|(key, _)| key == k).unwrap().1;
        assert_eq!(get("seed"), &Value::Num("9007199254740993".into()));
        assert_eq!(get("seed").as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(get("cells").as_usize(), Some(1000));
        assert_eq!(get("x").as_u64(), None);
        assert_eq!(get("x").as_f64(), Some(-7.0));
        assert_eq!(get("f").as_u64(), None);
        assert_eq!(get("ok").as_bool(), Some(true));
        // Over-range integers are not silently saturated.
        let big = parse_flat(r#"{"job":29999999999999999999}"#).unwrap();
        assert_eq!(big[0].1.as_u64(), None);
    }

    #[test]
    fn reader_rejects_what_is_not_a_flat_object() {
        for bad in [
            "not json",
            r#"{"a":1} extra"#,
            r#"{"a":NaN}"#,
            r#"{"a":null}"#,
            r#"{"a":[1]}"#,
            r#"{"a":{"b":1}}"#,
            r#"{"a":1,"#,
            r#"{"a""#,
            r#"{"a":"#,
            "[1,2,3]",
            "",
        ] {
            assert!(parse_flat(bad).is_err(), "{bad}");
        }
        assert_eq!(parse_flat(" { } ").unwrap(), vec![]);
    }
}
