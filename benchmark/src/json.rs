//! A small JSON value: enough to emit results, read them back for
//! `compare`, and validate `BENCHMARK.json`. The tree has no JSON crate
//! offline; objects keep insertion order so emitted files diff cleanly.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are stored as `f64` and emitted without a
    /// fraction while they are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A number, or `null` when it is not finite (JSON has no NaN).
    pub fn num(x: f64) -> Value {
        if x.is_finite() {
            Value::Num(x)
        } else {
            Value::Null
        }
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Compact one-line encoding.
    pub fn to_line(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Indented multi-line encoding.
    pub fn to_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s.push('\n');
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => write_num(out, *x),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                // arrays of scalars stay on one line even when indenting
                let flat = items
                    .iter()
                    .all(|v| !matches!(v, Value::Arr(_) | Value::Obj(_)));
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if flat && indent.is_some() {
                            out.push(' ');
                        }
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    v.write(out, indent, depth + 1);
                }
                if !flat && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
        let _ = write!(out, "{}", x as i64);
    } else if x.abs() >= 1e-5 && x.abs() < 1e15 {
        // shortest representation that round-trips, all digits as measured
        let _ = write!(out, "{x}");
    } else {
        let _ = write!(out, "{x:e}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Nesting bound: input comes from files a user names on the command line.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        at: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.at != p.s.len() {
        return Err(format!("trailing data at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.at))
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.ws();
        let Some(&c) = self.s.get(self.at) else {
            return self.err("unexpected end");
        };
        match c {
            b'n' if self.eat("null") => Ok(Value::Null),
            b't' if self.eat("true") => Ok(Value::Bool(true)),
            b'f' if self.eat("false") => Ok(Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    if self.eat(",") {
                        continue;
                    }
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    return self.err("expected ',' or ']'");
                }
            }
            b'{' => {
                self.at += 1;
                let mut pairs = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.ws();
                    if self.s.get(self.at) != Some(&b'"') {
                        return self.err("expected a member name");
                    }
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return self.err("expected ':'");
                    }
                    pairs.push((key, self.value(depth + 1)?));
                    self.ws();
                    if self.eat(",") {
                        continue;
                    }
                    if self.eat("}") {
                        return Ok(Value::Obj(pairs));
                    }
                    return self.err("expected ',' or '}'");
                }
            }
            b'-' | b'0'..=b'9' => {
                let start = self.at;
                while self.at < self.s.len()
                    && matches!(
                        self.s[self.at],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.s[start..self.at])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .filter(|x| x.is_finite())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            _ => self.err("unexpected character"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.at += 1; // opening quote
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.at) else {
                return self.err("unterminated string");
            };
            self.at += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.s.get(self.at) else {
                        return self.err("unterminated escape");
                    };
                    self.at += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(ch) = hex.and_then(char::from_u32) else {
                                return self.err("bad \\u escape");
                            };
                            self.at += 4;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                c => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|_| format!("invalid UTF-8 before byte {}", self.at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(42.0)),
            ("name", Value::str("a \"quoted\"\\ line\n\ttab")),
            (
                "metrics",
                Value::obj([(
                    "steps_per_s",
                    Value::obj([
                        ("value", Value::Num(1234.567891234)),
                        ("unit", Value::str("steps/s")),
                    ]),
                )]),
            ),
            (
                "samples",
                Value::Arr(vec![Value::Num(1e-7), Value::Num(-2.5e18), Value::Null]),
            ),
            ("empty", Value::Arr(vec![])),
            (
                "nested",
                Value::Arr(vec![Value::obj([("k", Value::Num(0.1))])]),
            ),
        ])
    }

    #[test]
    fn emit_parse_round_trip_compact_and_pretty() {
        let v = sample();
        assert_eq!(parse(&v.to_line()).expect("compact"), v);
        assert_eq!(parse(&v.to_pretty()).expect("pretty"), v);
        assert!(!v.to_line().contains('\n'), "one line stays one line");
    }

    #[test]
    fn numbers_keep_every_digit_and_integers_stay_integers() {
        assert_eq!(Value::Num(3.0).to_line(), "3");
        assert_eq!(Value::Num(0.812_734_567_891_2).to_line(), "0.8127345678912");
        assert_eq!(Value::num(f64::NAN), Value::Null);
        let tiny = Value::Num(1.234_567_89e-9).to_line();
        assert_eq!(parse(&tiny).expect("tiny").as_f64(), Some(1.234_567_89e-9));
    }

    #[test]
    fn accessors_and_unicode_escapes() {
        let v = parse(r#"{"a": [1, 2.5, "x\u00e9"], "b": {"c": null}}"#).expect("parse");
        let a = v.get("a").and_then(Value::as_arr).expect("array");
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2], Value::str("xé"));
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Value::Null));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn malformed_input_is_rejected_not_panicked_on() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1 2]",
            "\"open",
            "tru",
            "1e999",
            "{} x",
            "\"\\q\"",
            "\"\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "unbounded nesting accepted");
    }
}
