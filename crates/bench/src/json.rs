//! A tiny hand-rolled JSON value type and recursive-descent parser.
//!
//! The repo builds hermetically (no external crates), so the telemetry
//! layer *writes* JSON by plain string formatting and *validates* what it
//! wrote with this minimal reader. The parser accepts standard JSON
//! (objects, arrays, strings with escapes, numbers, booleans, `null`);
//! it exists so `repro bench-smoke` and the tests can round-trip
//! `BENCH_qbf.json` without trusting the writer blindly.
//!
//! A key repeated within one object is a parse error naming the key.
//!
//! Arrays and objects nest at most [`MAX_DEPTH`] levels: the descent
//! recurses once per level, so an unbounded depth would let one input
//! line overflow the stack of a long-lived reader such as `qbfserve`.

use std::collections::HashSet;

/// A parsed JSON value. Objects preserve insertion order (the writer's
/// field order is part of the byte-determinism contract, so the reader
/// keeps it observable) and hold each key once: the parser rejects a
/// repeated key.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, stored as `f64` (all counters we emit fit exactly).
    Num(f64),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a field of an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` if it is an integral, in-range number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64` if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escapes a string for embedding between double quotes in JSON output.
/// Shared by the telemetry writers so writer and reader agree.
///
/// Unescaped byte runs are copied whole. Every byte that needs an
/// escape is ASCII, and no UTF-8 sequence contains an ASCII byte, so
/// each run starts and ends on a `char` boundary.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => out.push_str(&format!("\\u{b:04x}")),
        }
    }
    out.push_str(&s[run..]);
    out
}

/// Deepest array/object nesting [`parse`] accepts (the committed
/// artifacts nest at most 6 levels).
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document (surrounding whitespace allowed; trailing
/// garbage and nesting deeper than [`MAX_DEPTH`] are errors).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

/// Wraps a parsed object's fields, rejecting a key that occurs twice:
/// [`Json::get`] could only ever see one of the values, so the reader
/// would silently pick one of two meanings. One set insertion per key.
fn unique_keys(start: usize, fields: Vec<(String, Json)>) -> Result<Json, String> {
    if fields.len() > 1 {
        let mut seen = HashSet::with_capacity(fields.len());
        if let Some((key, _)) = fields.iter().find(|(k, _)| !seen.insert(k.as_str())) {
            return Err(format!(
                "duplicate key `{key}` in the object at byte {start}"
            ));
        }
    }
    Ok(Json::Obj(fields))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return unique_keys(start, fields);
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("invalid \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!("invalid escape {:?}", other.map(|c| c as char)))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // copy one UTF-8 scalar (the input is a &str, so the
                    // byte stream is valid UTF-8 by construction)
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2, {"b": false}], "c": "x"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn truncated_documents_error_instead_of_panicking() {
        // Every prefix of a valid document must parse or error cleanly.
        let doc = r#"{"suite":"NCF","value":null,"stats":{"decisions":5},"t":"a\u0041b"}"#;
        for cut in 0..doc.len() {
            let prefix = &doc[..cut];
            if !prefix.is_char_boundary(cut) {
                continue;
            }
            if cut < doc.len() {
                assert!(parse(prefix).is_err(), "prefix {cut} accepted: {prefix}");
            }
        }
        assert!(parse("").is_err(), "empty input");
        assert!(parse("   \n\t ").is_err(), "whitespace-only input");
        assert!(parse("\"unterminated").is_err());
        assert!(parse("\"bad \\u00").is_err(), "truncated \\u escape");
        assert!(parse("\"bad \\x\"").is_err(), "unknown escape");
        assert!(parse("{\"dup\":1,}").is_err(), "trailing comma");
        assert!(parse("nul").is_err(), "truncated literal");
    }

    #[test]
    fn repeated_keys_are_rejected_by_name() {
        assert_eq!(
            parse(r#"{"cmd":"push","cmd":"frobnicate"}"#),
            Err("duplicate key `cmd` in the object at byte 0".to_string())
        );
        assert_eq!(
            parse(r#"{"a":{"b":1,"c":2,"b":3}}"#),
            Err("duplicate key `b` in the object at byte 5".to_string())
        );
        // Escapes are resolved before the comparison.
        assert!(parse(r#"{"k":1,"\u006b":2}"#).is_err());
        // The same key in sibling or nested objects is fine.
        let v = parse(r#"{"a":{"k":1},"b":{"k":2},"k":{"k":3}}"#).unwrap();
        assert_eq!(
            v.get("k").and_then(|k| k.get("k")).and_then(Json::as_u64),
            Some(3)
        );
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&arrays(MAX_DEPTH + 1)),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"
            ))
        );
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
    }

    /// The char-at-a-time loop `escape` replaced, kept as its reference.
    fn escape_by_char(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn escape_matches_the_char_loop() {
        let fixed = [
            "", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{1f}", "\u{7f}", "é", "€",
            "𝄞", "a\"b\\c\nd", "é\u{1}€\t𝄞\"",
        ];
        for s in fixed {
            assert_eq!(escape(s), escape_by_char(s), "input {s:?}");
        }
        // Seeded random mixes of the inputs above and arbitrary chars.
        let alphabet = [
            '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'a', ' ', 'é',
            '€', '𝄞',
        ];
        let mut rng = qbf_gen::rng::Rng::seed_from_u64(0x6a73_6f6e);
        for _ in 0..2000 {
            let len = rng.gen_range(0..24);
            let s: String = (0..len)
                .map(|_| match rng.gen_range(0..4) {
                    0 => char::from_u32(rng.gen_range(0..0x11_0000) as u32).unwrap_or('\u{fffd}'),
                    _ => alphabet[rng.gen_range(0..alphabet.len())],
                })
                .collect();
            assert_eq!(escape(&s), escape_by_char(&s), "input {s:?}");
        }
    }

    #[test]
    fn escape_round_trips() {
        let original = "line\nwith \"quotes\" and \\slash\\ and \u{1} ctrl";
        let wrapped = format!("\"{}\"", escape(original));
        assert_eq!(parse(&wrapped).unwrap().as_str(), Some(original));
    }
}
