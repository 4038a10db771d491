//! The workspace's one JSON module: a value type, a parser, a
//! serializer and the string escaper every JSON writer shares. Std-only,
//! like the rest of the crate. It carries the `star-serve` wire protocol,
//! reads and writes the `BENCH_*.json` baselines and experiment tables,
//! and escapes the strings of span records, flight-recorder events and
//! [`Snapshot::to_json`](crate::Snapshot::to_json).
//!
//! Supports the full JSON grammar, including `\uXXXX` surrogate pairs
//! (a lone surrogate decodes to U+FFFD rather than erroring, like most
//! lenient parsers). Numbers parse as `f64`, which is exact for the
//! integer nanosecond magnitudes the baselines store (< 2^53). Arrays
//! and objects nest at most [`MAX_DEPTH`] deep, so a hostile document
//! is a parse error rather than a stack overflow.
//! Serialization (`Display`, and `to_string` through it) escapes `"`, `\`,
//! the short control escapes (`\n`, `\t`, `\r`, `\b`, `\f`) and every
//! other control character as `\u00XX`; any value round-trips through
//! serialize-then-parse.

use std::fmt::{self, Write as _};

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The parser recurses once per level; requests, responses, `stats` and
/// baselines nest at most 3 deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as one JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Serializes to canonical JSON (no whitespace). The output always
/// re-parses to an equal value: strings escape `"`, `\` and all control
/// characters; non-ASCII text is emitted as raw UTF-8.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.fract() == 0.0 && v.abs() < 9.0e15 {
                    write!(f, "{}", *v as i64)
                } else {
                    // Rust's shortest-round-trip float formatting.
                    write!(f, "{v}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` to `out` as a JSON string literal, quotes included: the
/// one escaper behind [`Json`]'s `Display` and every star-obs emitter.
pub(crate) fn write_escaped<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\t' => out.write_str("\\t")?,
            '\r' => out.write_str("\\r")?,
            '\u{8}' => out.write_str("\\b")?,
            '\u{c}' => out.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    let _ = write_escaped(out, s);
}

/// Appends an `f64` in a JSON-legal form (`null` for non-finite values).
pub(crate) fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", b as char))
    }
}

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = bytes.get(*pos) {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = parse_hex4(bytes, *pos + 1)
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&hex) {
                            // High surrogate: combine with a following
                            // `\uDC00..\uDFFF` low surrogate if present;
                            // a lone surrogate decodes to U+FFFD.
                            match (bytes.get(*pos + 1..*pos + 3), parse_hex4(bytes, *pos + 3)) {
                                (Some(b"\\u"), Some(lo)) if (0xDC00..0xE000).contains(&lo) => {
                                    let c = 0x10000 + ((hex - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
                                    *pos += 6;
                                }
                                _ => out.push('\u{fffd}'),
                            }
                        } else {
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the contiguous run up to the next quote or escape in
                // one pass, validating UTF-8 once per run rather than once
                // per character (which re-scans the whole tail and turns
                // large strings quadratic).
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' {
                        break;
                    }
                    *pos += 1;
                }
                let s = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "invalid UTF-8".to_string())?;
                out.push_str(s);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| u32::from_str_radix(h, 16).ok())
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(bytes, pos, depth)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#" {"a": [1, 2.5, -3e2], "b": {"c": "x\n\"y\"", "d": null}, "e": true} "#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(-300.0));
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\n\"y\"")
        );
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn integer_accessor_rejects_fractions() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("42.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "1 2", "tru", ""] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            Json::parse("\"\\u00e9\\u0041\"").unwrap().as_str(),
            Some("éA")
        );
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_chars() {
        // 😀 = U+1F600 = \ud83d\ude00.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("😀")
        );
        // A lone high surrogate (followed by ordinary text or EOF) is
        // lenient-decoded to U+FFFD rather than erroring.
        assert_eq!(
            Json::parse("\"\\ud83dx\"").unwrap().as_str(),
            Some("\u{fffd}x")
        );
        assert_eq!(
            Json::parse("\"\\ud83d\"").unwrap().as_str(),
            Some("\u{fffd}")
        );
        // A lone low surrogate too.
        assert_eq!(
            Json::parse("\"\\ude00!\"").unwrap().as_str(),
            Some("\u{fffd}!")
        );
    }

    #[test]
    fn nesting_is_capped_at_max_depth_without_overflowing_the_stack() {
        fn nested(depth: usize) -> String {
            "[".repeat(depth) + &"]".repeat(depth)
        }
        // A spawned thread gets the default stack, as a server
        // connection thread does.
        std::thread::spawn(|| {
            assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
            let deep = format!("{{\"a\":{}}}", nested(MAX_DEPTH - 1));
            assert!(Json::parse(&deep).is_ok());
            for depth in [MAX_DEPTH + 1, 1_000_000] {
                let err = Json::parse(&nested(depth)).unwrap_err();
                assert!(err.contains(&MAX_DEPTH.to_string()), "{err}");
                let err = Json::parse(&"{\"a\":".repeat(depth)).unwrap_err();
                assert!(err.contains("nesting deeper"), "{err}");
            }
        })
        .join()
        .expect("the parser must not overflow the stack");
    }

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let mut out = String::new();
        push_json_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn serializer_escapes_and_round_trips_tricky_strings() {
        for s in [
            "plain",
            "quote \" backslash \\ slash /",
            "newline \n tab \t return \r",
            "backspace \u{8} formfeed \u{c} bell \u{7}",
            "unicode é ü 中 😀",
            "\u{0} nul and \u{1f} unit separator",
        ] {
            let doc = Json::Str(s.to_string()).to_string();
            assert!(
                doc.bytes().all(|b| b >= 0x20),
                "control byte leaked unescaped into {doc:?}"
            );
            assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(s), "via {doc:?}");
        }
        assert_eq!(
            Json::Str("a\"b\\c\nd".into()).to_string(),
            "\"a\\\"b\\\\c\\nd\""
        );
    }

    /// Fuzz-style round-trip: pseudo-random nested documents with strings
    /// drawn from an adversarial character pool must survive
    /// serialize-then-parse byte-exactly as values.
    #[test]
    fn fuzz_round_trip() {
        /// SplitMix64; the crate takes no dependencies, tests included.
        struct Rng(u64);
        impl Rng {
            fn below(&mut self, bound: u64) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % bound
            }
        }

        const POOL: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{8}', '\u{c}', '\u{0}',
            '\u{1}', '\u{1f}', 'é', '中', '\u{fffd}', '😀', '𝕊',
        ];

        fn gen_value(rng: &mut Rng, depth: usize) -> Json {
            match rng.below(if depth == 0 { 5 } else { 7 }) {
                0 => Json::Null,
                1 => Json::Bool(rng.below(2) == 0),
                2 => Json::Num(rng.below(1 << 53) as f64),
                3 => Json::Num(rng.below(1000) as f64 / 8.0 - 31.0),
                4 => {
                    let len = rng.below(24);
                    Json::Str(
                        (0..len)
                            .map(|_| POOL[rng.below(POOL.len() as u64) as usize])
                            .collect(),
                    )
                }
                5 => {
                    let len = rng.below(4);
                    Json::Arr((0..len).map(|_| gen_value(rng, depth - 1)).collect())
                }
                _ => {
                    let len = rng.below(4);
                    Json::Obj(
                        (0..len)
                            .map(|i| {
                                let klen = rng.below(8);
                                let key: String = (0..klen)
                                    .map(|_| POOL[rng.below(POOL.len() as u64) as usize])
                                    .chain(std::iter::once(char::from(b'a' + i as u8)))
                                    .collect();
                                (key, gen_value(rng, depth - 1))
                            })
                            .collect(),
                    )
                }
            }
        }

        let mut rng = Rng(0x5eed);
        for i in 0..500 {
            let value = gen_value(&mut rng, 3);
            let doc = value.to_string();
            let back = Json::parse(&doc).unwrap_or_else(|e| panic!("iter {i}: {e} in {doc:?}"));
            assert_eq!(back, value, "iter {i}: {doc:?}");
        }
    }
}
