//! A minimal recursive-descent JSON parser.
//!
//! The workspace hand-rolls its JSON artifacts (`BENCH_*.json`, the
//! metrics snapshots) rather than depending on serde; this module is the
//! matching reader so `bench_export --compare` and the e2e tests can load
//! them back, plus [`quote`], the one string quoter every hand-rolled
//! writer uses. The parser accepts standard JSON (RFC 8259) with two deliberate
//! simplifications: numbers parse through [`f64`] (ints above 2⁵³ lose
//! precision) and `\uXXXX` escapes outside the BMP must be paired
//! surrogates. Nesting is capped at [`MAX_DEPTH`], so hostile input cannot
//! exhaust the stack of the thread parsing it.

use std::collections::BTreeMap;
use std::fmt::Write;

/// The deepest nesting of arrays and objects [`parse`] accepts; a deeper
/// document is an `Err` naming the byte offset of the first bracket past
/// the limit. The parser recurses once per level, and an unbounded depth
/// overflows a default 2 MiB thread stack (an uncatchable abort) at around
/// 10⁴ levels. The deepest document the workspace writes or reads is 5
/// levels (a traced metrics snapshot); request and response bodies,
/// `BENCH_*.json` and the end-to-end benchmark's output are at most 3.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are unique (last write wins) and iterate sorted.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if this is an object and the key exists.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Element `i` of an array.
    pub fn at(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `u64`, if numeric, non-negative, and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// `s` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped, `\n`/`\r`/`\t` use their short escapes, and every
/// other control character below U+0020 becomes `\u00XX`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Parses a complete JSON document (trailing whitespace allowed).
///
/// # Errors
/// A human-readable message with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {pos}",
            char::from(want),
            pos = *pos
        ))
    }
}

/// One value nested inside `depth` enclosing arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let slice = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    slice
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{slice}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let first = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&first) {
                            // High surrogate: must be followed by \uXXXX low.
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("invalid low surrogate".to_owned());
                                }
                                0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                return Err("lone surrogate escape".to_owned());
                            }
                        } else {
                            first
                        };
                        out.push(
                            char::from_u32(code).ok_or_else(|| "invalid \\u escape".to_owned())?,
                        );
                        continue; // parse_hex4 already advanced past the digits
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is &str, so valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).expect("input was a str");
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let end = *pos + 4;
    if end > bytes.len() {
        return Err("truncated \\u escape".to_owned());
    }
    let digits =
        std::str::from_utf8(&bytes[*pos..end]).map_err(|_| "non-ASCII \\u escape".to_owned())?;
    let code = u32::from_str_radix(digits, 16).map_err(|_| "non-hex \\u escape".to_owned())?;
    *pos = end;
    Ok(code)
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
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
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -3.5e2 ").unwrap(), Json::Num(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".to_owned()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, 2, {"b": false}], "c": {"d": null}}"#).unwrap();
        assert_eq!(
            doc.get("a").and_then(|a| a.at(1)).and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(
            doc.get("a")
                .and_then(|a| a.at(2))
                .and_then(|o| o.get("b"))
                .and_then(Json::as_bool),
            Some(false)
        );
        assert!(doc.get("c").and_then(|c| c.get("d")).unwrap().is_null());
    }

    #[test]
    fn parses_escapes_including_quotes_in_metric_names() {
        let doc = parse(r#"{"online_shard_panics_total{shard=\"3\"}": 2}"#).unwrap();
        assert_eq!(
            doc.get("online_shard_panics_total{shard=\"3\"}")
                .and_then(Json::as_u64),
            Some(2)
        );
        let s = parse(r#""a\n\tA😀""#).unwrap();
        assert_eq!(s.as_str(), Some("a\n\tA😀"));
    }

    #[test]
    fn quote_round_trips_through_parse() {
        let mut nasty: String = (0u8..0x20).map(char::from).collect();
        nasty.push_str("\"\\plain\u{1F600}\u{7f}");
        assert_eq!(parse(&quote(&nasty)).unwrap(), Json::Str(nasty.clone()));
        for c in nasty.chars() {
            let s = c.to_string();
            assert_eq!(parse(&quote(&s)).unwrap(), Json::Str(s), "{c:?}");
        }
        assert_eq!(quote("a\"b\n\u{1}"), r#""a\"b\n\u0001""#);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "1 2", "{'a': 1}", "tru"] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth_without_overflowing_the_stack() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"a\":".repeat(depth) + "null" + &"}".repeat(depth);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        let err = parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // A plain spawned thread has the default stack, as the daemons'
        // workers do; unbounded recursion would abort the whole process.
        let hostile = std::thread::spawn(|| parse(&"[".repeat(100_000)).is_err());
        assert!(hostile.join().unwrap());
    }

    #[test]
    fn as_u64_guards_range_and_integrality() {
        assert_eq!(parse("18").unwrap().as_u64(), Some(18));
        assert_eq!(parse("18.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
