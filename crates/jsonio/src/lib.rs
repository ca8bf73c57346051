//! Minimal JSON value type, writer and parser shared by the bench
//! trajectory files (`BENCH_*.json`) and the declarative scenario spec
//! (`system::scenario`, `scenarios/*.json`).
//!
//! The offline serde compat shim (`crates/compat/serde`) keeps derives
//! compiling but intentionally serializes nothing, so every machine-
//! readable artifact in this workspace is produced by this explicit,
//! dependency-free layer instead: a [`Json`] tree, a deterministic
//! pretty-printer (object keys keep insertion order; floats print in
//! Rust's shortest-round-trip form, so equal values always produce
//! equal bytes), and a small recursive-descent parser. The crate sits
//! below `system` and `bench` in the dependency graph precisely so both
//! can share it without a cycle (it was born as `bench::json`, which
//! now re-exports it). On a networked build the writer side could be
//! swapped for `serde_json` without changing the file formats.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A JSON value. Objects preserve insertion order so output is
/// deterministic and diffs stay readable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers print without a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key–value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Checks that this is an object whose keys are all in `known`,
    /// so a misspelled key is an error instead of a silently applied
    /// default. `place` is the object's dotted path ("" at the top);
    /// the error names the offending key's full path.
    pub fn check_keys(&self, place: &str, known: &[&str]) -> Result<(), String> {
        let path = |key: &str| match place {
            "" => key.to_string(),
            _ => format!("{place}.{key}"),
        };
        let Json::Obj(pairs) = self else {
            let place = if place.is_empty() { "document" } else { place };
            return Err(format!("{place}: expected an object"));
        };
        match pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((key, _)) => Err(format!(
                "{}: unknown key (expected one of: {})",
                path(key),
                known.join(", ")
            )),
            None => Ok(()),
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| out.push_str(&"  ".repeat(n));
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // Shortest round-trip form: exact, deterministic,
                    // and integers come out without a decimal point.
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null"); // JSON has no NaN/inf
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (the subset this module writes, which is
    /// all of JSON except exponent-free-only numbers — exponents are
    /// accepted too).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number bytes");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("invalid number {text:?} at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let mut chars = std::str::from_utf8(&bytes[*pos..])
        .map_err(|e| e.to_string())?
        .char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *pos += i + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((_, 'u')) => {
                    let hex4 = |chars: &mut std::str::CharIndices<'_>| {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                            code = code * 16 + h.to_digit(16).ok_or("invalid \\u escape")?;
                        }
                        Ok::<u32, String>(code)
                    };
                    let code = hex4(&mut chars)?;
                    // JSON encodes non-BMP characters as UTF-16
                    // surrogate pairs (`\ud83d\ude00`); decode the pair
                    // instead of emitting two replacement characters.
                    let code = if (0xD800..0xDC00).contains(&code) {
                        match (chars.next(), chars.next()) {
                            (Some((_, '\\')), Some((_, 'u'))) => {
                                let low = hex4(&mut chars)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("unpaired \\u surrogate".to_string());
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            }
                            _ => return Err("unpaired \\u surrogate".to_string()),
                        }
                    } else {
                        code
                    };
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err("invalid escape".to_string()),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_representative_document() {
        let doc = Json::obj([
            ("bench", Json::str("latency_curve")),
            (
                "rows",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("pimphony/0.50x/jsq")),
                    ("tokens_per_second", Json::num(843.1546858351828)),
                    ("completed", Json::num(160.0)),
                    ("note", Json::str("quote \" and \\ and\nnewline")),
                    ("empty", Json::Arr(vec![])),
                    ("flag", Json::Bool(true)),
                    ("nothing", Json::Null),
                ])]),
            ),
        ]);
        let text = doc.to_pretty();
        let back = Json::parse(&text).expect("parse back");
        assert_eq!(back, doc);
    }

    #[test]
    fn floats_print_shortest_round_trip_and_ints_bare() {
        assert_eq!(Json::num(3.0).to_pretty(), "3\n");
        assert_eq!(Json::num(0.1).to_pretty(), "0.1\n");
        let v = 8.431546858351828e2;
        let text = Json::num(v).to_pretty();
        assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(v));
        // Non-finite values degrade to null rather than invalid JSON.
        assert_eq!(Json::num(f64::NAN).to_pretty(), "null\n");
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::parse(r#"{"a": {"b": [1, 2.5, "x"]}, "n": -3e2}"#).unwrap();
        let arr = doc.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(doc.get("n").unwrap().as_f64(), Some(-300.0));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        // The standard JSON encoding of non-BMP characters (what
        // serde_json / python json emit) is a UTF-16 surrogate pair.
        let doc = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(doc.as_str(), Some("\u{1F600}"));
        // BMP escapes still decode singly.
        assert_eq!(Json::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        // Unpaired surrogates are invalid JSON text.
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ud83dA""#).is_err());
        // Raw (already-UTF-8) non-BMP text round-trips through the
        // writer untouched.
        let s = Json::str("name-😀");
        assert_eq!(Json::parse(&s.to_pretty()).unwrap(), s);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("01x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn check_keys_names_the_unknown_key_by_path() {
        let doc = Json::parse(r#"{"a": 1, "b": 2}"#).unwrap();
        assert_eq!(doc.check_keys("", &["a", "b"]), Ok(()));
        assert_eq!(
            doc.check_keys("policies", &["a"]),
            Err("policies.b: unknown key (expected one of: a)".to_string())
        );
        assert_eq!(
            doc.check_keys("", &["b"]),
            Err("a: unknown key (expected one of: b)".to_string())
        );
        assert_eq!(
            Json::num(1.0).check_keys("cluster", &[]),
            Err("cluster: expected an object".to_string())
        );
    }
}
