//! A minimal JSON value, parser and renderer.
//!
//! The workspace builds offline with no serialization dependencies, so
//! every JSON consumer — the provenance manifest in `mcdvfs-bench`, the
//! `mcdvfs-serve` wire protocol — shares this hand-rolled implementation
//! instead of duplicating one per crate. Object member order is preserved
//! on parse and render, and [`Json::render`] is the exact on-disk format
//! the provenance manifest has always used (2-space indentation, `\n`
//! line ends), so moving the code here changed no bytes.
//!
//! Numbers render with Rust's shortest-round-trip `f64` formatting:
//! `parse(render(x))` reproduces `x` bit-for-bit (including `-0.0`),
//! which is what lets the serving layer promise bit-identical replies
//! across the wire. Non-finite values have no JSON form and render as
//! `null`. Container nesting is capped so untrusted network frames
//! cannot overflow the parser's stack.

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error.
    pub fn parse(text: &str) -> std::result::Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on objects (first match), `None` elsewhere.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and `\n` line ends — the
    /// on-disk manifest format.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_value(self, 0, &mut out);
        out.push('\n');
        out
    }

    /// Serializes without any insignificant whitespace — the single-line
    /// wire format the serving layer frames.
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        render_compact_value(self, &mut out);
        out
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Maximum container nesting accepted by the parser. The parser recurses
/// once per nested `[`/`{`, and the serve crate feeds it untrusted frames
/// up to 1 MiB — without a cap, ~100k open brackets overflow the reader
/// thread's stack and abort the process. 128 levels is far beyond any
/// document the workspace produces.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> std::result::Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting exceeds {MAX_DEPTH} levels at byte {pos}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
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
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                members.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}")),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: Json,
) -> std::result::Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> std::result::Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> std::result::Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let ch = if (0xD800..=0xDBFF).contains(&code) {
                            // High surrogate: JSON encodes astral code
                            // points as a \uD8xx\uDCxx pair, so the low
                            // half must follow immediately.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(format!("lone high surrogate at byte {pos}"));
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err(format!("lone high surrogate at byte {pos}"));
                            }
                            *pos += 6;
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined).expect("surrogate pair combines to scalar")
                        } else if (0xDC00..=0xDFFF).contains(&code) {
                            return Err(format!("lone low surrogate at byte {pos}"));
                        } else {
                            char::from_u32(code).expect("non-surrogate BMP code point is a scalar")
                        };
                        out.push(ch);
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run of plain bytes up to the next quote or
                // backslash as one slice, validating only that run, so a
                // long string parses in linear time.
                let start = *pos;
                *pos = bytes[start..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |run| start + run);
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|e| format!("invalid UTF-8 at byte {}", start + e.valid_up_to()))?;
                out.push_str(run);
            }
        }
    }
}

/// Reads four hex digits starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> std::result::Result<u32, String> {
    bytes
        .get(at..at + 4)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("bad \\u escape at byte {at}"))
}

fn render_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no representation for NaN/±inf; render `null` rather
        // than emit `inf`/`NaN` tokens the parser itself would reject.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 && !(n == 0.0 && n.is_sign_negative()) {
        // The integer path would collapse -0.0 to "0", losing the sign
        // bit; -0.0 takes the shortest-round-trip path ("-0") instead.
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn render_value(value: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => render_number(*n, out),
        Json::Str(s) => render_string(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&inner);
                render_value(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push(']');
        }
        Json::Obj(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (key, val)) in members.iter().enumerate() {
                out.push_str(&inner);
                render_string(key, out);
                out.push_str(": ");
                render_value(val, indent + 1, out);
                out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

fn render_compact_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => render_number(*n, out),
        Json::Str(s) => render_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_compact_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_string(key, out);
                out.push(':');
                render_compact_value(val, out);
            }
            out.push('}');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_nested_shapes() {
        let text = r#"{"schema": "x", "artifacts": [{"path": "a.csv", "bytes": 12,
            "nested": {"k": [1, 2.5, -3e2, true, false, null]},
            "esc": "line\nbreak \"quoted\" A"}]}"#;
        let doc = Json::parse(text).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("x"));
        let entry = &doc.get("artifacts").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(entry.get("bytes").and_then(Json::as_f64), Some(12.0));
        assert_eq!(
            entry.get("esc").and_then(Json::as_str),
            Some("line\nbreak \"quoted\" A")
        );
        // Render → parse is the identity on the value, in both formats.
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render_compact()).unwrap(), doc);
    }

    #[test]
    fn json_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "\"open", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        // An adversarial single frame of open brackets must come back as
        // a parse error, not abort the process.
        let hostile = "[".repeat(100_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.contains("nesting"), "unexpected error: {err}");
        // Nesting at the cap still parses.
        let deep = format!("{}1{}", "[".repeat(128), "]".repeat(128));
        assert!(Json::parse(&deep).is_ok());
        assert!(Json::parse(&format!("[{deep}]")).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_code_points() {
        let doc = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(doc.as_str(), Some("\u{1f600}"));
        // Astral characters round-trip through render (emitted raw).
        assert_eq!(Json::parse(&doc.render_compact()).unwrap(), doc);
        for lone in [
            r#""\ud83d""#,        // high surrogate at end of string
            r#""\ud83dx""#,       // high surrogate followed by a plain char
            "\"\\ud83d\\u0041\"", // high surrogate followed by a BMP escape
            r#""\ude00""#,        // lone low surrogate
        ] {
            assert!(Json::parse(lone).is_err(), "{lone} should fail");
        }
    }

    #[test]
    fn negative_zero_and_non_finite_numbers() {
        // -0.0 keeps its sign bit through a round trip.
        let rendered = Json::Num(-0.0).render_compact();
        assert_eq!(rendered, "-0");
        let back = Json::parse(&rendered).unwrap().as_f64().unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
        // Non-finite values render as valid JSON (`null`), never as the
        // `inf`/`NaN` tokens the parser rejects.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(v).render_compact(), "null");
        }
    }

    #[test]
    fn compact_render_has_no_whitespace() {
        let doc = Json::Obj(vec![
            ("a".to_string(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("b".to_string(), Json::Str("x y".to_string())),
        ]);
        assert_eq!(doc.render_compact(), r#"{"a":[1,null],"b":"x y"}"#);
    }

    #[test]
    fn numbers_round_trip_bit_for_bit() {
        // Shortest-round-trip f64 formatting: the wire protocol's
        // bit-identity guarantee rests on this.
        for v in [
            0.0,
            1.0,
            1.3,
            0.005,
            1.0 / 3.0,
            2.2250738585072014e-308,
            1.7976931348623157e308,
            -123456.789_012_345,
        ] {
            let rendered = Json::Num(v).render_compact();
            let back = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {rendered}");
        }
    }
}
