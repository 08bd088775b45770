//! A minimal hand-rolled JSON value: render and parse.
//!
//! The workspace's zero-external-dependency policy rules out `serde`; the
//! telemetry layer needs only a small, deterministic subset of JSON —
//! objects with ordered keys, arrays, strings, integers, floats, booleans
//! and null. Objects preserve insertion order so rendering is a pure
//! function of construction order (a `BTreeMap` would silently reorder
//! span fields).

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the rendering of non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (rendered without a decimal point).
    Int(i64),
    /// A float (non-finite values render as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    out.push_str(&f.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float (`Int` widens); `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as an integer; `None` otherwise.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a string slice; `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        i64::try_from(v).map_or(Json::Float(v as f64), Json::Int)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::from(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// A JSON parse error: a message plus the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so without a cap a line of 50,000 `[`
/// overflows the main thread's stack; no record this workspace writes
/// nests past a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document (rejecting trailing garbage and nesting deeper
/// than [`MAX_DEPTH`]).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object with `container`, one level deeper.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape in one
                    // slice. Both stoppers are ASCII, so the run ends on a
                    // char boundary (the input is &str), and validating
                    // only the run keeps the parse linear in the line.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let s =
                        std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (and a low surrogate pair if the
    /// first unit is a high surrogate). `self.pos` sits on the first digit.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: must be followed by `\uXXXX` low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired high surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let value =
            u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u hex digits"))?;
        self.pos = end;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number token");
        if !token.contains(['.', 'e', 'E']) {
            if let Ok(i) = token.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        token
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-42).render(), "-42");
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Str("a\"b\\c\n".into()).render(), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn renders_nested_structures_in_insertion_order() {
        let v = Json::Obj(vec![
            ("z".into(), Json::Int(1)),
            ("a".into(), Json::Arr(vec![Json::Int(2), Json::Null])),
        ]);
        assert_eq!(v.render(), "{\"z\":1,\"a\":[2,null]}");
    }

    #[test]
    fn parse_roundtrips_render() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("états \u{1F600}".into())),
            ("n".into(), Json::Int(7)),
            ("x".into(), Json::Float(0.25)),
            ("flag".into(), Json::Bool(false)),
            ("none".into(), Json::Null),
            ("arr".into(), Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
        // Rendering is stable under a parse/render cycle.
        assert_eq!(parse(&text).unwrap().render(), text);
    }

    #[test]
    fn parses_escapes_and_surrogate_pairs() {
        assert_eq!(
            parse("\"\\u00e9\\n\\t\\\\\\\"\\u0041\"").unwrap(),
            Json::Str("é\n\t\\\"A".into())
        );
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".into())
        );
        assert!(parse("\"\\ud83d\"").is_err(), "unpaired surrogate");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"abc", "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Re-validating the rest of the input once per character would
        // make this quadratic: seconds for a 120 kB string.
        let body = "é[{\\\"".repeat(20_000);
        let text = format!("{{\"s\":\"{body}\"}}");
        let v = parse(&text).unwrap();
        let expected = "é[{\"".repeat(20_000);
        assert_eq!(v.get("s").unwrap().as_str(), Some(expected.as_str()));
    }

    #[test]
    fn nesting_past_the_cap_is_a_typed_error() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        // Deeper than the cap fails at the opener of level 129: `[` is one
        // byte a level, `{"a":` five.
        for (text, at) in [
            (arrays(50_000), MAX_DEPTH),
            (objects(50_000), 5 * MAX_DEPTH),
        ] {
            let e = parse(&text).unwrap_err();
            assert_eq!(
                (e.message.as_str(), e.at),
                ("nesting deeper than 128 levels", at)
            );
        }
        assert!(parse(&arrays(MAX_DEPTH + 1)).is_err());
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        let mut v = &parse(&objects(MAX_DEPTH)).unwrap();
        for _ in 0..MAX_DEPTH {
            v = v.get("a").unwrap();
        }
        assert_eq!(*v, Json::Int(1));
    }

    #[test]
    fn integer_vs_float_distinction() {
        assert_eq!(parse("10").unwrap(), Json::Int(10));
        assert_eq!(parse("10.0").unwrap(), Json::Float(10.0));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        // Out-of-i64-range integers fall back to float.
        assert_eq!(
            parse("99999999999999999999").unwrap(),
            Json::Float(1e20_f64)
        );
    }

    #[test]
    fn accessors() {
        let v = parse("{\"a\":1,\"b\":\"s\",\"c\":2.5}").unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("s"));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.0));
        assert!(v.get("missing").is_none());
        assert!(Json::Int(1).get("a").is_none());
    }
}
