//! The workspace's one JSON module (the dependency policy forbids
//! external crates): [`JsonWriter`] emits every manifest, record and
//! frame, and [`Json::parse`] reads every one back — a strict
//! recursive-descent parser into a [`Json`] value, so escaping, comma
//! placement and the grammar each live in a single place.

/// An append-only JSON writer with automatic comma placement.
///
/// Calls must follow JSON's grammar (a `key` before every value inside an
/// object, no `key` inside arrays); the writer tracks nesting depth and
/// whether a separator is due, nothing more.
///
/// # Examples
///
/// ```
/// use escalate_obs::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("name");
/// w.string("a \"quoted\" value");
/// w.key("items");
/// w.begin_array();
/// w.u64(1);
/// w.u64(2);
/// w.end_array();
/// w.end_object();
/// assert_eq!(
///     w.finish(),
///     "{\"name\": \"a \\\"quoted\\\" value\", \"items\": [1, 2]}"
/// );
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` when the next value needs a
    /// leading comma.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// A writer with an empty buffer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Consumes the writer, returning the JSON text.
    pub fn finish(self) -> String {
        self.out
    }

    fn separate(&mut self) {
        if let Some(due) = self.needs_comma.last_mut() {
            if *due {
                self.out.push_str(", ");
            }
            *due = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.separate();
        self.out.push('{');
        self.needs_comma.push(false);
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) {
        self.needs_comma.pop();
        self.out.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.separate();
        self.out.push('[');
        self.needs_comma.push(false);
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) {
        self.needs_comma.pop();
        self.out.push(']');
    }

    /// Writes an object key. The following call writes its value.
    pub fn key(&mut self, k: &str) {
        self.separate();
        escape_into(&mut self.out, k);
        self.out.push_str(": ");
        // The value after a key is part of the same member: suppress the
        // comma the value emitter would otherwise insert.
        if let Some(due) = self.needs_comma.last_mut() {
            *due = false;
        }
    }

    /// Writes a string value.
    pub fn string(&mut self, v: &str) {
        self.separate();
        escape_into(&mut self.out, v);
        if let Some(due) = self.needs_comma.last_mut() {
            *due = true;
        }
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        self.separate();
        self.out.push_str(&v.to_string());
    }

    /// Writes a float value (JSON has no NaN/∞ — they serialize as null).
    pub fn f64(&mut self, v: f64) {
        self.separate();
        if v.is_finite() {
            // Enough digits to round-trip f64, without trailing noise.
            let s = format!("{v}");
            self.out.push_str(&s);
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a pre-rendered JSON value verbatim as the next value — for
    /// embedding a record produced by another writer (a registry
    /// snapshot, a unit record) without re-parsing it. The caller
    /// guarantees `json` is a complete, valid JSON value.
    pub fn raw(&mut self, json: &str) {
        self.separate();
        self.out.push_str(json);
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.separate();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Convenience: `key` + string value.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.string(v);
    }

    /// Convenience: `key` + integer value.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64(v);
    }

    /// Convenience: `key` + float value.
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.f64(v);
    }

    /// Convenience: `key` + boolean value.
    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.bool(v);
    }
}

/// Appends `s` as a JSON string literal (quotes included).
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest nesting of objects and arrays [`Json::parse`] accepts. It
/// bounds the parser's recursion, so no input can overflow the stack.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value. Object members keep their source order and each
/// key appears once; numbers keep their source text, so [`Json::as_u64`]
/// and [`Json::as_f64`] read them exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source text.
    Number(String),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object's members in source order.
    Object(Vec<(String, Json)>),
}

/// Why [`Json::parse`] rejected a text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem in the text.
    pub offset: usize,
    /// What is wrong there: `"duplicate key"`, `"trailing bytes"`,
    /// `"nesting deeper than 32"`, or what the grammar expected.
    pub reason: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses `text` as exactly one JSON value (RFC 8259), optionally
    /// surrounded by whitespace.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] for a duplicate key, bytes after the value, nesting
    /// deeper than [`MAX_DEPTH`], or anything else outside the grammar.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos < text.len() {
            return p.fail("trailing bytes");
        }
        Ok(value)
    }

    /// Member `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Object(members) = self else {
            return None;
        };
        members.iter().find_map(|(k, v)| (k == key).then_some(v))
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        let Json::String(s) = self else { return None };
        Some(s)
    }

    /// The number, if this is one without sign, fraction or exponent
    /// that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        let Json::Number(t) = self else { return None };
        t.parse().ok()
    }

    /// The nearest `f64`, if this is a number (`null`, which encodes a
    /// non-finite float, is not).
    pub fn as_f64(&self) -> Option<f64> {
        let Json::Number(t) = self else { return None };
        t.parse().ok()
    }
}

/// The text and the offset of its next unread byte, always on a
/// character boundary.
struct Parser<'t> {
    text: &'t str,
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, reason: &'static str) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            reason,
        })
    }

    fn skip_ws(&mut self) {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.text.as_bytes().get(self.pos) == Some(&byte);
        self.pos += usize::from(hit);
        hit
    }

    /// The value after optional whitespace, inside `depth` containers.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        match rest.as_bytes().first() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => self.fail("nesting deeper than 32"),
            Some(b'[') => {
                self.pos += 1;
                self.items(b']', |p| p.value(depth + 1)).map(Json::Array)
            }
            Some(b'{') => {
                self.pos += 1;
                let mut keys = std::collections::HashSet::new();
                let members = self.items(b'}', |p| {
                    p.skip_ws();
                    let at = p.pos;
                    let key = p.string()?;
                    if !keys.insert(key.clone()) {
                        p.pos = at;
                        return p.fail("duplicate key");
                    }
                    if !p.eat(b':') {
                        return p.fail("expected `:`");
                    }
                    Ok((key, p.value(depth + 1)?))
                });
                members.map(Json::Object)
            }
            Some(b'"') => self.string().map(Json::String),
            Some(b'-' | b'0'..=b'9') => {
                // `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`: Rust's
                // `FromStr` alone also takes `+7`, `007`, `.5` and `inf`.
                let b = rest.as_bytes();
                let digits = |from: usize| {
                    from + b[from..].iter().take_while(|c| c.is_ascii_digit()).count()
                };
                let int = usize::from(b[0] == b'-');
                let mut end = digits(int);
                let mut ok = end > int && (b[int] != b'0' || end == int + 1);
                if b.get(end) == Some(&b'.') {
                    let frac = end + 1;
                    end = digits(frac);
                    ok &= end > frac;
                }
                if matches!(b.get(end), Some(b'e' | b'E')) {
                    let exp = end + 1 + usize::from(matches!(b.get(end + 1), Some(b'+' | b'-')));
                    end = digits(exp);
                    ok &= end > exp;
                }
                if !ok {
                    return self.fail("invalid number");
                }
                self.pos += end;
                Ok(Json::Number(rest[..end].to_string()))
            }
            _ if rest.starts_with("true") => self.literal("true", Json::Bool(true)),
            _ if rest.starts_with("false") => self.literal("false", Json::Bool(false)),
            _ if rest.starts_with("null") => self.literal("null", Json::Null),
            _ => self.fail("expected a value"),
        }
    }

    /// The comma-separated items, each read by `item`, of the container
    /// whose opening bracket was just consumed, through `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return self.fail("expected `,` or a closing bracket");
            }
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        self.pos += word.len();
        Ok(value)
    }

    /// The string that comes next, escapes decoded.
    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return self.fail("expected a string");
        }
        let mut chars = self.text[self.pos..].chars();
        let decoded = decode_string(&mut chars);
        self.pos = self.text.len() - chars.as_str().len();
        decoded.map_or_else(|| self.fail("invalid string"), Ok)
    }
}

/// Decodes a string through its closing quote (the opening one is read),
/// `\uXXXX` surrogate pairs included. `None` for an unknown escape, a `\u`
/// without four hex digits, a lone surrogate, a raw control character or
/// no closing quote.
fn decode_string(chars: &mut std::str::Chars<'_>) -> Option<String> {
    let mut out = String::new();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(match chars.next()? {
                '"' => '"',
                '\\' => '\\',
                '/' => '/',
                'b' => '\u{8}',
                'f' => '\u{c}',
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => match hex4(chars)? {
                    hi @ 0xd800..=0xdbff => {
                        if (chars.next()?, chars.next()?) != ('\\', 'u') {
                            return None;
                        }
                        let lo = hex4(chars)?;
                        if !(0xdc00..=0xdfff).contains(&lo) {
                            return None;
                        }
                        char::from_u32(0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00))?
                    }
                    code => char::from_u32(code)?, // `None` for a lone low surrogate
                },
                _ => return None,
            }),
            c if c < ' ' => return None,
            c => out.push(c),
        }
    }
    None // unterminated: a truncated (interrupted) record
}

/// The code unit of the four hex digits of a `\uXXXX` escape; `None`
/// unless exactly four hex digits follow.
fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    (0..4).try_fold(0, |code, _| Some(code << 4 | chars.next()?.to_digit(16)?))
}

/// A string member of the object that starts at the first `{` of `text`
/// and runs to its end (`None` when that does not parse).
pub fn json_string_field(text: &str, key: &str) -> Option<String> {
    let object = Json::parse(&text[text.find('{')?..]).ok()?;
    object.get(key)?.as_str().map(str::to_string)
}

/// A number member read by [`Json::as_f64`], as [`json_string_field`] reads.
pub fn json_f64_field(text: &str, key: &str) -> Option<f64> {
    let object = Json::parse(&text[text.find('{')?..]).ok()?;
    object.get(key)?.as_f64()
}

/// A number member read by [`Json::as_u64`], as [`json_string_field`] reads.
pub fn json_u64_field(text: &str, key: &str) -> Option<u64> {
    let object = Json::parse(&text[text.find('{')?..]).ok()?;
    object.get(key)?.as_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structures_place_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("a", 1);
        w.key("b");
        w.begin_array();
        w.u64(1);
        w.begin_object();
        w.field_bool("x", true);
        w.end_object();
        w.string("s");
        w.end_array();
        w.field_f64("c", 2.5);
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\"a\": 1, \"b\": [1, {\"x\": true}, \"s\"], \"c\": 2.5}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.string("line\nbreak \"q\" \\ \u{1}");
        w.end_array();
        assert_eq!(w.finish(), "[\"line\\nbreak \\\"q\\\" \\\\ \\u0001\"]");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.f64(f64::NAN);
        w.f64(f64::INFINITY);
        w.f64(1.0);
        w.end_array();
        assert_eq!(w.finish(), "[null, null, 1]");
    }

    #[test]
    fn raw_embeds_prerendered_values_with_comma_placement() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("a", 1);
        w.key("b");
        w.raw("{\"x\": 2}");
        w.key("c");
        w.begin_array();
        w.raw("{\"y\": 3}");
        w.raw("4");
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\"a\": 1, \"b\": {\"x\": 2}, \"c\": [{\"y\": 3}, 4]}"
        );
    }

    #[test]
    fn empty_containers() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a");
        w.begin_array();
        w.end_array();
        w.key("o");
        w.begin_object();
        w.end_object();
        w.end_object();
        assert_eq!(w.finish(), "{\"a\": [], \"o\": {}}");
    }

    fn parse_field(text: &str, key: &str) -> Option<Json> {
        Json::parse(text).ok()?.get(key).cloned()
    }

    #[test]
    fn parse_round_trips_a_jsonwriter_record() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("key", "net/s001 \"q\"\n\\");
        w.field_u64("sample", 7);
        w.field_f64("energy_mj", 1.25);
        w.field_f64("bad", f64::NAN);
        w.field_bool("on", true);
        w.end_object();
        let v = Json::parse(&w.finish()).expect("a writer record parses");
        assert_eq!(
            v.get("key").and_then(Json::as_str),
            Some("net/s001 \"q\"\n\\")
        );
        assert_eq!(v.get("sample").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("energy_mj").and_then(Json::as_f64), Some(1.25));
        assert_eq!(v.get("bad"), Some(&Json::Null));
        assert_eq!(
            v.get("bad").and_then(Json::as_f64),
            None,
            "null is no float"
        );
        assert_eq!(v.get("on"), Some(&Json::Bool(true)));
        assert_eq!(v.get("absent"), None);
        assert_eq!(
            v.get("key").and_then(Json::as_u64),
            None,
            "strings are no numbers"
        );
        let Json::Object(members) = &v else {
            panic!("an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["key", "sample", "energy_mj", "bad", "on"],
            "source order"
        );
    }

    #[test]
    fn compact_and_spaced_texts_parse_alike() {
        let compact = Json::parse("{\"a\":true,\"b\":[1,{\"c\":null}],\"d\":\"x\"}");
        let spaced =
            Json::parse(" {\"a\" : true,\n \"b\": [ 1 , {\"c\": null} ], \"d\": \"x\"}\r\n");
        assert_eq!(compact, spaced);
        assert!(compact.is_ok());
        for scalar in ["true", "false", "null", "0", "\"s\"", "[]", "{}"] {
            assert!(Json::parse(scalar).is_ok(), "{scalar}");
        }
    }

    #[test]
    fn members_are_read_from_the_object_they_belong_to() {
        // A nested key never shadows the top-level member, wherever it
        // sits, and a nested-only key is absent at the top.
        let v = Json::parse(
            "{\"x\": {\"verb\": \"shutdown\", \"y\": [1, {\"z\": 2}]}, \"verb\": \"ping\"}",
        )
        .unwrap();
        assert_eq!(v.get("verb").and_then(Json::as_str), Some("ping"));
        assert_eq!(v.get("z"), None);
        let x = v.get("x").unwrap();
        assert_eq!(x.get("verb").and_then(Json::as_str), Some("shutdown"));
        // A key-like run inside a string value is string content.
        let line = "{\"s\": \"\\\"verb\\\": 1, {\", \"verb\": 2}";
        assert_eq!(parse_field(line, "verb").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(parse_field("{\"s\": \"\\\"n\\\": 1\"}", "n"), None);
        // Keys decode like any string, so an escaped duplicate is one.
        assert!(Json::parse("{\"n\": 1, \"\\u006e\": 2}").is_err());
    }

    #[test]
    fn errors_name_their_reason_and_offset() {
        let err = |text: &str| {
            let e = Json::parse(text).expect_err(text);
            (e.offset, e.reason)
        };
        assert_eq!(err("{\"n\": 1, \"n\": 2}"), (9, "duplicate key"));
        assert_eq!(
            err("{\"verb\":\"ping\"} {\"verb\":\"shutdown\"}"),
            (16, "trailing bytes")
        );
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(err(&deep), (MAX_DEPTH, "nesting deeper than 32"));
        assert_eq!(err(""), (0, "expected a value"));
        assert_eq!(err("{\"a\" 1}"), (5, "expected `:`"));
        assert_eq!(err("{\"a\": 1,}"), (8, "expected a string"));
        assert_eq!(err("[1 2]"), (3, "expected `,` or a closing bracket"));
        assert_eq!(err("[\"\\x\"]"), (4, "invalid string"));
        assert_eq!(err("[-01]"), (1, "invalid number"));
        assert_eq!(
            Json::parse("[1,]").unwrap_err().to_string(),
            "expected a value at byte 3"
        );
    }

    #[test]
    fn wrappers_read_the_object_at_the_first_brace() {
        // A span body cut out of a registry snapshot: the object starts at
        // the first `{`, whatever precedes it, and must end the text.
        let fragment = "\": {\"count\": 3, \"total_ms\": 1.5, \"max_ms\": 0.9}";
        assert_eq!(json_f64_field(fragment, "total_ms"), Some(1.5));
        assert_eq!(json_u64_field(fragment, "count"), Some(3));
        let frame = "{\"type\": \"done\", \"output\": \"a\\nb\"}";
        assert_eq!(json_string_field(frame, "output").as_deref(), Some("a\nb"));
        assert_eq!(json_string_field("no object", "type"), None);
        assert_eq!(json_u64_field("{\"count\": 3} tail", "count"), None);
    }

    #[test]
    fn truncated_texts_are_errors() {
        // An interrupted append leaves a half-written line behind: it
        // must be rejected, never read as a mangled value.
        for cut in [
            "{\"key\": \"net/s0",
            "{\"n\": 12",
            "{\"x\": {\"y\": 1, \"n\": 2",
            "{\"x\": \"abc, \"n\": 2",
            "{\"key\": \"k1\", \"seed\"",
        ] {
            assert!(Json::parse(cut).is_err(), "{cut}");
        }
    }

    #[test]
    fn every_prefix_of_a_frame_parses_without_panicking() {
        // Request frames are untrusted: a cut anywhere — inside a
        // multi-byte character, an escape or a nested value — must be an
        // error, never a panic.
        let line = "{\"x\": {\"é\\\"\": [1, \"]}\"]}, \"verb\" : \"pïng\", \"n\": 12}";
        for end in (0..line.len()).filter(|&e| line.is_char_boundary(e)) {
            assert!(Json::parse(&line[..end]).is_err(), "{}", &line[..end]);
        }
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("verb").and_then(Json::as_str), Some("pïng"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(12));
        assert_eq!(
            v.get("x").and_then(|x| x.get("é\"")),
            Some(&Json::Array(vec![
                Json::Number("1".into()),
                Json::String("]}".into())
            ]))
        );
    }

    #[test]
    fn strings_decode_every_json_escape() {
        let string = |value: &str| {
            parse_field(&format!("{{\"s\": \"{value}\"}}"), "s")
                .and_then(|v| v.as_str().map(str::to_string))
        };
        assert_eq!(
            string("ctrl \\u0001 end").as_deref(),
            Some("ctrl \u{1} end")
        );
        assert_eq!(string(r"a\/b").as_deref(), Some("a/b"));
        assert_eq!(string(r"\b\f\n\r\t").as_deref(), Some("\u{8}\u{c}\n\r\t"));
        assert_eq!(string(r"\u00e9\u00C9").as_deref(), Some("éÉ"));
        // A UTF-16 surrogate pair is one character.
        assert_eq!(string(r"\ud83d\ude00").as_deref(), Some("\u{1f600}"));
        // Not JSON: a `\u` without exactly four hex digits, a lone or
        // reversed surrogate, an unknown escape, a raw control character.
        for bad in [
            r"\u+041",
            r"\u041",
            r"\u 041",
            r"\ud83d",
            r"\ud83dx",
            r"\ud83d\u0041",
            r"\ude00",
            r"\ude00\ud83d",
            r"\x41",
            "tab\there",
        ] {
            assert_eq!(string(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn numbers_follow_json_grammar_and_read_exactly() {
        let number = |tok: &str| parse_field(&format!("{{\"n\": {tok}}}"), "n");
        let u = |tok: &str| number(tok).and_then(|v| v.as_u64());
        let f = |tok: &str| number(tok).and_then(|v| v.as_f64());
        assert_eq!(u("0"), Some(0));
        assert_eq!(u("18446744073709551615"), Some(u64::MAX));
        assert_eq!(f("-0.5e+3"), Some(-500.0));
        assert_eq!(f("1E2"), Some(100.0));
        assert_eq!(f("0"), Some(0.0));
        assert_eq!(f("0.1"), Some(0.1), "correctly rounded");
        assert_eq!(
            number("-1.50"),
            Some(Json::Number("-1.50".into())),
            "source text"
        );
        for bad in [
            "+7", "007", "-", "1.", ".5", "1e", "1e+", "inf", "NaN", "0x10", "1_0", "1-2",
        ] {
            assert_eq!(number(bad), None, "{bad:?}");
        }
        // Valid numbers a u64 cannot hold.
        for out_of_range in ["-1", "-0", "1.5", "1e3", "18446744073709551616"] {
            assert_eq!(u(out_of_range), None, "{out_of_range:?}");
            assert!(f(out_of_range).is_some(), "{out_of_range:?}");
        }
    }
}
