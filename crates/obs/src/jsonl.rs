//! Append-only JSONL (one JSON object per line) support: a line-durable
//! file writer plus field scanners for reading records back.
//!
//! JSONL is the workspace's streaming/resume format (sibling of the
//! one-shot `escalate-run-manifest/v1` document): each record is a single
//! line, appends never rewrite earlier lines, and a consumer that crashed
//! mid-stream loses at most the line being written — everything before it
//! is still parseable. The dependency policy forbids external JSON
//! crates, so records are written through [`crate::JsonWriter`] and read
//! back with the targeted field scanners here ([`json_string_field`],
//! [`json_f64_field`], [`json_u64_field`], [`json_bool_field`],
//! [`json_raw_field`]) instead of a full parser. Each scanner reads a
//! member of the first object in its text only — never a key inside a
//! string or a nested value; a nested member is read by scanning the
//! [`json_raw_field`] of its parent.

use std::io::Write;
use std::path::Path;

/// An append-only JSONL file writer.
///
/// Every [`JsonlWriter::append`] writes one line and flushes it, so an
/// interrupted run leaves a prefix of complete records behind — the
/// property resume-aware sinks rely on.
#[derive(Debug)]
pub struct JsonlWriter {
    file: std::fs::File,
}

impl JsonlWriter {
    /// Opens `path` for appending, creating the file (and its parent
    /// directories) if missing. Existing records are never touched.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append_to(path: &Path) -> std::io::Result<JsonlWriter> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonlWriter { file })
    }

    /// Appends one record (a complete JSON object, no trailing newline)
    /// and flushes the line to the OS.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn append(&mut self, line: &str) -> std::io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()
    }
}

/// Reads the non-empty lines of a JSONL file; a missing file is an empty
/// stream (the cold-start case of a resumable sink), any other I/O
/// failure is an error.
///
/// # Errors
///
/// Propagates filesystem failures other than `NotFound`.
pub fn read_lines(path: &Path) -> std::io::Result<Vec<String>> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(str::to_string)
            .collect()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

/// Locates the value of a `"key": …` member of the first object in
/// `text`, returning the byte offset of the value's first character.
///
/// The scan walks that object member by member: string contents are
/// skipped (escapes honoured) and nested objects/arrays are skipped whole
/// by `{`/`[` depth, so a key inside a string or a nested value never
/// matches. Whitespace is accepted around the `:`. Keys compare by their
/// raw (escaped) text, and the first matching member wins. `None` when
/// the key is absent or the object is malformed or truncated before it.
fn value_start(text: &str, key: &str) -> Option<usize> {
    let b = text.as_bytes();
    let mut i = text.find('{')? + 1;
    loop {
        i = skip_ws(b, i);
        if b.get(i) != Some(&b'"') {
            return None; // `}` (key absent) or malformed
        }
        let key_end = skip_string(b, i)?;
        let name = &text[i + 1..key_end - 1];
        i = skip_ws(b, key_end);
        if b.get(i) != Some(&b':') {
            return None;
        }
        i = skip_ws(b, i + 1);
        if name == key {
            return Some(i);
        }
        i = skip_ws(b, skip_value(b, i)?);
        if b.get(i) != Some(&b',') {
            return None;
        }
        i += 1;
    }
}

/// The first index at or after `i` that is not JSON whitespace.
fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while b
        .get(i)
        .is_some_and(|&c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
    {
        i += 1;
    }
    i
}

/// The index just past the string whose opening quote is at `i`; `None`
/// when it is unterminated.
fn skip_string(b: &[u8], mut i: usize) -> Option<usize> {
    i += 1;
    loop {
        match *b.get(i)? {
            b'"' => return Some(i + 1),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
}

/// The index just past the value starting at `i`: a string, a whole
/// object or array (tracked by depth, strings skipped), or a scalar
/// token, which must be followed by a delimiter. `None` when the text
/// ends first.
fn skip_value(b: &[u8], mut i: usize) -> Option<usize> {
    match *b.get(i)? {
        b'"' => skip_string(b, i),
        b'{' | b'[' => {
            let mut depth = 0usize;
            loop {
                match *b.get(i)? {
                    b'"' => {
                        i = skip_string(b, i)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(i + 1);
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        _ => {
            while !matches!(
                *b.get(i)?,
                b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r'
            ) {
                i += 1;
            }
            Some(i)
        }
    }
}

/// Extracts a string field from one JSONL record, decoding every JSON
/// string escape (`\uXXXX` surrogate pairs included). `None` when the
/// field is missing or not a string, or the string is not valid JSON: an
/// unknown escape, a `\u` without exactly four hex digits, a lone
/// surrogate or a raw control character.
pub fn json_string_field(line: &str, key: &str) -> Option<String> {
    let start = value_start(line, key)?;
    let mut chars = line[start..].chars();
    if chars.next() != Some('"') {
        return None;
    }
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
                'u' => match hex4(&mut chars)? {
                    hi @ 0xd800..=0xdbff => {
                        if (chars.next()?, chars.next()?) != ('\\', 'u') {
                            return None;
                        }
                        let lo = hex4(&mut chars)?;
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
    None // unterminated string: a truncated (interrupted) record
}

/// The code unit of the four hex digits of a `\uXXXX` escape; `None`
/// unless exactly four hex digits follow.
fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    (0..4).try_fold(0, |code, _| Some(code << 4 | chars.next()?.to_digit(16)?))
}

/// The raw text of a field's value, whatever its type: a scalar token,
/// a quoted string, or a whole nested object or array — which the field
/// scanners can then read in turn (`json_u64_field(json_raw_field(frame,
/// "registry")?, …)`). `None` when the field is missing or its value is
/// truncated.
pub fn json_raw_field<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let start = value_start(line, key)?;
    let end = skip_value(line.as_bytes(), start)?;
    (end > start).then(|| &line[start..end])
}

/// Whether `tok` is a JSON number:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. Rust's `FromStr`
/// alone also takes `+7`, `007`, `.5`, `inf` and `NaN`.
fn is_json_number(tok: &str) -> bool {
    /// The rest of `s` after its leading ASCII digits, if there is at
    /// least one.
    fn digits(s: &str) -> Option<&str> {
        let rest = s.trim_start_matches(|c: char| c.is_ascii_digit());
        (rest.len() < s.len()).then_some(rest)
    }
    let int = tok.strip_prefix('-').unwrap_or(tok);
    let Some(mut rest) = digits(int) else {
        return false;
    };
    if int.starts_with('0') && int.len() - rest.len() > 1 {
        return false; // a leading zero
    }
    if let Some(frac) = rest.strip_prefix('.') {
        let Some(r) = digits(frac) else { return false };
        rest = r;
    }
    if let Some(exp) = rest.strip_prefix(['e', 'E']) {
        let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
        let Some(r) = digits(exp) else { return false };
        rest = r;
    }
    rest.is_empty()
}

/// A number field parsed as `T`, if its token is a JSON number `T` reads.
fn json_number_field<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    let tok = json_raw_field(line, key)?;
    if is_json_number(tok) {
        tok.parse().ok()
    } else {
        None
    }
}

/// Extracts a float field from one JSONL record (`null` — the encoding of
/// non-finite floats — and tokens outside JSON's number grammar return
/// `None`).
pub fn json_f64_field(line: &str, key: &str) -> Option<f64> {
    json_number_field(line, key)
}

/// Extracts an unsigned-integer field from one JSONL record: a JSON
/// number with no sign, fraction or exponent that fits a `u64`.
pub fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    json_number_field(line, key)
}

/// Extracts a boolean field (`true`/`false`) from one JSONL record.
pub fn json_bool_field(line: &str, key: &str) -> Option<bool> {
    match json_raw_field(line, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// Whether one JSONL record has a `"key": …` member, whatever its value:
/// lets a strict reader tell an absent optional field from a present
/// malformed one.
pub fn json_has_field(line: &str, key: &str) -> bool {
    value_start(line, key).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_creates_parents_and_preserves_existing_lines() {
        let dir = std::env::temp_dir().join("escalate_obs_jsonl_test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("nested").join("records.jsonl");
        let mut w = JsonlWriter::append_to(&path).expect("open");
        w.append("{\"key\": \"a\"}").expect("append");
        drop(w);
        let mut w = JsonlWriter::append_to(&path).expect("reopen");
        w.append("{\"key\": \"b\"}").expect("append");
        drop(w);
        let lines = read_lines(&path).expect("read");
        assert_eq!(lines, ["{\"key\": \"a\"}", "{\"key\": \"b\"}"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let path = std::env::temp_dir().join("escalate_obs_jsonl_missing.jsonl");
        std::fs::remove_file(&path).ok();
        assert!(read_lines(&path).expect("missing is empty").is_empty());
    }

    #[test]
    fn field_scanners_round_trip_a_jsonwriter_record() {
        let mut w = crate::JsonWriter::new();
        w.begin_object();
        w.field_str("key", "net/s001 \"q\"\n\\");
        w.field_u64("sample", 7);
        w.field_f64("energy_mj", 1.25);
        w.field_f64("bad", f64::NAN);
        w.end_object();
        let line = w.finish();
        assert_eq!(
            json_string_field(&line, "key").as_deref(),
            Some("net/s001 \"q\"\n\\")
        );
        assert_eq!(json_u64_field(&line, "sample"), Some(7));
        assert_eq!(json_f64_field(&line, "energy_mj"), Some(1.25));
        assert_eq!(json_f64_field(&line, "bad"), None, "null is not a float");
        assert_eq!(json_string_field(&line, "absent"), None);
        assert_eq!(json_u64_field(&line, "key"), None, "strings do not parse");
    }

    #[test]
    fn bool_and_presence_scanners_accept_compact_and_spaced_members() {
        for line in ["{\"a\":true,\"b\":false}", "{\"a\": true, \"b\": false}"] {
            assert_eq!(json_bool_field(line, "a"), Some(true), "{line}");
            assert_eq!(json_bool_field(line, "b"), Some(false), "{line}");
            assert!(json_has_field(line, "a"), "{line}");
            assert!(!json_has_field(line, "c"), "{line}");
        }
        assert_eq!(json_bool_field("{\"a\": \"true\"}", "a"), None);
        assert_eq!(json_bool_field("{\"a\": 1}", "a"), None);
        assert_eq!(json_bool_field("{\"a\": trueish}", "a"), None);
    }

    #[test]
    fn scanners_match_members_of_the_first_object_only() {
        // Whitespace before the colon is still a member.
        assert_eq!(
            json_string_field("{\"verb\" : \"ping\"}", "verb").as_deref(),
            Some("ping")
        );
        // A nested key never shadows the top-level member, wherever it
        // sits, and a nested-only key is absent.
        let line = "{\"x\": {\"verb\": \"shutdown\", \"y\": [1, {\"z\": 2}]}, \"verb\": \"ping\"}";
        assert_eq!(json_string_field(line, "verb").as_deref(), Some("ping"));
        assert!(!json_has_field(line, "z"));
        assert!(!json_has_field("{\"a\": [{\"b\": 1}]}", "b"));
        // A key-like run inside a string value (escaped quotes included)
        // is string content, not a member.
        let line = "{\"s\": \"\\\"verb\\\": 1, {\", \"verb\": 2}";
        assert_eq!(json_u64_field(line, "verb"), Some(2));
        assert_eq!(json_u64_field("{\"s\": \"\\\"n\\\": 1\"}", "n"), None);
        // The first of duplicate members wins.
        assert_eq!(json_u64_field("{\"n\": 1, \"n\": 2}", "n"), Some(1));
    }

    #[test]
    fn scanners_read_the_first_object_of_a_fragment() {
        // A span body cut out of a registry snapshot: the scan starts at
        // the first `{`, whatever precedes it.
        let fragment = "\": {\"count\": 3, \"total_ms\": 1.5, \"max_ms\": 0.9}";
        assert_eq!(json_f64_field(fragment, "total_ms"), Some(1.5));
        assert_eq!(json_u64_field(fragment, "count"), Some(3));
    }

    #[test]
    fn raw_field_reads_nested_members() {
        let frame =
            "{\"type\": \"metrics\", \"registry\": {\"counters\": {\"a.b\": 7}, \"spans\": {}}}";
        let registry = json_raw_field(frame, "registry").expect("registry");
        assert_eq!(registry, "{\"counters\": {\"a.b\": 7}, \"spans\": {}}");
        let counters = json_raw_field(registry, "counters").expect("counters");
        assert_eq!(json_u64_field(counters, "a.b"), Some(7));
        assert_eq!(json_u64_field(frame, "a.b"), None, "nested, not top-level");
        assert_eq!(json_raw_field(frame, "type"), Some("\"metrics\""));
    }

    #[test]
    fn truncated_members_yield_none() {
        // A scalar cut off by the end of the text may be a prefix of a
        // longer number; a member after a truncated value is unreachable.
        assert_eq!(json_u64_field("{\"n\": 12", "n"), None);
        assert_eq!(json_u64_field("{\"x\": {\"y\": 1, \"n\": 2", "n"), None);
        assert_eq!(json_u64_field("{\"x\": \"abc, \"n\": 2", "n"), None);
    }

    #[test]
    fn every_prefix_of_a_frame_scans_without_panicking() {
        // Request frames are untrusted: a cut anywhere — inside a
        // multi-byte character, an escape or a nested value — must read
        // as absent or malformed, never panic.
        let line = "{\"x\": {\"é\\\"\": [1, \"]}\"]}, \"verb\" : \"pïng\", \"n\": 12}";
        for end in (0..=line.len()).filter(|&e| line.is_char_boundary(e)) {
            let cut = &line[..end];
            for key in ["x", "verb", "n", "é"] {
                let _ = json_string_field(cut, key);
                let _ = json_u64_field(cut, key);
                let _ = json_raw_field(cut, key);
            }
        }
        assert_eq!(json_string_field(line, "verb").as_deref(), Some("pïng"));
        assert_eq!(json_u64_field(line, "n"), Some(12));
    }

    #[test]
    fn unicode_escapes_decode() {
        let line = "{\"key\": \"ctrl \\u0001 end\"}";
        assert_eq!(
            json_string_field(line, "key").as_deref(),
            Some("ctrl \u{1} end")
        );
    }

    #[test]
    fn string_scanner_decodes_every_json_escape() {
        let field = |value: &str| json_string_field(&format!("{{\"s\": \"{value}\"}}"), "s");
        assert_eq!(field(r"a\/b").as_deref(), Some("a/b"));
        assert_eq!(field(r"\b\f\n\r\t").as_deref(), Some("\u{8}\u{c}\n\r\t"));
        assert_eq!(field(r"\u00e9\u00C9").as_deref(), Some("éÉ"));
        // A UTF-16 surrogate pair is one character.
        assert_eq!(field(r"\ud83d\ude00").as_deref(), Some("\u{1f600}"));
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
            assert_eq!(field(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn number_scanners_accept_exactly_json_numbers() {
        let u = |tok: &str| json_u64_field(&format!("{{\"n\": {tok}}}"), "n");
        let f = |tok: &str| json_f64_field(&format!("{{\"n\": {tok}}}"), "n");
        assert_eq!(u("0"), Some(0));
        assert_eq!(u("18446744073709551615"), Some(u64::MAX));
        assert_eq!(f("-0.5e+3"), Some(-500.0));
        assert_eq!(f("1E2"), Some(100.0));
        assert_eq!(f("0"), Some(0.0));
        for bad in [
            "+7", "007", "-", "1.", ".5", "1e", "1e+", "inf", "NaN", "0x10", "1_0",
        ] {
            assert_eq!(u(bad), None, "{bad:?}");
            assert_eq!(f(bad), None, "{bad:?}");
        }
        // Valid numbers a u64 cannot hold.
        for out_of_range in ["-1", "1.5", "1e3", "18446744073709551616"] {
            assert_eq!(u(out_of_range), None, "{out_of_range:?}");
        }
    }

    #[test]
    fn truncated_record_yields_none() {
        // An interrupted append can leave a half-written line behind; the
        // scanner must reject it rather than return a mangled value.
        let line = "{\"key\": \"net/s0";
        assert_eq!(json_string_field(line, "key"), None);
    }
}
