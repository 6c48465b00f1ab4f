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
//! [`json_f64_field`], [`json_u64_field`], [`json_bool_field`]) instead of
//! a full parser: the only records this workspace scans are ones it wrote
//! itself, with known top-level field names.

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

/// Locates the value of a top-level `"key": …` member in one JSON line,
/// returning the byte offset of the value's first character.
///
/// The scan matches the quoted key literally, so a field name that also
/// appears inside a string *value* earlier in the line could be matched
/// instead — acceptable here because the scanners only read records this
/// workspace wrote, whose schemas put keys first and never embed them in
/// values.
fn value_start(line: &str, key: &str) -> Option<usize> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let skip = rest.len() - rest.trim_start().len();
    Some(at + skip)
}

/// Extracts a string field from one JSONL record, un-escaping the JSON
/// string syntax [`crate::JsonWriter`] emits. `None` when the field is
/// missing or not a string.
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
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None // unterminated string: a truncated (interrupted) record
}

/// The raw token of a numeric/boolean field (everything up to the next
/// comma or closing brace).
fn scalar_token<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let start = value_start(line, key)?;
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    let token = rest[..end].trim();
    (!token.is_empty()).then_some(token)
}

/// Extracts a float field from one JSONL record (`null` — the encoding of
/// non-finite floats — and malformed numbers return `None`).
pub fn json_f64_field(line: &str, key: &str) -> Option<f64> {
    scalar_token(line, key)?.parse().ok()
}

/// Extracts an unsigned-integer field from one JSONL record.
pub fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    scalar_token(line, key)?.parse().ok()
}

/// Extracts a boolean field (`true`/`false`) from one JSONL record.
pub fn json_bool_field(line: &str, key: &str) -> Option<bool> {
    match scalar_token(line, key)? {
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
    fn unicode_escapes_decode() {
        let line = "{\"key\": \"ctrl \\u0001 end\"}";
        assert_eq!(
            json_string_field(line, "key").as_deref(),
            Some("ctrl \u{1} end")
        );
    }

    #[test]
    fn truncated_record_yields_none() {
        // An interrupted append can leave a half-written line behind; the
        // scanner must reject it rather than return a mangled value.
        let line = "{\"key\": \"net/s0";
        assert_eq!(json_string_field(line, "key"), None);
    }
}
