//! The append-only JSONL stream sink with resume support.
//!
//! On open, the sink first repairs any torn tail: a process killed
//! mid-append can leave an unterminated final line behind, and — worse —
//! one whose `"key"` field is already complete even though the record is
//! not. Counting such a line as recorded would make the resumed run skip
//! the unit forever and leave the corrupt line in the stream; appending
//! after it would glue the next record onto the torn bytes. So an
//! unterminated tail (no trailing newline) is *truncated* before
//! anything else happens — the interrupted unit simply re-runs — which
//! is what makes a crash/restart cycle byte-identical to an
//! uninterrupted cold run.
//!
//! The surviving complete records are then indexed by their `"key"`
//! field with **keep-last semantics**: if a key's records appear in more
//! than one contiguous run (the signature of a pre-repair crash/restart
//! cycle that appended a duplicate), only the *last* run is kept —
//! consumers reading through [`JsonlSink::lines_for`] see exactly one
//! authoritative set of lines per key. [`crate::plan::execute`] then
//! skips every unit whose key is recorded, and newly executed units
//! append their records in unit order, each as soon as it and every
//! unit before it have finished — so a run killed mid-way leaves every
//! record it had finished feeding on disk for the resume.
//!
//! Resume granularity is per unit and all-or-nothing: a unit should emit
//! one line (the sweep does), or accept that a crash between two of its
//! lines records it partially and a resume skips the remainder.

use super::{ExpError, UnitOutput, UnitSink, WorkUnit};
use escalate_obs::jsonl::{json_string_field, JsonlWriter};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Append-only JSONL sink: recorded keys are skipped on re-run, new
/// records are appended and flushed line-by-line.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    writer: JsonlWriter,
    /// Key → that key's record lines (prior runs *and* this one). For
    /// keys that appear in multiple non-contiguous runs in the file, only
    /// the last run is held (keep-last resume semantics).
    records: HashMap<String, Vec<String>>,
    appended: usize,
    truncated_tail: bool,
}

/// Drops an unterminated final line (one not ending in `\n`) from the
/// file, returning whether anything was cut. A missing file is a no-op.
fn truncate_torn_tail(path: &Path) -> std::io::Result<bool> {
    let raw = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    match raw.last() {
        None | Some(b'\n') => Ok(false),
        Some(_) => {
            let keep = raw.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
            let file = std::fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(keep as u64)?;
            file.sync_all()?;
            Ok(true)
        }
    }
}

/// Indexes complete record lines by key with keep-last semantics: a key
/// reappearing after other keys (or after an unkeyed line) starts a new
/// run that *replaces* its earlier one, while consecutive lines with the
/// same key extend the current run (the multi-line-unit case).
fn index_keep_last(lines: Vec<String>) -> HashMap<String, Vec<String>> {
    let mut records: HashMap<String, Vec<String>> = HashMap::new();
    let mut run_key: Option<String> = None;
    for line in lines {
        let Some(key) = json_string_field(&line, "key") else {
            run_key = None;
            continue;
        };
        if run_key.as_deref() != Some(key.as_str()) {
            // A new run for this key: discard any earlier run.
            records.insert(key.clone(), Vec::new());
            run_key = Some(key.clone());
        }
        records
            .get_mut(&key)
            .expect("run entry just ensured")
            .push(line);
    }
    records
}

impl JsonlSink {
    /// Opens (or creates) the stream at `path`: repairs a torn tail line
    /// left by a killed writer (truncating it, so the interrupted unit
    /// re-runs), then indexes the surviving records by `"key"` with
    /// keep-last semantics.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn open(path: &Path) -> std::io::Result<JsonlSink> {
        let truncated_tail = truncate_torn_tail(path)?;
        let records = index_keep_last(escalate_obs::jsonl::read_lines(path)?);
        Ok(JsonlSink {
            path: path.to_path_buf(),
            writer: JsonlWriter::append_to(path)?,
            records,
            appended: 0,
            truncated_tail,
        })
    }

    /// The stream's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended by *this* run (excludes resumed ones).
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// Whether `open` cut a torn (unterminated) tail line left behind by
    /// a killed writer.
    pub fn truncated_tail(&self) -> bool {
        self.truncated_tail
    }

    /// The record lines held for `key` — the last contiguous run in the
    /// file plus anything appended this run — if any.
    pub fn lines_for(&self, key: &str) -> Option<&[String]> {
        self.records.get(key).map(Vec::as_slice)
    }
}

impl UnitSink for JsonlSink {
    fn recorded(&self, key: &str) -> bool {
        self.records.contains_key(key)
    }

    fn write_unit(&mut self, unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
        for line in out.jsonl {
            debug_assert_eq!(
                json_string_field(&line, "key").as_deref(),
                Some(unit.key.as_str()),
                "JSONL records must carry their unit's key for resume"
            );
            self.writer.append(&line)?;
            self.records.entry(unit.key.clone()).or_default().push(line);
            self.appended += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{execute, unit_seed, RunPlan};
    use crate::tline;

    /// A plan whose units each append one keyed JSONL record.
    struct Stream {
        n: usize,
    }

    impl RunPlan for Stream {
        fn name(&self) -> &str {
            "stream"
        }

        fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
            Ok((0..self.n)
                .map(|i| WorkUnit {
                    key: format!("k{i}"),
                    seed: unit_seed(9, i as u64),
                    index: i,
                })
                .collect())
        }

        fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
            let mut w = escalate_obs::JsonWriter::new();
            w.begin_object();
            w.field_str("key", &unit.key);
            w.field_u64("seed", unit.seed);
            w.end_object();
            let mut t = crate::experiments::Table::new("stream", "test");
            tline!(t, "{}", unit.key);
            Ok(UnitOutput {
                table: t,
                jsonl: vec![w.finish()],
            })
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("escalate_plan_jsonl_tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    #[test]
    fn interrupted_stream_resumes_to_the_cold_run_bytes() {
        let cold = tmp("cold.jsonl");
        let resumed = tmp("resumed.jsonl");
        std::fs::remove_file(&cold).ok();
        std::fs::remove_file(&resumed).ok();

        let plan = Stream { n: 4 };
        let mut sink = JsonlSink::open(&cold).expect("open");
        let s = execute(&plan, &mut sink).expect("cold run");
        assert_eq!((s.ran, s.skipped), (4, 0));
        drop(sink);
        let cold_bytes = std::fs::read(&cold).expect("cold bytes");

        // "Interrupt": keep only the first two records, then resume.
        let prefix: String = String::from_utf8(cold_bytes.clone())
            .expect("utf8")
            .lines()
            .take(2)
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&resumed, prefix).expect("truncate");
        let mut sink = JsonlSink::open(&resumed).expect("reopen");
        assert!(sink.recorded("k0") && sink.recorded("k1"));
        assert!(!sink.recorded("k2"));
        let s = execute(&plan, &mut sink).expect("resumed run");
        assert_eq!((s.ran, s.skipped), (2, 2), "exactly the recorded keys");
        assert_eq!(sink.appended(), 2);
        drop(sink);
        assert_eq!(
            std::fs::read(&resumed).expect("resumed bytes"),
            cold_bytes,
            "resume must reproduce the cold run byte-for-byte"
        );

        // A second resume is a no-op.
        let mut sink = JsonlSink::open(&resumed).expect("reopen");
        let s = execute(&plan, &mut sink).expect("no-op run");
        assert_eq!((s.ran, s.skipped), (0, 4));
        std::fs::remove_file(&cold).ok();
        std::fs::remove_file(&resumed).ok();
    }

    #[test]
    fn torn_tail_without_a_key_is_cut_and_rerun() {
        let path = tmp("torn.jsonl");
        // A record plus a torn (unterminated) tail from a killed writer.
        std::fs::write(&path, "{\"key\": \"k0\", \"seed\": 1}\n{\"key\": \"k1").expect("write");
        let sink = JsonlSink::open(&path).expect("open");
        assert!(sink.truncated_tail(), "the torn line must be repaired");
        assert!(sink.recorded("k0"));
        assert!(!sink.recorded("k1"), "a torn line must re-run, not resume");
        drop(sink);
        assert_eq!(
            std::fs::read_to_string(&path).expect("bytes"),
            "{\"key\": \"k0\", \"seed\": 1}\n",
            "the torn tail is gone from the file"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_with_a_complete_key_restarts_byte_identical_to_cold() {
        // The nasty case this fix exists for: the killed writer finished
        // the `"key"` field but not the record. Before the repair, the
        // key parsed, the unit was (wrongly) treated as recorded, and the
        // corrupt line stayed in the stream forever.
        let cold = tmp("crash_cold.jsonl");
        let crashed = tmp("crash_resumed.jsonl");
        std::fs::remove_file(&cold).ok();
        std::fs::remove_file(&crashed).ok();

        let plan = Stream { n: 3 };
        let mut sink = JsonlSink::open(&cold).expect("open");
        execute(&plan, &mut sink).expect("cold run");
        drop(sink);
        let cold_bytes = std::fs::read(&cold).expect("cold bytes");

        // Crash mid-append: k0 complete, k1 torn *after* its key field.
        let text = String::from_utf8(cold_bytes.clone()).expect("utf8");
        let mut lines = text.lines();
        let k0 = lines.next().expect("k0");
        let k1 = lines.next().expect("k1");
        let torn = format!("{k0}\n{}", &k1[..k1.len() - 3]);
        assert!(
            json_string_field(torn.lines().last().expect("tail"), "key").is_some(),
            "the torn tail must still carry a parseable key for this test"
        );
        std::fs::write(&crashed, torn).expect("write torn");

        let mut sink = JsonlSink::open(&crashed).expect("reopen");
        assert!(sink.truncated_tail());
        assert!(sink.recorded("k0"));
        assert!(!sink.recorded("k1"), "the torn k1 record must re-run");
        let s = execute(&plan, &mut sink).expect("restart");
        assert_eq!((s.ran, s.skipped), (2, 1));
        drop(sink);
        assert_eq!(
            std::fs::read(&crashed).expect("restart bytes"),
            cold_bytes,
            "crash/restart must be byte-identical to the cold run"
        );
        std::fs::remove_file(&cold).ok();
        std::fs::remove_file(&crashed).ok();
    }

    #[test]
    fn duplicate_keys_resolve_to_the_last_run() {
        // A stream written before the torn-tail repair existed can hold a
        // duplicate: a torn-but-keyed line followed by the unit's real
        // record from the restarted run. Consumers must see the last run.
        let path = tmp("dupes.jsonl");
        std::fs::write(
            &path,
            "{\"key\": \"a\", \"seed\": 1}\n\
             {\"key\": \"b\", \"seed\"\n\
             {\"key\": \"a\", \"seed\": 9}\n\
             {\"key\": \"b\", \"seed\": 2}\n",
        )
        .expect("write");
        let sink = JsonlSink::open(&path).expect("open");
        assert!(!sink.truncated_tail(), "every line is newline-terminated");
        assert_eq!(
            sink.lines_for("a"),
            Some(&["{\"key\": \"a\", \"seed\": 9}".to_string()][..]),
            "the later run wins"
        );
        assert_eq!(
            sink.lines_for("b"),
            Some(&["{\"key\": \"b\", \"seed\": 2}".to_string()][..]),
            "the torn-but-keyed earlier line is superseded"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multi_line_units_keep_their_whole_run() {
        let path = tmp("multiline.jsonl");
        std::fs::write(
            &path,
            "{\"key\": \"m\", \"part\": 1}\n\
             {\"key\": \"m\", \"part\": 2}\n\
             {\"key\": \"n\", \"part\": 1}\n",
        )
        .expect("write");
        let sink = JsonlSink::open(&path).expect("open");
        assert_eq!(
            sink.lines_for("m").map(<[String]>::len),
            Some(2),
            "consecutive same-key lines are one run, not duplicates"
        );
        std::fs::remove_file(&path).ok();
    }
}
