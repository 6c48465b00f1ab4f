//! The `escalate report` runner: one entry point for the whole experiment
//! registry, built on the shared run-plan layer (`crate::plan`).
//!
//! ```text
//! escalate report --list            # enumerate the registry
//! escalate report fig8 table4       # run named experiments, text to stdout
//! escalate report --all             # run every golden experiment
//! escalate report --json fig8       # JSON (escalate-report/v1) instead of text
//! escalate report --out DIR --all   # one file per experiment instead of stdout
//! escalate report --all --update    # regenerate the results/ golden corpus
//! escalate report --all --check     # diff against results/, nonzero on drift
//! ```
//!
//! The selected experiments form a [`ReportPlan`] (one work unit per
//! experiment); `plan::execute` fans the units out over the thread pool,
//! and one of four [`UnitSink`]s renders each output on the calling
//! thread as soon as it and every earlier one are done, in request order
//! — so stdout, per-file output, and golden checks are byte-identical to
//! a serial run (and the first failure in request order is the one
//! reported).
//!
//! `--check`/`--update` operate on the golden corpus under `results/`
//! (override with `--results DIR` or `ESCALATE_RESULTS_DIR`); experiments
//! whose output is timing-dependent ([`Experiment::golden`] is `false`)
//! are skipped by `--all`, `--check` and `--update` but still runnable by
//! name. Flags accept both `--key value` and `--key=value`. Arguments
//! after `--` are forwarded to the experiments verbatim
//! (e.g. `escalate report fig11 -- MobileNet`).

use super::{find, registry, ExpContext, ExpError, Experiment};
use crate::plan::{self, RunPlan, UnitOutput, UnitSink, WorkUnit};
use std::io::Write;
use std::path::PathBuf;

/// Parsed command line of the `report` runner.
#[derive(Debug, Default, Clone)]
pub struct ReportOptions {
    /// List the registry and exit.
    pub list: bool,
    /// Expand to every golden experiment.
    pub all: bool,
    /// Render JSON (`escalate-report/v1`) instead of text.
    pub json: bool,
    /// Compare rendered text against the golden corpus; report drift.
    pub check: bool,
    /// Rewrite the golden corpus from fresh runs.
    pub update: bool,
    /// Write one file per experiment into this directory instead of stdout.
    pub out_dir: Option<PathBuf>,
    /// Golden corpus directory (default: `results/` next to the workspace
    /// root, or `ESCALATE_RESULTS_DIR`).
    pub results_dir: Option<PathBuf>,
    /// Explicitly named experiments, in request order.
    pub names: Vec<String>,
    /// Positional arguments forwarded to the experiments (after `--`).
    pub args: Vec<String>,
}

impl ReportOptions {
    /// Parses runner arguments (without the program name). Valued flags
    /// accept both `--out DIR` and `--out=DIR`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for unknown flags, missing flag values,
    /// values on boolean flags, or contradictory modes
    /// (`--check --update`).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, String> {
        let mut opts = ReportOptions::default();
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            // `--key=value` unfolds to the flag plus an inline value.
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
                _ => (arg, None),
            };
            let bool_flag = |dst: &mut bool| {
                if inline.is_some() {
                    return Err(format!("{flag} takes no value"));
                }
                *dst = true;
                Ok(())
            };
            match flag.as_str() {
                "--list" => bool_flag(&mut opts.list)?,
                "--all" => bool_flag(&mut opts.all)?,
                "--json" => bool_flag(&mut opts.json)?,
                "--check" => bool_flag(&mut opts.check)?,
                "--update" => bool_flag(&mut opts.update)?,
                "--out" => {
                    let dir = match inline {
                        Some(v) => v,
                        None => it.next().ok_or("--out requires a directory")?,
                    };
                    opts.out_dir = Some(PathBuf::from(dir));
                }
                "--results" => {
                    let dir = match inline {
                        Some(v) => v,
                        None => it.next().ok_or("--results requires a directory")?,
                    };
                    opts.results_dir = Some(PathBuf::from(dir));
                }
                "--" => {
                    opts.args.extend(it);
                    break;
                }
                f if f.starts_with('-') => {
                    return Err(format!("unknown flag {f:?} (see report --list)"));
                }
                name => opts.names.push(name.to_string()),
            }
        }
        if opts.check && opts.update {
            return Err("--check and --update are mutually exclusive".into());
        }
        if !opts.list && !opts.all && opts.names.is_empty() {
            return Err("nothing to do: name experiments, or pass --all or --list".into());
        }
        Ok(opts)
    }

    /// The golden corpus directory: `--results`, else
    /// `ESCALATE_RESULTS_DIR`, else `results/` at the workspace root.
    pub fn resolve_results_dir(&self) -> PathBuf {
        if let Some(dir) = &self.results_dir {
            return dir.clone();
        }
        if let Ok(dir) = std::env::var("ESCALATE_RESULTS_DIR") {
            if !dir.is_empty() {
                return PathBuf::from(dir);
            }
        }
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
    }
}

/// Resolves the experiment set a parsed command line selects.
fn select(opts: &ReportOptions) -> Result<Vec<&'static dyn Experiment>, ExpError> {
    let mut exps: Vec<&'static dyn Experiment> = Vec::new();
    if opts.all {
        exps.extend(registry().iter().copied().filter(|e| e.golden()));
    }
    for name in &opts.names {
        let exp = find(name).ok_or_else(|| {
            ExpError::Msg(format!("unknown experiment {name:?} (see report --list)"))
        })?;
        if (opts.check || opts.update) && !exp.golden() {
            return Err(ExpError::Msg(format!(
                "{name} is not golden-checked (timing-dependent output)"
            )));
        }
        if !exps.iter().any(|e| e.name() == exp.name()) {
            exps.push(exp);
        }
    }
    Ok(exps)
}

/// Reports the first diverging line of a drifted golden check.
fn first_drift(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!("first drift at line {}:\n  - {e}\n  + {a}", i + 1);
        }
    }
    let (el, al) = (expected.lines().count(), actual.lines().count());
    format!("line counts differ: golden {el}, current {al}")
}

/// Fixed master seed of the report plan — experiments derive their own
/// randomness internally, but every work unit still carries a seed per
/// the plan contract.
const REPORT_PLAN_SEED: u64 = 0x5eca_1a7e_9e37_79b9;

/// The experiment registry as a [`RunPlan`]: one work unit per selected
/// experiment, keyed by registry name.
struct ReportPlan {
    exps: Vec<&'static dyn Experiment>,
    ctx: ExpContext,
}

impl RunPlan for ReportPlan {
    fn name(&self) -> &str {
        "report"
    }

    fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
        Ok(self
            .exps
            .iter()
            .enumerate()
            .map(|(i, e)| WorkUnit {
                key: e.name().to_string(),
                seed: plan::unit_seed(REPORT_PLAN_SEED, i as u64),
                index: i,
            })
            .collect())
    }

    fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
        self.exps[unit.index]
            .run(&self.ctx)
            .map(UnitOutput::from_table)
    }
}

/// `--check`: byte-diffs each experiment against its golden file.
struct CheckSink<'w> {
    out: &'w mut dyn Write,
    results_dir: PathBuf,
    clean: bool,
}

impl UnitSink for CheckSink<'_> {
    fn write_unit(&mut self, unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
        let text = out.table.render_text();
        let golden_path = self.results_dir.join(format!("{}.txt", unit.key));
        match std::fs::read_to_string(&golden_path) {
            Ok(golden) if golden == text => {
                writeln!(self.out, "ok    {}", unit.key)?;
            }
            Ok(golden) => {
                self.clean = false;
                writeln!(self.out, "DRIFT {}", unit.key)?;
                writeln!(self.out, "{}", first_drift(&golden, &text))?;
            }
            Err(e) => {
                self.clean = false;
                writeln!(self.out, "DRIFT {} (no golden: {e})", unit.key)?;
            }
        }
        Ok(())
    }
}

/// `--update`: rewrites each experiment's golden file.
struct UpdateSink<'w> {
    out: &'w mut dyn Write,
    results_dir: PathBuf,
}

impl UnitSink for UpdateSink<'_> {
    fn write_unit(&mut self, unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
        let golden_path = self.results_dir.join(format!("{}.txt", unit.key));
        std::fs::write(&golden_path, out.table.render_text())?;
        writeln!(self.out, "updated {}", golden_path.display())?;
        Ok(())
    }
}

/// `--out DIR`: one text/JSON file per experiment.
struct DirSink<'w> {
    out: &'w mut dyn Write,
    dir: PathBuf,
    json: bool,
}

impl UnitSink for DirSink<'_> {
    fn write_unit(&mut self, unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
        let ext = if self.json { "json" } else { "txt" };
        let path = self.dir.join(format!("{}.{ext}", unit.key));
        let body = if self.json {
            out.table.render_json()
        } else {
            out.table.render_text()
        };
        std::fs::write(&path, body)?;
        writeln!(self.out, "wrote {}", path.display())?;
        Ok(())
    }
}

/// Default mode: text (blank-line separated) or JSON documents on stdout.
struct StreamSink<'w> {
    out: &'w mut dyn Write,
    json: bool,
    written: usize,
}

impl UnitSink for StreamSink<'_> {
    fn write_unit(&mut self, _unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
        if self.json {
            self.out.write_all(out.table.render_json().as_bytes())?;
            writeln!(self.out)?;
        } else {
            if self.written > 0 {
                writeln!(self.out)?;
            }
            self.out.write_all(out.table.render_text().as_bytes())?;
        }
        self.written += 1;
        Ok(())
    }
}

/// Drives the registry per `opts`, writing report output to `out`.
/// Returns `true` when everything (including any `--check`) passed.
///
/// # Errors
///
/// Returns an [`ExpError`] when an experiment fails or a file cannot be
/// read or written. Golden drift is a `false` return, not an error.
pub fn run_report(opts: &ReportOptions, out: &mut dyn Write) -> Result<bool, ExpError> {
    if opts.list {
        writeln!(
            out,
            "{:<16} {:<18} {:<6} summary",
            "name", "paper anchor", "golden"
        )?;
        for e in registry() {
            writeln!(
                out,
                "{:<16} {:<18} {:<6} {}",
                e.name(),
                e.paper_anchor(),
                if e.golden() { "yes" } else { "no" },
                e.summary()
            )?;
        }
        return Ok(true);
    }

    let exps = select(opts)?;
    let selected = exps.len();
    let ctx = ExpContext {
        args: opts.args.clone(),
        ..ExpContext::default()
    };
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir)?;
    }
    let results_dir = opts.resolve_results_dir();
    if opts.update {
        std::fs::create_dir_all(&results_dir)?;
    }
    let plan = ReportPlan { exps, ctx };

    let clean = if opts.check {
        let clean = {
            let mut sink = CheckSink {
                out: &mut *out,
                results_dir: results_dir.clone(),
                clean: true,
            };
            plan::execute(&plan, &mut sink)?;
            sink.clean
        };
        writeln!(
            out,
            "{}: {} experiment(s) checked against {}",
            if clean { "PASS" } else { "FAIL" },
            selected,
            results_dir.display()
        )?;
        clean
    } else if opts.update {
        let mut sink = UpdateSink {
            out: &mut *out,
            results_dir,
        };
        plan::execute(&plan, &mut sink)?;
        true
    } else if let Some(dir) = &opts.out_dir {
        let mut sink = DirSink {
            out: &mut *out,
            dir: dir.clone(),
            json: opts.json,
        };
        plan::execute(&plan, &mut sink)?;
        true
    } else {
        let mut sink = StreamSink {
            out: &mut *out,
            json: opts.json,
            written: 0,
        };
        plan::execute(&plan, &mut sink)?;
        true
    };
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_unknown_flags_and_empty_invocations() {
        assert!(ReportOptions::parse(["--bogus".to_string()]).is_err());
        assert!(ReportOptions::parse(Vec::new()).is_err());
        assert!(
            ReportOptions::parse(["--check".into(), "--update".into(), "--all".into()]).is_err()
        );
    }

    #[test]
    fn parse_collects_names_flags_and_forwarded_args() {
        let o = ReportOptions::parse(
            [
                "--json",
                "fig8",
                "table4",
                "--out",
                "/tmp/x",
                "--",
                "MobileNet",
            ]
            .map(String::from),
        )
        .expect("valid");
        assert!(o.json && !o.all && !o.check);
        assert_eq!(o.names, ["fig8", "table4"]);
        assert_eq!(o.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(o.args, ["MobileNet"]);
    }

    #[test]
    fn parse_accepts_key_equals_value_forms() {
        let o =
            ReportOptions::parse(["--out=/tmp/x", "--results=/tmp/r", "fig8"].map(String::from))
                .expect("valid");
        assert_eq!(o.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(
            o.results_dir.as_deref(),
            Some(std::path::Path::new("/tmp/r"))
        );
        assert_eq!(o.names, ["fig8"]);
        // Boolean flags reject inline values instead of swallowing them.
        let e = ReportOptions::parse(["--check=yes".to_string()]).unwrap_err();
        assert!(e.contains("takes no value"), "{e}");
        // A directory value containing '=' survives (only the first '='
        // splits).
        let o = ReportOptions::parse(["--out=/tmp/a=b", "fig8"].map(String::from)).expect("valid");
        assert_eq!(o.out_dir.as_deref(), Some(std::path::Path::new("/tmp/a=b")));
    }

    #[test]
    fn select_skips_non_golden_under_all_but_rejects_them_by_name() {
        let all = ReportOptions {
            all: true,
            check: true,
            ..ReportOptions::default()
        };
        let exps = select(&all).expect("select");
        assert!(exps.iter().all(|e| e.golden()));
        assert_eq!(exps.len(), registry().iter().filter(|e| e.golden()).count());

        let by_name = ReportOptions {
            check: true,
            names: vec!["reorg_ablation".into()],
            ..ReportOptions::default()
        };
        assert!(select(&by_name).is_err());
    }

    #[test]
    fn report_plan_units_mirror_the_selection_order() {
        let exps = select(&ReportOptions {
            names: vec!["fig8".into(), "table4".into()],
            ..ReportOptions::default()
        })
        .expect("select");
        let plan = ReportPlan {
            exps,
            ctx: ExpContext::default(),
        };
        let units = plan.units().expect("units");
        let keys: Vec<&str> = units.iter().map(|u| u.key.as_str()).collect();
        assert_eq!(keys, ["fig8", "table4"]);
        assert_ne!(units[0].seed, units[1].seed);
        assert_eq!(units[1].index, 1);
    }

    #[test]
    fn list_names_every_experiment() {
        let opts = ReportOptions {
            list: true,
            ..ReportOptions::default()
        };
        let mut buf = Vec::new();
        assert!(run_report(&opts, &mut buf).expect("list"));
        let text = String::from_utf8(buf).expect("utf8");
        for e in registry() {
            assert!(text.contains(e.name()), "{} missing from --list", e.name());
        }
    }

    #[test]
    fn first_drift_pinpoints_the_line() {
        let msg = first_drift("a\nb\nc\n", "a\nX\nc\n");
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("- b") && msg.contains("+ X"), "{msg}");
        let msg = first_drift("a\n", "a\nb\n");
        assert!(msg.contains("line counts differ"), "{msg}");
    }
}
