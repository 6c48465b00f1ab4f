//! The repository benchmark. One command runs one named workload:
//!
//! ```text
//! perfbench --workload <oneshot_cold|sweep_dense|serve_open> --seed N \
//!           --seconds S --trace 0|1 --escalate PATH --work-dir DIR
//! ```
//!
//! It prints every metric by name and unit, a provenance record, and as
//! its last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `perfbench record` prints a fresh
//! `expected.txt`. `perfbench worker ...` is the child process batch
//! workloads start for each cold unit of work.

mod common;
mod expected;
mod oneshot;
mod serve;
mod sweep;

use common::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => worker(&args[1..]),
        Some("record") => flag(&args, "--work-dir")
            .map(PathBuf::from)
            .ok_or_else(|| "record needs --work-dir".to_string())
            .and_then(|dir| expected::record(&dir)),
        _ => bench(&args),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// The value after `--name`, if given.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    raw.parse()
        .map_err(|_| format!("bad value {raw:?} for {name}"))
}

fn worker(args: &[String]) -> Result<(), String> {
    let trace = flag(args, "--trace") == Some("1");
    match args.first().map(String::as_str) {
        Some("oneshot") => oneshot::worker(trace, args.iter().any(|a| a == "--probe")),
        Some("sweep") => sweep::worker(
            parsed(args, "--grid")?,
            trace,
            &PathBuf::from(flag(args, "--out").ok_or("missing --out")?),
        ),
        other => Err(format!("unknown worker {other:?}")),
    }
}

fn bench(args: &[String]) -> Result<(), String> {
    let workload: String = parsed(args, "--workload")?;
    let seed: u64 = parsed(args, "--seed")?;
    let seconds: f64 = parsed(args, "--seconds")?;
    let trace = match flag(args, "--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad value {other:?} for --trace")),
    };
    let work_dir = PathBuf::from(flag(args, "--work-dir").ok_or("missing --work-dir")?);
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let outcome = match workload.as_str() {
        "oneshot_cold" => oneshot::run(seconds, trace),
        "sweep_dense" => sweep::run(seed, seconds, trace, &work_dir),
        "serve_open" => {
            let escalate = flag(args, "--escalate").ok_or("serve_open needs --escalate")?;
            serve::run(seed, seconds, &PathBuf::from(escalate), &work_dir)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    report(&workload, seed, trace, &outcome);
    Ok(())
}

/// Prints the metric table, the provenance record and the result line.
fn report(workload: &str, seed: u64, trace: bool, o: &Outcome) {
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let fail_frac = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "workload {workload} (seed {seed}, trace {})",
        u8::from(trace)
    );
    let value = |name: &str| o.metrics.get(name).copied().unwrap_or(0.0);
    for (name, unit) in wanted {
        let v = value(name);
        let n = o
            .samples
            .get(*name)
            .map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {name:<28} {v:>14.4} {unit}{n}");
    }
    println!(
        "  {:<28} {fail_frac:>14.4} ratio  ({} of {})",
        "fail_frac", o.failed, o.attempted
    );
    for note in &o.notes {
        println!("  note: {note}");
    }
    for p in &o.problems {
        println!("  FAILED: {p}");
    }

    let mut rec = escalate_obs::JsonWriter::new();
    rec.begin_object();
    rec.field_str("schema", "perfbench-record/v1");
    rec.field_str("workload", workload);
    rec.field_u64("seed", seed);
    rec.field_bool("trace", trace);
    rec.field_u64(
        "host_cores",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );
    rec.field_str("git_rev", &command_line("git", &["rev-parse", "HEAD"]));
    rec.field_str("rustc", &command_line("rustc", &["--version"]));
    rec.field_f64("fail_frac", fail_frac);
    rec.key("samples");
    rec.begin_object();
    for (k, n) in &o.samples {
        rec.field_u64(k, *n as u64);
    }
    rec.end_object();
    rec.key("cpu_summed");
    rec.begin_array();
    for (name, unit) in PER_LAYER {
        if unit == "ms_cpu" {
            rec.string(name);
        }
    }
    rec.end_array();
    rec.end_object();
    println!("{}", rec.finish());

    let mut w = escalate_obs::JsonWriter::new();
    w.begin_object();
    w.field_bool("correct", o.failed == 0 && o.attempted > 0);
    w.field_u64("attempted", o.attempted.max(1));
    w.field_u64("failed", o.failed.min(o.attempted.max(1)));
    w.key("metrics");
    w.begin_object();
    for (name, unit) in wanted {
        w.key(name);
        w.begin_object();
        w.field_f64("value", value(name));
        w.field_str("unit", unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    println!("{}", w.finish());
}

/// First line of a command's output, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}
