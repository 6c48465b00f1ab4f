//! End-user tests of the `escalate` binary itself.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_escalate"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_exits_zero_with_usage() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn no_arguments_fails_with_usage_on_stderr() {
    let (ok, _, stderr) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("no command"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn models_lists_the_zoo() {
    let (ok, stdout, _) = run(&["models"]);
    assert!(ok);
    assert!(stdout.contains("ResNet152"));
    assert!(stdout.contains("ImageNet"));
}

#[test]
fn bad_model_fails_cleanly() {
    let (ok, _, stderr) = run(&["simulate", "AlexNet"]);
    assert!(!ok);
    assert!(stderr.contains("AlexNet"));
}

#[test]
fn compress_produces_summary() {
    let (ok, stdout, _) = run(&["compress", "MobileNet"]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("compression"));
    assert!(stdout.contains("proxy top-1"));
}

#[test]
fn a_boolean_flag_never_takes_the_model_as_its_value() {
    let (ok, before, stderr) = run(&["compress", "--layers", "MobileNet"]);
    assert!(ok, "stderr: {stderr}");
    let (ok, after, _) = run(&["compress", "MobileNet", "--layers"]);
    assert!(ok);
    assert_eq!(before, after);
}

#[test]
fn a_bare_valued_option_is_an_error_naming_it() {
    let (ok, _, stderr) = run(&["simulate", "MobileNet", "--seeds", "1", "--metrics"]);
    assert!(!ok);
    assert!(stderr.contains("--metrics needs a value"), "{stderr}");
}

#[test]
fn report_check_reads_the_next_argument_as_an_experiment() {
    let (ok, stdout, stderr) = run(&["report", "--check", "table4"]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("table4"), "{stdout}");
}

#[test]
fn a_missing_model_is_named_as_an_argument_not_an_option() {
    for args in [&["simulate"][..], &["compress", "--layers"], &["network"]] {
        let (ok, _, stderr) = run(args);
        assert!(!ok, "{args:?}");
        assert!(stderr.contains("missing MODEL"), "{args:?}: {stderr}");
        assert!(!stderr.contains("--MODEL"), "{args:?}: {stderr}");
    }
}
