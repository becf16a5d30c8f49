//! `repro`'s command-line errors: a flag with no value, an unparsable
//! value and an unknown `--only` section each print the usage line and
//! exit with status 2 before any campaign runs.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

fn assert_usage_error(args: &[&str]) -> String {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains("usage: repro [--quick]"),
        "{args:?}: no usage line in {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?}: printed a document");
    stderr
}

#[test]
fn flag_without_a_value_is_a_usage_error() {
    let stderr = assert_usage_error(&["--jobs"]);
    assert!(stderr.contains("--jobs needs a value"), "{stderr}");
    assert_usage_error(&["--quick", "--only"]);
}

#[test]
fn unparsable_value_is_a_usage_error() {
    let stderr = assert_usage_error(&["--jobs", "x"]);
    assert!(stderr.contains("--jobs: invalid value `x`"), "{stderr}");
    assert_usage_error(&["--population", "-3"]);
    let stderr = assert_usage_error(&["--population", "0"]);
    assert!(
        stderr.contains("--population must be at least 1"),
        "{stderr}"
    );
}

#[test]
fn unknown_section_lists_the_valid_ones() {
    let stderr = assert_usage_error(&["--quick", "--only", "nosuch"]);
    assert!(stderr.contains("unknown section `nosuch`"), "{stderr}");
    for section in panoptes_bench::pipeline::SECTIONS {
        assert!(stderr.contains(section), "{section} missing from {stderr}");
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["--overlap"]);
}
