//! The `repro` command line rejects input it would otherwise ignore: an
//! unknown artefact name, or `--workers` without `--sweep`, exits with
//! status 2 and names the valid choices instead of printing nothing.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run the repro binary")
}

#[test]
fn unknown_artefact_name_exits_2_and_lists_the_valid_names() {
    let output = repro(&["--smoke", "headlin"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "nothing is rendered");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown artefact 'headlin'"), "{stderr}");
    for valid in ["headline", "auction-stats", "case-study", "configs", "all"] {
        assert!(stderr.contains(valid), "{valid} missing from: {stderr}");
    }
}

#[test]
fn workers_without_sweep_exits_2() {
    let output = repro(&["--smoke", "--workers", "2", "headline"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "nothing is rendered");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--sweep"), "{stderr}");
}

#[test]
fn a_valid_artefact_name_still_runs() {
    // `configs` needs no simulation, so this stays fast in debug builds.
    let output = repro(&["configs"]);
    assert_eq!(output.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&output.stdout).contains("Appendix C"));
}
