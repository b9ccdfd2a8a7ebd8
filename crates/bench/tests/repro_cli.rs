//! The `repro` command line rejects input it would otherwise ignore: an
//! unknown artefact name, `--workers` without `--sweep`, an empty sweep, zero
//! workers, or a scenario file with a value no run can use exits with status
//! 2 and says why instead of printing nothing.

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
fn a_zero_seed_sweep_exits_2() {
    let dir = std::env::temp_dir().join(format!("repro-zero-seeds-{}", std::process::id()));
    let output = repro(&[
        "--smoke",
        "--sweep",
        "seeds=0",
        "--json",
        dir.to_str().expect("utf-8 temp path"),
        "headline",
    ]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "nothing is rendered");
    assert!(!dir.join("sweep.json").exists(), "no sweep.json is written");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("at least one seed"), "{stderr}");
}

#[test]
fn zero_sweep_workers_exits_2() {
    let output = repro(&["--smoke", "--sweep", "seeds=1", "--workers", "0"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "nothing is rendered");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--workers"), "{stderr}");
}

#[test]
fn a_valid_artefact_name_still_runs() {
    // `configs` needs no simulation, so this stays fast in debug builds.
    let output = repro(&["configs"]);
    assert_eq!(output.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&output.stdout).contains("Appendix C"));
}

#[test]
fn a_nan_shock_in_a_scenario_file_exits_2_and_names_the_line() {
    let path = std::env::temp_dir().join(format!("repro-nan-shock-{}.txt", std::process::id()));
    std::fs::write(
        &path,
        "[scenario nan-shock]\nshock = ETH @ 9716000 NaN 1000\n",
    )
    .expect("write the scenario file");
    let output = repro(&[
        "--smoke",
        "--scenario-file",
        path.to_str().expect("utf-8 temp path"),
        "--scenario",
        "nan-shock",
        "headline",
    ]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "nothing is rendered");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
}
