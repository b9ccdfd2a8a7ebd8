//! Sabotage tests: each mini-tree under `tests/sabotage/` plants one
//! contract violation; the analyzer *binary* must reject it with exit
//! code 1 and name the expected rule. This is the proof the CI gate has
//! teeth — a lexer or scoping regression that silently blinds a rule
//! fails here, not in production.

use std::path::Path;
use std::process::Command;

/// Run the built analyzer binary over one sabotage tree.
fn lint_tree(case: &str) -> (Option<i32>, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/sabotage")
        .join(case);
    let output = Command::new(env!("CARGO_BIN_EXE_contract-lint"))
        .arg("--root")
        .arg(&root)
        .output()
        .expect("analyzer binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    (output.status.code(), stdout)
}

fn assert_rejects(case: &str, rule: &str) {
    let (code, stdout) = lint_tree(case);
    assert_eq!(code, Some(1), "{case}: expected exit 1, report:\n{stdout}");
    assert!(
        stdout.contains(&format!("[{rule}]")),
        "{case}: expected a {rule} finding, report:\n{stdout}"
    );
}

#[test]
fn rejects_missed_mark_dirty() {
    assert_rejects("missed_mark_dirty", "dirty-mark");
}

#[test]
fn rejects_unconsumed_accrue_moved_bit() {
    assert_rejects("unconsumed_accrue", "dirty-accrue");
}

#[test]
fn rejects_raw_arithmetic() {
    assert_rejects("raw_arith", "fixed-raw-arith");
}

#[test]
fn rejects_unwaived_unwrap() {
    assert_rejects("unwaived_unwrap", "hot-unwrap");
}

#[test]
fn rejects_epochless_oracle_write() {
    assert_rejects("oracle_write", "dirty-oracle");
}

#[test]
fn rejects_valuation_layer_float() {
    assert_rejects("fixed_float", "fixed-float");
}

#[test]
fn rejects_random_state_map_on_the_oracle() {
    assert_rejects("std_hasher", "hot-hasher");
}

#[test]
fn accepts_the_clean_control_tree() {
    let (code, stdout) = lint_tree("clean");
    assert_eq!(code, Some(0), "clean tree must pass, report:\n{stdout}");
    assert!(
        stdout.contains("(1 waived)"),
        "the control tree's justified waiver must be counted, report:\n{stdout}"
    );
}

#[test]
fn usage_errors_exit_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_contract-lint"))
        .arg("--bogus")
        .output()
        .expect("analyzer binary runs");
    assert_eq!(output.status.code(), Some(2));
}
