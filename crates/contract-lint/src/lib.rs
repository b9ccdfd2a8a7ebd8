//! `contract-lint` — a workspace static analyzer for the contracts that keep
//! the incremental liquidation pipeline honest.
//!
//! The correctness of the dirty-tracked [`PositionBook`] caches rests on a
//! three-hook contract that, before this crate, lived in ROADMAP prose and
//! was enforced only dynamically (the band-differential harness samples
//! executions; its sabotage tests prove one missed hook silently corrupts
//! liquidation discovery). This analyzer checks the contract at the source
//! level, on every build, for all code that doesn't exist yet. Three rule
//! families:
//!
//! | rule | checks |
//! |------|--------|
//! | `dirty-mark` | account-store mutations reach `mark_dirty` (hook 1) |
//! | `dirty-accrue` | `Market::accrue` moved-bits drive `note_index_change` (hook 2) |
//! | `dirty-oracle` | oracle price writes bump the write epoch (hook 3) |
//! | `fixed-raw-arith` | no bare integer arithmetic on `.raw()`/`.0` outside `crates/types` |
//! | `fixed-float` | no f64 round-trips on fixed-point values in `crates/lending` (envelope-slack derivation allowlisted) |
//! | `hot-unwrap` | no `unwrap`/`expect` in the gated hot paths |
//! | `hot-index` | no panicking `[…]` indexing in the gated hot paths |
//! | `unused-waiver` | every `lint:allow` directive suppresses a real finding |
//!
//! Justified residue is waived inline with
//! `// lint:allow(<rule>) <reason>` on (or directly above) the offending
//! line; the reason is mandatory and the directive errors when nothing under
//! it fires, so the checked-in waiver inventory (`waivers.tsv`) is always
//! exactly the set of accepted exceptions. See `CONTRACTS.md` at the
//! workspace root for the full rule semantics and how a new
//! `LendingProtocol` implementation stays lint-clean.
//!
//! There is no `syn`/`dylint` (the build environment has no crates.io
//! access), so the analyzer is a hand-rolled lexer + item/call-graph scanner
//! in the house style of the Knuth-D division and the hand-rolled JSON
//! encoder. It is *lexical*: scoping is by file path and token shape, not
//! type inference — the rules are written so that their blind spots are
//! conservative (see each rule module's docs).
//!
//! [`PositionBook`]: ../defi_lending/book/struct.PositionBook.html

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod dirty_set;
pub mod fixed_point;
pub mod lexer;
pub mod panic_free;
pub mod scan;

use lexer::{Tok, TokKind};

/// The enforced rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Dirty-set hook 1: account mutations mark the book.
    DirtyMark,
    /// Dirty-set hook 2: accrual moved-bits reach the book.
    DirtyAccrue,
    /// Dirty-set hook 3: oracle writes bump the epoch.
    DirtyOracle,
    /// No bare integer arithmetic on raw fixed-point escapes.
    FixedRawArith,
    /// No f64 round-trips on fixed-point values in the valuation layer.
    FixedFloat,
    /// No `unwrap`/`expect` in gated hot paths.
    HotUnwrap,
    /// No panicking indexing in gated hot paths.
    HotIndex,
    /// A `lint:allow` directive that suppressed nothing (or lacks a reason).
    UnusedWaiver,
}

impl Rule {
    /// The kebab-case name used in waiver directives and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::DirtyMark => "dirty-mark",
            Rule::DirtyAccrue => "dirty-accrue",
            Rule::DirtyOracle => "dirty-oracle",
            Rule::FixedRawArith => "fixed-raw-arith",
            Rule::FixedFloat => "fixed-float",
            Rule::HotUnwrap => "hot-unwrap",
            Rule::HotIndex => "hot-index",
            Rule::UnusedWaiver => "unused-waiver",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable description.
    pub msg: String,
    /// `Some(reason)` when an inline waiver accepted this finding.
    pub waived: Option<String>,
}

impl Finding {
    /// Build an unwaived finding.
    pub fn new(file: &str, line: u32, rule: Rule, msg: String) -> Self {
        Finding {
            file: file.to_string(),
            line,
            rule,
            msg,
            waived: None,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Start index of the postfix expression whose *last* token sits at `end`
/// (inclusive): walks left over `ident`/`self`/literal segments, matched
/// `(…)`/`[…]` groups and `.` connectors. Used to decide whether a chain is
/// an arithmetic operand or a discarded statement.
pub(crate) fn walk_left(toks: &[Tok], end: usize) -> usize {
    let mut i = end as isize;
    loop {
        // Consume one segment ending at i.
        if i < 0 {
            return 0;
        }
        let t = &toks[i as usize];
        if t.is_punct(')') || t.is_punct(']') {
            i = rev_matching(toks, i as usize) as isize - 1;
            // A call's callee / an index's base is part of the chain.
            if i >= 0
                && (toks[i as usize].kind == TokKind::Ident
                    || toks[i as usize].kind == TokKind::Lit)
            {
                i -= 1;
            }
        } else if t.kind == TokKind::Ident || t.kind == TokKind::Lit {
            i -= 1;
        } else {
            return (i + 1) as usize;
        }
        // Continue only across `.` (and `::`) connectors.
        if i >= 1 && toks[i as usize].is_punct('.') {
            i -= 1;
        } else if i >= 2 && toks[i as usize].is_punct(':') && toks[(i - 1) as usize].is_punct(':') {
            i -= 2;
        } else {
            return (i + 1) as usize;
        }
    }
}

/// Index of the opener matching the closing delimiter at `close`.
fn rev_matching(toks: &[Tok], close: usize) -> usize {
    let (o, c) = match toks[close].text.as_str() {
        ")" => ('(', ')'),
        "]" => ('[', ']'),
        "}" => ('{', '}'),
        _ => return close,
    };
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        if toks[i].is_punct(c) {
            depth += 1;
        } else if toks[i].is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    0
}

// ---------------------------------------------------------------- scoping

/// Hot paths gated by the panic-freedom rules.
fn is_hot_path(path: &str) -> bool {
    path.starts_with("crates/lending/src/")
        || path.starts_with("crates/chain/src/")
        || path == "crates/sim/src/engine.rs"
        || path == "crates/sim/src/session.rs"
        // The behavioural layer runs inside the tick loop (inventory checks,
        // latency queues, panic draws) — a panic there kills the run.
        || path == "crates/sim/src/behavior.rs"
        // The sweep runner fans whole runs across scoped threads; a panic
        // there tears down every in-flight run.
        || path == "crates/sim/src/sweep.rs"
        // The journal reader parses untrusted file bytes and must not panic.
        || path == "crates/journal/src/reader.rs"
}

/// Scope of the `fixed-raw-arith` rule: everywhere except the fixed-point
/// implementation itself.
fn raw_arith_scope(path: &str) -> bool {
    !path.starts_with("crates/types/src/")
}

/// Scope of the `fixed-float` rule: the valuation layer. Floats are
/// first-class in scenario/config space and the report layer; the layer the
/// band-differential harness certifies byte-exact is where every float
/// round-trip must be individually justified.
fn fixed_float_scope(path: &str) -> bool {
    path.starts_with("crates/lending/src/")
}

/// Scope of the `dirty-oracle` rule: the oracle implementation.
fn oracle_scope(path: &str) -> bool {
    path.starts_with("crates/oracle/src/")
}

// ---------------------------------------------------------------- driver

/// Lint one source file given its workspace-relative path.
pub fn lint_file(rel_path: &str, source: &str) -> Vec<Finding> {
    let lexed = lexer::lex(source);
    let map = scan::scan(&lexed.toks);
    let mut findings = Vec::new();

    // Family 1: dirty-set contract.
    if dirty_set::owns_book(&map) {
        dirty_set::check_mark_dirty(rel_path, &lexed.toks, &map, &mut findings);
        dirty_set::check_accrue(rel_path, &lexed.toks, &map, &mut findings);
    }
    if oracle_scope(rel_path) {
        dirty_set::check_oracle_writes(rel_path, &lexed.toks, &map, &mut findings);
    }

    // Family 2: fixed-point hygiene.
    if raw_arith_scope(rel_path) {
        fixed_point::check_raw_arith(rel_path, &lexed.toks, &map, &mut findings);
    }
    if fixed_float_scope(rel_path) {
        fixed_point::check_fixed_float(rel_path, &lexed.toks, &map, &mut findings);
    }

    // Family 3: hot-path panic-freedom.
    if is_hot_path(rel_path) {
        panic_free::check_unwrap(rel_path, &lexed.toks, &map, &mut findings);
        panic_free::check_index(rel_path, &lexed.toks, &map, &mut findings);
    }

    apply_waivers(rel_path, &lexed.waivers, &mut findings);
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Match findings against `lint:allow` directives; every directive must
/// suppress at least one finding and carry a non-empty reason.
fn apply_waivers(path: &str, waivers: &[lexer::Waiver], findings: &mut Vec<Finding>) {
    let mut used = vec![false; waivers.len()];
    for f in findings.iter_mut() {
        if let Some((wi, w)) = waivers
            .iter()
            .enumerate()
            .find(|(_, w)| w.rule == f.rule.name() && w.target_line == f.line)
        {
            if !w.reason.is_empty() {
                f.waived = Some(w.reason.clone());
                used[wi] = true;
            }
        }
    }
    for (wi, w) in waivers.iter().enumerate() {
        if !used[wi] {
            let why = if w.reason.is_empty() {
                "a waiver must state its justification after the closing parenthesis"
            } else {
                "no finding of that rule fires on the waived line — stale waivers \
                 must be removed so the inventory stays exact"
            };
            findings.push(Finding::new(
                path,
                w.line,
                Rule::UnusedWaiver,
                format!("unused `lint:allow({})`: {}", w.rule, why),
            ));
        }
    }
}

/// Walk a workspace root and lint every in-scope source file.
///
/// Scanned: `src/` of the umbrella package and of every crate under
/// `crates/`, except `crates/support` (vendored API stubs for absent
/// crates.io dependencies — not our code) and `crates/contract-lint` itself
/// (whose fixtures are deliberate violations).
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, root, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "support" || name == "contract-lint" {
                continue;
            }
            let src = entry.join("src");
            if src.is_dir() {
                collect_rs(&src, root, &mut files)?;
            }
        }
    }
    files.sort();
    let mut findings = Vec::new();
    for (rel, abs) in files {
        let source =
            std::fs::read_to_string(&abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        findings.extend(lint_file(&rel, &source));
    }
    Ok(findings)
}

/// Recursively collect `.rs` files under `dir`, storing workspace-relative
/// paths with `/` separators (so reports and the waiver inventory are
/// platform-stable).
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Aggregate the waived findings as `(file, rule) -> count`, the shape of
/// the checked-in `waivers.tsv` inventory.
pub fn waiver_inventory(findings: &[Finding]) -> BTreeMap<(String, String), usize> {
    let mut inv: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in findings.iter().filter(|f| f.waived.is_some()) {
        *inv.entry((f.file.clone(), f.rule.name().to_string()))
            .or_insert(0) += 1;
    }
    inv
}
