//! Rule family 4: tick-path hashing.
//!
//! Every keyed lookup on the tick path (oracle prices and epochs, book
//! indexes, protocol accounts, ledger balances, engine maps) goes through
//! `defi_types::{FxHashMap, FxHashSet}`. std's `RandomState` runs SipHash on
//! every lookup, which measured as the largest single cost inside the tick,
//! and its keys are random per process. Inside the gated hot paths and the
//! oracle crate, non-test code must not:
//!
//! * **`hot-hasher`** — import `std::collections::{HashMap, HashSet}` (or
//!   name them through a `collections::`/`hash_map::`/`hash_set::` path), or
//!   call `HashMap::new` / `HashSet::new` / `HashMap::with_capacity` /
//!   `HashSet::with_capacity`, the constructors that exist only for
//!   `RandomState`. Use the Fx aliases and `::default()`.
//!
//! The rule is lexical: a `HashMap` type written without its import (say,
//! through a glob) is not seen. The imports and constructors are what a
//! regression would add, so they are what the rule gates.

use crate::lexer::Tok;
use crate::scan::{matching, FileMap};
use crate::{Finding, Rule};

/// `hot-hasher`: no `RandomState` maps in gated non-test code.
pub fn check_hasher(path: &str, toks: &[Tok], map: &FileMap, findings: &mut Vec<Finding>) {
    let groups = collections_groups(toks);
    for i in 0..toks.len() {
        let name = toks[i].text.as_str();
        if !(toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet")) || map.in_test(i) {
            continue;
        }
        let std_path = i >= 3
            && path_sep(toks, i - 2)
            && ["collections", "hash_map", "hash_set"]
                .iter()
                .any(|m| toks[i - 3].is_ident(m));
        let in_group = groups.iter().any(|&(s, e)| i > s && i < e);
        let random_ctor = path_sep(toks, i + 1)
            && toks
                .get(i + 3)
                .is_some_and(|t| t.is_ident("new") || t.is_ident("with_capacity"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('));
        if std_path || in_group || random_ctor {
            findings.push(Finding::new(
                path,
                toks[i].line,
                Rule::HotHasher,
                format!(
                    "std `{name}` with `RandomState` on the tick path — use \
                     `defi_types::Fx{name}` built with `::default()`"
                ),
            ));
        }
    }
}

/// Whether `toks[at]` and `toks[at + 1]` form a `::` separator.
fn path_sep(toks: &[Tok], at: usize) -> bool {
    toks.get(at).is_some_and(|t| t.is_punct(':'))
        && toks.get(at + 1).is_some_and(|t| t.is_punct(':'))
}

/// Brace spans of `collections::{ … }` import groups.
fn collections_groups(toks: &[Tok]) -> Vec<(usize, usize)> {
    (0..toks.len())
        .filter(|&i| {
            toks[i].is_ident("collections")
                && path_sep(toks, i + 1)
                && toks.get(i + 3).is_some_and(|t| t.is_punct('{'))
        })
        .map(|i| (i + 3, matching(toks, i + 3)))
        .collect()
}
