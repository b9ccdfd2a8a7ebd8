//! Rule family 1: the dirty-set contract of the incremental `PositionBook`.
//!
//! The contract (ROADMAP, "Incremental valuation") has three hooks, and each
//! gets one rule:
//!
//! * **`dirty-mark`** — in a module that owns a `PositionBook`, every
//!   `&mut self` method that mutates an account store (a
//!   `FxHashMap`/`HashMap`/`BTreeMap` keyed by `Address`) must reach a
//!   `mark_dirty` call: either its own body calls it, or *every* intra-file
//!   caller (transitively) does. The call-graph propagation is what lets
//!   interior helpers like `adjust_collateral` stay hook-free as long as all
//!   of their entry points mark.
//! * **`dirty-accrue`** — every single-argument `.accrue(block)` call (the
//!   `Market::accrue` shape; the three-argument `InterestRateIndex::accrue`
//!   is not a contract point) must consume the returned moved-bit, and the
//!   enclosing function must call `note_index_change` so a moved index
//!   actually reaches the book.
//! * **`dirty-oracle`** — inside the oracle crate, any method that inserts
//!   into the current-price or token-epoch maps must bump the write epoch;
//!   otherwise downstream books would serve stale valuations while believing
//!   themselves synced.

use crate::lexer::Tok;
use crate::scan::{matching, FileMap};
use crate::{walk_left, Finding, Rule};

/// Container methods that mutate an account store.
const MUT_METHODS: &[&str] = &[
    "insert", "remove", "entry", "get_mut", "retain", "clear", "drain",
];

/// Whether this file defines a struct owning a `PositionBook` (the scope of
/// the `dirty-mark` and `dirty-accrue` rules).
pub fn owns_book(map: &FileMap) -> bool {
    map.structs.iter().any(|s| {
        s.fields
            .iter()
            .any(|f| f.ty.iter().any(|t| t == "PositionBook"))
    })
}

/// Names of account-store fields: map fields keyed by `Address` on a struct
/// that also owns the book.
fn account_stores(map: &FileMap) -> Vec<String> {
    let mut out = Vec::new();
    for s in &map.structs {
        if !s
            .fields
            .iter()
            .any(|f| f.ty.iter().any(|t| t == "PositionBook"))
        {
            continue;
        }
        for f in &s.fields {
            let is_map =
                f.ty.iter()
                    .any(|t| t == "FxHashMap" || t == "HashMap" || t == "BTreeMap");
            let keyed_by_address = f.ty.iter().any(|t| t == "Address");
            if is_map && keyed_by_address {
                out.push(f.name.clone());
            }
        }
    }
    out
}

/// `dirty-mark`: account-store mutations must reach `mark_dirty`.
pub fn check_mark_dirty(path: &str, toks: &[Tok], map: &FileMap, findings: &mut Vec<Finding>) {
    let stores = account_stores(map);
    if stores.is_empty() {
        return;
    }
    // Per function: does it mutate a store, does it call mark_dirty, and
    // which same-file functions does it call?
    let n = map.fns.len();
    let mut mutates: Vec<Option<String>> = vec![None; n];
    let mut marks = vec![false; n];
    let mut calls: Vec<Vec<usize>> = vec![Vec::new(); n];
    let name_to_idx: std::collections::HashMap<&str, Vec<usize>> = {
        let mut m: std::collections::HashMap<&str, Vec<usize>> = std::collections::HashMap::new();
        for (i, f) in map.fns.iter().enumerate() {
            m.entry(f.name.as_str()).or_default().push(i);
        }
        m
    };
    for (fi, f) in map.fns.iter().enumerate() {
        let Some((bs, be)) = f.body else { continue };
        if map.in_test(bs) {
            continue;
        }
        for i in bs..=be {
            // `self . <store> . <mut method>`
            if i + 4 <= be
                && toks[i].is_ident("self")
                && toks[i + 1].is_punct('.')
                && stores.iter().any(|s| toks[i + 2].is_ident(s))
                && toks[i + 3].is_punct('.')
                && MUT_METHODS.iter().any(|m| toks[i + 4].is_ident(m))
            {
                mutates[fi].get_or_insert_with(|| toks[i + 2].text.clone());
            }
            if toks[i].is_ident("mark_dirty") && i > 0 && toks[i - 1].is_punct('.') {
                marks[fi] = true;
            }
            // Call edges: any ident followed by `(` that names a same-file fn.
            if toks[i].kind == crate::lexer::TokKind::Ident
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                if let Some(callees) = name_to_idx.get(toks[i].text.as_str()) {
                    for &c in callees {
                        if c != fi {
                            calls[fi].push(c);
                        }
                    }
                }
            }
        }
    }
    // callers[i] = indices of fns that call fn i.
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (caller, callees) in calls.iter().enumerate() {
        for &callee in callees {
            callers[callee].push(caller);
        }
    }
    // Fixpoint: a fn is covered if it marks itself, or it has callers and
    // every caller is covered (the hook fires on every path into it).
    let mut covered = marks.clone();
    loop {
        let mut changed = false;
        for i in 0..n {
            if !covered[i] && !callers[i].is_empty() && callers[i].iter().all(|&c| covered[c]) {
                covered[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (fi, f) in map.fns.iter().enumerate() {
        if let Some(store) = &mutates[fi] {
            if f.mut_self && !covered[fi] {
                findings.push(Finding::new(
                    path,
                    f.line,
                    Rule::DirtyMark,
                    format!(
                        "method `{}` mutates account store `{}` but neither it nor \
                         all of its callers reach `mark_dirty` (dirty-set hook 1)",
                        f.name, store
                    ),
                ));
            }
        }
    }
}

/// `dirty-accrue`: single-argument `.accrue()` calls must consume the
/// moved-bit and sit in a function that calls `note_index_change`.
pub fn check_accrue(path: &str, toks: &[Tok], map: &FileMap, findings: &mut Vec<Finding>) {
    let mut i = 1;
    while i + 1 < toks.len() {
        if toks[i].is_ident("accrue")
            && toks[i - 1].is_punct('.')
            && toks[i + 1].is_punct('(')
            && !map.in_test(i)
        {
            let open = i + 1;
            let close = matching(toks, open);
            if count_args(toks, open, close) == 1 {
                // Start of the receiver chain (`walk_left` wants the last
                // receiver token, just before the `.accrue`).
                let chain_start = walk_left(toks, i.saturating_sub(2));
                let discarded = toks.get(close + 1).is_some_and(|t| t.is_punct(';'))
                    && (chain_start == 0
                        || toks[chain_start - 1].is_punct(';')
                        || toks[chain_start - 1].is_punct('{')
                        || toks[chain_start - 1].is_punct('}'));
                if discarded {
                    findings.push(Finding::new(
                        path,
                        toks[i].line,
                        Rule::DirtyAccrue,
                        "`Market::accrue` moved-bit discarded: the call's returned \
                         index-moved flag must drive `note_index_change` (dirty-set hook 2)"
                            .to_string(),
                    ));
                } else {
                    let noted = map
                        .enclosing_fn(i)
                        .and_then(|f| f.body)
                        .is_some_and(|(bs, be)| {
                            toks[bs..=be]
                                .iter()
                                .any(|t| t.is_ident("note_index_change"))
                        });
                    if !noted {
                        findings.push(Finding::new(
                            path,
                            toks[i].line,
                            Rule::DirtyAccrue,
                            "`Market::accrue` called but the enclosing function never \
                             calls `note_index_change` (dirty-set hook 2)"
                                .to_string(),
                        ));
                    }
                }
            }
        }
        i += 1;
    }
}

/// `dirty-oracle`: price-map writes inside the oracle must bump the epoch.
///
/// Gated to files defining a struct with an `epoch` field (the epoch-carrying
/// `PriceOracle` itself): scenario generators keep their own `current` price
/// paths, but those only reach books through `set_price`, so they are not
/// contract points.
pub fn check_oracle_writes(path: &str, toks: &[Tok], map: &FileMap, findings: &mut Vec<Finding>) {
    if !map
        .structs
        .iter()
        .any(|s| s.fields.iter().any(|f| f.name == "epoch"))
    {
        return;
    }
    for f in &map.fns {
        let Some((bs, be)) = f.body else { continue };
        if map.in_test(bs) {
            continue;
        }
        let mut writes_price_map = None;
        let mut bumps_epoch = false;
        let mut i = bs;
        while i + 2 <= be {
            if (toks[i].is_ident("current") || toks[i].is_ident("token_epochs"))
                && toks[i + 1].is_punct('.')
                && toks[i + 2].is_ident("insert")
            {
                writes_price_map.get_or_insert_with(|| toks[i].text.clone());
            }
            // `self.epoch += 1` or `self.epoch = …`: ident `epoch` followed
            // by `+`/`=`.
            if toks[i].is_ident("epoch") && (toks[i + 1].is_punct('+') || toks[i + 1].is_punct('='))
            {
                bumps_epoch = true;
            }
            i += 1;
        }
        if let Some(map_name) = writes_price_map {
            if !bumps_epoch {
                findings.push(Finding::new(
                    path,
                    f.line,
                    Rule::DirtyOracle,
                    format!(
                        "method `{}` writes the oracle `{}` map without bumping the \
                         write epoch — downstream books would never see the change \
                         (dirty-set hook 3)",
                        f.name, map_name
                    ),
                ));
            }
        }
    }
}

/// Count top-level comma-separated arguments between `open` and `close`.
fn count_args(toks: &[Tok], open: usize, close: usize) -> usize {
    if close <= open + 1 {
        return 0;
    }
    let mut depth = 0i32;
    let mut args = 1;
    for t in &toks[open + 1..close] {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(',') {
            args += 1;
        }
    }
    args
}
