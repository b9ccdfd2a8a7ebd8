//! Rule family 3: hot-path panic-freedom.
//!
//! The tick loop must not panic: a poisoned liquidation pass corrupts every
//! downstream measurement, and at production scale a panic is an outage.
//! Inside the gated hot paths (`crates/lending`, `crates/chain`, the engine
//! and session loops) non-test code must not:
//!
//! * **`hot-unwrap`** — call `.unwrap()` / `.expect(…)`; fallible lookups
//!   must flow into `ProtocolError` / `SimError` or carry a
//!   `lint:allow(hot-unwrap)` waiver stating the invariant that makes the
//!   `None`/`Err` arm unreachable;
//! * **`hot-index`** — index slices/maps with `[…]` (a panicking API);
//!   `get`/`get_mut` with an error path is the default, `[..]` full-range
//!   slicing is exempt (it cannot fail), and justified residue (e.g. an
//!   index produced by `gen_range(0..len)`) carries a waiver.

use crate::lexer::{Tok, TokKind};
use crate::scan::{matching, FileMap};
use crate::{Finding, Rule};

/// `hot-unwrap`: no `.unwrap()` / `.expect()` in gated non-test code.
pub fn check_unwrap(path: &str, toks: &[Tok], map: &FileMap, findings: &mut Vec<Finding>) {
    for i in 1..toks.len() {
        if (toks[i].is_ident("unwrap") || toks[i].is_ident("expect"))
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && !map.in_test(i)
        {
            findings.push(Finding::new(
                path,
                toks[i].line,
                Rule::HotUnwrap,
                format!(
                    "`.{}()` in a gated hot path — convert to a typed \
                     `ProtocolError`/`SimError` path or waive with the \
                     invariant that makes this unreachable",
                    toks[i].text
                ),
            ));
        }
    }
}

/// `hot-index`: no panicking `[…]` indexing in gated non-test code.
pub fn check_index(path: &str, toks: &[Tok], map: &FileMap, findings: &mut Vec<Finding>) {
    for i in 1..toks.len() {
        if !toks[i].is_punct('[') || map.in_test(i) {
            continue;
        }
        // Postfix position only: indexing follows a value. Everything else
        // (`#[attr]`, `vec![…]`, array literals/types after `=`, `(`, `,`,
        // `:`…) is not an index expression.
        let prev = &toks[i - 1];
        let is_postfix = prev.kind == TokKind::Ident && !is_keyword_before_literal(prev)
            || prev.is_punct(')')
            || prev.is_punct(']');
        if !is_postfix {
            continue;
        }
        let close = matching(toks, i);
        // `[..]` can't fail; `[a..]`, `[..b]`, `[a..b]` can.
        let inner: Vec<&Tok> = toks[i + 1..close].iter().collect();
        if inner.len() == 2 && inner[0].is_punct('.') && inner[1].is_punct('.') {
            continue;
        }
        findings.push(Finding::new(
            path,
            toks[i].line,
            Rule::HotIndex,
            "panicking `[…]` index in a gated hot path — use `get`/`get_mut` \
             with an error path, or waive with the invariant that bounds the \
             index"
                .to_string(),
        ));
    }
}

/// Keywords that can directly precede a `[` without forming an index
/// expression (`return [a, b]`, `in [x, y]`, `break [..]`, the slice type
/// in `&mut [T]`, the slice pattern in `let [a] = …`).
fn is_keyword_before_literal(t: &Tok) -> bool {
    [
        "return", "in", "break", "else", "match", "if", "while", "loop", "move", "as", "mut", "let",
    ]
    .contains(&t.text.as_str())
}
