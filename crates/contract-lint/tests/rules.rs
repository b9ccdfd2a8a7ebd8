//! Fixture self-tests: one bad / waived / clean triple per rule family,
//! driven through `lint_file` so each rule's trigger, waiver handling and
//! negative space are pinned down independently of the real tree.

/// Unwaived rule names that fire on `src` at `path`.
fn unwaived(path: &str, src: &str) -> Vec<&'static str> {
    contract_lint::lint_file(path, src)
        .iter()
        .filter(|f| f.waived.is_none())
        .map(|f| f.rule.name())
        .collect()
}

/// Waived rule names that fire on `src` at `path`.
fn waived(path: &str, src: &str) -> Vec<&'static str> {
    contract_lint::lint_file(path, src)
        .iter()
        .filter(|f| f.waived.is_some())
        .map(|f| f.rule.name())
        .collect()
}

// ------------------------------------------------------------- dirty-mark

const BOOK_HEADER: &str = "
    pub struct Accounts {
        inner: PositionBook,
        accounts: HashMap<Address, u64>,
    }
";

#[test]
fn dirty_mark_fires_on_unmarked_store_mutation() {
    let src = format!(
        "{BOOK_HEADER}
        impl Accounts {{
            pub fn deposit(&mut self, owner: Address, amount: u64) {{
                self.accounts.insert(owner, amount);
            }}
        }}"
    );
    assert_eq!(unwaived("crates/lending/src/bad.rs", &src), ["dirty-mark"]);
}

#[test]
fn dirty_mark_sees_fx_hashed_account_stores() {
    let src = "
        pub struct Accounts {
            inner: PositionBook,
            accounts: FxHashMap<Address, u64>,
        }
        impl Accounts {
            pub fn deposit(&mut self, owner: Address, amount: u64) {
                self.accounts.insert(owner, amount);
            }
        }";
    assert_eq!(unwaived("crates/lending/src/bad.rs", src), ["dirty-mark"]);
}

#[test]
fn dirty_mark_accepts_direct_mark() {
    let src = format!(
        "{BOOK_HEADER}
        impl Accounts {{
            pub fn deposit(&mut self, owner: Address, amount: u64) {{
                self.accounts.insert(owner, amount);
                self.inner.mark_dirty(owner);
            }}
        }}"
    );
    assert!(unwaived("crates/lending/src/good.rs", &src).is_empty());
}

#[test]
fn dirty_mark_propagates_coverage_from_callers() {
    // The interior helper mutates without marking, but its only caller
    // marks — the call-graph fixpoint must accept this split.
    let src = format!(
        "{BOOK_HEADER}
        impl Accounts {{
            pub fn deposit(&mut self, owner: Address, amount: u64) {{
                self.adjust(owner, amount);
                self.inner.mark_dirty(owner);
            }}
            fn adjust(&mut self, owner: Address, amount: u64) {{
                self.accounts.insert(owner, amount);
            }}
        }}"
    );
    assert!(unwaived("crates/lending/src/good.rs", &src).is_empty());
}

#[test]
fn dirty_mark_ignores_files_without_a_book() {
    let src = "
        pub struct Plain { accounts: HashMap<Address, u64> }
        impl Plain {
            pub fn deposit(&mut self, owner: Address, amount: u64) {
                self.accounts.insert(owner, amount);
            }
        }";
    assert!(unwaived("crates/lending/src/good.rs", src).is_empty());
}

// ----------------------------------------------------------- dirty-accrue

#[test]
fn dirty_accrue_fires_on_discarded_moved_bit() {
    let src = format!(
        "{BOOK_HEADER}
        impl Accounts {{
            pub fn tick(&mut self, block: u64) {{
                self.market.accrue(block);
            }}
        }}"
    );
    assert_eq!(
        unwaived("crates/lending/src/bad.rs", &src),
        ["dirty-accrue"]
    );
}

#[test]
fn dirty_accrue_fires_when_note_index_change_is_missing() {
    let src = format!(
        "{BOOK_HEADER}
        impl Accounts {{
            pub fn tick(&mut self, block: u64) {{
                let moved = self.market.accrue(block);
                if moved {{ self.count += 1; }}
            }}
        }}"
    );
    assert_eq!(
        unwaived("crates/lending/src/bad.rs", &src),
        ["dirty-accrue"]
    );
}

#[test]
fn dirty_accrue_accepts_the_canonical_consumption() {
    let src = format!(
        "{BOOK_HEADER}
        impl Accounts {{
            pub fn tick(&mut self, block: u64) {{
                if self.market.accrue(block) {{
                    self.inner.note_index_change(Token::ETH);
                }}
            }}
        }}"
    );
    assert!(unwaived("crates/lending/src/good.rs", &src).is_empty());
}

#[test]
fn dirty_accrue_ignores_three_argument_index_accrue() {
    // `InterestRateIndex::accrue(model, util, block)` is not a contract
    // point — only the single-argument `Market::accrue` shape is.
    let src = format!(
        "{BOOK_HEADER}
        impl Accounts {{
            pub fn reindex(&mut self) {{
                self.index.accrue(model, util, block);
            }}
        }}"
    );
    assert!(unwaived("crates/lending/src/good.rs", &src).is_empty());
}

// ----------------------------------------------------------- dirty-oracle

#[test]
fn dirty_oracle_fires_on_epochless_price_write() {
    let src = "
        pub struct PriceOracle {
            current: BTreeMap<Token, Wad>,
            epoch: u64,
        }
        impl PriceOracle {
            pub fn sneak(&mut self, token: Token, price: Wad) {
                self.current.insert(token, price);
            }
        }";
    assert_eq!(unwaived("crates/oracle/src/bad.rs", src), ["dirty-oracle"]);
}

#[test]
fn dirty_oracle_accepts_epoch_bumping_write() {
    let src = "
        pub struct PriceOracle {
            current: BTreeMap<Token, Wad>,
            epoch: u64,
        }
        impl PriceOracle {
            pub fn set_price(&mut self, token: Token, price: Wad) {
                self.current.insert(token, price);
                self.epoch += 1;
            }
        }";
    assert!(unwaived("crates/oracle/src/good.rs", src).is_empty());
}

#[test]
fn dirty_oracle_skips_structs_without_an_epoch() {
    // Scenario generators keep their own `current` price paths; without an
    // `epoch` field the file is not a contract point.
    let src = "
        pub struct MarketScenario { current: BTreeMap<Token, f64> }
        impl MarketScenario {
            pub fn with_token(&mut self, token: Token, price: f64) {
                self.current.insert(token, price);
            }
        }";
    assert!(unwaived("crates/oracle/src/scenario.rs", src).is_empty());
}

// -------------------------------------------------------- fixed-raw-arith

#[test]
fn raw_arith_fires_on_bare_raw_arithmetic() {
    let src = "pub fn spread(a: Wad, b: Wad) -> u128 { a.raw() - b.raw() }";
    assert_eq!(
        unwaived("crates/lending/src/bad.rs", src),
        ["fixed-raw-arith", "fixed-raw-arith"]
    );
}

#[test]
fn raw_arith_fires_on_tuple_field_arithmetic() {
    let src = "pub fn double(w: Wad) -> u128 { w.0 * 2 }";
    assert_eq!(unwaived("src/bad.rs", src), ["fixed-raw-arith"]);
}

#[test]
fn raw_arith_allows_comparisons_and_carries() {
    let src = "
        pub fn ordered(a: Wad, b: Wad) -> bool { a.raw() < b.raw() }
        pub fn carry(a: Wad) -> u128 { a.raw() }";
    assert!(unwaived("crates/lending/src/good.rs", src).is_empty());
}

#[test]
fn raw_arith_exempts_the_types_crate() {
    let src = "pub fn add(a: Wad, b: Wad) -> u128 { a.raw() + b.raw() }";
    assert!(unwaived("crates/types/src/wad.rs", src).is_empty());
}

// ------------------------------------------------------------ fixed-float

#[test]
fn fixed_float_fires_on_valuation_layer_roundtrips() {
    let src = "
        pub fn out(w: Wad) -> f64 { w.to_f64() }
        pub fn back(x: f64) -> Wad { Wad::from_f64(x) }";
    assert_eq!(
        unwaived("crates/lending/src/bad.rs", src),
        ["fixed-float", "fixed-float"]
    );
}

#[test]
fn fixed_float_exempts_the_envelope_derivation() {
    let src = "
        pub fn derive_hf_envelope(w: Wad) -> f64 { w.to_f64() }
        ";
    assert!(unwaived("crates/lending/src/fixed_spread.rs", src).is_empty());
}

#[test]
fn fixed_float_does_not_gate_scenario_space() {
    let src = "pub fn out(w: Wad) -> f64 { w.to_f64() }";
    assert!(unwaived("crates/oracle/src/scenario.rs", src).is_empty());
}

// ------------------------------------------------------------- hot-unwrap

#[test]
fn hot_unwrap_fires_in_gated_paths() {
    let src = "pub fn head(x: Option<u32>) -> u32 { x.unwrap() }";
    assert_eq!(unwaived("crates/lending/src/bad.rs", src), ["hot-unwrap"]);
    assert_eq!(unwaived("crates/chain/src/bad.rs", src), ["hot-unwrap"]);
    assert_eq!(unwaived("crates/sim/src/engine.rs", src), ["hot-unwrap"]);
}

#[test]
fn hot_unwrap_ignores_non_hot_paths_tests_and_fallible_cousins() {
    let src = "pub fn head(x: Option<u32>) -> u32 { x.unwrap() }";
    assert!(unwaived("crates/analytics/src/report.rs", src).is_empty());

    let in_test = "
        #[cfg(test)]
        mod tests {
            fn head(x: Option<u32>) -> u32 { x.unwrap() }
        }";
    assert!(unwaived("crates/lending/src/good.rs", in_test).is_empty());

    let fallible = "pub fn head(x: Option<u32>) -> u32 { x.unwrap_or(0) }";
    assert!(unwaived("crates/lending/src/good.rs", fallible).is_empty());
}

#[test]
fn hot_unwrap_honors_inline_waivers() {
    let src = "
        pub fn head(x: Option<u32>) -> u32 {
            x.unwrap() // lint:allow(hot-unwrap) caller guarantees Some
        }";
    assert!(unwaived("crates/lending/src/good.rs", src).is_empty());
    assert_eq!(waived("crates/lending/src/good.rs", src), ["hot-unwrap"]);
}

// -------------------------------------------------------------- hot-index

#[test]
fn hot_index_fires_on_slice_indexing() {
    let src = "pub fn head(v: &[u32]) -> u32 { v[0] }";
    assert_eq!(unwaived("crates/sim/src/session.rs", src), ["hot-index"]);
}

#[test]
fn hot_index_allows_full_range_and_declarations() {
    let src = "
        pub fn all(v: &[u32]) -> &[u32] { &v[..] }
        pub fn build() -> [u32; 3] { [1, 2, 3] }";
    assert!(unwaived("crates/sim/src/session.rs", src).is_empty());
}

#[test]
fn hot_index_allows_mut_slice_types_and_let_slice_patterns() {
    let src = "
        pub fn first(shards: &mut [Shard]) -> Option<&mut Shard> { shards.first_mut() }
        pub fn only(v: Vec<u32>) -> u32 {
            let [x] = v.as_slice() else { return 0 };
            *x
        }";
    assert!(unwaived("crates/lending/src/book.rs", src).is_empty());
    let indexed = "pub fn at(v: &mut [u32], i: usize) -> u32 { let n = v[i]; n }";
    assert_eq!(
        unwaived("crates/lending/src/book.rs", indexed),
        ["hot-index"]
    );
}

// ------------------------------------------------------------- hot-hasher

#[test]
fn hot_hasher_fires_on_random_state_imports_and_constructors() {
    let src = "
        use std::collections::{BTreeMap, HashMap};
        use std::collections::HashSet;
        pub fn build() -> Accounts {
            let a = HashMap::new();
            let b = HashSet::with_capacity(8);
            let c: std::collections::HashMap<Token, u64> = Default::default();
            Accounts { a, b, c }
        }";
    let fired = ["hot-hasher"; 5];
    assert_eq!(unwaived("crates/oracle/src/oracle.rs", src), fired);
    assert_eq!(unwaived("crates/lending/src/book.rs", src), fired);
    assert_eq!(unwaived("crates/sim/src/engine.rs", src), fired);
}

#[test]
fn hot_hasher_accepts_fx_maps_tests_and_cold_paths() {
    let fx = "
        use defi_types::{FxHashMap, FxHashSet};
        use std::collections::hash_map::Entry;
        pub struct Accounts { accounts: FxHashMap<Address, u64>, seen: FxHashSet<Token> }
        pub fn build() -> Accounts {
            let v: Vec<u64> = Vec::with_capacity(4);
            Accounts { accounts: FxHashMap::default(), seen: FxHashSet::default() }
        }";
    assert!(unwaived("crates/lending/src/good.rs", fx).is_empty());

    let std_map = "
        use std::collections::HashSet;
        pub fn unique() -> HashSet<u64> { HashSet::new() }";
    assert!(unwaived("crates/sim/src/agents.rs", std_map).is_empty());
    assert!(unwaived("crates/analytics/src/report.rs", std_map).is_empty());

    let in_test = "
        #[cfg(test)]
        mod tests {
            use std::collections::HashSet;
            fn unique() -> HashSet<u64> { HashSet::new() }
        }";
    assert!(unwaived("crates/chain/src/ledger.rs", in_test).is_empty());
}

// ---------------------------------------------------------- unused-waiver

#[test]
fn stale_waivers_are_findings() {
    let src = "
        pub fn fine(x: u32) -> u32 {
            x + 1 // lint:allow(hot-unwrap) nothing fires here
        }";
    assert_eq!(
        unwaived("crates/lending/src/bad.rs", src),
        ["unused-waiver"]
    );
}

#[test]
fn reasonless_waivers_do_not_suppress() {
    let src = "
        pub fn head(x: Option<u32>) -> u32 {
            x.unwrap() // lint:allow(hot-unwrap)
        }";
    let fired = unwaived("crates/lending/src/bad.rs", src);
    assert!(fired.contains(&"hot-unwrap"), "finding must stay live");
    assert!(
        fired.contains(&"unused-waiver"),
        "directive must be rejected"
    );
}

#[test]
fn whole_line_waivers_target_the_next_code_line() {
    let src = "
        pub fn head(x: Option<u32>) -> u32 {
            // lint:allow(hot-unwrap) caller guarantees Some
            x.unwrap()
        }";
    assert!(unwaived("crates/lending/src/good.rs", src).is_empty());
    assert_eq!(waived("crates/lending/src/good.rs", src), ["hot-unwrap"]);
}
