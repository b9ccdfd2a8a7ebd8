//! # defi-bench
//!
//! The reproduction harness. The **`repro` binary** (`cargo run --release
//! -p defi-bench --bin repro`) runs the two-year simulation, pipes it through
//! `defi-analytics`, and prints every table and figure series of the paper's
//! evaluation (`repro all`, or a single artefact such as `repro table1` /
//! `repro fig8`). End-to-end timing lives in the separate `perfbench`
//! package; the book-scale regression guards are
//! `crates/lending/tests/book_scale.rs`.
//!
//! The **`abba` binary** compares two perfbench builds in ABBA order (see
//! [`abba`]).
//!
//! [`artefacts`] is the one list of the study's artefacts (CLI names,
//! renderer, JSON encoder) that `repro` and the tests share.
//!
//! The [`case_study`] module reconstructs the §5.2.2 position (Table 5) and
//! replays the three liquidation strategies against the Compound
//! implementation (Table 6), which is the simulation-substrate equivalent of
//! the authors' mainnet-fork validation.

#![forbid(unsafe_code)]

pub mod abba;
pub mod artefacts;
pub mod case_study;
pub mod json;
pub mod render;

pub use case_study::{CaseStudy, StrategyRow, Table5, Table6};
