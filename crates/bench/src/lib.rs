//! # defi-bench
//!
//! The reproduction harness. Two entry points:
//!
//! * the **`repro` binary** (`cargo run --release -p defi-bench --bin repro`)
//!   runs the two-year simulation, pipes it through `defi-analytics`, and
//!   prints every table and figure series of the paper's evaluation
//!   (`repro all`, or a single artefact such as `repro table1` / `repro fig8`);
//! * the **Criterion benches** (`cargo bench -p defi-bench`) measure the
//!   computational kernels behind each experiment (Algorithm 1 sweeps,
//!   Algorithm 2 closed forms, liquidation calls, auction rounds, the
//!   analytics pipeline) on fixed-size inputs.
//!
//! [`artefacts`] is the one list of the study's artefacts (CLI names,
//! renderer, JSON encoder) that `repro` and the tests share.
//!
//! The [`case_study`] module reconstructs the §5.2.2 position (Table 5) and
//! replays the three liquidation strategies against the Compound
//! implementation (Table 6), which is the simulation-substrate equivalent of
//! the authors' mainnet-fork validation.

#![forbid(unsafe_code)]

pub mod artefacts;
pub mod case_study;
pub mod json;
pub mod render;

pub use case_study::{CaseStudy, StrategyRow, Table5, Table6};
