//! Append-only run journal and deterministic replay.
//!
//! The paper measures liquidation risk from a *recorded* stream of on-chain
//! events; this crate gives the simulator the same production shape:
//!
//! * [`JournalWriter`] — a [`SimObserver`](defi_sim::SimObserver) that
//!   streams every observation (run context, ticks, chain events,
//!   liquidation metadata, volume samples, end state) into a versioned,
//!   CRC-framed binary file ([`frames`] documents the format).
//! * [`JournalReader`] — validates a journal and re-drives any observer with
//!   the recorded stream, reconstructing the `on_run_end` context
//!   (chain archive + oracle history) so the full analytics
//!   `StudyCollector` pipeline runs offline and renders byte-identical
//!   artefacts.
//!
//! Everything is hand-rolled on `std` — no crates.io dependencies — and the
//! reader treats file contents as untrusted input: every failure is a typed
//! [`JournalError`], never a panic.

#![forbid(unsafe_code)]

pub mod codec;
pub mod error;
pub mod frames;
pub mod reader;
pub mod writer;

pub use codec::{crc32, CodecError, Decoder, Encoder};
pub use error::JournalError;
pub use frames::{EndFrame, Frame, HeaderFrame, LiquidationMetaFrame, TickFrame, MAGIC, VERSION};
pub use reader::JournalReader;
pub use writer::JournalWriter;
