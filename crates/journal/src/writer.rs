//! The capture side: a [`JournalWriter`] is a [`SimObserver`] that streams
//! every observation into the append-only journal file.
//!
//! Compose it with other observers through
//! [`MultiObserver`](defi_sim::MultiObserver) — `repro --journal` runs the
//! `StudyCollector` and the writer side by side, so the journal records
//! exactly the stream the collector consumed.
//!
//! Observer hooks cannot return errors, so I/O failures are *deferred*: the
//! first failure is remembered, subsequent frames are dropped, and
//! [`JournalWriter::finish`] surfaces the stored error instead of writing the
//! end-of-journal trailer. A journal is only complete once `finish`
//! returns `Ok`.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use defi_chain::LoggedEvent;
use defi_sim::{LiquidationObservation, RunEnd, RunStart, SimObserver, TickStart, VolumeSample};

use crate::codec::{crc32_finish, crc32_init, crc32_update, Encoder};
use crate::error::JournalError;
use crate::frames::{
    encode_frame_into, put_end_frame_parts, put_logged_event, Frame, HeaderFrame,
    LiquidationMetaFrame, TickFrame, MAGIC, TAG_END, TAG_EVENT, VERSION,
};

/// Streams simulation observations into a journal file.
pub struct JournalWriter {
    out: BufWriter<File>,
    path: PathBuf,
    frames: u64,
    /// Recycled payload buffer — one allocation for the whole run.
    scratch: Vec<u8>,
    error: Option<JournalError>,
    finished: bool,
}

impl JournalWriter {
    /// Create (truncating) the journal at `path` and write the file header.
    pub fn create(path: &Path) -> Result<JournalWriter, JournalError> {
        let file = File::create(path).map_err(|source| JournalError::Io {
            path: path.to_path_buf(),
            context: "create journal",
            source,
        })?;
        let mut out = BufWriter::with_capacity(1 << 16, file);
        let mut preamble = Vec::with_capacity(6);
        preamble.extend_from_slice(&MAGIC);
        preamble.extend_from_slice(&VERSION.to_le_bytes());
        out.write_all(&preamble)
            .map_err(|source| JournalError::Io {
                path: path.to_path_buf(),
                context: "write journal header",
                source,
            })?;
        Ok(JournalWriter {
            out,
            path: path.to_path_buf(),
            frames: 0,
            scratch: Vec::new(),
            error: None,
            finished: false,
        })
    }

    /// Body frames emitted so far.
    pub fn frames_written(&self) -> u64 {
        self.frames
    }

    /// Encode and append one frame; on I/O failure, store the error and
    /// drop every later frame (surfaced by [`JournalWriter::finish`]).
    fn emit(&mut self, frame: &Frame) {
        if self.error.is_some() {
            return;
        }
        let (tag, payload) = encode_frame_into(frame, std::mem::take(&mut self.scratch));
        self.append(tag, payload);
    }

    /// Append one already-encoded payload as a `tag · len · payload · crc`
    /// frame. The CRC streams over envelope and payload, so nothing is
    /// copied; the payload buffer is recycled as the next frame's scratch.
    fn append(&mut self, tag: u8, payload: Vec<u8>) {
        let mut head = [0u8; 5];
        head[0] = tag;
        head[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = crc32_finish(crc32_update(crc32_update(crc32_init(), &head), &payload));
        let result = self
            .out
            .write_all(&head)
            .and_then(|()| self.out.write_all(&payload))
            .and_then(|()| self.out.write_all(&crc.to_le_bytes()));
        self.scratch = payload;
        if let Err(source) = result {
            self.error = Some(JournalError::Io {
                path: self.path.clone(),
                context: "append journal frame",
                source,
            });
            return;
        }
        self.frames += 1;
    }

    /// Write the end-of-journal trailer, flush, and surface any deferred
    /// write error. Must be called after the run; a journal without a clean
    /// `finish` reads back as [`JournalError::Truncated`].
    pub fn finish(mut self) -> Result<(), JournalError> {
        self.finished = true;
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        let trailer = Frame::Eof {
            frame_count: self.frames,
        };
        self.emit(&trailer);
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        self.out.flush().map_err(|source| JournalError::Io {
            path: self.path.clone(),
            context: "flush journal",
            source,
        })
    }
}

impl std::fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalWriter")
            .field("path", &self.path)
            .field("frames", &self.frames)
            .field("failed", &self.error.is_some())
            .finish()
    }
}

impl SimObserver for JournalWriter {
    fn on_run_start(&mut self, run: &RunStart<'_>) {
        let header = HeaderFrame {
            config: run.config.clone(),
            time_map: run.time_map,
            market_spreads: run.market_spreads.clone(),
        };
        self.emit(&Frame::Header(Box::new(header)));
    }

    fn on_tick_start(&mut self, tick: &TickStart) {
        self.emit(&Frame::Tick(TickFrame {
            block: tick.block,
            tick_index: tick.tick_index,
        }));
    }

    fn on_event(&mut self, logged: &LoggedEvent) {
        if self.error.is_some() {
            return;
        }
        // Borrowed encode: events are the bulk of the stream, so skip the
        // owned `Frame::Event` detour the generic `emit` would need.
        let mut enc = Encoder::with_buffer(std::mem::take(&mut self.scratch));
        put_logged_event(&mut enc, logged);
        self.append(TAG_EVENT, enc.into_bytes());
    }

    fn on_liquidation(&mut self, liquidation: &LiquidationObservation<'_>) {
        // The settlement event itself was just journaled by `on_event` (the
        // engine fires `on_liquidation` right after it); this frame carries
        // only the observation's extra context and binds to the preceding
        // event frame by position.
        self.emit(&Frame::LiquidationMeta(LiquidationMetaFrame {
            eth_price: liquidation.eth_price,
            health_factor_before: liquidation.health_factor_before,
        }));
    }

    fn on_volume_sample(&mut self, sample: &VolumeSample) {
        self.emit(&Frame::Volume(*sample));
    }

    fn on_run_end(&mut self, end: &RunEnd<'_>) {
        if self.error.is_some() {
            return;
        }
        // Borrowed encode: the end frame carries every final position, block
        // header and oracle write — encoding straight from the run's own
        // state avoids deep-cloning it all into an `EndFrame` first. The
        // oracle history is journaled per token in sorted token order;
        // replaying those writes through a fresh every-update oracle
        // reproduces the original's current prices, `price_at` lookups and
        // `history` slices.
        let tokens = end.market_oracle.tokens();
        let mut enc = Encoder::with_buffer(std::mem::take(&mut self.scratch));
        put_end_frame_parts(
            &mut enc,
            end.snapshot_block,
            end.final_positions,
            end.chain.headers(),
            tokens
                .iter()
                .map(|&token| (token, end.market_oracle.history(token))),
        );
        self.append(TAG_END, enc.into_bytes());
    }
}
