//! Typed, actionable journal errors: every variant carries the file path and
//! enough detail to say *what* to do about it, and I/O failures keep their
//! source chained for `--json`-style reporting.

use std::error::Error;
use std::fmt;
use std::io;
use std::path::PathBuf;

/// Why a journal could not be written, opened or replayed.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io {
        /// File the operation targeted.
        path: PathBuf,
        /// What the journal layer was doing ("create journal", "flush
        /// journal", "read journal").
        context: &'static str,
        /// The operating-system error.
        source: io::Error,
    },
    /// The file does not start with the `DJRN` magic — not a journal.
    BadMagic {
        /// File that was opened.
        path: PathBuf,
    },
    /// The journal was written by an incompatible format version.
    UnsupportedVersion {
        /// File that was opened.
        path: PathBuf,
        /// Version recorded in the file header.
        found: u16,
        /// Highest version this reader understands.
        supported: u16,
    },
    /// A frame failed its CRC, decoded to garbage, or the frame sequence
    /// violates the format's structural rules.
    Corrupt {
        /// File that was opened.
        path: PathBuf,
        /// Byte offset of the offending frame.
        offset: u64,
        /// What exactly was wrong.
        detail: String,
    },
    /// The file ends mid-frame or without the end-of-journal trailer —
    /// typically a run that crashed before
    /// [`JournalWriter::finish`](crate::JournalWriter::finish).
    Truncated {
        /// File that was opened.
        path: PathBuf,
        /// Byte offset where the data ran out.
        offset: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io {
                path,
                context,
                source,
            } => {
                write!(f, "{context} {}: {source}", path.display())
            }
            JournalError::BadMagic { path } => {
                write!(
                    f,
                    "{}: not a journal file (missing DJRN magic)",
                    path.display()
                )
            }
            JournalError::UnsupportedVersion {
                path,
                found,
                supported,
            } => {
                write!(
                    f,
                    "{}: journal format v{found} is newer than the supported v{supported} — \
                     re-record the run with this build",
                    path.display()
                )
            }
            JournalError::Corrupt {
                path,
                offset,
                detail,
            } => {
                write!(
                    f,
                    "{}: corrupt frame at byte {offset}: {detail}",
                    path.display()
                )
            }
            JournalError::Truncated { path, offset } => {
                write!(
                    f,
                    "{}: truncated at byte {offset} (run did not finish cleanly; \
                     re-record with --journal)",
                    path.display()
                )
            }
        }
    }
}

impl Error for JournalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
