//! Durable engine state: versioned snapshots, a tick journal, and
//! crash recovery.
//!
//! BlameIt's value lives in *learned* state — 14-day expected-RTT
//! medians, per-path baselines, incident-duration histories — and a
//! restart that discards it reverts every verdict to
//! `no_baseline`/`insufficient` for days. This module makes the engine
//! survive crashes mid-tick:
//!
//! * [`fs`] — the filesystem seam: every file call below goes through
//!   an [`fs::Fs`] — [`fs::StdFs`], the real one, by default. Its
//!   double [`fs::FaultFs`] counts calls and is the crash harness:
//!   [`fs::Fault::crash`] maps each kill point to the call it
//!   interrupts (`mid-journal` tears the journal write, `post-journal`
//!   dies once the journal's `sync_data` returns, `pre-snapshot` dies
//!   at the snapshot temp file's create, `mid-snapshot-write` tears
//!   that create), and a killed `FaultFs` refuses every later call.
//! * [`codec`] — hand-rolled, versioned, CRC-per-section byte framing.
//!   Any bit flip past the 7-byte preamble fails a CRC; preamble flips
//!   fail a value check. Decoding never panics on garbage. Every
//!   persisted type states its layout once, as a [`codec::Codec`] impl
//!   whose `MIN_BYTES` budgets every count read for it.
//! * [`snapshot`] — serializes every field of [`BlameItEngine`] that
//!   influences future ticks (learners, baselines, scheduler clocks,
//!   incident/episode state, RNG positions). Metrics are write-only
//!   and deliberately excluded.
//! * [`log`] — the one append-only file type: codec sections behind
//!   the preamble, with the only valid-prefix scan, torn-tail
//!   truncation, atomic create and seal-aside. The journal and each
//!   segment of the daemon's ingest WAL are thin typed users of it.
//! * [`journal`] — an fsync'd log record per completed tick (tick
//!   index, start bucket, output digest). Recovery = newest valid
//!   snapshot + deterministic replay of the journaled ticks through
//!   the seeded engine, verifying each digest.
//! * [`store`] — snapshot files, last-N retention, `wipe`, and the
//!   `fsck` invariant checker over snapshots and both logs.
//! * [`durable`] — [`DurableEngine`], the durable-tick protocol:
//!   engine tick, journal append, snapshot when due. It carries no
//!   harness; a crash is something its filesystem does.
//!
//! The durability contract leans entirely on the engine's
//! byte-determinism: state + seed + backend fully determine every
//! future tick, so a journal replay reproduces the pre-crash run
//! byte-for-byte (`tests/crash_recovery.rs` proves it for every kill
//! point × seeds × thread counts).
//!
//! [`BlameItEngine`]: crate::pipeline::BlameItEngine
//! [`DurableEngine`]: durable::DurableEngine

pub mod codec;
pub mod durable;
pub mod fs;
pub mod journal;
pub mod log;
pub mod snapshot;
pub mod store;

pub use self::fs::{Fault, FaultFs, Fs, StdFs};
pub use codec::CodecError;
pub use durable::{DurableEngine, PersistMetrics, RecoveryReport, StartMode};
pub use journal::{tick_digest, Journal, JournalRecord};
pub use snapshot::{SnapshotCounters, SnapshotState};
pub use store::{fsck, FsckReport, StateStore};

/// Why a persistence operation failed.
#[derive(Debug)]
pub enum PersistError {
    /// The configuration has no `state_dir`.
    NoStateDir,
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A snapshot or journal failed to decode.
    Codec(CodecError),
    /// The on-disk state was produced under a different identity
    /// (seed / tick width) than the engine trying to load it.
    ConfigMismatch(String),
    /// A replayed tick's digest did not match its journal record —
    /// the backend or engine is not the one that produced the journal.
    ReplayDivergence {
        /// The diverging tick index.
        tick: u64,
        /// Digest the journal recorded.
        expected: u64,
        /// Digest the replay produced.
        got: u64,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::NoStateDir => write!(f, "no state_dir configured"),
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Codec(e) => write!(f, "decode error: {e}"),
            PersistError::ConfigMismatch(what) => write!(f, "config mismatch: {what}"),
            PersistError::ReplayDivergence {
                tick,
                expected,
                got,
            } => write!(
                f,
                "replay diverged at tick {tick}: journal digest {expected:016x}, replay {got:016x}"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Codec(e)
    }
}

impl From<PersistError> for std::io::Error {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}
