//! The append-only tick journal: a [`super::log`] holding one seed
//! section, then one section per completed tick.
//!
//! ```text
//! section 1 (first)   seed(8)                          engine identity
//! section 2 (rest)    tick(8) · bucket(4) · digest(8)   one per tick
//! ```
//!
//! Appends are fsync'd before the tick's output is considered durable,
//! so after any crash the journal names exactly the ticks whose effects
//! must be replayed on top of the last snapshot; a torn final record is
//! truncated away on recovery and the tick it described simply re-runs.
//! Framing, scan and truncation are the log's. The journal's own rule:
//! record `i` carries tick index `i` (the journal is reset together with
//! the post-warmup snapshot), and trust ends at the first record that
//! breaks the sequence.

use super::codec::{
    codec_struct, decode_exact, write_section_with, Codec, CodecError, KIND_JOURNAL,
};
use super::log::{self, Log, LogScan, Tail, JOURNAL_FILE};
use super::PersistError;
use crate::pipeline::TickOutput;
use crate::report::render_tick_transcript;
use blameit_simnet::TimeBucket;
use std::path::{Path, PathBuf};

const SEC_SEED: u8 = 1;
const SEC_TICK: u8 = 2;

/// One journal record: a completed tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// Zero-based tick index since the post-warmup checkpoint.
    pub tick: u64,
    /// The tick's start bucket — replay calls `tick(backend, bucket)`.
    pub bucket: TimeBucket,
    /// FNV-1a 64 digest of the tick's rendered transcript.
    pub digest: u64,
}

codec_struct!(JournalRecord {
    tick: u64,
    bucket: TimeBucket,
    digest: u64,
});

/// FNV-1a 64-bit hash.
pub(super) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The digest journaled for a tick: a hash of its canonical transcript
/// rendering, so replay verification checks the *entire* observable
/// output, not a summary of it. Renders afresh — the durable tick
/// hashes the copy its flight frame holds; tests compare the two.
// lint:allow(transitive-effect): transcript rendering unwraps fmt::Write into a String, which is infallible
pub fn tick_digest(out: &TickOutput) -> u64 {
    fnv1a64(render_tick_transcript(std::slice::from_ref(out)).as_bytes())
}

/// The journal's path inside `dir`.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

/// Result of scanning a journal file.
#[derive(Debug)]
pub struct JournalScan {
    /// Seed from the first section.
    pub seed: u64,
    /// Every valid record, in order (record `i` has tick `i`).
    pub records: Vec<JournalRecord>,
    /// File length covered by the preamble, the seed and valid records.
    pub valid_len: u64,
    /// Bytes past `valid_len` — a torn final record (crash residue) or
    /// deeper corruption; zero for a clean journal.
    pub trailing_bytes: u64,
    /// Which of the two those trailing bytes are.
    pub tail: Tail,
}

/// The journal's trust rule, fed section by section by the log scan.
#[derive(Default)]
struct Reader {
    seed: Option<u64>,
    records: Vec<JournalRecord>,
}

impl Reader {
    fn accept(&mut self, id: u8, payload: &[u8]) -> bool {
        match (id, self.seed) {
            (SEC_SEED, None) => {
                self.seed = decode_exact(payload).ok();
                self.seed.is_some()
            }
            (SEC_TICK, Some(_)) => match decode_exact::<JournalRecord>(payload) {
                Ok(rec) if rec.tick == self.records.len() as u64 => {
                    self.records.push(rec);
                    true
                }
                // Undecodable or out-of-sequence tick: trust ends here.
                _ => false,
            },
            _ => false,
        }
    }

    fn finish(self, scan: LogScan) -> Result<JournalScan, PersistError> {
        Ok(JournalScan {
            seed: self
                .seed
                .ok_or(CodecError::Invalid("journal has no seed section"))?,
            records: self.records,
            valid_len: scan.valid_len,
            trailing_bytes: scan.trailing_bytes,
            tail: scan.tail,
        })
    }
}

/// Scans the journal in `dir` without touching it. Returns `Ok(None)`
/// when no journal file exists; errors only on a file that is not a
/// journal at all (bad preamble, no seed). Record-level damage is
/// reported via `trailing_bytes`, never an error — the valid prefix is
/// still useful.
pub fn scan(dir: &Path) -> Result<Option<JournalScan>, PersistError> {
    let mut reader = Reader::default();
    log::scan_file(&journal_path(dir), KIND_JOURNAL, |id, p| {
        reader.accept(id, p)
    })?
    .map(|scan| reader.finish(scan))
    .transpose()
}

/// An open journal, appending fsync'd records.
#[derive(Debug)]
pub struct Journal {
    log: Log,
    seed: u64,
}

impl Journal {
    /// Opens the journal in `dir` (creating it when absent), drops a
    /// torn tail, and returns what it held. An existing journal must
    /// carry the same seed — replaying another seed's records would
    /// silently diverge.
    pub fn open(dir: &Path, seed: u64) -> Result<(Journal, JournalScan), PersistError> {
        let mut reader = Reader::default();
        let (log, scan) = Log::open(
            &journal_path(dir),
            KIND_JOURNAL,
            |w| write_section_with(w, SEC_SEED, |w| seed.put(w)),
            |id, p| reader.accept(id, p),
        )?;
        let scan = reader.finish(scan)?;
        if scan.seed != seed {
            return Err(PersistError::ConfigMismatch(format!(
                "journal seed {:#x} != engine seed {seed:#x}",
                scan.seed
            )));
        }
        Ok((Journal { log, seed }, scan))
    }

    /// Empties the journal back to its seed section (called with the
    /// post-warmup checkpoint: tick indices restart at zero).
    pub fn reset(&mut self) -> std::io::Result<()> {
        let seed = self.seed;
        self.log
            .rewrite(|w| write_section_with(w, SEC_SEED, |w| seed.put(w)))
    }

    /// Appends one record and fsyncs — on return the tick is durable.
    pub fn append(&mut self, rec: &JournalRecord) -> std::io::Result<()> {
        self.log.append(SEC_TICK, |w| rec.put(w)).map(drop)
    }

    /// Appends only a prefix of the record — the kill-point harness's
    /// torn write (see [`Log::append_torn`]).
    pub fn append_torn(&mut self, rec: &JournalRecord, fraction: f64) -> std::io::Result<()> {
        self.log.append_torn(SEC_TICK, |w| rec.put(w), fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("blameit-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rec(tick: u64) -> JournalRecord {
        JournalRecord {
            tick,
            bucket: TimeBucket(100 + tick as u32 * 3),
            digest: 0xD15C_0000 + tick,
        }
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let (mut j, found) = Journal::open(&dir, 7).unwrap();
        assert!(found.records.is_empty());
        for t in 0..5 {
            j.append(&rec(t)).unwrap();
        }
        let scan = scan(&dir).unwrap().unwrap();
        assert_eq!(scan.seed, 7);
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.records[3], rec(3));
        assert_eq!((scan.trailing_bytes, scan.tail), (0, Tail::Clean));
        // Reopen and keep appending.
        drop(j);
        let (mut j, found) = Journal::open(&dir, 7).unwrap();
        assert_eq!(found.records.len(), 5);
        j.append(&rec(5)).unwrap();
        assert_eq!(super::scan(&dir).unwrap().unwrap().records.len(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tick_sequence_break_ends_trust() {
        let dir = tmp_dir("sequence");
        let (mut j, _) = Journal::open(&dir, 7).unwrap();
        j.append(&rec(0)).unwrap();
        j.append(&rec(1)).unwrap();
        // CRC-valid, but record 2 claims tick 3.
        j.append(&rec(3)).unwrap();
        j.append(&rec(4)).unwrap();
        drop(j);
        let s = scan(&dir).unwrap().unwrap();
        assert_eq!(s.records.len(), 2, "trust ends at the out-of-sequence tick");
        assert_eq!(s.tail, Tail::Corrupt);
        // Opening drops the untrusted suffix; the sequence continues.
        let (mut j, found) = Journal::open(&dir, 7).unwrap();
        assert_eq!(found.records.len(), 2);
        j.append(&rec(2)).unwrap();
        let s = scan(&dir).unwrap().unwrap();
        assert_eq!((s.records.len(), s.tail), (3, Tail::Clean));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seed_mismatch_refused() {
        let dir = tmp_dir("seed");
        let (mut j, _) = Journal::open(&dir, 7).unwrap();
        j.append(&rec(0)).unwrap();
        let err = Journal::open(&dir, 8).unwrap_err();
        assert!(matches!(err, PersistError::ConfigMismatch(_)), "{err}");
        // Reset keeps the seed and drops the records.
        j.reset().unwrap();
        let s = scan(&dir).unwrap().unwrap();
        assert_eq!((s.seed, s.records.len()), (7, 0));
        j.append(&rec(0)).unwrap();
        assert_eq!(scan(&dir).unwrap().unwrap().records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_is_none_and_a_seedless_log_is_refused() {
        let dir = tmp_dir("missing");
        assert!(scan(&dir).unwrap().is_none());
        // A journal-kind log with no seed section is not a journal.
        Log::open(&journal_path(&dir), KIND_JOURNAL, |_| {}, |_, _| true).unwrap();
        assert!(scan(&dir).is_err());
        assert!(Journal::open(&dir, 7).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
