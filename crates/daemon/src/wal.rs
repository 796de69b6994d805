//! The crash-safe ingest write-ahead log.
//!
//! The engine's journal makes *ticks* durable; this WAL makes the
//! *not-yet-ticked queue* durable. Every admitted batch is appended
//! and fsync'd **before** it becomes engine-visible, so a hard kill
//! between admission and the covering snapshot loses nothing: on
//! restart the WAL refills the queue first, then
//! [`DurableEngine::open`](blameit::DurableEngine::open) replays
//! journaled ticks *through* the refilled queue — which is what makes
//! the resumed run byte-identical to one that never crashed.
//!
//! The file is a [`blameit::persist::log`] like the tick journal: one
//! section per admitted batch, whose payload is the batch's columns
//! ([`RecordBatch::encode_columns`], the wire `BATCH` body) under the
//! section's one CRC. Scan, torn-tail truncation and the atomic
//! compaction rewrite are the log's; this module only says what a
//! section holds.

use blameit::persist::codec::{write_section_with, KIND_INGEST_WAL};
use blameit::persist::log::{wal_batch, Log, WAL_SEC_BATCH};
use blameit::RecordBatch;
use std::io;
use std::path::Path;

/// What [`IngestWal::open`] found on disk.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Batches recovered, in append order.
    pub batches: Vec<RecordBatch>,
    /// A torn trailing record was found and discarded.
    pub torn_tail: bool,
}

/// An append-only, fsync'd log of admitted ingest batches.
pub struct IngestWal {
    log: Log,
}

impl IngestWal {
    /// Opens (creating if absent) the WAL at `path` and replays any
    /// existing contents. Anything past the last decodable batch is the
    /// append that was racing the kill — the WAL's only writer appends
    /// whole sections — and is truncated away so subsequent appends
    /// start at a valid boundary.
    pub fn open(path: &Path) -> io::Result<(IngestWal, WalRecovery)> {
        let mut batches = Vec::new();
        let (log, scan) = Log::open(
            path,
            KIND_INGEST_WAL,
            |_| {},
            |id, payload| wal_batch(id, payload).map(|b| batches.push(b)).is_some(),
        )?;
        let torn_tail = scan.trailing_bytes > 0;
        Ok((IngestWal { log }, WalRecovery { batches, torn_tail }))
    }

    /// Appends one admitted batch and fsyncs. Only after this returns
    /// may the batch become engine-visible.
    pub fn append(&mut self, batch: &RecordBatch) -> io::Result<()> {
        self.log.append(WAL_SEC_BATCH, |w| batch.encode_columns(w))
    }

    /// Rewrites the WAL to hold exactly `retained` (batches whose
    /// buckets a durable snapshot does not yet cover). A kill
    /// mid-compaction leaves the old WAL intact.
    pub fn compact(&mut self, retained: &[RecordBatch]) -> io::Result<()> {
        self.log.rewrite(|w| {
            for batch in retained {
                write_section_with(w, WAL_SEC_BATCH, |w| batch.encode_columns(w));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blameit_simnet::TimeBucket;
    use std::path::PathBuf;

    fn batch(bucket: u32, n: u64) -> RecordBatch {
        RecordBatch {
            bucket: TimeBucket(bucket),
            keys: (0..n).collect(),
            rtt: (0..n).map(|i| 10.0 + i as f64).collect(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("blameitd-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn reopen_recovers_in_order_and_compaction_keeps_exactly_retained() {
        let path = tmp("roundtrip");
        let (mut wal, rec) = IngestWal::open(&path).unwrap();
        assert!(rec.batches.is_empty());
        for b in 0..6 {
            wal.append(&batch(b, 4)).unwrap();
        }
        let (mut wal, rec) = IngestWal::open(&path).unwrap();
        assert_eq!(rec.batches, (0..6).map(|b| batch(b, 4)).collect::<Vec<_>>());
        assert!(!rec.torn_tail);
        wal.compact(&[batch(4, 4), batch(5, 4)]).unwrap();
        wal.append(&batch(6, 1)).unwrap();
        let (_, rec) = IngestWal::open(&path).unwrap();
        assert_eq!(rec.batches, vec![batch(4, 4), batch(5, 4), batch(6, 1)]);
        assert!(!rec.torn_tail);
        let _ = std::fs::remove_file(&path);
    }
}
