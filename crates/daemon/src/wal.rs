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
//! On disk the WAL is a short sequence of [`blameit::persist::log`]
//! files: `ingest.wal`, the *active* segment every append goes to, and
//! zero or more *sealed* segments beside it
//! ([`segment_path`]). Each holds one section per admitted batch under
//! the section's one CRC: an append writes the key-run layout (id 2,
//! [`KeyRuns`]), and replay also reads the column layout the previous
//! build wrote (id 1; [`wal_batch`] reads both). The previous build
//! reads no id 2 and truncates an active segment at the first one, so
//! `TERM` this build before going back to it: that retires the whole
//! WAL. At a snapshot tick
//! [`IngestWal::rotate`] seals the active segment (a rename, no bytes
//! copied) and unlinks the sealed segments a durable snapshot has made
//! redundant. So the WAL recovers a **superset** of what the queue
//! retains, in append order — the surplus is whole old buckets no tick
//! reads again, and the queue's next prune drops them.
//!
//! Scan, torn-tail truncation, the atomic create and the seal are the
//! log's; this module says what a section holds and which segments are
//! still needed. Only the active segment is ever appended to, so only
//! it may end in a torn record; a damaged sealed segment fails the open.

use blameit::persist::codec::{Codec, KeyRuns, KIND_INGEST_WAL};
use blameit::persist::fs::{Fs, StdFs};
use blameit::persist::log::{
    list_segments, scan_file, segment_path, wal_batch, Log, Tail, WAL_SEC_RUNS,
};
use blameit::RecordBatch;
use blameit_obs::Counter;
use blameit_simnet::TimeBucket;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io;
use std::path::Path;

/// What [`IngestWal::open`] found on disk.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Batches recovered, in append order (sealed segments oldest
    /// first, then the active one).
    pub batches: Vec<RecordBatch>,
    /// A torn trailing record was found and discarded.
    pub torn_tail: bool,
    /// Bytes read: every segment's whole file, the active one included.
    pub bytes: u64,
}

/// An append-only, fsync'd, segmented log of admitted ingest batches.
pub struct IngestWal<F: Fs = StdFs> {
    /// The active segment; sealed segments are siblings of its path.
    log: Log<F>,
    /// Highest bucket in the active segment; `None` while it is empty.
    active_max: Option<u32>,
    /// Sealed segments on disk, oldest first, as `(seq, highest
    /// bucket)` — `None` for a segment with no batches.
    sealed: VecDeque<(u64, Option<u32>)>,
}

/// The replay half of the WAL's trust rule: a trusted section is a
/// batch, and it is pushed onto `batches`.
fn replay_into(batches: &mut Vec<RecordBatch>) -> impl FnMut(u8, &[u8]) -> bool + '_ {
    move |id, payload| wal_batch(id, payload).map(|b| batches.push(b)).is_some()
}

/// Highest bucket among `batches[from..]`.
fn max_bucket(batches: &[RecordBatch], from: usize) -> Option<u32> {
    batches.iter().skip(from).map(|b| b.bucket.0).max()
}

impl IngestWal {
    /// [`IngestWal::open_in`] on the real filesystem.
    pub fn open(path: &Path) -> io::Result<(IngestWal, WalRecovery)> {
        IngestWal::open_in(StdFs, path)
    }
}

impl<F: Fs> IngestWal<F> {
    /// Opens (creating if absent) the WAL on `fs` whose active segment
    /// is `path` and replays what is on disk: every sealed segment in
    /// sequence order, then the active one. Anything past the active
    /// segment's last decodable batch is the append that was racing the
    /// kill — the WAL's only writer appends whole sections — and is
    /// truncated away so subsequent appends start at a valid boundary.
    /// A kill between a seal's rename and its fresh active segment
    /// leaves no `path`; it is created here, empty.
    pub fn open_in(fs: F, path: &Path) -> io::Result<(IngestWal<F>, WalRecovery)> {
        let mut batches = Vec::new();
        let mut sealed = VecDeque::new();
        let mut bytes = 0;
        for (seq, segment) in list_segments(&fs, path)? {
            let from = batches.len();
            let scan = scan_file(&fs, &segment, KIND_INGEST_WAL, replay_into(&mut batches))?;
            if scan.is_some_and(|s| s.tail != Tail::Clean) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: sealed segment is damaged", segment.display()),
                ));
            }
            bytes += scan.map_or(0, |s| s.valid_len);
            sealed.push_back((seq, max_bucket(&batches, from)));
        }
        let from = batches.len();
        let (log, scan) =
            Log::open_in(fs, path, KIND_INGEST_WAL, |_| {}, replay_into(&mut batches))?;
        let wal = IngestWal {
            log,
            active_max: max_bucket(&batches, from),
            sealed,
        };
        let recovery = WalRecovery {
            batches,
            torn_tail: scan.trailing_bytes > 0,
            bytes: bytes + scan.valid_len + scan.trailing_bytes,
        };
        Ok((wal, recovery))
    }

    /// Appends one admitted batch as key runs and fsyncs. Only after
    /// this returns may the batch become engine-visible. Returns the
    /// bytes appended: 25 + 12 per key run + 8 per record.
    pub fn append(&mut self, batch: &RecordBatch) -> io::Result<u64> {
        let runs = KeyRuns(Cow::Borrowed(batch));
        let bytes = self.log.append(WAL_SEC_RUNS, |w| runs.put(w))?;
        self.active_max = self.active_max.max(Some(batch.bucket.0));
        Ok(bytes)
    }

    /// Seals the active segment, then retires — unlinks — the sealed
    /// segments that hold only buckets below `cutoff` (covered by a
    /// durable snapshot). No batch is read, re-encoded or rewritten. A
    /// kill between any two steps reopens to a superset of what an
    /// uninterrupted rotation keeps; an error leaves the segments it
    /// did not reach for the next rotation. Each seal and each retired
    /// segment counts on `sealed` and `retired` as it happens, so a
    /// rotation that fails part-way has counted what it did.
    pub fn rotate(
        &mut self,
        cutoff: TimeBucket,
        sealed: &Counter,
        retired: &Counter,
    ) -> io::Result<()> {
        if self.active_max.is_some() {
            let seq = self.sealed.back().map_or(1, |&(seq, _)| seq + 1);
            self.log.seal_to(&segment_path(self.log.path(), seq))?;
            self.sealed.push_back((seq, self.active_max.take()));
            sealed.inc();
        }
        // Oldest first and stopping at the first segment still needed,
        // so what stays on disk is always a gap-free run of sequence
        // numbers. The unlinks are not fsync'd: a segment that comes
        // back after a power cut is surplus again, and the next seal's
        // directory fsync carries them.
        while let Some(&(seq, max)) = self.sealed.front() {
            if max >= Some(cutoff.0) {
                break;
            }
            match self
                .log
                .fs()
                .remove_file(&segment_path(self.log.path(), seq))
            {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => self.sealed.pop_front(),
            };
            retired.inc();
        }
        Ok(())
    }

    /// [`rotate`](Self::rotate) for a caller that holds the batches to
    /// keep rather than the cutoff, and counts nothing. It survives only
    /// for the frozen `benchmark/` harness's shadow WAL and goes with
    /// the ROADMAP's benchmark harness diet; the daemon calls `rotate`.
    pub fn compact(&mut self, retained: &[RecordBatch]) -> io::Result<()> {
        let lowest = retained.iter().map(|b| b.bucket.0).min();
        let uncounted = Counter::new();
        self.rotate(
            TimeBucket(lowest.unwrap_or(u32::MAX)),
            &uncounted,
            &uncounted,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blameit::persist::fs::{Action, Fault, FaultFs, Op};
    use blameit::persist::log::{WAL_FILE, WAL_SEC_BATCH};
    use std::path::PathBuf;

    fn batch(bucket: u32, n: u64) -> RecordBatch {
        RecordBatch {
            bucket: TimeBucket(bucket),
            keys: (0..n).collect(),
            rtt: (0..n).map(|i| 10.0 + i as f64).collect(),
        }
    }

    fn batches(buckets: std::ops::Range<u32>) -> Vec<RecordBatch> {
        buckets.map(|b| batch(b, 4)).collect()
    }

    /// A scratch directory holding the WAL at `ingest.wal`.
    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("blameitd-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("ingest.wal")
    }

    /// Reopens the WAL at `path`, which must count every byte of every
    /// segment (the active one as open leaves it) as read.
    fn reopen(path: &Path) -> (IngestWal, Vec<RecordBatch>) {
        let (wal, rec) = IngestWal::open(path).unwrap();
        assert!(!rec.torn_tail);
        let segments = list_segments(&StdFs, path).unwrap();
        let files = segments.iter().map(|(_, p)| p.as_path()).chain([path]);
        let on_disk: u64 = files.map(|p| std::fs::metadata(p).unwrap().len()).sum();
        assert_eq!(rec.bytes, on_disk);
        (wal, rec.batches)
    }

    /// Rotates at `cutoff`; returns the (seals, retirements) it counted.
    fn rotate<F: Fs>(wal: &mut IngestWal<F>, cutoff: u32) -> (u64, u64) {
        let (sealed, retired) = (Counter::new(), Counter::new());
        wal.rotate(TimeBucket(cutoff), &sealed, &retired).unwrap();
        (sealed.get(), retired.get())
    }

    /// One key-run section's bytes: the frame (id 1 B, length 8 B,
    /// CRC 4 B), the counts (bucket, records, runs: 4 B each), 12 per
    /// key run and 8 per record.
    fn section_bytes(runs: u64, records: u64) -> u64 {
        (1 + 8 + 4) + 3 * 4 + 12 * runs + 8 * records
    }

    #[test]
    fn an_append_counts_its_section_and_a_reopen_every_segment_byte() {
        let path = tmp("bytes");
        let (mut wal, _) = reopen(&path);
        // Four distinct keys are four runs; one key three times is one.
        assert_eq!(wal.append(&batch(0, 4)).unwrap(), section_bytes(4, 4));
        let one_key = RecordBatch {
            bucket: TimeBucket(1),
            keys: vec![9; 3],
            rtt: vec![1.0, 2.0, 3.0],
        };
        assert_eq!(wal.append(&one_key).unwrap(), section_bytes(1, 3));
        assert_eq!(rotate(&mut wal, 0), (1, 0));
        wal.append(&batch(2, 2)).unwrap();
        let (_, rec) = IngestWal::open(&path).unwrap();
        // Two preambles (7 B each), three sections.
        let sections = section_bytes(4, 4) + section_bytes(1, 3) + section_bytes(2, 2);
        assert_eq!(rec.bytes, 2 * 7 + sections);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// What `tests/fixtures/wal-id1` holds: a state directory the build
    /// before the key-run layout left, every batch an id-1 (column)
    /// section. The first two are in the sealed segment
    /// `ingest.wal.0000000001` (one rotation at cutoff 40, nothing
    /// retired), the third in the active `ingest.wal`.
    fn id1_fixture_batches() -> Vec<RecordBatch> {
        let b = |bucket, keys: &[u64], rtt: &[f64]| RecordBatch {
            bucket: TimeBucket(bucket),
            keys: keys.to_vec(),
            rtt: rtt.to_vec(),
        };
        vec![
            b(
                40,
                &[7, 7, 7, 9, 12, 12],
                &[10.5, 11.0, 9.75, 30.0, 42.0, 41.5],
            ),
            b(41, &[5, 3, 5], &[-0.0, 1e300, 0.25]),
            b(42, &[1, 1, 2], &[3.0, 4.0, 5.0]),
        ]
    }

    /// The section ids of one WAL file, in order.
    fn section_ids(file: &Path) -> Vec<u8> {
        let mut ids = Vec::new();
        scan_file(&StdFs, file, KIND_INGEST_WAL, |id, _| {
            ids.push(id);
            true
        })
        .unwrap();
        ids
    }

    /// The previous layout's WAL is read, not truncated: opening the
    /// fixture returns exactly its batches and counts every byte on
    /// disk as replayed (what `blameit_wal_replayed_bytes` is set to);
    /// an id-2 append lands behind the id-1 sections of the same active
    /// segment and reopens in order; `fsck` calls the directory clean.
    #[test]
    fn a_wal_the_previous_layout_wrote_replays_and_takes_key_run_appends() {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal-id1");
        let path = tmp("id1");
        let dir = path.parent().unwrap();
        let sealed = segment_path(&path, 1);
        for file in [&path, &sealed] {
            std::fs::copy(fixture.join(file.file_name().unwrap()), file).unwrap();
        }
        assert_eq!(section_ids(&sealed), [WAL_SEC_BATCH, WAL_SEC_BATCH]);
        assert_eq!(section_ids(&path), [WAL_SEC_BATCH]);
        let active_bytes = std::fs::read(&path).unwrap();

        let (mut wal, recovered) = reopen(&path);
        assert_eq!(recovered, id1_fixture_batches());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            active_bytes,
            "nothing truncated"
        );

        let next = RecordBatch {
            bucket: TimeBucket(43),
            keys: vec![4, 4, 6],
            rtt: vec![7.0, 8.0, 9.0],
        };
        wal.append(&next).unwrap();
        drop(wal);
        assert_eq!(section_ids(&path), [WAL_SEC_BATCH, WAL_SEC_RUNS]);
        let (_, recovered) = reopen(&path);
        let mut expect = id1_fixture_batches();
        expect.push(next);
        assert_eq!(recovered, expect);

        let report = blameit::fsck(dir);
        assert!(report.ok(), "{}", report.render());
        assert_eq!((report.wal_segments, report.wal_batches), (2, 4));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn reopen_recovers_a_superset_in_append_order_and_retired_ranges_stay_gone() {
        let path = tmp("segments");
        let (mut wal, recovered) = reopen(&path);
        assert!(recovered.is_empty());
        // Three rotations, each one trigger batch past its period, as
        // the daemon's snapshot tick leaves them.
        for b in batches(0..7) {
            wal.append(&b).unwrap();
        }
        assert_eq!(rotate(&mut wal, 0), (1, 0));
        for b in batches(7..13) {
            wal.append(&b).unwrap();
        }
        assert_eq!(rotate(&mut wal, 6), (1, 0));
        // Nothing retired yet: segment 1 ends at bucket 6, which the
        // cutoff does not cover. Order holds across segments.
        assert_eq!(list_segments(&StdFs, &path).unwrap().len(), 2);
        let (mut wal, recovered) = reopen(&path);
        assert_eq!(recovered, batches(0..13));

        wal.append(&batch(13, 4)).unwrap();
        assert_eq!(rotate(&mut wal, 7), (1, 1));
        // Segment 1 (buckets 0..=6) is gone, whole; what the queue
        // retains (7..) is a suffix of what comes back.
        let seqs: Vec<u64> = list_segments(&StdFs, &path)
            .unwrap()
            .into_iter()
            .map(|s| s.0)
            .collect();
        assert_eq!(seqs, vec![2, 3]);
        wal.append(&batch(14, 1)).unwrap();
        let (mut wal, recovered) = reopen(&path);
        let mut expect = batches(7..14);
        expect.push(batch(14, 1));
        assert_eq!(recovered, expect);

        // The harness's entry point: the cutoff is the lowest retained
        // bucket, so segment 2 (7..=12) goes and segment 3 (13) stays.
        wal.compact(&[batch(13, 4), batch(14, 1)]).unwrap();
        let (mut wal, recovered) = reopen(&path);
        assert_eq!(recovered, vec![batch(13, 4), batch(14, 1)]);
        // After TERM nothing is retained: zero batches to replay, and
        // an empty active segment is not sealed again.
        wal.compact(&[]).unwrap();
        wal.compact(&[]).unwrap();
        assert!(list_segments(&StdFs, &path).unwrap().is_empty());
        let (_, recovered) = reopen(&path);
        assert!(recovered.is_empty());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// A seal whose directory fsync fails may not have made its rename
    /// durable: the rotation errs, the active name comes back, appends
    /// continue into the same file and the next rotation seals it.
    #[test]
    fn a_failed_directory_fsync_in_a_seal_puts_the_active_name_back() {
        let path = tmp("sync-dir");
        let fs = FaultFs::new();
        let (mut wal, _) = IngestWal::open_in(fs.clone(), &path).unwrap();
        for b in batches(0..3) {
            wal.append(&b).unwrap();
        }
        fs.arm(Fault::first(Op::SyncDir, WAL_FILE, Action::Fail));
        let (sealed, retired) = (Counter::new(), Counter::new());
        assert!(wal.rotate(TimeBucket(0), &sealed, &retired).is_err());
        assert!(fs.fired() && !fs.killed());
        assert_eq!((sealed.get(), retired.get()), (0, 0));
        assert!(list_segments(&StdFs, &path).unwrap().is_empty());

        wal.append(&batch(3, 4)).unwrap();
        assert_eq!(rotate(&mut wal, 0), (1, 0));
        assert_eq!(list_segments(&StdFs, &path).unwrap().len(), 1);
        drop(wal);
        let (_, recovered) = reopen(&path);
        assert_eq!(recovered, batches(0..4));
        assert_eq!(section_ids(&segment_path(&path, 1)).len(), 4);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_damaged_sealed_segment_fails_the_open_and_a_torn_active_one_does_not() {
        let path = tmp("damage");
        let (mut wal, _) = reopen(&path);
        for b in batches(0..3) {
            wal.append(&b).unwrap();
        }
        rotate(&mut wal, 0);
        wal.append(&batch(3, 4)).unwrap();
        wal.append(&batch(4, 4)).unwrap();
        drop(wal);

        let chop = |file: &Path| {
            let bytes = std::fs::read(file).unwrap();
            std::fs::write(file, &bytes[..bytes.len() - 5]).unwrap();
        };
        chop(&path);
        let (wal, rec) = IngestWal::open(&path).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.batches, batches(0..4));
        drop(wal);

        chop(&segment_path(&path, 1));
        let err = IngestWal::open(&path)
            .err()
            .expect("damaged sealed segment");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
