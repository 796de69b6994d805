//! The state directory: snapshot files, retention, `wipe` and `fsck`.
//!
//! Snapshots are named `snapshot-<ticks_done, zero-padded>.snap` and
//! written through [`log::write_atomic`] (temp sibling, fsync, rename,
//! directory fsync). A crash mid-write leaves only a hidden `.tmp`
//! file that loaders never look at. The last [`RETAIN`] snapshots are
//! kept so a corrupted newest file falls back to an older one (the
//! journal is never truncated, so older snapshots can always replay
//! forward).

use super::codec::KIND_INGEST_WAL;
use super::fs::{list_by, Fs, StdFs};
use super::log::{self, Tail, JOURNAL_FILE, WAL_FILE};
use super::{journal, snapshot};
use std::io;
use std::path::{Path, PathBuf};

const SNAP_PREFIX: &str = "snapshot-";
const SNAP_SUFFIX: &str = ".snap";
/// Snapshots kept on disk: the newest three.
const RETAIN: usize = 3;

/// The file name of the snapshot taken after `ticks_done` ticks.
pub(super) fn snapshot_name(ticks_done: u64) -> String {
    format!("{SNAP_PREFIX}{ticks_done:010}{SNAP_SUFFIX}")
}

/// The `ticks_done` a snapshot file name carries.
pub(super) fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix(SNAP_PREFIX)?
        .strip_suffix(SNAP_SUFFIX)?
        .parse()
        .ok()
}

/// A state directory holding snapshots (and the journal).
#[derive(Clone, Debug)]
pub struct StateStore<F: Fs = StdFs> {
    fs: F,
    dir: PathBuf,
}

impl StateStore {
    /// [`StateStore::create_in`] on the real filesystem.
    pub fn create(dir: impl Into<PathBuf>) -> io::Result<StateStore> {
        StateStore::create_in(StdFs, dir)
    }
}

impl<F: Fs> StateStore<F> {
    /// Opens (creating if needed) the state directory on `fs`.
    pub fn create_in(fs: F, dir: impl Into<PathBuf>) -> io::Result<StateStore<F>> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        Ok(StateStore { fs, dir })
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The final path of the snapshot taken after `ticks_done` ticks.
    pub fn snapshot_path(&self, ticks_done: u64) -> PathBuf {
        self.dir.join(snapshot_name(ticks_done))
    }

    /// Every snapshot on disk as `(ticks_done, path)`, ascending.
    pub fn list_snapshots(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        list_by(&self.fs, &self.dir, parse_snapshot_name)
    }

    /// Leftover `.tmp` files (crash residue; harmless but reportable).
    pub fn list_tmp_files(&self) -> io::Result<Vec<PathBuf>> {
        let tmp = |name: &str| (name.starts_with('.') && name.ends_with(".tmp")).then_some(());
        let found = list_by(&self.fs, &self.dir, tmp)?;
        Ok(found.into_iter().map(|(_, path)| path).collect())
    }

    /// Writes a snapshot atomically; on `Ok` it is durable.
    pub fn write_snapshot(&self, ticks_done: u64, bytes: &[u8]) -> io::Result<PathBuf> {
        let path = self.snapshot_path(ticks_done);
        log::write_atomic(&self.fs, &path, bytes)?;
        Ok(path)
    }

    /// Removes every blameit-owned file in the directory — snapshots,
    /// leftover temp files, the journal and the ingest WAL, sealed
    /// segments included — so a fresh (non-resume) run neither trips
    /// over another run's identity nor replays its queued batches.
    /// Foreign files are left alone. Returns the number removed.
    pub fn wipe(&self) -> io::Result<usize> {
        let mut doomed: Vec<PathBuf> = self.list_tmp_files()?;
        let segments = log::list_segments(&self.fs, &self.dir.join(WAL_FILE))?;
        for (_, path) in self.list_snapshots()?.into_iter().chain(segments) {
            doomed.push(path);
        }
        for path in &doomed {
            self.fs.remove_file(path)?;
        }
        let mut removed = doomed.len();
        for name in [JOURNAL_FILE, WAL_FILE] {
            match self.fs.remove_file(&self.dir.join(name)) {
                Ok(()) => removed += 1,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(removed)
    }

    /// Unlinks the snapshots beyond the newest [`RETAIN`], oldest
    /// first. An error leaves the rest for the next prune, which lists
    /// the directory afresh.
    pub fn prune(&self) -> io::Result<()> {
        let snaps = self.list_snapshots()?;
        let surplus = snaps.len().saturating_sub(RETAIN);
        for (_, path) in &snaps[..surplus] {
            self.fs.remove_file(path)?;
        }
        Ok(())
    }
}

/// `path`'s last component, for report lines.
fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// One fsck finding.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum FsckSeverity {
    /// Informational (healthy file).
    Ok,
    /// Survivable oddity (crash residue recovery handles).
    Warning,
    /// Corruption or an invariant violation.
    Error,
}

/// Human-readable integrity report for a state directory.
#[derive(Debug)]
pub struct FsckReport {
    /// The directory checked.
    pub dir: PathBuf,
    /// One `(severity, message)` per finding, in check order.
    pub findings: Vec<(FsckSeverity, String)>,
    /// Snapshot files examined.
    pub snapshots_checked: usize,
    /// Valid journal records found.
    pub journal_records: u64,
    /// Valid ingest-WAL batches found, summed over its segments.
    pub wal_batches: u64,
    /// Ingest-WAL files examined (sealed segments plus the active one).
    pub wal_segments: usize,
}

impl FsckReport {
    /// True when no finding is an error (warnings allowed — recovery
    /// handles crash residue by design).
    pub fn ok(&self) -> bool {
        self.errors() == 0
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|(s, _)| *s == FsckSeverity::Error)
            .count()
    }

    fn push(&mut self, sev: FsckSeverity, msg: impl Into<String>) {
        self.findings.push((sev, msg.into()));
    }

    /// The finding for a log file's tail: a clean end is fine, at most
    /// one torn record is crash residue recovery truncates (warning),
    /// anything deeper is corruption (error).
    fn push_log_tail(&mut self, file: &str, records: usize, trailing_bytes: u64, tail: Tail) {
        match tail {
            Tail::Clean => self.push(
                FsckSeverity::Ok,
                format!("{file}: {records} record(s), clean tail"),
            ),
            Tail::Torn => self.push(
                FsckSeverity::Warning,
                format!(
                    "{file}: torn tail ({trailing_bytes} byte(s) of crash residue after record {records}; recovery truncates it)"
                ),
            ),
            Tail::Corrupt => self.push(
                FsckSeverity::Error,
                format!(
                    "{file}: {trailing_bytes} unparseable byte(s) after record {records} — more than one torn record"
                ),
            ),
        }
    }

    /// The full report as display text.
    pub fn render(&self) -> String {
        let mut out = format!("fsck {}\n", self.dir.display());
        for (sev, msg) in &self.findings {
            let tag = match sev {
                FsckSeverity::Ok => "ok   ",
                FsckSeverity::Warning => "warn ",
                FsckSeverity::Error => "ERROR",
            };
            out.push_str(&format!("  {tag} {msg}\n"));
        }
        let errors = self.errors();
        out.push_str(&format!(
            "{} snapshot(s), {} journal record(s), {} wal batch(es) in {} segment(s), {} error(s): {}\n",
            self.snapshots_checked,
            self.journal_records,
            self.wal_batches,
            self.wal_segments,
            errors,
            if errors == 0 { "CLEAN" } else { "CORRUPT" }
        ));
        out
    }
}

/// Validates every snapshot/journal/WAL invariant in `dir`:
///
/// * each `snapshot-*.snap` decodes fully (magic, version, every
///   section CRC, structural parse) and its filename matches the
///   `ticks_done` inside;
/// * all snapshots and the journal agree on one seed;
/// * journal records have valid CRCs and sequential tick indices, and
///   any trailing bytes are at most one torn record (crash residue —
///   warning), not a deeper unparseable region (error);
/// * the journal reaches at least as far as every snapshot, so replay
///   has the records it needs;
/// * every segment of the ingest WAL, when present, is a run of
///   decodable batches; only the active segment may end in a torn
///   record, and the sealed segments' sequence numbers have no gap;
/// * leftover `.tmp` files are reported (warning).
pub fn fsck(dir: &Path) -> FsckReport {
    let mut report = FsckReport {
        dir: dir.to_path_buf(),
        findings: Vec::new(),
        snapshots_checked: 0,
        journal_records: 0,
        wal_batches: 0,
        wal_segments: 0,
    };
    let store = StateStore {
        fs: StdFs,
        dir: dir.to_path_buf(),
    };
    let snaps = match store.list_snapshots() {
        Ok(snaps) => snaps,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            report.push(FsckSeverity::Error, "state directory does not exist");
            return report;
        }
        Err(e) => {
            report.push(FsckSeverity::Error, format!("cannot open directory: {e}"));
            return report;
        }
    };

    let mut seeds: Vec<(String, u64)> = Vec::new();
    let mut max_snapshot_ticks = 0u64;
    let mut newest_valid: Option<(String, Vec<u8>)> = None;
    for (tick, path) in &snaps {
        report.snapshots_checked += 1;
        let name = file_name(path);
        let bytes = match StdFs.read(path) {
            Ok(b) => b,
            Err(e) => {
                report.push(FsckSeverity::Error, format!("{name}: unreadable: {e}"));
                continue;
            }
        };
        match snapshot::decode(&bytes) {
            Ok(state) => {
                if state.ticks_done != *tick {
                    report.push(
                        FsckSeverity::Error,
                        format!(
                            "{name}: filename says tick {tick} but contents say {}",
                            state.ticks_done
                        ),
                    );
                } else {
                    report.push(
                        FsckSeverity::Ok,
                        format!(
                            "{name}: valid ({} bytes, seed {:#x}, tick {})",
                            bytes.len(),
                            state.seed,
                            state.ticks_done
                        ),
                    );
                }
                max_snapshot_ticks = max_snapshot_ticks.max(state.ticks_done);
                seeds.push((name.clone(), state.seed));
                newest_valid = Some((name, bytes));
            }
            Err(e) => {
                report.push(FsckSeverity::Error, format!("{name}: corrupt: {e}"));
            }
        }
    }
    if snaps.is_empty() {
        report.push(FsckSeverity::Warning, "no snapshots found");
    }
    // Where the newest snapshot's bytes are: the sections that grow
    // (the flight ring, the client history) show up here first.
    if let Some((name, bytes)) = newest_valid {
        let sizes: Vec<String> = snapshot::section_sizes(&bytes)
            .unwrap_or_default()
            .iter()
            .map(|(section, n)| format!("{section}={n}"))
            .collect();
        report.push(
            FsckSeverity::Ok,
            format!("{name}: section bytes {}", sizes.join(" ")),
        );
    }

    match journal::scan(dir) {
        Ok(None) => report.push(FsckSeverity::Warning, "no journal found"),
        Ok(Some(scan)) => {
            report.journal_records = scan.records.len() as u64;
            seeds.push((JOURNAL_FILE.to_string(), scan.seed));
            report.push_log_tail(
                JOURNAL_FILE,
                scan.records.len(),
                scan.trailing_bytes,
                scan.tail,
            );
            if (scan.records.len() as u64) < max_snapshot_ticks {
                report.push(
                    FsckSeverity::Error,
                    format!(
                        "journal has {} record(s) but a snapshot claims {} completed tick(s)",
                        scan.records.len(),
                        max_snapshot_ticks
                    ),
                );
            }
        }
        Err(e) => report.push(
            FsckSeverity::Error,
            format!("{JOURNAL_FILE}: invalid header: {e}"),
        ),
    }

    fsck_wal(dir, &mut report);

    if seeds.len() > 1 {
        let first = seeds[0].1;
        for (name, seed) in &seeds[1..] {
            if *seed != first {
                report.push(
                    FsckSeverity::Error,
                    format!(
                        "seed mismatch: {} has {:#x}, {} has {:#x}",
                        seeds[0].0, first, name, seed
                    ),
                );
            }
        }
    }

    for tmp in store.list_tmp_files().unwrap_or_default() {
        report.push(
            FsckSeverity::Warning,
            format!(
                "leftover temp file {} (crash residue; never loaded)",
                file_name(&tmp)
            ),
        );
    }
    report
}

/// The ingest-WAL part of [`fsck`]: every sealed segment in sequence
/// order, then the active one. The WAL exists only under the daemon;
/// absent is normal.
fn fsck_wal(dir: &Path, report: &mut FsckReport) {
    let active = dir.join(WAL_FILE);
    let sealed = log::list_segments(&StdFs, &active).unwrap_or_default();
    for pair in sealed.windows(2) {
        if pair[0].0 + 1 != pair[1].0 {
            report.push(
                FsckSeverity::Error,
                format!(
                    "{WAL_FILE}: sealed segment(s) missing between {} and {}",
                    pair[0].0, pair[1].0
                ),
            );
        }
    }
    let is_batch = |id: u8, payload: &[u8]| log::wal_section(id, payload).is_some();
    for (path, is_sealed) in sealed
        .iter()
        .map(|(_, path)| (path, true))
        .chain([(&active, false)])
    {
        let name = file_name(path);
        match log::scan_file(&StdFs, path, KIND_INGEST_WAL, is_batch) {
            Ok(None) => {}
            Ok(Some(scan)) => {
                report.wal_segments += 1;
                report.wal_batches += scan.sections;
                report.push_log_tail(
                    &name,
                    scan.sections as usize,
                    scan.trailing_bytes,
                    scan.tail,
                );
                if is_sealed && scan.tail == Tail::Torn {
                    report.push(
                        FsckSeverity::Error,
                        format!("{name}: a sealed segment is never appended to — its torn tail is damage, and recovery refuses it"),
                    );
                }
            }
            Err(e) => report.push(FsckSeverity::Error, format!("{name}: unreadable: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::fs::{Action, Fault, FaultFs, Op};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("blameit-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn retention_prunes_oldest() {
        let dir = tmp_dir("retain");
        let store = StateStore::create(&dir).unwrap();
        for t in [4u64, 8, 12, 16] {
            store.write_snapshot(t, b"not-a-real-snapshot").unwrap();
            store.prune().unwrap();
        }
        let ticks: Vec<u64> = store
            .list_snapshots()
            .unwrap()
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(ticks, vec![8, 12, 16]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_leaves_only_tmp() {
        let dir = tmp_dir("torn");
        let tmp = log::tmp_name(&snapshot_name(4));
        let fs = FaultFs::armed(Fault::first(Op::Create, &tmp, Action::Tear(0.5)));
        let store = StateStore::create_in(fs.clone(), &dir).unwrap();
        assert!(store.write_snapshot(4, &[1u8; 100]).is_err() && fs.killed());
        let store = StateStore::create(&dir).unwrap();
        assert!(store.list_snapshots().unwrap().is_empty());
        let tmps = store.list_tmp_files().unwrap();
        assert_eq!(tmps.len(), 1);
        assert_eq!(std::fs::metadata(&tmps[0]).unwrap().len(), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_missing_dir_is_error() {
        let report = fsck(Path::new("/nonexistent/blameit-state"));
        assert!(!report.ok());
        assert!(report.render().contains("does not exist"));
    }

    #[test]
    fn wipe_removes_only_blameit_files() {
        let dir = tmp_dir("wipe");
        let store = StateStore::create(&dir).unwrap();
        store.write_snapshot(4, b"x").unwrap();
        std::fs::write(log::tmp_path(&store.snapshot_path(8)), [0u8; 8]).unwrap();
        std::fs::write(journal::journal_path(&dir), b"j").unwrap();
        let wal = dir.join(WAL_FILE);
        std::fs::write(&wal, b"w").unwrap();
        std::fs::write(log::segment_path(&wal, 3), b"s").unwrap();
        std::fs::write(dir.join("keep.txt"), b"mine").unwrap();
        assert_eq!(store.wipe().unwrap(), 5);
        assert!(store.list_snapshots().unwrap().is_empty());
        assert!(!journal::journal_path(&dir).exists());
        assert!(!wal.exists() && log::list_segments(&StdFs, &wal).unwrap().is_empty());
        assert!(dir.join("keep.txt").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_flags_garbage_snapshot() {
        let dir = tmp_dir("fsck");
        let store = StateStore::create(&dir).unwrap();
        store.write_snapshot(4, b"garbage-bytes").unwrap();
        let report = fsck(&dir);
        assert!(!report.ok());
        assert!(report.render().contains("corrupt"), "{}", report.render());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
