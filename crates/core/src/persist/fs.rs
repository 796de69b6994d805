//! The filesystem seam: every file operation of the persistence layer
//! and the daemon goes through one [`Fs`].
//!
//! [`StdFs`] is the real filesystem, a zero-sized type. Every type that
//! persists takes `F: Fs` by value with `StdFs` as the default, so the
//! append an ACK waits on compiles to the `write_all` + `sync_data` on a
//! `std::fs::File` it always was — no `dyn`, no box, no extra call.
//!
//! [`FaultFs`] delegates to another `Fs` and counts every call by
//! `(op, file kind)`. Armed with one [`Fault`], it fails, kills or
//! tears the n-th call that matches the fault's `(op, file name)`. A
//! killed `FaultFs` refuses every later call, as a dead process would:
//! a crash test kills the process by arming its filesystem, and the
//! code under test has no harness branch. [`Fault::crash`] is the one
//! table from the durable-tick protocol's kill points to the IO step
//! each one interrupts.

use super::log::{tmp_name, JOURNAL_FILE, WAL_FILE};
use super::store::{parse_snapshot_name, snapshot_name};
use blameit_simnet::{tear_fraction, CrashPoint};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// A file open for appending.
pub trait AppendFile: std::fmt::Debug {
    /// Writes all of `bytes` at the end of the file.
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Makes the file's data durable.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The file operations persistence performs.
pub trait Fs: Clone + std::fmt::Debug {
    /// What [`open_append`](Fs::open_append) returns.
    type File: AppendFile;
    /// Opens `path` for appending, creating it when absent.
    fn open_append(&self, path: &Path) -> io::Result<Self::File>;
    /// The whole contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates (or truncates) `path`, writes `bytes` and fsyncs them.
    fn create_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Renames `from` to `to`, replacing `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Unlinks `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// The names of the entries in `dir` (names that are not UTF-8 are
    /// skipped: no blameit file has one).
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Fsyncs the directory `file` is in ([`parent_dir`]), so a create
    /// or rename of `file` survives a power cut.
    fn sync_dir(&self, file: &Path) -> io::Result<()>;
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
}

/// The directory `path` is in: its parent, or `.` for a bare file name.
pub fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Every entry of `dir` whose name `key` accepts, as `(key, path)`
/// sorted by key — the one directory walk behind the state directory's
/// naming rules (snapshots, temp files, sealed segments).
pub fn list_by<F: Fs, K: Ord>(
    fs: &F,
    dir: &Path,
    key: impl Fn(&str) -> Option<K>,
) -> io::Result<Vec<(K, PathBuf)>> {
    let mut out: Vec<(K, PathBuf)> = fs
        .list(dir)?
        .into_iter()
        .filter_map(|name| Some((key(&name)?, dir.join(name))))
        .collect();
    out.sort_unstable();
    Ok(out)
}

/// The real filesystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdFs;

impl AppendFile for std::fs::File {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        Write::write_all(self, bytes)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        std::fs::File::sync_data(self)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        std::fs::File::set_len(self, len)
    }
}

impl Fs for StdFs {
    type File = std::fs::File;

    fn open_append(&self, path: &Path) -> io::Result<std::fs::File> {
        std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn create_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        Write::write_all(&mut f, bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.extend(entry?.file_name().into_string());
        }
        Ok(names)
    }

    fn sync_dir(&self, file: &Path) -> io::Result<()> {
        std::fs::File::open(parent_dir(file))?.sync_all()
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
}

/// One [`Fs`] call, as [`FaultFs`] counts and matches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// [`Fs::open_append`].
    OpenAppend,
    /// [`AppendFile::write_all`].
    Write,
    /// [`AppendFile::sync_data`].
    SyncData,
    /// [`AppendFile::set_len`].
    SetLen,
    /// [`Fs::read`].
    Read,
    /// [`Fs::create_write`].
    Create,
    /// [`Fs::rename`], matched and counted by its destination.
    Rename,
    /// [`Fs::remove_file`].
    Remove,
    /// [`Fs::list`].
    List,
    /// [`Fs::sync_dir`], matched and counted by the file it makes
    /// durable.
    SyncDir,
    /// [`Fs::create_dir_all`].
    CreateDir,
}

/// Which state-directory file a path names; a temp file counts as the
/// file it stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileKind {
    /// The tick journal.
    Journal,
    /// The ingest WAL's active segment or a sealed one.
    Wal,
    /// A snapshot.
    Snapshot,
    /// Anything else (the state directory itself).
    Other,
}

impl FileKind {
    /// The kind of the file `path` names.
    pub fn of(path: &Path) -> FileKind {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let name = name
            .strip_prefix('.')
            .and_then(|n| n.strip_suffix(".tmp"))
            .unwrap_or(name);
        let sealed = name
            .strip_prefix(WAL_FILE)
            .is_some_and(|rest| rest.starts_with('.'));
        if name == JOURNAL_FILE {
            FileKind::Journal
        } else if name == WAL_FILE || sealed {
            FileKind::Wal
        } else if parse_snapshot_name(name).is_some() {
            FileKind::Snapshot
        } else {
            FileKind::Other
        }
    }
}

/// What an armed fault does to the call it matches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Action {
    /// The call fails and does nothing; the process lives on.
    Fail,
    /// The process dies before the call does anything.
    Kill,
    /// The call completes, then the process dies before it returns.
    KillAfter,
    /// A write (or create-and-write) lands only this fraction of its
    /// bytes — at least one, never the last two, so a section's CRC
    /// never lands whole — unsynced, and the process dies.
    Tear(f64),
}

/// One fault: `action` on the `nth` (1-based) call of `op` on the file
/// named `file` (its last path component), counted from when it is
/// armed.
#[derive(Clone, Debug, PartialEq)]
pub struct Fault {
    op: Op,
    file: String,
    nth: u64,
    action: Action,
}

impl Fault {
    /// `action` on the first call of `op` on `file`.
    pub fn first(op: Op, file: &str, action: Action) -> Fault {
        Fault {
            op,
            file: file.to_string(),
            nth: 1,
            action,
        }
    }

    /// The kill-point table: the IO step a kill at `point` during tick
    /// `tick` interrupts, for a [`FaultFs`] armed before the engine
    /// opened (ticks are then counted on its journal: on a cold start,
    /// `tick` is the tick index). `seed` keys the tear.
    ///
    /// | kill point           | call                               | action              |
    /// |----------------------|------------------------------------|---------------------|
    /// | `mid-journal`        | the tick's journal `write_all`     | tear                |
    /// | `post-journal`       | the tick's journal `sync_data`     | die once it returns |
    /// | `pre-snapshot`       | the tick's snapshot temp `create`  | die before it       |
    /// | `mid-snapshot-write` | the tick's snapshot temp `create`  | tear                |
    ///
    /// The snapshot a tick writes is named for the ticks done after it,
    /// so a snapshot-phase kill on a tick where no snapshot is due
    /// never fires: no later tick writes that snapshot.
    pub fn crash(point: CrashPoint, tick: u64, seed: u64) -> Fault {
        let tear = Action::Tear(tear_fraction(seed, point, tick));
        let journal = |op, action| Fault {
            nth: tick + 1,
            ..Fault::first(op, JOURNAL_FILE, action)
        };
        let snapshot =
            |action| Fault::first(Op::Create, &tmp_name(&snapshot_name(tick + 1)), action);
        match point {
            CrashPoint::MidJournal => journal(Op::Write, tear),
            CrashPoint::PostJournal => journal(Op::SyncData, Action::KillAfter),
            CrashPoint::PreSnapshot => snapshot(Action::Kill),
            CrashPoint::MidSnapshotWrite => snapshot(tear),
        }
    }
}

#[derive(Debug, Default)]
struct FaultState {
    /// The armed fault and the matching calls it has seen.
    fault: Option<(Fault, u64)>,
    fired: bool,
    killed: bool,
    counts: BTreeMap<(Op, FileKind), u64>,
}

/// An [`Fs`] that counts every call and injects at most one armed
/// [`Fault`]. Clones share one state, so a test keeps a clone to arm
/// and inspect the filesystem it handed to the code under test.
#[derive(Clone, Debug, Default)]
pub struct FaultFs<F = StdFs> {
    inner: F,
    state: Arc<Mutex<FaultState>>,
}

/// What a [`FaultFs`] returns for a call it refuses.
fn refused(killed: bool) -> io::Error {
    io::Error::other(if killed {
        "FaultFs: the process was killed"
    } else {
        "FaultFs: injected failure"
    })
}

/// The bytes of a `len`-byte write torn at `fraction` that land.
fn torn_len(len: usize, fraction: f64) -> usize {
    let n = (len as f64 * fraction) as usize;
    n.min(len.saturating_sub(2)).max(usize::from(len > 0))
}

/// Runs `call` under `action`: as is, refused, or followed by death.
fn under<T>(action: Option<Action>, call: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
    match action {
        None => call(),
        Some(Action::Fail) => Err(refused(false)),
        Some(Action::KillAfter) => call().and(Err(refused(true))),
        Some(Action::Kill | Action::Tear(_)) => Err(refused(true)),
    }
}

impl FaultFs<StdFs> {
    /// A counting filesystem over the real one, with nothing armed.
    pub fn new() -> Self {
        FaultFs::default()
    }

    /// A counting filesystem over the real one, armed with `fault`.
    pub fn armed(fault: Fault) -> Self {
        let fs = FaultFs::new();
        fs.arm(fault);
        fs
    }
}

impl<F> FaultFs<F> {
    fn state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        // Every update is one field store, so a panic elsewhere while
        // the lock was held leaves the state whole.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms `fault`, replacing any armed one; its count starts now.
    pub fn arm(&self, fault: Fault) {
        self.state().fault = Some((fault, 0));
    }

    /// Whether the armed fault has fired.
    pub fn fired(&self) -> bool {
        self.state().fired
    }

    /// Whether a fault killed the process.
    pub fn killed(&self) -> bool {
        self.state().killed
    }

    /// Calls of `op` on files of `kind` so far, refused ones included.
    pub fn count(&self, op: Op, kind: FileKind) -> u64 {
        self.state().counts.get(&(op, kind)).copied().unwrap_or(0)
    }

    /// Counts a call of `op` on `path` and says what the armed fault
    /// does to it; a dead process refuses it outright.
    fn gate(&self, op: Op, path: &Path) -> io::Result<Option<Action>> {
        let mut s = self.state();
        if s.killed {
            return Err(refused(true));
        }
        *s.counts.entry((op, FileKind::of(path))).or_default() += 1;
        let Some((fault, seen)) = &mut s.fault else {
            return Ok(None);
        };
        if fault.op != op || path.file_name() != Some(fault.file.as_ref()) {
            return Ok(None);
        }
        *seen += 1;
        if *seen < fault.nth {
            return Ok(None);
        }
        let action = fault.action;
        s.fault = None;
        s.fired = true;
        s.killed = action != Action::Fail;
        Ok(Some(action))
    }
}

/// A [`FaultFs`] file: the inner file plus what the gate needs.
#[derive(Debug)]
pub struct FaultFile<F: Fs> {
    inner: F::File,
    path: PathBuf,
    fs: FaultFs<F>,
}

impl<F: Fs> AppendFile for FaultFile<F> {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        let action = self.fs.gate(Op::Write, &self.path)?;
        if let Some(Action::Tear(fraction)) = action {
            self.inner
                .write_all(&bytes[..torn_len(bytes.len(), fraction)])?;
        }
        under(action, || self.inner.write_all(bytes))
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let action = self.fs.gate(Op::SyncData, &self.path)?;
        under(action, || self.inner.sync_data())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let action = self.fs.gate(Op::SetLen, &self.path)?;
        under(action, || self.inner.set_len(len))
    }
}

impl<F: Fs> Fs for FaultFs<F> {
    type File = FaultFile<F>;

    fn open_append(&self, path: &Path) -> io::Result<FaultFile<F>> {
        let action = self.gate(Op::OpenAppend, path)?;
        let inner = under(action, || self.inner.open_append(path))?;
        Ok(FaultFile {
            inner,
            path: path.to_path_buf(),
            fs: self.clone(),
        })
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        under(self.gate(Op::Read, path)?, || self.inner.read(path))
    }

    fn create_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let action = self.gate(Op::Create, path)?;
        if let Some(Action::Tear(fraction)) = action {
            let torn = &bytes[..torn_len(bytes.len(), fraction)];
            self.inner.create_write(path, torn)?;
        }
        under(action, || self.inner.create_write(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        under(self.gate(Op::Rename, to)?, || self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        under(self.gate(Op::Remove, path)?, || {
            self.inner.remove_file(path)
        })
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        under(self.gate(Op::List, dir)?, || self.inner.list(dir))
    }

    fn sync_dir(&self, file: &Path) -> io::Result<()> {
        under(self.gate(Op::SyncDir, file)?, || self.inner.sync_dir(file))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        under(self.gate(Op::CreateDir, dir)?, || {
            self.inner.create_dir_all(dir)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_follow_the_state_directory_names() {
        let kind = |name: &str| FileKind::of(Path::new("state").join(name).as_path());
        assert_eq!(kind("journal.blj"), FileKind::Journal);
        assert_eq!(kind(".journal.blj.tmp"), FileKind::Journal);
        assert_eq!(kind("ingest.wal"), FileKind::Wal);
        assert_eq!(kind("ingest.wal.0000000003"), FileKind::Wal);
        assert_eq!(kind("snapshot-0000000004.snap"), FileKind::Snapshot);
        assert_eq!(kind(".snapshot-0000000004.snap.tmp"), FileKind::Snapshot);
        assert_eq!(kind("ingest.wallet"), FileKind::Other);
        assert_eq!(FileKind::of(Path::new("state")), FileKind::Other);
    }

    #[test]
    fn a_bare_file_name_is_in_the_current_directory() {
        assert_eq!(parent_dir(Path::new("journal.blj")), Path::new("."));
        assert_eq!(parent_dir(Path::new("a/journal.blj")), Path::new("a"));
    }

    #[test]
    fn a_torn_write_keeps_a_strict_prefix_short_of_the_crc() {
        assert_eq!(torn_len(33, 0.05), 1);
        assert_eq!(torn_len(33, 0.949), 31);
        assert_eq!(torn_len(53, 0.999), 51);
        assert_eq!(torn_len(1_000, 0.5), 500);
        assert_eq!((torn_len(2, 0.5), torn_len(0, 0.5)), (1, 0));
    }

    #[test]
    fn a_fault_fires_once_on_its_nth_match_and_a_kill_refuses_everything_after() {
        let dir = std::env::temp_dir().join(format!("blameit-faultfs-{}", std::process::id()));
        let fs = FaultFs::armed(Fault {
            op: Op::Write,
            file: "log".into(),
            nth: 2,
            action: Action::Tear(0.5),
        });
        fs.create_dir_all(&dir).unwrap();
        let path = dir.join("log");
        let mut file = fs.open_append(&path).unwrap();
        file.write_all(&[1; 10]).unwrap();
        assert!(!fs.fired());
        assert!(file.write_all(&[2; 10]).is_err());
        assert!(fs.fired() && fs.killed());
        assert!(file.sync_data().is_err() && fs.read(&path).is_err());
        assert_eq!(
            StdFs.read(&path).unwrap(),
            [[1; 10], [2; 10]].concat()[..15]
        );
        assert_eq!(fs.count(Op::Write, FileKind::Other), 2);

        let fs = FaultFs::armed(Fault::first(Op::Remove, "log", Action::Fail));
        assert!(fs.remove_file(&path).is_err());
        assert!(fs.fired() && !fs.killed());
        fs.remove_file(&path).unwrap();
        assert!(StdFs.list(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
