//! The one durable log: an append-only file of [`codec`] sections
//! behind the standard preamble. The tick journal and every segment of
//! the daemon's ingest WAL are this type, so the workspace has one
//! valid-prefix scan ([`scan`]), one torn-tail truncation
//! ([`Log::open`]) and one temp-file + fsync + rename + dir-fsync
//! create ([`write_atomic`], shared with snapshots). Every file call
//! goes through the log's [`Fs`]. A typed user
//! brings a file kind, its section payloads, and an `accept` callback
//! saying whether a CRC-valid section is one it trusts.
//!
//! A log that outgrows its data is not rewritten: [`Log::seal_to`]
//! renames the file aside as a *sealed segment* and starts an empty log
//! under the old name; the owner unlinks sealed segments it no longer
//! needs. [`segment_path`] and [`list_segments`] are the one naming
//! rule for those files.
//!
//! [`Log::append`] is `write_all` then `sync_data`, so acknowledging
//! after it never acknowledges bytes a crash can lose; a crash
//! mid-append leaves a strict prefix of one section, which the next
//! open finds past the valid prefix and truncates.
//!
//! The ingest WAL's sections come in two layouts, told apart by the
//! section id rather than by [`codec::FORMAT_VERSION`]. Id 1
//! ([`WAL_SEC_BATCH`]) is a batch's columns — 21 bytes of frame and
//! counts plus 16 a record — and is what builds before the key-run
//! layout wrote. Id 2 ([`WAL_SEC_RUNS`]) is [`KeyRuns`] — 25 bytes plus
//! 12 a key run and 8 a record — and is what the WAL writes now.
//! [`wal_batch`] reads both, so a WAL left by the previous build
//! replays and is appended to in place. A new WAL layout takes a new id
//! the same way; an id's layout never changes.

use super::codec::{self, ByteWriter, CodecError, KeyRuns};
use super::fs::{list_by, parent_dir, AppendFile, Fs, StdFs};
use super::PersistError;
use crate::columnar::RecordBatch;
use std::path::{Path, PathBuf};

/// The tick journal's file name inside a state directory.
pub const JOURNAL_FILE: &str = "journal.blj";
/// The ingest WAL's file name inside a state directory.
pub const WAL_FILE: &str = "ingest.wal";
/// Section id of one admitted batch in the column layout
/// ([`RecordBatch`]'s `Codec`, the wire `BATCH` body): the previous
/// WAL layout, read but no longer written.
pub const WAL_SEC_BATCH: u8 = 1;
/// Section id of one admitted batch in the key-run layout
/// ([`KeyRuns`]): what the ingest WAL appends.
pub const WAL_SEC_RUNS: u8 = 2;

/// The sealed segment `seq` of the log whose active file is `active`:
/// a sibling named `<active>.<seq, zero-padded>` (`ingest.wal.0000000003`),
/// so segments of one log sort by name in the order they were sealed.
pub fn segment_path(active: &Path, seq: u64) -> PathBuf {
    let name = active.file_name().unwrap_or_default().to_string_lossy();
    active.with_file_name(format!("{name}.{seq:010}"))
}

/// Every sealed segment of `active` on disk as `(seq, path)`, oldest
/// first. The active file itself is not listed.
pub fn list_segments(fs: &impl Fs, active: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let prefix = format!(
        "{}.",
        active.file_name().unwrap_or_default().to_string_lossy()
    );
    list_by(fs, parent_dir(active), |name| {
        name.strip_prefix(&prefix)?.parse().ok()
    })
}

/// The ingest WAL's trust rule, shared by the daemon's replay and
/// `fsck`: a section is one batch, in either layout, and nothing else.
pub fn wal_batch(id: u8, payload: &[u8]) -> Option<RecordBatch> {
    match id {
        WAL_SEC_BATCH => codec::decode_exact(payload).ok(),
        WAL_SEC_RUNS => codec::decode_exact::<KeyRuns>(payload)
            .ok()
            .map(|runs| runs.0.into_owned()),
        _ => None,
    }
}

/// What lies past a log's valid prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tail {
    /// Nothing: the file ends on a section boundary.
    Clean,
    /// At most one damaged section and nothing after it — what a crash
    /// mid-append leaves. Recovery truncates it; `fsck` warns.
    Torn,
    /// A damaged section with more bytes behind it: not crash residue.
    /// Recovery still keeps only the valid prefix; `fsck` errors.
    Corrupt,
}

/// Result of scanning a log's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogScan {
    /// Sections in the valid prefix.
    pub sections: u64,
    /// Bytes covered by the preamble plus the valid sections.
    pub valid_len: u64,
    /// Bytes past `valid_len`; zero for a clean log.
    pub trailing_bytes: u64,
    /// What those trailing bytes are.
    pub tail: Tail,
}

/// Walks `bytes` as a log of file kind `kind` and returns its valid
/// prefix: every leading section that passes its CRC *and* that
/// `accept(id, payload)` trusts. Errors only when the preamble is not
/// this kind of log at all.
pub fn scan(
    bytes: &[u8],
    kind: u8,
    mut accept: impl FnMut(u8, &[u8]) -> bool,
) -> Result<LogScan, CodecError> {
    let mut r = codec::read_preamble(bytes, kind)?;
    let (mut sections, mut valid_len, mut tail) = (0, r.pos(), Tail::Clean);
    while r.remaining() > 0 && tail == Tail::Clean {
        match codec::read_section(&mut r) {
            Ok((id, payload)) if accept(id, payload) => {
                sections += 1;
                valid_len = r.pos();
            }
            // Cut short by the end of the file, or whole but damaged
            // or untrusted with nothing behind it: one torn append.
            Err(CodecError::Truncated { .. }) => tail = Tail::Torn,
            _ if r.remaining() == 0 => tail = Tail::Torn,
            _ => tail = Tail::Corrupt,
        }
    }
    Ok(LogScan {
        sections,
        valid_len: valid_len as u64,
        trailing_bytes: (bytes.len() - valid_len) as u64,
        tail,
    })
}

/// [`scan`] over the file at `path`; `Ok(None)` when it does not exist.
pub fn scan_file(
    fs: &impl Fs,
    path: &Path,
    kind: u8,
    accept: impl FnMut(u8, &[u8]) -> bool,
) -> Result<Option<LogScan>, PersistError> {
    match fs.read(path) {
        Ok(bytes) => Ok(Some(scan(&bytes, kind, accept)?)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// The hidden temp name a file named `name` is staged under.
pub fn tmp_name(name: &str) -> String {
    format!(".{name}.tmp")
}

/// Where [`write_atomic`] stages the new contents of `path`: a hidden
/// `.tmp` sibling ([`tmp_name`]), which `StateStore` lists as crash
/// residue and loaders never open.
pub fn tmp_path(path: &Path) -> PathBuf {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    path.with_file_name(tmp_name(&name))
}

/// Replaces `path` with `bytes` so that a crash at any point leaves
/// either the old file or the new one, whole: write a temp sibling,
/// fsync it, rename it over, fsync the directory so the rename itself
/// is durable. Any failure, the directory fsync's included, is an
/// error: the replacement may not survive a power cut.
pub fn write_atomic(fs: &impl Fs, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    fs.create_write(&tmp, bytes)?;
    fs.rename(&tmp, path)?;
    fs.sync_dir(path)
}

/// A log open for appending.
#[derive(Debug)]
pub struct Log<F: Fs = StdFs> {
    fs: F,
    path: PathBuf,
    kind: u8,
    file: F::File,
    /// Encode scratch, reused across appends.
    buf: ByteWriter,
}

impl Log {
    /// [`Log::open_in`] on the real filesystem.
    pub fn open(
        path: &Path,
        kind: u8,
        init: impl FnOnce(&mut ByteWriter),
        accept: impl FnMut(u8, &[u8]) -> bool,
    ) -> Result<(Log, LogScan), PersistError> {
        Log::open_in(StdFs, path, kind, init, accept)
    }
}

impl<F: Fs> Log<F> {
    /// Opens the log at `path` on `fs` and truncates anything past its
    /// valid prefix so the next append starts on a section boundary. An
    /// absent or empty file is first created, atomically, holding the
    /// sections `init` writes. `accept` sees every CRC-valid section in
    /// order — it is both the typed user's trust check and its replay.
    pub fn open_in(
        fs: F,
        path: &Path,
        kind: u8,
        init: impl FnOnce(&mut ByteWriter),
        accept: impl FnMut(u8, &[u8]) -> bool,
    ) -> Result<(Log<F>, LogScan), PersistError> {
        let mut log = Log {
            file: fs.open_append(path)?,
            fs,
            path: path.to_path_buf(),
            kind,
            buf: ByteWriter::new(),
        };
        let mut bytes = log.fs.read(path)?;
        if bytes.is_empty() {
            log.rewrite(init)?;
            bytes = log.fs.read(path)?;
        }
        let scan = scan(&bytes, kind, accept)?;
        if scan.trailing_bytes > 0 {
            log.file.set_len(scan.valid_len)?;
            log.file.sync_data()?;
        }
        Ok((log, scan))
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The filesystem the log reads and writes through.
    pub fn fs(&self) -> &F {
        &self.fs
    }

    /// Atomically replaces the log's contents with exactly the sections
    /// `fill` writes; appends continue after them. A crash mid-rewrite
    /// leaves the old log intact. This is the create/reset primitive
    /// (a new log's header sections, the journal's reset) — it is never
    /// handed a log's existing records to copy.
    pub fn rewrite(&mut self, fill: impl FnOnce(&mut ByteWriter)) -> std::io::Result<()> {
        // Not the append scratch: a compaction's worth of bytes should
        // not stay allocated for the life of the log.
        let mut w = ByteWriter::new();
        codec::write_preamble(&mut w, self.kind);
        fill(&mut w);
        write_atomic(&self.fs, &self.path, w.as_bytes())?;
        self.file = self.fs.open_append(&self.path)?;
        Ok(())
    }

    /// Seals the log: renames its file to `sealed` and starts an empty
    /// log under the old name (atomic create, directory fsync'd — which
    /// makes the rename durable too). Nothing is copied or re-encoded. A
    /// crash after the rename leaves no file under the old name, which
    /// the next [`Log::open`] creates; a failure after it (the directory
    /// fsync's included) puts the name back, so the log keeps appending
    /// to the file it had and the next seal moves it.
    pub fn seal_to(&mut self, sealed: &Path) -> std::io::Result<()> {
        self.fs.rename(&self.path, sealed)?;
        self.rewrite(|_| {}).inspect_err(|_| {
            // The open handle followed the file; make the name agree.
            let _ = self.fs.rename(sealed, &self.path);
        })
    }

    /// Appends one section whose payload `body` writes, and fsyncs — on
    /// return the section is durable. Returns the bytes appended.
    pub fn append(&mut self, id: u8, body: impl FnOnce(&mut ByteWriter)) -> std::io::Result<u64> {
        self.buf.clear();
        codec::write_section_with(&mut self.buf, id, body);
        self.file.write_all(self.buf.as_bytes())?;
        self.file.sync_data()?;
        Ok(self.buf.len() as u64)
    }
}
