//! The one durable log: an append-only file of [`codec`] sections
//! behind the standard preamble. The tick journal and every segment of
//! the daemon's ingest WAL are this type, so the workspace has one
//! valid-prefix scan ([`scan`]), one torn-tail truncation
//! ([`Log::open`]) and one temp-file + fsync + rename + dir-fsync
//! create ([`write_atomic`], shared with snapshots). A typed user
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
use super::PersistError;
use crate::columnar::RecordBatch;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
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
pub fn list_segments(active: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let prefix = format!(
        "{}.",
        active.file_name().unwrap_or_default().to_string_lossy()
    );
    let dir = match active.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let seq = name.to_str().and_then(|n| n.strip_prefix(&prefix));
        if let Some(Ok(seq)) = seq.map(str::parse::<u64>) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable();
    Ok(out)
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
    path: &Path,
    kind: u8,
    accept: impl FnMut(u8, &[u8]) -> bool,
) -> Result<Option<LogScan>, PersistError> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(scan(&bytes, kind, accept)?)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Where [`write_atomic`] stages the new contents of `path`: a hidden
/// `.tmp` sibling, which `StateStore` lists as crash residue and
/// loaders never open.
pub fn tmp_path(path: &Path) -> PathBuf {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    path.with_file_name(format!(".{name}.tmp"))
}

/// Replaces `path` with `bytes` so that a crash at any point leaves
/// either the old file or the new one, whole: write a temp sibling,
/// fsync it, rename it over, fsync the directory so the rename itself
/// is durable (a no-op where directories cannot be opened).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(Ok(dir)) = path.parent().map(File::open) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// A log open for appending.
#[derive(Debug)]
pub struct Log {
    path: PathBuf,
    kind: u8,
    file: File,
    /// Encode scratch, reused across appends.
    buf: ByteWriter,
}

impl Log {
    /// Opens the log at `path` and truncates anything past its valid
    /// prefix so the next append starts on a section boundary. An
    /// absent or empty file is first created, atomically, holding the
    /// sections `init` writes. `accept` sees every CRC-valid section in
    /// order — it is both the typed user's trust check and its replay.
    pub fn open(
        path: &Path,
        kind: u8,
        init: impl FnOnce(&mut ByteWriter),
        accept: impl FnMut(u8, &[u8]) -> bool,
    ) -> Result<(Log, LogScan), PersistError> {
        let mut log = Log {
            path: path.to_path_buf(),
            kind,
            file: OpenOptions::new().append(true).create(true).open(path)?,
            buf: ByteWriter::new(),
        };
        if log.file.metadata()?.len() == 0 {
            log.rewrite(init)?;
        }
        let bytes = fs::read(path)?;
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
        write_atomic(&self.path, w.as_bytes())?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }

    /// Seals the log: renames its file to `sealed` and starts an empty
    /// log under the old name (atomic create, directory fsync'd — which
    /// makes the rename durable too). Nothing is copied or re-encoded. A
    /// crash after the rename leaves no file under the old name, which
    /// the next [`Log::open`] creates; a failure after it puts the name
    /// back, so the log keeps appending to the file it had.
    pub fn seal_to(&mut self, sealed: &Path) -> std::io::Result<()> {
        fs::rename(&self.path, sealed)?;
        self.rewrite(|_| {}).inspect_err(|_| {
            // The open handle followed the file; make the name agree.
            let _ = fs::rename(sealed, &self.path);
        })
    }

    fn encode(&mut self, id: u8, body: impl FnOnce(&mut ByteWriter)) {
        self.buf.clear();
        codec::write_section_with(&mut self.buf, id, body);
    }

    /// Appends one section whose payload `body` writes, and fsyncs — on
    /// return the section is durable. Returns the bytes appended.
    pub fn append(&mut self, id: u8, body: impl FnOnce(&mut ByteWriter)) -> std::io::Result<u64> {
        self.encode(id, body);
        self.file.write_all(self.buf.as_bytes())?;
        self.file.sync_data()?;
        Ok(self.buf.len() as u64)
    }

    /// Appends only a prefix of the section — the kill-point harness's
    /// torn write. `fraction` of its bytes reach the file (at least 1,
    /// never the whole CRC) and no fsync happens, exactly as a crash
    /// mid-append would leave it.
    pub fn append_torn(
        &mut self,
        id: u8,
        body: impl FnOnce(&mut ByteWriter),
        fraction: f64,
    ) -> std::io::Result<()> {
        self.encode(id, body);
        let bytes = self.buf.as_bytes();
        let n = ((bytes.len() as f64 * fraction) as usize).clamp(1, bytes.len() - 2);
        // lint:allow(panic-in-decode): write path — n is clamped below the section's own length (≥ 13 bytes)
        self.file.write_all(&bytes[..n])
    }
}
