//! Ingest-WAL byte pin: the exact bytes a `DaemonCore` leaves in its WAL
//! segments for one fixed tiny feed — per segment, the file length,
//! every section's `id:length:crc` and a CRC32 of the whole file —
//! pinned under `tests/golden/`, at 1 and 4 engine threads. The feed
//! crosses one rotation, so the pin holds one sealed segment and the
//! active one. A codec change that moves a single WAL byte (or a CRC
//! that stops agreeing with the one that wrote the golden) shows up
//! here; replaying a WAL an older build wrote depends on exactly that.
//! Reopening the crashed state must read every one of those bytes back
//! (`blameit_wal_replayed_bytes`).
//!
//! The sections are id 2, the key-run layout (`codec::KeyRuns`). A WAL
//! layout change takes a new section id, which `log::wal_batch` reads
//! beside the old ones: never an edited layout under an existing id,
//! and never a `FORMAT_VERSION` bump, which would make every WAL on
//! disk unreadable. Only with a new id (or a deliberate change to the
//! feed or the world) re-pin:
//!
//! ```text
//! BLESS=1 cargo test --test wal_pin
//! ```

use blameit::persist::codec::{crc32, read_preamble, read_section, KIND_INGEST_WAL};
use blameit::persist::log::{list_segments, WAL_FILE};
use blameit::{BadnessThresholds, BlameItConfig, RecoveryReport, StartMode, WorldBackend};
use blameit_bench::{quiet_world, Scale};
use blameit_daemon::{feed, world_batches, CoreSink, DaemonConfig, DaemonCore};
use blameit_obs::MetricsRegistry;
use blameit_simnet::{SurgePlan, TimeRange, World};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEED: u64 = 0xD5EED;
/// Buckets fed: three tick windows' worth, so the second tick (a
/// snapshot tick at `snapshot_every_ticks = 2`) rotates the WAL and the
/// last two buckets land in the fresh active segment.
const BUCKETS: u32 = 9;

fn state_dir(threads: usize) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("blameit-walpin-t{threads}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_core<'a>(
    world: &'a World,
    dir: &Path,
    threads: usize,
) -> (DaemonCore<WorldBackend<'a>>, RecoveryReport) {
    let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(world));
    cfg.parallelism = threads;
    cfg.state_dir = Some(dir.to_path_buf());
    cfg.snapshot_every_ticks = 2;
    let inner = WorldBackend::with_parallelism(world, threads);
    let registry = Arc::new(MetricsRegistry::new());
    DaemonCore::open(
        cfg,
        DaemonConfig::default(),
        registry,
        inner,
        TimeRange::days(1),
    )
    .unwrap()
}

/// `segment <name>` / `len` / one `section` line per section / whole-file
/// `crc32`, for one WAL file.
fn describe(out: &mut String, name: &str, bytes: &[u8]) {
    let _ = writeln!(out, "segment {name}\nlen {}", bytes.len());
    let mut r = read_preamble(bytes, KIND_INGEST_WAL).expect("own WAL has a valid preamble");
    while r.remaining() > 0 {
        let (id, payload) = read_section(&mut r).expect("own WAL sections are intact");
        let _ = writeln!(out, "section {id}:{}:{:08x}", payload.len(), crc32(payload));
    }
    let _ = writeln!(out, "crc32 {:08x}", crc32(bytes));
}

/// Feeds the fixed range into a fresh core, drops it as a crash would
/// (no `TERM`) and describes every WAL file it leaves: sealed segments
/// in sequence order, then the active one. Then reopens the state.
fn pinned_wal(world: &World, threads: usize) -> String {
    let dir = state_dir(threads);
    let (mut core, recovery) = open_core(world, &dir, threads);
    assert_eq!(recovery.mode, StartMode::Cold);
    let source = WorldBackend::new(world);
    let start = TimeRange::days(1).end;
    let range = TimeRange::new(start, start.bucket().plus(BUCKETS).start());
    let mut sink = CoreSink::new(&mut core);
    let fed = feed(
        &mut sink,
        world_batches(&source, range, SurgePlan::default()),
        1,
    )
    .unwrap();
    assert_eq!(fed.batches, u64::from(BUCKETS));
    assert_eq!(fed.records_offered, fed.records_admitted, "nothing shed");
    assert_eq!(sink.outs.len(), 2, "two tick windows fired");
    drop(core);

    let active = dir.join(WAL_FILE);
    let sealed = list_segments(&active).unwrap();
    assert_eq!(sealed.len(), 1, "one rotation sealed one segment");
    let (mut out, mut on_disk) = (String::new(), 0);
    for path in sealed.iter().map(|(_, p)| p).chain([&active]) {
        let name = path.file_name().unwrap().to_string_lossy();
        let bytes = std::fs::read(path).unwrap();
        describe(&mut out, &name, &bytes);
        on_disk += bytes.len();
    }

    let (core, recovery) = open_core(world, &dir, threads);
    assert_eq!(recovery.mode, StartMode::Recovered);
    let replayed = core.engine().metrics().wal_replayed_bytes.get();
    assert_eq!(replayed, on_disk as f64, "the open read every segment");
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn wal_bytes_match_the_pin_at_one_and_four_threads() {
    let world = quiet_world(Scale::Tiny, 2, SEED);
    let got = pinned_wal(&world, 1);
    assert_eq!(
        got,
        pinned_wal(&world, 4),
        "WAL bytes depend on the thread count"
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wal_pin.txt");
    if blameit_scenario::bless_requested() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); regenerate with BLESS=1 cargo test --test wal_pin",
            path.display()
        )
    });
    assert_eq!(
        want, got,
        "WAL bytes moved (a new WAL layout takes a new section id; re-pin with BLESS=1 only then)"
    );
}
