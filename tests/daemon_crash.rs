//! The daemon's durability contract: a hard kill at any point of the
//! durable-tick protocol — with batches arriving over the ingest path,
//! through the WAL and the bounded queue — recovers to a state from
//! which the resumed feed produces a transcript **byte-identical** to
//! a run that never crashed. Also: a graceful TERM mid-surge leaves a
//! state dir that reopens with zero journal replay and zero WAL
//! refill.

use blameit::persist::log::WAL_FILE;
use blameit::{
    fsck, render_tick_transcript, BadnessThresholds, BlameItConfig, PersistError, RecordBatch,
    StartMode, StateStore, TickOutput, WorldBackend,
};
use blameit_bench::{quiet_world, Scale};
use blameit_daemon::{feed, world_batches, CoreSink, DaemonConfig, DaemonCore, DaemonError};
use blameit_obs::MetricsRegistry;
use blameit_simnet::{CrashPlan, CrashPoint, SurgePlan, TimeBucket, TimeRange, World};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const N_TICKS: u32 = 6;

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blameit-dcr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(world: &World, dir: &Path, threads: usize) -> BlameItConfig {
    let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(world));
    cfg.parallelism = threads;
    cfg.state_dir = Some(dir.to_path_buf());
    cfg.snapshot_every_ticks = 2;
    cfg
}

/// Roomy admission knobs: the unsurged feed must never shed or refuse
/// (a tiny-world bucket is ≈ 8–12k records and up to four buckets sit
/// queued between ticks), while a 10× surge still overflows them.
fn roomy_dcfg() -> DaemonConfig {
    let mut dcfg = DaemonConfig::default();
    dcfg.admission.queue_cap_records = 160_000;
    dcfg.admission.shed_watermark_records = 90_000;
    dcfg.admission.per_loc_shed_cap = 30_000;
    dcfg
}

fn open_core<'a>(
    world: &'a World,
    dir: &Path,
    threads: usize,
) -> (DaemonCore<WorldBackend<'a>>, blameit::RecoveryReport) {
    let cfg = config(world, dir, threads);
    let inner = WorldBackend::with_parallelism(world, threads);
    DaemonCore::open(
        cfg,
        roomy_dcfg(),
        Arc::new(MetricsRegistry::new()),
        inner,
        TimeRange::days(1),
    )
    .unwrap()
}

/// Buckets `from..to` as the feeder's range.
fn buckets(from: u32, to: u32) -> TimeRange {
    TimeRange::new(TimeBucket(from).start(), TimeBucket(to).start())
}

/// Delivers `batches` through the in-process sink, one attempt each.
/// Returns the ticks that fired and whether a simulated kill cut the
/// feed short — `batches` then stands at the first batch the killed
/// daemon never saw, which is where the resumed feed picks up.
fn feed_core(
    core: &mut DaemonCore<WorldBackend<'_>>,
    batches: &mut impl Iterator<Item = RecordBatch>,
) -> (Vec<TickOutput>, bool) {
    let mut sink = CoreSink::new(core);
    let crashed = match feed(&mut sink, batches, 1) {
        Ok(fed) => {
            assert_eq!(fed.slow_downs, 0, "unsurged feed refused: {fed:?}");
            false
        }
        Err(DaemonError::Persist(PersistError::Crashed(_))) => true,
        Err(e) => panic!("feed failed: {e}"),
    };
    (sink.outs, crashed)
}

/// Feeds the unsurged world's buckets `from..to`, with no kill armed.
fn feed_quiet(
    core: &mut DaemonCore<WorldBackend<'_>>,
    world: &World,
    from: u32,
    to: u32,
) -> Vec<TickOutput> {
    let backend = WorldBackend::new(world);
    let mut batches = world_batches(&backend, buckets(from, to), SurgePlan::default());
    let (outs, crashed) = feed_core(core, &mut batches);
    assert!(!crashed, "no crash armed");
    outs
}

/// The uninterrupted reference: feed all buckets, terminate, render.
/// `tag` keeps concurrently running tests out of each other's dirs.
fn reference_run(world: &World, tag: &str, threads: usize, feed_range: (u32, u32)) -> String {
    let dir = state_dir(&format!("ref-{tag}-t{threads}"));
    let (mut core, recovery) = open_core(world, &dir, threads);
    assert_eq!(recovery.mode, StartMode::Cold);
    let mut outs = feed_quiet(&mut core, world, feed_range.0, feed_range.1);
    outs.extend(core.term().unwrap());
    assert_eq!(outs.len(), N_TICKS as usize);
    let t = render_tick_transcript(&outs);
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
    t
}

#[test]
fn kill_points_recover_to_byte_identical_transcripts() {
    let world = quiet_world(Scale::Tiny, 2, 0xC4A5);
    let start = TimeRange::days(1).end.bucket().0;
    let end = start + N_TICKS * 3;
    let backend = WorldBackend::new(&world);

    for threads in [1usize, 4] {
        let reference = reference_run(&world, "kill", threads, (start, end));
        for point in CrashPoint::ALL {
            // Snapshot-phase kill points only fire on a tick where a
            // snapshot is due (snapshot_every_ticks = 2 → odd 0-based
            // tick indices).
            let kill_tick = match point {
                CrashPoint::MidJournal | CrashPoint::PostJournal => 2,
                CrashPoint::PreSnapshot | CrashPoint::MidSnapshotWrite => 1,
            };
            let dir = state_dir(&format!("kill-{threads}-{point}"));
            let (mut core, recovery) = open_core(&world, &dir, threads);
            assert_eq!(recovery.mode, StartMode::Cold, "{point}");
            core.set_crash_plan(Some(CrashPlan::kill_at(kill_tick, point, 0x5EED)));
            let mut batches = world_batches(&backend, buckets(start, end), SurgePlan::default());
            let (delivered, crashed) = feed_core(&mut core, &mut batches);
            assert!(crashed, "the crash plan must fire ({point})");
            assert_eq!(delivered.len() as u64, kill_tick, "{point}");
            drop(core); // hard kill: no term, no snapshot, WAL as-is

            let (mut core, recovery) = open_core(&world, &dir, threads);
            assert_eq!(recovery.mode, StartMode::Recovered, "{point}");
            assert_eq!(recovery.snapshots_rejected, 0, "{point}");
            // Everything before the crash tick was already delivered.
            let skip = (delivered.len() as u64 - recovery.snapshot_ticks_done) as usize;
            assert!(recovery.replayed.len() >= skip, "{point}");
            let mut full = delivered;
            full.extend(recovery.replayed.into_iter().skip(skip));
            let (resumed, crashed) = feed_core(&mut core, &mut batches);
            assert!(!crashed, "no second crash ({point})");
            full.extend(resumed);
            full.extend(core.term().unwrap());

            assert_eq!(
                render_tick_transcript(&full),
                reference,
                "composed crash/recover/resume transcript differs ({point}, {threads} threads)"
            );
            drop(core);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn term_during_surge_leaves_a_clean_resumable_state() {
    let world = quiet_world(Scale::Tiny, 2, 0xC4A5);
    let start = TimeRange::days(1).end.bucket().0;
    // The whole fed range is surged 10×: TERM lands mid-overload.
    let surge = SurgePlan::single(TimeBucket(start), TimeBucket(start + N_TICKS * 3), 10, 0x7E);

    let dir = state_dir("term-surge");
    let (mut core, recovery) = open_core(&world, &dir, 1);
    assert_eq!(recovery.mode, StartMode::Cold);
    // Feed half the range, then TERM with the surge still in flight.
    // Under surge an offer may shed or refuse; both are fine — one
    // attempt each, and TERM must cope with whatever state that leaves.
    let backend = WorldBackend::new(&world);
    let half = buckets(start, start + N_TICKS * 3 / 2);
    let mut sink = CoreSink::new(&mut core);
    feed(&mut sink, world_batches(&backend, half, surge), 1).unwrap();
    let mut outs = sink.outs;
    assert!(core.stats().shed_low_impact > 0, "TERM landed mid-overload");
    outs.extend(core.term().unwrap());
    let ticks_before = core.ticks_done();
    drop(core);

    // The state dir must reopen warm: no journal replay, no WAL refill
    // (TERM compacted it), same tick count, and accept further feed.
    let (core, recovery) = open_core(&world, &dir, 1);
    assert_eq!(recovery.mode, StartMode::Recovered);
    assert!(recovery.replayed.is_empty(), "TERM left zero replay");
    assert_eq!(recovery.snapshots_rejected, 0);
    assert_eq!(core.ticks_done(), ticks_before);
    assert_eq!(
        core.queue_depth(),
        0,
        "TERM drained and compacted the queue"
    );
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fresh_start_does_not_replay_the_last_runs_wal() {
    let world = quiet_world(Scale::Tiny, 2, 0xC4A5);
    let start = TimeRange::days(1).end.bucket().0;
    let end = start + N_TICKS * 3;
    // A previous run fed most of the range and was killed: its WAL
    // still holds the batches no snapshot covers.
    let dir = state_dir("fresh");
    let (mut core, _) = open_core(&world, &dir, 1);
    feed_quiet(&mut core, &world, start, end - 1);
    assert!(core.queue_depth() > 0, "the killed run left batches queued");
    drop(core);

    // Starting fresh (what `blameitd` without --resume does) wipes the
    // WAL with the rest: nothing of the old feed comes back.
    StateStore::create(&dir).unwrap().wipe().unwrap();
    assert!(!dir.join(WAL_FILE).exists(), "wipe owns the WAL too");
    let (mut core, recovery) = open_core(&world, &dir, 1);
    assert_eq!(recovery.mode, StartMode::Cold);
    assert_eq!(core.queue_depth(), 0, "a fresh start has an empty queue");
    let mut outs = feed_quiet(&mut core, &world, start, end);
    outs.extend(core.term().unwrap());
    let clean = reference_run(&world, "fresh", 1, (start, end));
    assert_eq!(render_tick_transcript(&outs), clean);
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_audits_the_ingest_wal() {
    let world = quiet_world(Scale::Tiny, 2, 0xC4A5);
    let start = TimeRange::days(1).end.bucket().0;
    let dir = state_dir("fsck-wal");
    let (mut core, _) = open_core(&world, &dir, 1);
    feed_quiet(&mut core, &world, start, start + 4);
    drop(core);
    let wal = dir.join(WAL_FILE);
    let intact = std::fs::read(&wal).unwrap();
    let audit = |bytes: &[u8]| {
        std::fs::write(&wal, bytes).unwrap();
        let report = fsck(&dir);
        (report.errors(), report.wal_batches, report.render())
    };

    let (errors, batches, text) = audit(&intact);
    assert_eq!((errors, batches), (0, 4), "{text}");
    // The append a kill interrupted: crash residue, a warning.
    let (errors, batches, text) = audit(&intact[..intact.len() - 7]);
    assert_eq!((errors, batches), (0, 3), "{text}");
    assert!(
        text.contains(&format!("warn  {WAL_FILE}: torn tail")),
        "{text}"
    );
    // A flipped bit inside the second of four batches: an error.
    let mut flipped = intact.clone();
    flipped[intact.len() * 3 / 8] ^= 0x40;
    let (errors, batches, text) = audit(&flipped);
    assert_eq!((errors, batches), (1, 1), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
