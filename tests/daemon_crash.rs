//! The daemon's durability contract: a hard kill at any point of the
//! durable-tick protocol — with batches arriving over the ingest path,
//! through the WAL and the bounded queue — recovers to a state from
//! which the resumed feed produces a transcript **byte-identical** to
//! a run that never crashed. Also: a graceful TERM mid-surge leaves a
//! state dir that reopens with zero journal replay and zero WAL
//! refill.

use blameit::persist::log::WAL_FILE;
use blameit::{
    fsck, render_tick_transcript, Backend, BadnessThresholds, BlameItConfig, PersistError,
    RecordBatch, StartMode, StateStore, TickOutput, WorldBackend,
};
use blameit_bench::{quiet_world, Scale};
use blameit_daemon::{DaemonConfig, DaemonCore, DaemonError, OfferReply};
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

/// Offers world buckets `from..to` one by one, pumping after each.
/// Returns the delivered outputs, or (on a simulated kill) the outputs
/// plus the first bucket that had been offered but whose windows were
/// interrupted.
fn feed(
    core: &mut DaemonCore<WorldBackend<'_>>,
    world: &World,
    surge: &SurgePlan,
    from: u32,
    to: u32,
) -> Result<Vec<TickOutput>, (Vec<TickOutput>, u32)> {
    let backend = WorldBackend::new(world);
    let mut outs = Vec::new();
    for b in from..to {
        let bucket = TimeBucket(b);
        let records = backend.rtt_records_in(bucket).unwrap();
        let records = surge.amplify(bucket, &records);
        if records.is_empty() {
            continue;
        }
        let batch = RecordBatch::from_records(bucket, &records);
        match core.offer(batch) {
            Ok(OfferReply::Ack { .. }) => {}
            Ok(OfferReply::SlowDown { .. }) => panic!("unsurged feed refused at bucket {b}"),
            Err(e) => panic!("offer failed: {e}"),
        }
        match core.pump() {
            Ok(ticked) => outs.extend(ticked),
            Err(DaemonError::Persist(PersistError::Crashed(_))) => return Err((outs, b + 1)),
            Err(e) => panic!("pump failed: {e}"),
        }
    }
    Ok(outs)
}

/// The uninterrupted reference: feed all buckets, terminate, render.
/// `tag` keeps concurrently running tests out of each other's dirs.
fn reference_run(world: &World, tag: &str, threads: usize, feed_range: (u32, u32)) -> String {
    let dir = state_dir(&format!("ref-{tag}-t{threads}"));
    let (mut core, recovery) = open_core(world, &dir, threads);
    assert_eq!(recovery.mode, StartMode::Cold);
    let mut outs = feed(
        &mut core,
        world,
        &SurgePlan::default(),
        feed_range.0,
        feed_range.1,
    )
    .expect("no crash armed");
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
            let (delivered, resume_from) =
                feed(&mut core, &world, &SurgePlan::default(), start, end)
                    .expect_err("the crash plan must fire");
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
            let resumed = feed(&mut core, &world, &SurgePlan::default(), resume_from, end)
                .expect("no second crash");
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
    let mut outs = Vec::new();
    let backend = WorldBackend::new(&world);
    for b in start..start + N_TICKS * 3 / 2 {
        let bucket = TimeBucket(b);
        let records = surge.amplify(bucket, &backend.rtt_records_in(bucket).unwrap());
        let batch = RecordBatch::from_records(bucket, &records);
        // Under surge the offer may shed or refuse; both are fine —
        // TERM must cope with whatever state that leaves.
        let _ = core.offer(batch).unwrap();
        outs.extend(core.pump().unwrap());
    }
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
    let quiet = SurgePlan::default();

    // A previous run fed most of the range and was killed: its WAL
    // still holds the batches no snapshot covers.
    let dir = state_dir("fresh");
    let (mut core, _) = open_core(&world, &dir, 1);
    feed(&mut core, &world, &quiet, start, end - 1).expect("no crash armed");
    assert!(core.queue_depth() > 0, "the killed run left batches queued");
    drop(core);

    // Starting fresh (what `blameitd` without --resume does) wipes the
    // WAL with the rest: nothing of the old feed comes back.
    StateStore::create(&dir).unwrap().wipe().unwrap();
    assert!(!dir.join(WAL_FILE).exists(), "wipe owns the WAL too");
    let (mut core, recovery) = open_core(&world, &dir, 1);
    assert_eq!(recovery.mode, StartMode::Cold);
    assert_eq!(core.queue_depth(), 0, "a fresh start has an empty queue");
    let mut outs = feed(&mut core, &world, &quiet, start, end).expect("no crash armed");
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
    feed(&mut core, &world, &SurgePlan::default(), start, start + 4).expect("no crash armed");
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
