//! The daemon's durability contract: a hard kill at any point of the
//! durable-tick protocol — with batches arriving over the ingest path,
//! through the WAL and the bounded queue — recovers to a state from
//! which the resumed feed produces a transcript **byte-identical** to
//! a run that never crashed. The same holds for a kill between any two
//! steps of a WAL rotation (seal-rename, fresh active segment, unlinks).
//! Also: a graceful TERM mid-surge leaves a state dir that reopens with
//! zero journal replay and zero WAL refill, and an unlink that fails
//! (a surplus WAL segment or snapshot) is counted, not fatal.

use blameit::persist::codec::{read_preamble, KIND_INGEST_WAL};
use blameit::persist::fs::{Action, Fault, FaultFs, Fs, Op, StdFs};
use blameit::persist::log::{list_segments, segment_path, WAL_FILE};
use blameit::{
    fsck, render_tick_transcript, BadnessThresholds, BlameItConfig, RecordBatch, StartMode,
    StateStore, TickOutput, WorldBackend,
};
use blameit_bench::{quiet_world, Scale};
use blameit_daemon::{feed, world_batches, CoreSink, DaemonConfig, DaemonCore, DaemonError};
use blameit_obs::MetricsRegistry;
use blameit_simnet::{CrashPoint, SurgePlan, TimeBucket, TimeRange, World};
use std::collections::BTreeMap;
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
    open_core_in(StdFs, world, dir, threads)
}

/// [`open_core`] on `fs`.
fn open_core_in<'a, F: Fs>(
    fs: F,
    world: &'a World,
    dir: &Path,
    threads: usize,
) -> (DaemonCore<WorldBackend<'a>, F>, blameit::RecoveryReport) {
    let cfg = config(world, dir, threads);
    let inner = WorldBackend::with_parallelism(world, threads);
    DaemonCore::open_in(
        fs,
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
/// Returns the ticks that fired and how the feed ended. When a kill cut
/// it short, `batches` stands at the first batch the killed daemon
/// never saw, which is where the resumed feed picks up.
fn feed_core<F: Fs>(
    core: &mut DaemonCore<WorldBackend<'_>, F>,
    batches: &mut impl Iterator<Item = RecordBatch>,
) -> (Vec<TickOutput>, Result<(), DaemonError>) {
    let mut sink = CoreSink::new(core);
    let fed = feed(&mut sink, batches, 1)
        .map(|fed| assert_eq!(fed.slow_downs, 0, "unsurged feed refused: {fed:?}"));
    (sink.outs, fed)
}

/// Feeds the unsurged world's buckets `from..to`, which must not fail.
fn feed_quiet<F: Fs>(
    core: &mut DaemonCore<WorldBackend<'_>, F>,
    world: &World,
    from: u32,
    to: u32,
) -> Vec<TickOutput> {
    let backend = WorldBackend::new(world);
    let mut batches = world_batches(&backend, buckets(from, to), SurgePlan::default());
    let (outs, fed) = feed_core(core, &mut batches);
    fed.expect("the feed fails nowhere");
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
    assert_eq!(outs.len() as u32, (feed_range.1 - feed_range.0) / 3);
    let t = render_tick_transcript(&outs);
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
    t
}

/// Reopens the killed daemon's `dir`, resumes the feed with `batches`,
/// terminates, and renders the composed history: the ticks `delivered`
/// before the kill, the replayed ones not among them, the resumed ones.
fn recover_and_finish(
    world: &World,
    dir: &Path,
    threads: usize,
    delivered: Vec<TickOutput>,
    batches: &mut impl Iterator<Item = RecordBatch>,
    what: &str,
) -> String {
    let (core, recovery) = open_core(world, dir, threads);
    assert_eq!(recovery.mode, StartMode::Recovered, "{what}");
    assert_eq!(recovery.snapshots_rejected, 0, "{what}");
    finish(core, recovery, delivered, batches, what)
}

/// The WAL batches a core's open queued and only checked (covered).
fn wal_replayed<F: Fs>(core: &DaemonCore<WorldBackend<'_>, F>) -> (u64, u64) {
    let m = core.engine().metrics();
    let gauges = (m.wal_replayed_queued.get(), m.wal_replayed_covered.get());
    (gauges.0 as u64, gauges.1 as u64)
}

/// [`recover_and_finish`] past the open: resumes `core` with `batches`,
/// terminates, and renders the composed history.
fn finish(
    mut core: DaemonCore<WorldBackend<'_>>,
    recovery: blameit::RecoveryReport,
    delivered: Vec<TickOutput>,
    batches: &mut impl Iterator<Item = RecordBatch>,
    what: &str,
) -> String {
    // Everything before the crash tick was already delivered.
    let skip = (delivered.len() as u64 - recovery.snapshot_ticks_done) as usize;
    assert!(recovery.replayed.len() >= skip, "{what}");
    let mut full = delivered;
    full.extend(recovery.replayed.into_iter().skip(skip));
    let (resumed, fed) = feed_core(&mut core, batches);
    fed.unwrap_or_else(|e| panic!("no second crash ({what}): {e}"));
    full.extend(resumed);
    full.extend(core.term().unwrap());
    render_tick_transcript(&full)
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
            let fs = FaultFs::armed(Fault::crash(point, kill_tick, 0x5EED));
            let (mut core, recovery) = open_core_in(fs.clone(), &world, &dir, threads);
            assert_eq!(recovery.mode, StartMode::Cold, "{point}");
            let mut batches = world_batches(&backend, buckets(start, end), SurgePlan::default());
            let (delivered, fed) = feed_core(&mut core, &mut batches);
            assert!(fed.is_err() && fs.killed(), "the kill must fire ({point})");
            assert_eq!(delivered.len() as u64, kill_tick, "{point}");
            drop(core); // hard kill: no term, no snapshot, WAL as-is

            let what = format!("{point}, {threads} threads");
            assert_eq!(
                recover_and_finish(&world, &dir, threads, delivered, &mut batches, &what),
                reference,
                "composed crash/recover/resume transcript differs ({what})"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The newest snapshot torn by more than a crash: the reopen falls back
/// to the one before it, refills the queue from *that* snapshot's first
/// unconsumed bucket — the WAL keeps one extra snapshot period for
/// exactly this — and replays its journaled ticks through it.
#[test]
fn a_fallback_recovery_refills_from_the_older_snapshot() {
    let world = quiet_world(Scale::Tiny, 2, 0xC4A5);
    let start = TimeRange::days(1).end.bucket().0;
    let end = start + N_TICKS * 3;
    let backend = WorldBackend::new(&world);

    for threads in [1usize, 4] {
        let reference = reference_run(&world, "fallback", threads, (start, end));
        // Killed with four ticks done: snapshots 0, 2 and 4 on disk.
        let dir = state_dir(&format!("fallback-{threads}"));
        let (mut core, _) = open_core(&world, &dir, threads);
        let mut batches = world_batches(&backend, buckets(start, end), SurgePlan::default());
        let (delivered, fed) = feed_core(&mut core, &mut batches.by_ref().take(14));
        fed.unwrap();
        assert_eq!(delivered.len(), 4);
        drop(core);

        // The same directory reopened intact loads snapshot 4 and
        // queues buckets 12 and 13 only.
        let intact = state_dir(&format!("fallback-{threads}-intact"));
        copy_dir(&dir, &intact);
        let (core, recovery) = open_core(&world, &intact, threads);
        assert_eq!(recovery.snapshot_ticks_done, 4);
        assert_eq!(wal_replayed(&core), (2, 12));
        drop(core);
        let _ = std::fs::remove_dir_all(&intact);

        let snapshots = StateStore::create(&dir).unwrap().list_snapshots().unwrap();
        let (ticks, newest) = snapshots.last().unwrap();
        assert_eq!(*ticks, 4);
        let mut bytes = std::fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(newest, bytes).unwrap();

        let what = format!("fallback, {threads} threads");
        let (core, recovery) = open_core(&world, &dir, threads);
        assert_eq!(recovery.mode, StartMode::RecoveredFallback, "{what}");
        assert_eq!(recovery.snapshots_rejected, 1, "{what}");
        assert_eq!(recovery.snapshot_ticks_done, 2, "{what}");
        assert_eq!(recovery.ticks_replayed, 2, "{what}");
        // Snapshot 2's first unconsumed bucket is 6: six more batches
        // queued, six fewer only checked.
        assert_eq!(wal_replayed(&core), (8, 6), "{what}");
        assert_eq!(
            finish(core, recovery, delivered, &mut batches, &what),
            reference,
            "resumed transcript differs ({what})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `TERM` after a feed that ends on a snapshot tick writes no second
/// copy of that snapshot — unless something the snapshot persists
/// changed after the tick wrote it: here the overload watchdog, which
/// runs after the durable tick, adds a flight dump on that very tick.
#[test]
fn term_rewrites_the_last_snapshot_only_when_it_changed() {
    let world = quiet_world(Scale::Tiny, 2, 0xC4A5);
    let start = TimeRange::days(1).end.bucket().0;
    let end = start + N_TICKS * 3;
    let backend = WorldBackend::new(&world);
    // Buckets 16 and 17 of the last window surged 10×: they shed, and a
    // watchdog armed at one overloaded tick fires on tick 6, which TERM
    // drains and which is due a snapshot.
    let surged = SurgePlan::single(TimeBucket(start + 16), TimeBucket(end), 10, 0x7E);
    for (surge, rewritten) in [(SurgePlan::default(), false), (surged, true)] {
        let dir = state_dir(&format!("term-rewrite-{rewritten}"));
        let cfg = config(&world, &dir, 1);
        let mut dcfg = roomy_dcfg();
        dcfg.overload_sustained_ticks = 1;
        let registry = Arc::new(MetricsRegistry::new());
        let inner = WorldBackend::new(&world);
        let warmup = TimeRange::days(1);
        let (mut core, _) = DaemonCore::open(cfg, dcfg, registry.clone(), inner, warmup).unwrap();
        let mut sink = CoreSink::new(&mut core);
        feed(
            &mut sink,
            world_batches(&backend, buckets(start, end), surge),
            1,
        )
        .unwrap();
        assert_eq!(sink.outs.len(), N_TICKS as usize - 1);
        assert_eq!(core.stats().shed_low_impact > 0, rewritten);
        assert_eq!(core.term().unwrap().len(), 1);
        let dumps = |core: &DaemonCore<WorldBackend<'_>>| {
            core.engine().flight().with_ring(|_, dumps| dumps.len())
        };
        assert_eq!(dumps(&core), usize::from(rewritten));
        // The checkpoint and ticks 2, 4 and 6's snapshots, and TERM's
        // rewrite of the last only when the watchdog fired.
        let written = registry.counter("blameit_snapshots_written_total").get();
        assert_eq!(written, 4 + u64::from(rewritten));
        drop(core);

        // Either way the reopened state is TERM's: the dump is there.
        let (core, recovery) = open_core(&world, &dir, 1);
        assert!(recovery.replayed.is_empty());
        assert_eq!(recovery.snapshot_ticks_done, N_TICKS as u64);
        assert_eq!(dumps(&core), usize::from(rewritten));
        drop(core);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Flat copy of a state dir (it holds files only).
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Sequence numbers of the sealed WAL segments in `dir`.
fn sealed(dir: &Path) -> Vec<u64> {
    let segments = list_segments(&StdFs, &dir.join(WAL_FILE)).unwrap();
    segments.into_iter().map(|(seq, _)| seq).collect()
}

#[test]
fn a_kill_between_any_two_rotation_steps_resumes_byte_identically() {
    let world = quiet_world(Scale::Tiny, 2, 0xC4A5);
    let start = TimeRange::days(1).end.bucket().0;
    // Ten ticks, a snapshot — hence a WAL rotation — after every second
    // one. The rotation after tick 8 seals segment 4 and retires
    // segment 2 (segment 1 went at tick 6); it fires on the arrival of
    // bucket start+24, the 25th batch.
    let end = start + 10 * 3;
    let rotating = 25u32;
    let backend = WorldBackend::new(&world);
    let feed_from =
        |bucket: u32| world_batches(&backend, buckets(bucket, end), SurgePlan::default());

    for threads in [1usize, 4] {
        let reference = reference_run(&world, "rot", threads, (start, end));
        let dir = state_dir(&format!("rot-{threads}"));
        let wal = dir.join(WAL_FILE);
        let (mut core, _) = open_core(&world, &dir, threads);
        // Batch by batch, keeping the bytes of every sealed segment, so
        // the ones a rotation unlinks can be put back.
        let mut batches = feed_from(start);
        let mut graveyard: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut delivered = Vec::new();
        for _ in 0..rotating {
            for (seq, path) in list_segments(&StdFs, &wal).unwrap() {
                graveyard
                    .entry(seq)
                    .or_insert_with(|| std::fs::read(path).unwrap());
            }
            let (outs, fed) = feed_core(&mut core, &mut batches.by_ref().take(1));
            fed.unwrap();
            delivered.extend(outs);
        }
        drop(core); // killed right after the rotation
        assert_eq!(delivered.len(), 8);
        assert_eq!(sealed(&dir), vec![3, 4]);

        // Each directory state a kill inside that rotation can leave:
        // (what, retired segments still on disk, active segment there).
        let states: [(&str, &[u64], bool); 4] = [
            ("killed after the seal-rename", &[2], false),
            ("killed before the first unlink", &[2], true),
            ("an earlier rotation's unlink was lost too", &[1, 2], true),
            ("killed after the last unlink", &[], true),
        ];
        let copy = state_dir(&format!("rot-{threads}-copy"));
        for (what, restored, active) in states {
            copy_dir(&dir, &copy);
            for seq in restored {
                std::fs::write(segment_path(&copy.join(WAL_FILE), *seq), &graveyard[seq]).unwrap();
            }
            if !active {
                std::fs::remove_file(copy.join(WAL_FILE)).unwrap();
            }
            let what = format!("{what}, {threads} threads");
            let mut rest = feed_from(start + rotating);
            assert_eq!(
                recover_and_finish(&world, &copy, threads, delivered.clone(), &mut rest, &what),
                reference,
                "resumed transcript differs ({what})"
            );
        }

        // The layout the single-file WAL left (and an upgraded daemon
        // may find): every section above, in order, in `ingest.wal`
        // alone.
        copy_dir(&dir, &copy);
        let active = copy.join(WAL_FILE);
        let mut one_file = Vec::new();
        for (_, path) in list_segments(&StdFs, &active).unwrap() {
            let bytes = std::fs::read(&path).unwrap();
            let preamble = read_preamble(&bytes, KIND_INGEST_WAL).unwrap().pos();
            one_file.extend_from_slice(&bytes[if one_file.is_empty() { 0 } else { preamble }..]);
            std::fs::remove_file(path).unwrap();
        }
        std::fs::write(&active, one_file).unwrap();
        let what = format!("single-file WAL, {threads} threads");
        let mut rest = feed_from(start + rotating);
        assert_eq!(
            recover_and_finish(&world, &copy, threads, delivered.clone(), &mut rest, &what),
            reference,
            "resumed transcript differs ({what})"
        );

        // A kill that tears an append, with sealed segments beside the
        // active one: two more batches (no tick), the second cut short.
        copy_dir(&dir, &copy);
        let (mut core, _) = open_core(&world, &copy, threads);
        let (outs, _) = feed_core(&mut core, &mut feed_from(start + rotating).take(2));
        assert!(outs.is_empty());
        drop(core);
        let active = copy.join(WAL_FILE);
        let bytes = std::fs::read(&active).unwrap();
        std::fs::write(&active, &bytes[..bytes.len() - 7]).unwrap();
        let report = fsck(&copy);
        assert_eq!(
            (report.errors(), report.wal_segments),
            (0, 3),
            "{}",
            report.render()
        );
        assert!(
            report
                .render()
                .contains(&format!("warn  {WAL_FILE}: torn tail")),
            "{}",
            report.render()
        );
        // The torn batch was never ACKed: the feeder sends it again.
        let what = format!("torn active segment, {threads} threads");
        let mut rest = feed_from(start + rotating + 1);
        assert_eq!(
            recover_and_finish(&world, &copy, threads, delivered, &mut rest, &what),
            reference,
            "resumed transcript differs ({what})"
        );
        let _ = std::fs::remove_dir_all(&copy);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_failed_wal_retirement_is_counted_and_the_next_prune_retries() {
    let world = quiet_world(Scale::Tiny, 2, 0xC4A5);
    let start = TimeRange::days(1).end.bucket().0;
    let dir = state_dir("retire-fails");
    let fs = FaultFs::new();
    let (mut core, _) = open_core_in(fs.clone(), &world, &dir, 1);
    let failures = |core: &DaemonCore<WorldBackend<'_>, FaultFs>| {
        core.engine().metrics().wal_retire_failures.get()
    };
    // Through tick 4: two rotations, nothing retired yet.
    assert_eq!(feed_quiet(&mut core, &world, start, start + 13).len(), 4);
    assert_eq!(sealed(&dir), vec![1, 2]);

    // Tick 6's rotation seals segment 3 and fails to retire segment 1;
    // the daemon ticks on and says so.
    let segment = segment_path(Path::new(WAL_FILE), 1);
    let segment = segment.to_str().unwrap();
    fs.arm(Fault::first(Op::Remove, segment, Action::Fail));
    assert_eq!(
        feed_quiet(&mut core, &world, start + 13, start + 19).len(),
        2
    );
    assert!(fs.fired());
    assert_eq!(failures(&core), 1);
    assert_eq!(sealed(&dir), vec![1, 2, 3]);

    // Tick 8's rotation retires what tick 6's could not, along with its
    // own.
    assert_eq!(
        feed_quiet(&mut core, &world, start + 19, start + 25).len(),
        2
    );
    assert_eq!(failures(&core), 1);
    assert_eq!(sealed(&dir), vec![3, 4]);
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_snapshot_prune_is_counted_and_the_next_prune_retries() {
    let world = quiet_world(Scale::Tiny, 2, 0xC4A5);
    let start = TimeRange::days(1).end.bucket().0;
    let dir = state_dir("prune-fails");
    let fs = FaultFs::new();
    let (mut core, _) = open_core_in(fs.clone(), &world, &dir, 1);
    let registry = core.engine().metrics().registry().clone();
    let counter = |name: &str| registry.counter(name).get();
    let snapshots = || -> Vec<u64> {
        let listed = StateStore::create(&dir).unwrap().list_snapshots().unwrap();
        listed.into_iter().map(|(ticks, _)| ticks).collect()
    };
    // The checkpoint and the snapshots after ticks 2 and 4 are the
    // three kept.
    assert_eq!(feed_quiet(&mut core, &world, start, start + 13).len(), 4);
    assert_eq!(snapshots(), vec![0, 2, 4]);

    // Tick 6's snapshot is durable before its prune fails to unlink the
    // checkpoint: the tick returns, the snapshot counts, the failure is
    // counted.
    fs.arm(Fault::first(
        Op::Remove,
        "snapshot-0000000000.snap",
        Action::Fail,
    ));
    assert_eq!(
        feed_quiet(&mut core, &world, start + 13, start + 19).len(),
        2
    );
    assert!(fs.fired());
    assert_eq!(counter("blameit_snapshot_prune_failures_total"), 1);
    assert_eq!(counter("blameit_snapshots_written_total"), 4);
    assert_eq!(snapshots(), vec![0, 2, 4, 6]);

    // Tick 8's prune lists the directory afresh and unlinks both.
    assert_eq!(
        feed_quiet(&mut core, &world, start + 19, start + 25).len(),
        2
    );
    assert_eq!(counter("blameit_snapshot_prune_failures_total"), 1);
    assert_eq!(counter("blameit_snapshots_written_total"), 5);
    assert_eq!(snapshots(), vec![4, 6, 8]);
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
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
    assert!(
        !list_segments(&StdFs, &dir.join(WAL_FILE))
            .unwrap()
            .is_empty(),
        "some of them in sealed segments"
    );

    // Starting fresh (what `blameitd` without --resume does) wipes the
    // WAL with the rest: nothing of the old feed comes back.
    StateStore::create(&dir).unwrap().wipe().unwrap();
    assert!(!dir.join(WAL_FILE).exists(), "wipe owns the WAL too");
    assert_eq!(
        list_segments(&StdFs, &dir.join(WAL_FILE)).unwrap(),
        vec![],
        "and its sealed segments"
    );
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

#[test]
fn fsck_audits_every_wal_segment() {
    let world = quiet_world(Scale::Tiny, 2, 0xC4A5);
    let start = TimeRange::days(1).end.bucket().0;
    let dir = state_dir("fsck-segments");
    let (mut core, _) = open_core(&world, &dir, 1);
    // Through tick 6: segments 2 and 3 sealed, 1 retired, and one more
    // batch in the active segment.
    feed_quiet(&mut core, &world, start, start + 20);
    drop(core);
    assert_eq!(sealed(&dir), vec![2, 3]);
    let wal = dir.join(WAL_FILE);
    let audit = || {
        let report = fsck(&dir);
        (report.errors(), report.wal_batches, report.render())
    };

    // Buckets start+7 ..= start+19, summed over the three files.
    let (errors, batches, text) = audit();
    assert_eq!((errors, batches), (0, 13), "{text}");
    assert!(text.contains("13 wal batch(es) in 3 segment(s)"), "{text}");
    // A sealed segment is never appended to: its torn tail is damage.
    let second = segment_path(&wal, 2);
    let intact = std::fs::read(&second).unwrap();
    std::fs::write(&second, &intact[..intact.len() - 7]).unwrap();
    let (errors, batches, text) = audit();
    assert_eq!((errors, batches), (1, 12), "{text}");
    std::fs::write(&second, &intact).unwrap();
    // A hole in the sequence means batches are missing mid-feed.
    std::fs::rename(segment_path(&wal, 3), segment_path(&wal, 4)).unwrap();
    let (errors, batches, text) = audit();
    assert_eq!((errors, batches), (1, 13), "{text}");
    assert!(text.contains("missing between 2 and 4"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
