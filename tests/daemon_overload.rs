//! Overload determinism through the daemon's decision core: the same
//! surged feed, replayed bucket by bucket at different thread counts,
//! must shed exactly the same quartet groups and produce byte-identical
//! tick transcripts — while the queue never exceeds its hard cap and
//! backpressure is actually exercised. This is the in-process half of
//! the `blameitd` overload contract (the socket half lives in
//! `tests/daemon_smoke.rs`, the scenario-library golden in
//! `scenarios/ingest-surge-overload.scn`).
//!
//! It is also the repo's first **counter-based perf gate**: admission
//! scores groups only for offers past the shed watermark, and the
//! deterministic work counter `blameit_admission_groups_scored_total`
//! is asserted here — 0 on the quiet feed, an exact pinned count on the
//! surged one, equal at 1 and 4 engine threads. The WAL's work
//! counters ride along: `blameit_wal_bytes_appended_total` must equal
//! an independent sum over the admitted offers, and the segments sealed
//! and retired are pinned. So does the IO shape: an unarmed `FaultFs`
//! under the core counts its filesystem calls, and each count is tied
//! to the work that makes it — one WAL `sync_data` per admitted offer
//! (per ACK), one journal write per tick, one snapshot create, rename
//! and directory fsync per snapshot written, one unlink per retired
//! segment or pruned snapshot. The quiet feed is also killed once
//! before `TERM` and reopened, which pins what the reopen did with the
//! WAL: the batches it queued and the batches its snapshot already
//! covered, which it only checked. A later deterministic work counter
//! (the ROADMAP's in-tree work counters) should extend `OverloadRun`
//! and these two tests rather than invent a second shape.

use blameit::persist::fs::{FaultFs, FileKind, Op};
use blameit::{
    render_tick_transcript, BadnessThresholds, BlameItConfig, RecordBatch, StartMode, StateStore,
    TickOutput, WorldBackend,
};
use blameit_bench::{quiet_world, Scale};
use blameit_daemon::{
    feed, world_batches, CoreSink, DaemonConfig, DaemonCore, DaemonError, IngestStats, OfferReply,
    ShedEntry, Sink,
};
use blameit_obs::{FlightTrigger, MetricsRegistry};
use blameit_simnet::{SurgePlan, TimeBucket, TimeRange, World};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blameit-dov-{tag}-{}", std::process::id()));
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

/// The overload knobs the surged tiny-world feed was calibrated
/// against (one post-midnight tiny-world bucket carries ≈ 8k records,
/// a 10× surged bucket ≈ 80k): surged buckets are admitted with heavy
/// shedding until the parked queue forces wholesale refusals.
fn overload_dcfg() -> DaemonConfig {
    let mut dcfg = DaemonConfig::default();
    dcfg.admission.queue_cap_records = 160_000;
    dcfg.admission.shed_watermark_records = 90_000;
    dcfg.admission.per_loc_shed_cap = 30_000;
    dcfg
}

struct OverloadRun {
    transcript: String,
    shed_log: Vec<ShedEntry>,
    stats: IngestStats,
    abandoned: u64,
    overload_fired: bool,
    /// `blameit_admission_groups_scored_total` after the feed.
    groups_scored: u64,
    /// `blameit_wal_bytes_appended_total` after the feed.
    wal_bytes_appended: u64,
    /// `blameit_wal_segments_{sealed,retired}_total` after `TERM`.
    wal_segments: (u64, u64),
    /// Filesystem calls after `TERM`: WAL `sync_data`s, journal writes,
    /// snapshot creates, unlinks.
    io: (u64, u64, u64, u64),
    /// On a run with a crash before `TERM`, the reopen's
    /// `blameit_wal_replayed_batches{state="queued"|"covered"}`.
    wal_replayed: Option<(u64, u64)>,
}

/// The deterministic work counters `OverloadRun` pins. They are not
/// persisted, so a reopened core counts from zero; a run with a crash
/// adds up both cores' counts.
#[derive(Clone, Copy, Debug, Default)]
struct Work {
    groups_scored: u64,
    wal_bytes_appended: u64,
    wal_sealed: u64,
    wal_retired: u64,
    snapshots_written: u64,
}

impl Work {
    /// `core`'s counts, plus those of the cores before it (`self`).
    fn plus(self, core: &DaemonCore<WorldBackend<'_>, FaultFs>) -> Work {
        let m = core.engine().metrics();
        assert_eq!(
            m.admission_groups_scored.get(),
            core.admission().groups_scored()
        );
        let written = m.registry().counter("blameit_snapshots_written_total");
        Work {
            groups_scored: self.groups_scored + m.admission_groups_scored.get(),
            wal_bytes_appended: self.wal_bytes_appended + m.wal_bytes_appended.get(),
            wal_sealed: self.wal_sealed + m.wal_segments_sealed.get(),
            wal_retired: self.wal_retired + m.wal_segments_retired.get(),
            snapshots_written: self.snapshots_written + written.get(),
        }
    }
}

/// The in-process sink with the queue bounds checked at every reply:
/// a refusal quotes a depth within the cap, and after each offer (and
/// the pump behind it) the queue itself is within the cap.
///
/// It also sums, independently of the controller, the group counts of
/// exactly the offers that arrive past the shed watermark without
/// being refused — what the scoring work counter must read — and the
/// WAL section bytes of every offer that admitted records: 25 bytes of
/// frame and counts (id, length, CRC; bucket, records, runs), 12 a key
/// run and 8 a record. The runs are counted from the offer, never read
/// back from the WAL: the admitted batch is key-sorted, so it holds one
/// run per distinct key of the offer that was not shed, and each group
/// the shed log gains on the offer is one shed key.
struct CapChecked<'c, 'w> {
    inner: CoreSink<'c, WorldBackend<'w>, FaultFs>,
    groups_past_watermark: u64,
    wal_bytes: u64,
    /// Offers that admitted records: each is one WAL append.
    admitted_offers: u64,
}

impl Sink for CapChecked<'_, '_> {
    type Error = DaemonError;

    fn offer(&mut self, batch: &RecordBatch) -> Result<OfferReply, DaemonError> {
        let cfg = self.inner.core.admission().config();
        let (cap, watermark) = (cfg.queue_cap_records, cfg.shed_watermark_records);
        let arriving = self.inner.core.queue_depth() + batch.keys.len();
        let mut keys = batch.keys.clone();
        keys.sort_unstable();
        keys.dedup();
        if arriving > watermark && arriving <= cap {
            self.groups_past_watermark += keys.len() as u64;
        }
        let shed_before = self.inner.core.shed_log().len();
        let reply = self.inner.offer(batch)?;
        match reply {
            OfferReply::SlowDown { queue_depth, .. } => assert!(
                queue_depth as usize <= cap,
                "refusal quotes a bounded depth"
            ),
            OfferReply::Ack { admitted, .. } if admitted > 0 => {
                let shed_groups = self.inner.core.shed_log().len() - shed_before;
                let runs = (keys.len() - shed_groups) as u64;
                self.wal_bytes += 25 + 12 * runs + 8 * admitted;
                self.admitted_offers += 1;
            }
            OfferReply::Ack { .. } => {}
        }
        assert!(
            self.inner.core.queue_depth() <= cap,
            "queue depth {} exceeded the hard cap {cap}",
            self.inner.core.queue_depth()
        );
        Ok(reply)
    }
}

/// Feeds `n_ticks` windows of (surged) world telemetry through a fresh
/// `DaemonCore` with the workspace's one feeder, abandoning a bucket
/// after three refusals, and terminates gracefully. With `crash`, the
/// core is dropped once the feed ends — a kill: nothing flushed — and
/// reopened on the same filesystem before `TERM`.
fn run_surged(
    world: &World,
    tag: &str,
    threads: usize,
    surge: &SurgePlan,
    crash: bool,
) -> OverloadRun {
    let dir = state_dir(&format!("{tag}-t{threads}"));
    let tick_buckets = config(world, &dir, threads).tick_buckets;
    let source = WorldBackend::with_parallelism(world, threads);
    let warmup = TimeRange::days(1);
    let fs = FaultFs::new();
    let open = || {
        DaemonCore::open_in(
            fs.clone(),
            config(world, &dir, threads),
            overload_dcfg(),
            Arc::new(MetricsRegistry::new()),
            WorldBackend::with_parallelism(world, threads),
            warmup,
        )
        .unwrap()
    };
    let (mut core, recovery) = open();
    assert_eq!(recovery.mode, StartMode::Cold);

    let n_ticks = 8u32;
    let feed_end = warmup.end.bucket().plus(n_ticks * tick_buckets);
    let feed_range = TimeRange::new(warmup.end, feed_end.start());
    let mut sink = CapChecked {
        inner: CoreSink::new(&mut core),
        groups_past_watermark: 0,
        wal_bytes: 0,
        admitted_offers: 0,
    };
    let fed = feed(
        &mut sink,
        world_batches(&source, feed_range, surge.clone()),
        3,
    )
    .unwrap();
    let (groups_past_watermark, wal_bytes) = (sink.groups_past_watermark, sink.wal_bytes);
    let admitted_offers = sink.admitted_offers;
    let mut outs: Vec<TickOutput> = sink.inner.outs;
    // `TERM` offers nothing, so the feed's accounting is final here.
    let (stats, shed_log) = (core.stats(), core.shed_log().to_vec());
    assert_eq!(
        (fed.records_admitted, fed.records_shed, fed.slow_downs),
        (
            stats.admitted,
            stats.shed_low_impact,
            stats.backpressure_replies
        ),
        "the feeder's summary and the daemon's stats count the same replies"
    );

    let mut work = Work::default();
    let mut wal_replayed = None;
    if crash {
        work = work.plus(&core);
        drop(core);
        let (reopened, recovery) = open();
        assert_eq!(recovery.mode, StartMode::Recovered);
        let snap = recovery.snapshot_ticks_done as usize;
        assert_eq!(
            render_tick_transcript(&recovery.replayed),
            render_tick_transcript(&outs[snap..]),
            "the reopen replays the ticks its snapshot does not cover"
        );
        let m = reopened.engine().metrics();
        wal_replayed = Some((
            m.wal_replayed_queued.get() as u64,
            m.wal_replayed_covered.get() as u64,
        ));
        core = reopened;
    }
    outs.extend(core.term().unwrap());
    assert_eq!(outs.len(), n_ticks as usize, "every tick window fired");
    let work = work.plus(&core);

    assert_eq!(
        work.groups_scored, groups_past_watermark,
        "scored exactly the groups of the offers that arrived past the watermark"
    );
    assert_eq!(
        work.wal_bytes_appended, wal_bytes,
        "appended exactly the sections of the admitted offers"
    );
    let wal_segments = (work.wal_sealed, work.wal_retired);
    assert_eq!(
        wal_segments.0, wal_segments.1,
        "TERM retires every segment a rotation sealed"
    );

    let io = io_shape(&fs, &work, &dir, admitted_offers, outs.len() as u64);

    let overload_fired = core.engine().flight().with_ring(|_, events| {
        events
            .iter()
            .any(|e| e.trigger == FlightTrigger::OverloadSustained)
    });
    let run = OverloadRun {
        transcript: render_tick_transcript(&outs),
        shed_log,
        stats,
        abandoned: fed.batches_abandoned,
        overload_fired,
        groups_scored: work.groups_scored,
        wal_bytes_appended: wal_bytes,
        wal_segments,
        io,
        wal_replayed,
    };
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// The filesystem calls `fs` counted under a run, each checked against
/// the work that makes it: `admitted_offers` WAL appends, `ticks`
/// journal appends, the snapshots written, the WAL segments retired and
/// the snapshots pruned — every snapshot file made (the checkpoint and
/// one per second tick; `TERM` writes none when the feed ends on a
/// snapshot tick) less those left in `dir`. Returns (WAL `sync_data`s,
/// journal writes, snapshot creates, unlinks).
fn io_shape(
    fs: &FaultFs,
    work: &Work,
    dir: &Path,
    admitted_offers: u64,
    ticks: u64,
) -> (u64, u64, u64, u64) {
    let files = 1 + ticks.div_ceil(2);
    let kept = StateStore::create(dir)
        .unwrap()
        .list_snapshots()
        .unwrap()
        .len() as u64;
    let unlinks = fs.count(Op::Remove, FileKind::Wal) + fs.count(Op::Remove, FileKind::Snapshot);
    let io = (
        fs.count(Op::SyncData, FileKind::Wal),
        fs.count(Op::Write, FileKind::Journal),
        fs.count(Op::Create, FileKind::Snapshot),
        unlinks,
    );
    assert_eq!(io.0, admitted_offers, "one WAL fsync per ACK that admits");
    assert_eq!(io.1, ticks, "one journal append per tick");
    assert_eq!(fs.count(Op::SyncData, FileKind::Journal), ticks);
    for op in [Op::Create, Op::Rename, Op::SyncDir] {
        assert_eq!(
            fs.count(op, FileKind::Snapshot),
            work.snapshots_written,
            "{op:?} per snapshot"
        );
    }
    assert_eq!(
        io.3,
        work.wal_retired + (files - kept),
        "unlinks: retired + pruned"
    );
    io
}

#[test]
fn surged_feed_sheds_identically_at_any_thread_count() {
    let world = quiet_world(Scale::Tiny, 2, 0xD5EED);
    let feed_start = TimeRange::days(1).end.bucket().0;
    // A 10× surge over four of the eight fed tick windows.
    let surge = SurgePlan::single(
        TimeBucket(feed_start + 6),
        TimeBucket(feed_start + 17),
        10,
        0xAB,
    );

    let one = run_surged(&world, "det", 1, &surge, false);
    let four = run_surged(&world, "det", 4, &surge, false);

    // The overload machinery actually engaged.
    assert!(one.stats.shed_low_impact > 0, "surge provoked shedding");
    assert!(
        one.stats.backpressure_replies > 0,
        "surge provoked SLOW_DOWN refusals"
    );
    assert!(one.abandoned > 0, "some surged buckets exhausted retries");
    assert!(
        one.stats.queue_peak <= 160_000,
        "queue peak {} stayed under the cap",
        one.stats.queue_peak
    );
    assert!(
        one.overload_fired,
        "sustained overload tripped the flight recorder"
    );

    // And did so identically regardless of engine parallelism.
    assert_eq!(
        one.stats, four.stats,
        "ingest accounting is thread-invariant"
    );
    assert_eq!(one.abandoned, four.abandoned);
    assert_eq!(
        one.shed_log, four.shed_log,
        "the same groups shed in the same order"
    );
    assert_eq!(
        one.transcript, four.transcript,
        "tick transcripts byte-identical across thread counts"
    );
    assert_eq!(one.overload_fired, four.overload_fired);

    // The work counter: pinned, and thread-invariant like the rest.
    assert_eq!(one.groups_scored, 1_482, "groups scored on the surged feed");
    assert_eq!(one.groups_scored, four.groups_scored);
    assert_eq!(
        (one.wal_bytes_appended, one.wal_segments),
        (1_639_702, (3, 3)),
        "WAL work on the surged feed"
    );
    assert_eq!(one.wal_bytes_appended, four.wal_bytes_appended);
    assert_eq!(one.wal_segments, four.wal_segments);
    assert_eq!(one.io, (14, 8, 5, 5), "IO shape of the surged feed");
    assert_eq!(one.io, four.io);
}

/// The quiet feed also crashes once, with the feed done and its last
/// window still queued, and reopens before `TERM`.
#[test]
fn quiet_feed_sheds_nothing() {
    let world = quiet_world(Scale::Tiny, 2, 0xD5EED);
    let run = run_surged(&world, "quiet", 1, &SurgePlan::default(), true);
    assert_eq!(run.stats.shed_low_impact, 0);
    assert_eq!(run.stats.backpressure_replies, 0);
    assert_eq!(run.abandoned, 0);
    assert!(run.shed_log.is_empty());
    assert_eq!(run.stats.offered, run.stats.admitted);
    assert!(!run.overload_fired, "no overload episode on a quiet feed");
    assert_eq!(
        run.groups_scored, 0,
        "an ACK that sheds nothing scores nothing"
    );
    assert_eq!(
        (run.wal_bytes_appended, run.wal_segments),
        (1_696_524, (4, 4)),
        "WAL work on the quiet feed"
    );
    let four = run_surged(&world, "quiet", 4, &SurgePlan::default(), true);
    assert_eq!(
        run.transcript, four.transcript,
        "crash, reopen and TERM: byte-identical across thread counts"
    );
    assert_eq!(
        (four.wal_bytes_appended, four.wal_segments),
        (run.wal_bytes_appended, run.wal_segments),
        "WAL work on the quiet feed is thread-invariant"
    );
    assert_eq!(run.io, (24, 8, 5, 6), "IO shape of the quiet feed");
    assert_eq!(run.io, four.io, "the IO shape is thread-invariant");
    // Seven ticks ran before the kill. The reopen loads the tick-6
    // snapshot and queues the batches from its first unconsumed bucket
    // on (windows 7 and 8: six buckets); it only checks the eleven
    // older ones the WAL still holds (segment 2 whole, segment 3 but
    // for its last batch, which fired tick 6).
    assert_eq!(
        run.wal_replayed,
        Some((6, 11)),
        "WAL batches the reopen queued and covered"
    );
    assert_eq!(run.wal_replayed, four.wal_replayed);
}
