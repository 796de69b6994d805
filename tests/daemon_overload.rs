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
//! and retired are pinned. A later deterministic work counter (ROADMAP
//! item 1(c)) should extend `OverloadRun` and these two tests rather
//! than invent a second shape.

use blameit::{
    render_tick_transcript, BadnessThresholds, BlameItConfig, RecordBatch, StartMode, TickOutput,
    WorldBackend,
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
    inner: CoreSink<'c, WorldBackend<'w>>,
    groups_past_watermark: u64,
    wal_bytes: u64,
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
/// after three refusals, and terminates gracefully.
fn run_surged(world: &World, tag: &str, threads: usize, surge: &SurgePlan) -> OverloadRun {
    let dir = state_dir(&format!("{tag}-t{threads}"));
    let cfg = config(world, &dir, threads);
    let tick_buckets = cfg.tick_buckets;
    let inner = WorldBackend::with_parallelism(world, threads);
    let source = WorldBackend::with_parallelism(world, threads);
    let warmup = TimeRange::days(1);
    let (mut core, recovery) = DaemonCore::open(
        cfg,
        overload_dcfg(),
        Arc::new(MetricsRegistry::new()),
        inner,
        warmup,
    )
    .unwrap();
    assert_eq!(recovery.mode, StartMode::Cold);

    let n_ticks = 8u32;
    let feed_end = warmup.end.bucket().plus(n_ticks * tick_buckets);
    let feed_range = TimeRange::new(warmup.end, feed_end.start());
    let mut sink = CapChecked {
        inner: CoreSink::new(&mut core),
        groups_past_watermark: 0,
        wal_bytes: 0,
    };
    let fed = feed(
        &mut sink,
        world_batches(&source, feed_range, surge.clone()),
        3,
    )
    .unwrap();
    let (groups_past_watermark, wal_bytes) = (sink.groups_past_watermark, sink.wal_bytes);
    let mut outs: Vec<TickOutput> = sink.inner.outs;
    outs.extend(core.term().unwrap());
    assert_eq!(outs.len(), n_ticks as usize, "every tick window fired");
    assert_eq!(
        (fed.records_admitted, fed.records_shed, fed.slow_downs),
        (
            core.stats().admitted,
            core.stats().shed_low_impact,
            core.stats().backpressure_replies
        ),
        "the feeder's summary and the daemon's stats count the same replies"
    );

    let groups_scored = core.engine().metrics().admission_groups_scored.get();
    assert_eq!(
        groups_scored, groups_past_watermark,
        "scored exactly the groups of the offers that arrived past the watermark"
    );
    assert_eq!(groups_scored, core.admission().groups_scored());
    let m = core.engine().metrics();
    assert_eq!(
        m.wal_bytes_appended.get(),
        wal_bytes,
        "appended exactly the sections of the admitted offers"
    );
    let wal_segments = (m.wal_segments_sealed.get(), m.wal_segments_retired.get());
    assert_eq!(
        wal_segments.0, wal_segments.1,
        "TERM retires every segment a rotation sealed"
    );

    let overload_fired = core.engine().flight().with_ring(|_, events| {
        events
            .iter()
            .any(|e| e.trigger == FlightTrigger::OverloadSustained)
    });
    let run = OverloadRun {
        transcript: render_tick_transcript(&outs),
        shed_log: core.shed_log().to_vec(),
        stats: core.stats(),
        abandoned: fed.batches_abandoned,
        overload_fired,
        groups_scored,
        wal_bytes_appended: wal_bytes,
        wal_segments,
    };
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
    run
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

    let one = run_surged(&world, "det", 1, &surge);
    let four = run_surged(&world, "det", 4, &surge);

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
}

#[test]
fn quiet_feed_sheds_nothing() {
    let world = quiet_world(Scale::Tiny, 2, 0xD5EED);
    let run = run_surged(&world, "quiet", 1, &SurgePlan::default());
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
    let four = run_surged(&world, "quiet", 4, &SurgePlan::default());
    assert_eq!(
        (four.wal_bytes_appended, four.wal_segments),
        (run.wal_bytes_appended, run.wal_segments),
        "WAL work on the quiet feed is thread-invariant"
    );
}
