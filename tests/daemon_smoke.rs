//! End-to-end smoke over real sockets: bind `blameitd`'s IO shell on
//! ephemeral localhost ports, replay a surged world feed through the
//! framed wire protocol with the reference `feed` client, scrape
//! `/metrics`, `/alerts`, and `/healthz` over plain HTTP mid-run, then
//! TERM — and verify the state dir reopens warm with zero replay.
//!
//! This is the only test that exercises the socket shell; everything
//! it decides is covered socket-free in `tests/daemon_overload.rs` and
//! `tests/daemon_crash.rs`.

use blameit::{BadnessThresholds, BlameItConfig, StartMode, WorldBackend};
use blameit_bench::{quiet_world, Scale};
use blameit_daemon::{
    feed_world, http_get, DaemonConfig, DaemonCore, FeedConfig, Server, ServerConfig, WallClock,
};
use blameit_obs::MetricsRegistry;
use blameit_simnet::{SurgePlan, TimeBucket, TimeRange, World};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blameit-dsm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(world: &World, dir: &Path) -> BlameItConfig {
    let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(world));
    cfg.state_dir = Some(dir.to_path_buf());
    cfg.snapshot_every_ticks = 2;
    cfg
}

/// Stops the server when the test body unwinds: a failed assertion
/// inside `thread::scope` would otherwise wait on the serve loop forever
/// instead of reporting the failure.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn dcfg() -> DaemonConfig {
    let mut dcfg = DaemonConfig::default();
    dcfg.admission.queue_cap_records = 160_000;
    dcfg.admission.shed_watermark_records = 90_000;
    dcfg.admission.per_loc_shed_cap = 30_000;
    dcfg
}

#[test]
fn daemon_serves_feeds_scrapes_and_terminates() {
    let world = quiet_world(Scale::Tiny, 2, 0x50C7);
    let dir = state_dir("smoke");
    let warmup = TimeRange::days(1);
    let feed_start = warmup.end.bucket().0;
    let n_ticks = 4u32;
    let feed_mid = feed_start + n_ticks * 3 / 2;
    let feed_end = feed_start + n_ticks * 3;
    // Surge the third tick window 10× so the wire path exercises
    // shedding too, not just happy-path ACKs; the final window stays
    // quiet so its buckets are admitted and the TERM drain ticks it.
    let surge = SurgePlan::single(TimeBucket(feed_mid), TimeBucket(feed_start + 8), 10, 0x51);

    let inner = WorldBackend::new(&world);
    let (mut core, recovery) = DaemonCore::open(
        config(&world, &dir),
        dcfg(),
        Arc::new(MetricsRegistry::new()),
        inner,
        warmup,
    )
    .unwrap();
    assert_eq!(recovery.mode, StartMode::Cold);

    let server = Server::bind(&ServerConfig::default()).unwrap();
    let ingest = server.ingest_addr.to_string();
    let http = server.http_addr.to_string();
    let shutdown = AtomicBool::new(false);
    let clock = WallClock;

    let summary = std::thread::scope(|s| {
        let handle = s.spawn(|| server.run(&mut core, &clock, &shutdown).unwrap());
        let _stop = StopOnDrop(&shutdown);

        // Quiet first half, no TERM: the connection closes, the daemon
        // keeps serving.
        let quiet_cfg = FeedConfig {
            addr: ingest.clone(),
            surge: SurgePlan::default(),
            max_attempts: 5,
            max_backoff_ms: 1,
            term: false,
        };
        let range1 = TimeRange::new(TimeBucket(feed_start).start(), TimeBucket(feed_mid).start());
        let first = feed_world(&world, range1, &quiet_cfg, &clock).unwrap();
        assert!(first.batches > 0);
        assert_eq!(first.records_admitted, first.records_offered);
        assert_eq!(first.slow_downs, 0);
        assert!(!first.terminated);

        // Scrape mid-run, between feeder connections.
        let health = http_get(&http, "/healthz").unwrap();
        assert!(health.contains("ok"), "healthz says: {health}");
        let metrics = http_get(&http, "/metrics").unwrap();
        assert!(metrics.contains("blameit_ingest_queue_depth_records"));
        assert!(metrics.contains("blameit_shed_quartets_total"));
        let alerts = http_get(&http, "/alerts").unwrap();
        assert!(alerts.is_empty() || alerts.contains("bucket"));

        // Surged second half, TERM at the end: drain + snapshot + BYE.
        let surged_cfg = FeedConfig {
            addr: ingest.clone(),
            surge: surge.clone(),
            max_attempts: 5,
            max_backoff_ms: 1,
            term: true,
        };
        let range2 = TimeRange::new(TimeBucket(feed_mid).start(), TimeBucket(feed_end).start());
        let second = feed_world(&world, range2, &surged_cfg, &clock).unwrap();
        assert!(second.terminated, "TERM acknowledged with BYE");
        assert!(second.records_shed > 0, "the surge provoked shedding");

        handle.join().unwrap()
    });

    assert!(summary.clean_shutdown);
    assert_eq!(summary.ticks, u64::from(n_ticks), "every fed window ticked");
    assert!(summary.stats.shed_low_impact > 0);
    assert!(
        summary.stats.queue_peak <= 160_000,
        "queue peak {} bounded by the cap",
        summary.stats.queue_peak
    );
    let ticks_before = core.ticks_done();
    drop(core);

    // A TERM'd state dir reopens warm: no journal replay, no WAL
    // refill, queue empty.
    let inner = WorldBackend::new(&world);
    let (core, recovery) = DaemonCore::open(
        config(&world, &dir),
        dcfg(),
        Arc::new(MetricsRegistry::new()),
        inner,
        warmup,
    )
    .unwrap();
    assert_eq!(recovery.mode, StartMode::Recovered);
    assert!(recovery.replayed.is_empty());
    assert_eq!(recovery.snapshots_rejected, 0);
    assert_eq!(core.ticks_done(), ticks_before);
    assert_eq!(core.queue_depth(), 0);
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_feeder_paused_mid_frame_resumes_and_a_stuck_one_gets_err() {
    use blameit_daemon::wire::{read_frame, write_frame};
    use blameit_daemon::{Frame, WIRE_VERSION};
    use std::io::Write;

    let world = quiet_world(Scale::Tiny, 2, 0x50C7);
    let dir = state_dir("midframe");
    let warmup = TimeRange::days(1);
    let (mut core, _) = DaemonCore::open(
        config(&world, &dir),
        dcfg(),
        Arc::new(MetricsRegistry::new()),
        WorldBackend::new(&world),
        warmup,
    )
    .unwrap();
    let server = Server::bind(&ServerConfig::default()).unwrap();
    let shutdown = AtomicBool::new(false);
    let clock = WallClock;

    // One BATCH frame's bytes, to be sent in two halves.
    let batch = blameit::RecordBatch {
        bucket: warmup.end.bucket(),
        keys: (0..64).collect(),
        rtt: vec![25.0; 64],
    };
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &Frame::Batch { batch }).unwrap();
    let (head, tail) = bytes.split_at(bytes.len() / 2);
    let connect = || {
        let mut s = std::net::TcpStream::connect(server.ingest_addr).unwrap();
        let version = WIRE_VERSION;
        write_frame(&mut s, &Frame::Hello { version }).unwrap();
        assert!(matches!(read_frame(&mut s), Ok(Some(Frame::Ack { .. }))));
        s
    };

    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run(&mut core, &clock, &shutdown).unwrap());
        let _stop = StopOnDrop(&shutdown);

        // Descheduled for four idle polls between the two halves of a
        // frame: the server must pick the frame up where it stopped.
        let mut paused = connect();
        paused.write_all(head).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(80));
        paused.write_all(tail).unwrap();
        let reply = read_frame(&mut paused).unwrap();
        assert!(
            matches!(reply, Some(Frame::Ack { admitted: 64, .. })),
            "a paused feeder must still be ACKed, got {reply:?}"
        );
        drop(paused);

        // Never finishes its frame: the server keeps answering HTTP
        // while it waits, then gives up on the connection with ERR.
        let mut stuck = connect();
        stuck.write_all(head).unwrap();
        let health = http_get(&server.http_addr.to_string(), "/healthz").unwrap();
        assert!(health.contains("ok"), "healthz says: {health}");
        let reply = read_frame(&mut stuck).unwrap();
        assert!(
            matches!(&reply, Some(Frame::Err { msg }) if msg.contains("stalled")),
            "a stuck feeder must be told ERR, got {reply:?}"
        );
        assert_eq!(read_frame(&mut stuck).unwrap(), None, "then closed");

        shutdown.store(true, Ordering::Relaxed);
        assert!(handle.join().unwrap().clean_shutdown);
    });
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
}
