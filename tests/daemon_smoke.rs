//! End-to-end smoke over real sockets: bind `blameitd`'s IO shell on
//! ephemeral localhost ports, replay a surged world feed through the
//! framed wire protocol with the `feed` client, scrape
//! `/metrics`, `/alerts`, and `/healthz` over plain HTTP mid-run, then
//! TERM — and verify the state dir reopens warm with zero replay.
//!
//! These are the only tests that exercise the socket shell (the others
//! here cover how it treats a misbehaving connection); everything the
//! daemon decides is covered socket-free in `tests/daemon_overload.rs`
//! and `tests/daemon_crash.rs`.

use blameit::{tick_digest, BadnessThresholds, BlameItConfig, StartMode, WorldBackend};
use blameit_bench::{quiet_world, Scale};
use blameit_daemon::wire::{read_frame, write_frame};
use blameit_daemon::{
    feed, feed_world, http_get, world_batches, CoreSink, DaemonConfig, DaemonCore, FeedConfig,
    FeedSummary, Frame, NoopClock, Server, ServerConfig, WallClock, WIRE_VERSION,
};
use blameit_obs::MetricsRegistry;
use blameit_simnet::{SurgePlan, TimeBucket, TimeRange, World};
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A cold core over `world` with its state under `dir`, for the tests
/// that only care how the socket shell treats a connection.
fn cold_core<'w>(world: &'w World, dir: &Path) -> DaemonCore<WorldBackend<'w>> {
    let (core, _) = DaemonCore::open(
        config(world, dir),
        dcfg(),
        Arc::new(MetricsRegistry::new()),
        WorldBackend::new(world),
        TimeRange::days(1),
    )
    .unwrap();
    core
}

#[test]
fn the_wire_sink_and_the_in_process_sink_deliver_the_same_feed() {
    let world = quiet_world(Scale::Tiny, 2, 0x50C7);
    let start = TimeRange::days(1).end.bucket();
    // Four tick windows, the middle two surged 10×: sheds, refusals
    // and abandoned batches all occur.
    let range = TimeRange::new(start.start(), start.plus(12).start());
    let surge = SurgePlan::single(start.plus(3), start.plus(9), 10, 0x51);
    let max_attempts = 3;

    // In process: the core sink, ticks straight from the pumps.
    let dir = state_dir("sinks-core");
    let mut core = cold_core(&world, &dir);
    let source = WorldBackend::new(&world);
    let mut sink = CoreSink::new(&mut core);
    let batches = world_batches(&source, range, surge.clone());
    let in_process = feed(&mut sink, batches, max_attempts).unwrap();
    let mut outs = sink.outs;
    outs.extend(core.term().unwrap());
    let digests: Vec<u64> = outs.iter().map(tick_digest).collect();
    assert!(in_process.records_shed > 0 && in_process.batches_abandoned > 0);
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);

    // Over the socket: `feed_world` is the same feeder on the wire
    // sink; the ticks' digests come back from the journal.
    let dir = state_dir("sinks-wire");
    let mut core = cold_core(&world, &dir);
    let server = Server::bind(&ServerConfig::default()).unwrap();
    let shutdown = AtomicBool::new(false);
    let cfg = FeedConfig {
        addr: server.ingest_addr.to_string(),
        surge,
        max_attempts,
        max_backoff_ms: 0,
        term: true,
    };
    let on_the_wire = std::thread::scope(|s| {
        let handle = s.spawn(|| server.run(&mut core, &WallClock, &shutdown).unwrap());
        let _stop = StopOnDrop(&shutdown);
        let fed = feed_world(&world, range, &cfg, &NoopClock::default()).unwrap();
        assert_eq!(handle.join().unwrap().ticks, digests.len() as u64);
        fed
    });
    drop(core);
    let journal = blameit::persist::journal::scan(&dir).unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(on_the_wire.terminated);
    let in_process = FeedSummary {
        terminated: true,
        ..in_process
    };
    assert_eq!(on_the_wire, in_process, "the feeder's accounting");
    let journaled: Vec<u64> = journal.records.iter().map(|r| r.digest).collect();
    assert_eq!(journaled, digests, "the ticks the feed produced");
}

/// One BATCH frame of 64 records for the first bucket after warm-up.
fn batch_frame() -> Frame {
    let batch = blameit::RecordBatch {
        bucket: TimeRange::days(1).end.bucket(),
        keys: (0..64).collect(),
        rtt: vec![25.0; 64],
    };
    Frame::Batch { batch }
}

/// Connects a feeder and completes the HELLO handshake. Replies are
/// awaited for at most 5 s, so a dead server fails the test instead of
/// hanging it.
fn hello(server: &Server) -> TcpStream {
    let mut s = TcpStream::connect(server.ingest_addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let version = WIRE_VERSION;
    write_frame(&mut s, &Frame::Hello { version }).unwrap();
    assert!(matches!(read_frame(&mut s), Ok(Some(Frame::Ack { .. }))));
    s
}

#[test]
fn a_feeder_paused_mid_frame_resumes_and_a_stuck_one_gets_err() {
    let world = quiet_world(Scale::Tiny, 2, 0x50C7);
    let dir = state_dir("midframe");
    let mut core = cold_core(&world, &dir);
    let server = Server::bind(&ServerConfig::default()).unwrap();
    let shutdown = AtomicBool::new(false);
    let clock = WallClock;

    // One BATCH frame's bytes, to be sent in two halves.
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &batch_frame()).unwrap();
    let (head, tail) = bytes.split_at(bytes.len() / 2);

    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run(&mut core, &clock, &shutdown).unwrap());
        let _stop = StopOnDrop(&shutdown);

        // Descheduled for four idle polls between the two halves of a
        // frame: the server must pick the frame up where it stopped.
        let mut paused = hello(&server);
        paused.write_all(head).unwrap();
        std::thread::sleep(Duration::from_millis(80));
        paused.write_all(tail).unwrap();
        let reply = read_frame(&mut paused).unwrap();
        assert!(
            matches!(reply, Some(Frame::Ack { admitted: 64, .. })),
            "a paused feeder must still be ACKed, got {reply:?}"
        );
        drop(paused);

        // Never finishes its frame: the server keeps answering HTTP
        // while it waits, then gives up on the connection with ERR.
        let mut stuck = hello(&server);
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

#[test]
fn a_feeder_that_hangs_up_unread_does_not_stop_the_daemon() {
    let world = quiet_world(Scale::Tiny, 2, 0x50C7);
    let dir = state_dir("hangup");
    let mut core = cold_core(&world, &dir);
    let server = Server::bind(&ServerConfig::default()).unwrap();
    let shutdown = AtomicBool::new(false);
    let clock = WallClock;

    let summary = std::thread::scope(|s| {
        let handle = s.spawn(|| server.run(&mut core, &clock, &shutdown).unwrap());
        let _stop = StopOnDrop(&shutdown);

        // HELLO + BATCH, then gone without reading either ACK: closing
        // on unread data resets the connection, so the server's next
        // read or write on it fails (ECONNRESET / EPIPE).
        let mut rude = TcpStream::connect(server.ingest_addr).unwrap();
        let version = WIRE_VERSION;
        write_frame(&mut rude, &Frame::Hello { version }).unwrap();
        write_frame(&mut rude, &batch_frame()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        drop(rude);

        // The daemon is still there for the next feeder.
        let mut polite = hello(&server);
        write_frame(&mut polite, &batch_frame()).unwrap();
        let reply = read_frame(&mut polite).unwrap();
        assert!(
            matches!(reply, Some(Frame::Ack { admitted: 64, .. })),
            "the next feeder must be ACKed, got {reply:?}"
        );
        write_frame(&mut polite, &Frame::Term).unwrap();
        assert_eq!(read_frame(&mut polite).unwrap(), Some(Frame::Bye));
        handle.join().unwrap()
    });
    assert!(summary.clean_shutdown);
    assert_eq!(summary.stats.admitted, 128, "both feeders' batches count");
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_trickling_http_client_does_not_freeze_ingest() {
    let world = quiet_world(Scale::Tiny, 2, 0x50C7);
    let dir = state_dir("trickle");
    let mut core = cold_core(&world, &dir);
    let server = Server::bind(&ServerConfig::default()).unwrap();
    let shutdown = AtomicBool::new(false);
    let clock = WallClock;

    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run(&mut core, &clock, &shutdown).unwrap());
        let _stop = StopOnDrop(&shutdown);

        // A request header that never ends, one byte every 50 ms for
        // 1.5 s (the server hangs up on it long before; those writes
        // fail and are ignored).
        let mut slow = TcpStream::connect(server.http_addr).unwrap();
        slow.write_all(b"G").unwrap();
        s.spawn(move || {
            for _ in 0..30 {
                std::thread::sleep(Duration::from_millis(50));
                let _ = slow.write_all(b"x");
            }
        });

        // Once the server has picked the trickler up, a feeder must
        // still get its HELLO answered promptly.
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        drop(hello(&server));
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "HELLO waited {waited:?} behind a slow HTTP client"
        );

        shutdown.store(true, Ordering::Relaxed);
        assert!(handle.join().unwrap().clean_shutdown);
    });
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
}
