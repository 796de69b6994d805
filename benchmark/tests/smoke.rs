//! `--smoke`: all five workloads and every self-check at `Scale::Tiny`,
//! timed and traced, in seconds — plus the guard that keeps the
//! harness's feeder and the reference `feed_world` from drifting apart.

use blameit_bench::Scale;
use blameit_benchmark::catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use blameit_benchmark::inputs::{feed_start, surge_plan, DaemonInputs, Deadline, Profile};
use blameit_benchmark::run::{run, RunConfig, RunResult};
use blameit_benchmark::spans::Tracer;
use blameit_benchmark::wire;
use blameit_daemon::{feed_world, FeedConfig, NoopClock, Server, ServerConfig, WallClock};
use blameit_simnet::{TimeBucket, TimeRange};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn smoke_run(workload: &str, trace: bool) -> RunResult {
    let cfg = RunConfig {
        workload: WORKLOADS.iter().find(|w| w.name == workload).unwrap(),
        seed: 7,
        // `min_reps` (2) decides the rep count.
        seconds: 0.0,
        trace,
        profile: Profile::smoke(),
    };
    run(&cfg).unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"))
}

#[test]
fn all_five_workloads_pass_every_check_timed_and_traced() {
    let t0 = Instant::now();
    let mut timed = Vec::new();
    for w in &WORKLOADS {
        let plain = smoke_run(w.name, false);
        let traced = smoke_run(w.name, true);
        assert!(plain.smoke && plain.reps == 2 && plain.failed == 0 && plain.attempted > 0);

        // Every end-to-end metric, by catalogue name, never zero.
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|d| d.name), "{}", w.name);
        for m in &plain.metrics {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{}/{} = {}",
                w.name,
                m.name,
                m.value
            );
        }
        // Every per-layer metric, by catalogue name.
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER.map(|d| d.name), "{}", w.name);
        assert!(traced
            .trace_jsonl
            .as_deref()
            .is_some_and(|t| t.contains("\"type\":\"self_time\"")));

        // Tracing observes; it must not change one decision.
        assert_eq!(
            plain.exact, traced.exact,
            "{}: traced run decided differently",
            w.name
        );
        timed.push((plain, traced));
    }
    let [steady, wire, surge, replay, recover] = &timed[..] else {
        unreachable!()
    };

    // A crash, a recovery and a resumed feed end where the run that
    // never stopped ends: same ticks, same totals, same digest.
    assert_eq!(steady.0.exact, recover.0.exact);
    // `wire` feeds a prefix of `steady`'s batches and TERM drains the
    // last window: a tick per three batches, nothing shed.
    assert_eq!(
        wire.0.exact.ticks,
        u64::from(Profile::smoke().wire_batches / 3)
    );
    assert_eq!(wire.0.exact.admitted, wire.0.exact.offered);
    // The surge sheds about half of what it offers and refuses nothing.
    let s = &surge.0;
    assert!(s.exact.shed > 0 && s.exact.refused == 0 && s.failed == 0);
    assert!(
        (0.3..0.7).contains(&s.failed_share),
        "failed_share {}",
        s.failed_share
    );
    assert_eq!(replay.0.exact.offered, 0);

    // Where each layer must, and must not, have done work.
    let layer =
        |r: &RunResult, name: &str| r.metrics.iter().find(|m| m.name == name).unwrap().value;
    assert!(layer(&steady.1, "admission.offer_ns_per_record") > 0.0);
    assert!(layer(&steady.1, "wal.append_ms_p50") > 0.0);
    assert!(layer(&steady.1, "wal.compactions") >= 1.0);
    assert!(layer(&steady.1, "pipeline.untimed_s") > 0.0);
    assert_eq!(layer(&steady.1, "admission.shed_records"), 0.0);
    assert_eq!(layer(&steady.1, "wire.encode_ns_per_record"), 0.0);
    assert!(layer(&wire.1, "wire.encode_ns_per_record") > 0.0);
    assert!(layer(&wire.1, "wire.frame_bytes_per_record") > 16.0);
    assert_eq!(
        layer(&surge.1, "admission.shed_records"),
        surge.0.exact.shed as f64
    );
    assert_eq!(layer(&replay.1, "wal.appends"), 0.0);
    assert!(layer(&replay.1, "pipeline.stage.passive_blame_s") > 0.0);
    assert!(layer(&replay.1, "pipeline.warmup_s") > 0.0);
    assert!(layer(&recover.1, "wal.replay_batches") > 0.0);
    assert!(layer(&recover.1, "persist.replayed_ticks") > 0.0);
    for (_, traced) in &timed {
        assert!(layer(traced, "simnet.records_generated") > 0.0);
        assert!(layer(traced, "trace.overhead_share").is_finite());
    }

    assert!(
        t0.elapsed() < Duration::from_secs(15),
        "smoke took {:?}",
        t0.elapsed()
    );
}

#[test]
fn the_harness_feeder_sends_what_feed_world_sends() {
    let n = Profile::smoke().surge_batches;
    let inputs = DaemonInputs::build(Scale::Tiny, 7, n, true).unwrap();
    let deadline = Deadline::new("feeder-test", Duration::from_secs(60));

    // The reference feeder, surging the same buckets.
    let dir = inputs.template.duplicate("feed-world").unwrap();
    let (mut core, _) = inputs.open_core(dir.path()).unwrap();
    let server = Server::bind(&ServerConfig::default()).unwrap();
    let shutdown = AtomicBool::new(false);
    let range = TimeRange::new(feed_start().start(), TimeBucket(feed_start().0 + n).start());
    let feed_cfg = FeedConfig {
        addr: server.ingest_addr.to_string(),
        surge: surge_plan(7, n),
        max_attempts: 5,
        max_backoff_ms: 0,
        term: true,
    };
    // Nothing is asserted while the server thread is alive.
    let (reference, served) = std::thread::scope(|s| {
        let handle = s.spawn(|| server.run(&mut core, &WallClock, &shutdown));
        let fed = feed_world(&inputs.world, range, &feed_cfg, &NoopClock::default());
        if fed.is_err() {
            shutdown.store(true, Ordering::SeqCst);
        }
        (fed, handle.join())
    });
    let reference = reference.unwrap();
    let served = served.unwrap().unwrap();
    drop(core);

    let frames = wire::frames_of(&inputs.batches);
    let ours = wire::run_rep(
        &inputs,
        &frames,
        0,
        &mut Tracer::new(false),
        None,
        &deadline,
    )
    .unwrap();

    assert!(reference.terminated && reference.records_shed > 0);
    assert_eq!(reference.batches, u64::from(n));
    assert_eq!(
        (
            reference.records_offered,
            reference.records_admitted,
            reference.records_shed
        ),
        (ours.feed.offered, ours.feed.admitted, ours.feed.shed)
    );
    assert_eq!(served.ticks, ours.exact.ticks);
    assert_eq!(served.stats.queue_peak, ours.exact.queue_peak);
}
