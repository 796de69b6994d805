//! The durability contract: a crash at *any* kill point of the
//! durable-tick protocol, at any thread count, recovers to a state
//! from which the resumed run is **byte-identical** to a run that
//! never crashed. Verified over the canonical tick transcript — the
//! same instrument PR 2 used for the sharded tick and PR 3 for the
//! chaos layer — by composing the crashed run's delivered outputs,
//! the recovery replay, and the resumed ticks.
//!
//! Also covered: corrupted (bit-flipped) and truncated snapshots are
//! rejected at load with a counted fallback to an older snapshot, and
//! `fsck` distinguishes crash residue (warnings) from corruption
//! (errors).

use blameit::{
    render_tick_transcript, BadnessThresholds, BlameItConfig, BlameItEngine, DurableEngine,
    PersistError, StartMode, StateStore, TickOutput, WorldBackend,
};
use blameit_bench::{quiet_world, Scale};
use blameit_obs::MetricsRegistry;
use blameit_simnet::{
    CrashPlan, CrashPoint, Fault, FaultId, FaultTarget, SimTime, TimeBucket, TimeRange, World,
};
use blameit_topology::rng::DetRng;
use blameit_topology::testkit::check;
use blameit_topology::Asn;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A quiet tiny world with one cloud fault and one middle fault chosen
/// by `rng`, so every pipeline phase has real state worth persisting.
fn faulty_world(rng: &mut DetRng) -> (World, SimTime) {
    let mut world = quiet_world(Scale::Tiny, 2, rng.next_u64());
    let topo = world.topology();
    let loc = topo.clients[rng.index(topo.clients.len())].primary_loc;
    let mut middles: Vec<Asn> = topo
        .clients
        .iter()
        .flat_map(|c| {
            let route = &topo.routes_for(c.primary_loc, c).options[0];
            topo.paths.get(route.path_id).middle.clone()
        })
        .collect();
    middles.sort_unstable();
    middles.dedup();
    let middle = *rng.pick(&middles);
    let start = SimTime::from_hours(25 + rng.below(3));
    world.add_faults(vec![
        Fault {
            id: FaultId(0),
            target: FaultTarget::CloudLocation(loc),
            start,
            duration_secs: 2 * 3_600,
            added_ms: rng.range_f64(60.0, 140.0),
        },
        Fault {
            id: FaultId(1),
            target: FaultTarget::MiddleAs {
                asn: middle,
                via_path: None,
            },
            start,
            duration_secs: 2 * 3_600,
            added_ms: rng.range_f64(60.0, 140.0),
        },
    ]);
    (world, start)
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blameit-crash-{tag}-{}", std::process::id()));
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

/// The first bucket of every tick in `eval` at the engine's tick width.
fn tick_starts(eval: TimeRange, tick_buckets: u32) -> Vec<TimeBucket> {
    let buckets: Vec<TimeBucket> = eval.buckets().collect();
    buckets
        .chunks(tick_buckets as usize)
        .filter(|c| c.len() == tick_buckets as usize)
        .map(|c| c[0])
        .collect()
}

/// The uninterrupted reference: a plain in-memory engine over the same
/// warmup + eval window.
fn reference_transcript(world: &World, eval: TimeRange, threads: usize) -> String {
    let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(world));
    cfg.parallelism = threads;
    let mut engine = BlameItEngine::new(cfg);
    let mut backend = WorldBackend::with_parallelism(world, threads);
    engine.warmup(&backend, TimeRange::days(1), 2);
    let outs = engine.run(&mut backend, eval);
    render_tick_transcript(&outs)
}

/// Runs the durable engine from cold until `plan` kills it; returns
/// the outputs delivered before the crash and the tick index it died
/// on.
fn run_until_crash(
    world: &World,
    dir: &Path,
    threads: usize,
    eval: TimeRange,
    plan: CrashPlan,
    expect_point: CrashPoint,
) -> (Vec<TickOutput>, u64) {
    let cfg = config(world, dir, threads);
    let mut backend = WorldBackend::with_parallelism(world, threads);
    let registry = Arc::new(MetricsRegistry::new());
    let (mut durable, report) = DurableEngine::open(cfg, registry, &mut backend).unwrap();
    assert_eq!(report.mode, StartMode::Cold);
    durable
        .warmup_and_checkpoint(&backend, TimeRange::days(1), 2)
        .unwrap();
    durable.set_crash_plan(Some(plan));

    let starts = tick_starts(eval, durable.engine().config().tick_buckets);
    let mut delivered = Vec::new();
    for start in &starts {
        match durable.tick(&mut backend, *start) {
            Ok(out) => delivered.push(out),
            Err(PersistError::Crashed(p)) => {
                assert_eq!(p, expect_point, "wrong kill point fired");
                let crash_tick = delivered.len() as u64;
                return (delivered, crash_tick);
            }
            Err(e) => panic!("unexpected persist error: {e}"),
        }
    }
    panic!("crash plan never fired over {} ticks", starts.len());
}

/// Reopens the state dir, resumes the run, and returns the transcript
/// of delivered ++ replayed-beyond-delivered ++ resumed ticks.
fn recover_and_resume(
    world: &World,
    dir: &Path,
    threads: usize,
    eval: TimeRange,
    delivered: Vec<TickOutput>,
    crash_tick: u64,
    point: CrashPoint,
) -> String {
    let cfg = config(world, dir, threads);
    let mut backend = WorldBackend::with_parallelism(world, threads);
    let registry = Arc::new(MetricsRegistry::new());
    let (mut durable, report) = DurableEngine::open(cfg, registry, &mut backend).unwrap();
    assert_eq!(
        report.mode,
        StartMode::Recovered,
        "a pure crash (no corruption) must recover cleanly ({point})"
    );
    assert_eq!(report.snapshots_rejected, 0, "{point}");
    assert_eq!(
        report.journal_torn,
        point == CrashPoint::MidJournal,
        "only a mid-journal crash leaves a torn tail ({point})"
    );
    // The replay covers [snapshot_ticks_done, journal_end); everything
    // before `crash_tick` was already delivered to the caller in run 1.
    let skip = (crash_tick - report.snapshot_ticks_done) as usize;
    assert!(
        report.replayed.len() >= skip,
        "replay cannot end before the delivered prefix ({point})"
    );
    let mut full = delivered;
    full.extend(report.replayed.into_iter().skip(skip));
    full.extend(durable.run(&mut backend, eval).unwrap());
    render_tick_transcript(&full)
}

#[test]
fn kill_point_matrix_recovery_is_byte_identical() {
    check("crash_recovery", 6, |rng| {
        let (world, fault_start) = faulty_world(rng);
        let eval = TimeRange::new(fault_start, fault_start + 3_600);
        for threads in [1usize, 4] {
            let reference = reference_transcript(&world, eval, threads);
            for point in CrashPoint::ALL {
                // Snapshot-phase kill points only fire on a tick where
                // a snapshot is due: with snapshot_every_ticks = 2,
                // that is every odd 0-based tick index.
                let kill_tick = match point {
                    CrashPoint::MidJournal | CrashPoint::PostJournal => 2,
                    CrashPoint::PreSnapshot | CrashPoint::MidSnapshotWrite => 1,
                };
                let dir = state_dir(&format!("matrix-{threads}-{point}"));
                let plan = CrashPlan::kill_at(kill_tick, point, rng.next_u64());
                let (delivered, crash_tick) =
                    run_until_crash(&world, &dir, threads, eval, plan, point);
                assert_eq!(crash_tick, kill_tick, "{point}");

                // Crash residue is survivable by design: fsck must
                // report warnings at worst, never corruption.
                let report = blameit::fsck(&dir);
                assert!(
                    report.ok(),
                    "fsck after a {point} crash found errors:\n{}",
                    report.render()
                );

                let got =
                    recover_and_resume(&world, &dir, threads, eval, delivered, crash_tick, point);
                assert_eq!(
                    reference, got,
                    "recovered run diverged ({threads} thread(s), {point})"
                );
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    });
}

#[test]
fn flight_recorder_survives_crash_recovery() {
    // The flight recorder is persisted state: after a crash at any
    // kill point, the recovered-and-resumed ring must dump JSONL
    // byte-identical to an in-memory engine that never persisted or
    // crashed at all (snapshot restore + journal replay re-record the
    // post-snapshot frames).
    let mut rng = DetRng::from_keys(21, &[0xF1]);
    let (world, fault_start) = faulty_world(&mut rng);
    let eval = TimeRange::new(fault_start, fault_start + 3_600);

    let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(&world));
    cfg.parallelism = 1;
    let mut reference = BlameItEngine::new(cfg);
    let mut backend = WorldBackend::with_parallelism(&world, 1);
    reference.warmup(&backend, TimeRange::days(1), 2);
    reference.run(&mut backend, eval);
    let want = reference.flight().dump_jsonl();
    assert!(
        want.contains("\"kind\":\"frame\""),
        "the reference run must record flight frames:\n{want}"
    );

    for point in CrashPoint::ALL {
        let kill_tick = match point {
            CrashPoint::MidJournal | CrashPoint::PostJournal => 2,
            CrashPoint::PreSnapshot | CrashPoint::MidSnapshotWrite => 1,
        };
        let dir = state_dir(&format!("flight-{point}"));
        let plan = CrashPlan::kill_at(kill_tick, point, 0x5EED);
        let (_, crash_tick) = run_until_crash(&world, &dir, 1, eval, plan, point);
        assert_eq!(crash_tick, kill_tick, "{point}");

        let cfg = config(&world, &dir, 1);
        let mut backend = WorldBackend::with_parallelism(&world, 1);
        let registry = Arc::new(MetricsRegistry::new());
        let (mut durable, report) = DurableEngine::open(cfg, registry, &mut backend).unwrap();
        assert_eq!(report.mode, StartMode::Recovered, "{point}");
        durable.run(&mut backend, eval).unwrap();
        assert_eq!(
            want,
            durable.engine().flight().dump_jsonl(),
            "flight dump diverged after {point} recovery"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn probe_counters_continue_across_crash_recovery() {
    // The probe count is the paper's cost claim (§6.5), so it has to be
    // one number wherever it is read: after kill → open (snapshot +
    // journal replay) the registry's two probe counters equal the
    // totals the engine state persists, and after the resume both
    // equal the counters of a run that never crashed.
    let mut rng = DetRng::from_keys(21, &[0xF1]);
    let (world, fault_start) = faulty_world(&mut rng);
    let eval = TimeRange::new(fault_start, fault_start + 3_600);
    let probes = |engine: &BlameItEngine| {
        let (m, state) = (engine.metrics(), engine.state());
        let registry = (m.on_demand_probes.get(), m.background_probes.get());
        let persisted = (state.on_demand_probes_total, state.background_probes_total);
        (registry, persisted)
    };

    for threads in [1, 4] {
        let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(&world));
        cfg.parallelism = threads;
        let mut reference = BlameItEngine::new(cfg);
        let mut backend = WorldBackend::with_parallelism(&world, threads);
        reference.warmup(&backend, TimeRange::days(1), 2);
        reference.run(&mut backend, eval);
        let (want, _) = probes(&reference);
        assert!(want.0 > 0 && want.1 > 0, "the run must probe: {want:?}");

        for (point, kill_tick) in [(CrashPoint::PostJournal, 2), (CrashPoint::PreSnapshot, 1)] {
            let dir = state_dir(&format!("probes-{point}-t{threads}"));
            let plan = CrashPlan::kill_at(kill_tick, point, 0x5EED);
            run_until_crash(&world, &dir, threads, eval, plan, point);

            let cfg = config(&world, &dir, threads);
            let mut backend = WorldBackend::with_parallelism(&world, threads);
            let registry = Arc::new(MetricsRegistry::new());
            let (mut durable, report) = DurableEngine::open(cfg, registry, &mut backend).unwrap();
            assert_eq!(report.mode, StartMode::Recovered, "{point}");
            let (registry, persisted) = probes(durable.engine());
            assert!(persisted.1 > 0, "the snapshot carried probe totals");
            assert_eq!(
                registry, persisted,
                "after {point} recovery, {threads} threads"
            );
            durable.run(&mut backend, eval).unwrap();
            let (registry, persisted) = probes(durable.engine());
            assert_eq!(registry, persisted, "after the resume ({point})");
            assert_eq!(registry, want, "vs an uninterrupted run ({point})");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn the_journal_holds_the_digest_of_every_returned_tick() {
    // The durable tick hashes the transcript its flight frame already
    // holds; `tick_digest` renders afresh. The journal must hold
    // exactly the latter for every output the caller was handed.
    let mut rng = DetRng::from_keys(33, &[0xD9]);
    let (world, fault_start) = faulty_world(&mut rng);
    let eval = TimeRange::new(fault_start, fault_start + 2 * 3_600);
    for threads in [1, 4] {
        let dir = state_dir(&format!("digest-t{threads}"));
        let mut backend = WorldBackend::with_parallelism(&world, threads);
        let (mut durable, _) = DurableEngine::open(
            config(&world, &dir, threads),
            Arc::new(MetricsRegistry::new()),
            &mut backend,
        )
        .unwrap();
        durable
            .warmup_and_checkpoint(&backend, TimeRange::days(1), 2)
            .unwrap();
        let outs = durable.run(&mut backend, eval).unwrap();
        assert_eq!(outs.len(), 8);
        let journal = blameit::persist::journal::scan(&dir).unwrap().unwrap();
        let journaled: Vec<u64> = journal.records.iter().map(|r| r.digest).collect();
        let rendered: Vec<u64> = outs.iter().map(blameit::tick_digest).collect();
        assert_eq!(journaled, rendered, "{threads} threads");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Runs a full durable window to completion and returns the state dir
/// plus the reference transcript.
fn completed_run(tag: &str, seed: u64) -> (World, PathBuf, TimeRange) {
    let mut rng = DetRng::from_keys(seed, &[0xD1]);
    let (world, fault_start) = faulty_world(&mut rng);
    let eval = TimeRange::new(fault_start, fault_start + 3_600);
    let dir = state_dir(tag);
    let cfg = config(&world, &dir, 1);
    let mut backend = WorldBackend::with_parallelism(&world, 1);
    let (mut durable, _) =
        DurableEngine::open(cfg, Arc::new(MetricsRegistry::new()), &mut backend).unwrap();
    durable
        .warmup_and_checkpoint(&backend, TimeRange::days(1), 2)
        .unwrap();
    durable.run(&mut backend, eval).unwrap();
    (world, dir, eval)
}

#[test]
fn corrupted_snapshot_falls_back_and_is_counted() {
    let (world, dir, eval) = completed_run("bitflip", 11);
    let store = StateStore::create(&dir).unwrap();
    let snaps = store.list_snapshots().unwrap();
    assert!(snaps.len() >= 2, "need an older snapshot to fall back to");
    let (_, newest) = snaps.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(newest, &bytes).unwrap();

    // fsck sees the corruption.
    let report = blameit::fsck(&dir);
    assert!(!report.ok(), "{}", report.render());
    assert!(report.render().contains("CORRUPT"), "{}", report.render());

    // Recovery rejects the corrupt snapshot, falls back to the older
    // one, replays the journal gap, and counts the fallback.
    let cfg = config(&world, &dir, 1);
    let mut backend = WorldBackend::with_parallelism(&world, 1);
    let registry = Arc::new(MetricsRegistry::new());
    let (durable, recovery) = DurableEngine::open(cfg, registry.clone(), &mut backend).unwrap();
    assert_eq!(recovery.mode, StartMode::RecoveredFallback);
    assert_eq!(recovery.snapshots_rejected, 1);
    assert!(recovery.ticks_replayed > 0, "the journal gap replays");
    assert_eq!(durable.ticks_done(), tick_starts(eval, 3).len() as u64);

    let exposition = registry.render_prometheus();
    assert!(
        exposition.contains("blameit_recoveries_total{outcome=\"fallback\"} 1"),
        "{exposition}"
    );
    assert!(
        exposition.contains("blameit_snapshots_rejected_total 1"),
        "{exposition}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_snapshot_falls_back() {
    let (world, dir, _eval) = completed_run("truncate", 12);
    let store = StateStore::create(&dir).unwrap();
    let snaps = store.list_snapshots().unwrap();
    let (_, newest) = snaps.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 3]).unwrap();

    let cfg = config(&world, &dir, 1);
    let mut backend = WorldBackend::with_parallelism(&world, 1);
    let (_, recovery) =
        DurableEngine::open(cfg, Arc::new(MetricsRegistry::new()), &mut backend).unwrap();
    assert_eq!(recovery.mode, StartMode::RecoveredFallback);
    assert_eq!(recovery.snapshots_rejected, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// With an empty warm-up, the first ticks look every expected RTT up
/// before its first observation, and the median cache holds only
/// `(day, None)` entries — 9 bytes for a cloud key, the smallest entry
/// a snapshot can hold. The engine must reopen from its own snapshots.
#[test]
fn an_unwarmed_engine_reopens_from_its_own_snapshots() {
    let world = quiet_world(Scale::Tiny, 2, 7);
    let dir = state_dir("unwarmed");
    let mut cfg = config(&world, &dir, 1);
    cfg.snapshot_every_ticks = 1;
    let tick_buckets = cfg.tick_buckets;
    let mut backend = WorldBackend::with_parallelism(&world, 1);
    let registry = Arc::new(MetricsRegistry::new());
    let (mut durable, _) = DurableEngine::open(cfg.clone(), registry, &mut backend).unwrap();
    let nothing = TimeRange::new(SimTime::ZERO, SimTime::ZERO);
    durable.warmup_and_checkpoint(&backend, nothing, 2).unwrap();
    for tick in 0..2 {
        durable
            .tick(&mut backend, TimeBucket(tick * tick_buckets))
            .unwrap();
    }
    drop(durable);

    let registry = Arc::new(MetricsRegistry::new());
    let (_, report) = DurableEngine::open(cfg, registry, &mut backend).unwrap();
    assert_eq!(
        (
            report.mode,
            report.snapshots_rejected,
            report.snapshot_ticks_done
        ),
        (StartMode::Recovered, 0, 2)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn foreign_state_dir_is_refused_not_overwritten() {
    let (world, dir, _eval) = completed_run("foreign", 13);
    // An engine with a different seed must refuse the directory
    // outright rather than silently starting cold over foreign state.
    let mut cfg = config(&world, &dir, 1);
    cfg.seed ^= 1;
    let mut backend = WorldBackend::with_parallelism(&world, 1);
    let err = DurableEngine::open(cfg, Arc::new(MetricsRegistry::new()), &mut backend)
        .err()
        .expect("foreign dir must be refused");
    assert!(
        matches!(err, PersistError::ConfigMismatch(_)),
        "got {err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
