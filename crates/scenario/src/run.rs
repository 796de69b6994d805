//! Executes a [`CompiledScenario`] through the deterministic tick.
//!
//! This is the workspace's one driver for a plain or chaos run:
//! [`run_windows`] turns *(world, faults, chaos plan, windows)* into
//! ticks — warmup (history learning, no probes), burn-in (ticks run and
//! discarded so background probes build the pre-incident middle
//! baselines the paper's §5.2/§5.4 diff needs), then the scored eval
//! window — and hands back the warmed engine, the eval outputs and the
//! chaos stats. `.scn` files ([`run_scenario`]) and the CLI's
//! `analyze`/`inject`/`explain`/`flight dump`/`metrics` verbs both go
//! through it; the CLI renders from the [`EngineRun`], a scenario folds
//! it into a transcript + report. Scenarios with a `[chaos]` plan run
//! through [`ChaosBackend`]; scenarios with a `[crash]` section run the
//! durable path — kill, fsck, recover, resume — and must still produce
//! an eval transcript byte-identical to an uninterrupted run, which the
//! runner verifies itself on every crash scenario. The crash and
//! overload runners keep their own loops: their tick grids differ.

use crate::compile::CompiledScenario;
use crate::error::ScenarioError;
use blameit::{
    fsck, render_tick_transcript, tally, Backend, BlameCounts, BlameItConfig, BlameItEngine,
    ChaosBackend, ChaosStats, DurableEngine, LocalizationVerdict, PersistError, StartMode,
    StateStore, TickOutput, UnlocalizedReason, WorldBackend,
};
use blameit_daemon::{
    deliver, world_batches, CoreSink, DaemonConfig, DaemonCore, FeedSummary, IngestStats,
};
use blameit_obs::MetricsRegistry;
use blameit_simnet::{CrashPlan, TimeBucket, TimeRange};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// What a scenario produced: the canonical transcript (golden-pinnable)
/// plus the aggregates the `[expect]` block is evaluated against.
pub struct ScenarioRun {
    /// Canonical eval-window transcript
    /// ([`render_tick_transcript`] output) — byte-identical at any
    /// thread count.
    pub transcript: String,
    /// Flight-recorder JSONL dump taken after the run — like the
    /// transcript, byte-identical at any thread count. On crash runs it
    /// covers the post-recovery engine only.
    pub flight_dump: String,
    /// Eval-window aggregates.
    pub report: ScenarioReport,
}

/// Aggregates over the eval window only (burn-in output is discarded,
/// and metric counters are differenced across the burn-in/eval
/// boundary).
pub struct ScenarioReport {
    /// Engine ticks in the eval window.
    pub ticks: u64,
    /// Passive blame tally.
    pub blames: BlameCounts,
    /// Active-phase localizations attempted.
    pub localizations: u64,
    /// Culprit ASes named, sorted and deduplicated.
    pub culprits: Vec<u32>,
    /// Degraded verdicts per reason, [`UnlocalizedReason::ALL`] order,
    /// counted from the localization records.
    pub degraded_verdicts: [u64; 6],
    /// The same counts read back from the engine's metric counters
    /// (eval-window delta). `None` on crash runs: counters don't
    /// compose across a kill/recover boundary.
    pub degraded_metrics: Option<[u64; 6]>,
    /// Operator alerts emitted.
    pub alerts: u64,
    /// Flight-recorder trigger labels that fired, deduplicated, in
    /// first-fired order.
    pub flight_triggers: Vec<String>,
    /// Ingest accounting, `Some` exactly on `[overload]` runs.
    pub overload: Option<OverloadReport>,
}

/// Eval-side ingest accounting from an `[overload]` run (cumulative
/// over the whole feed, burn-in included — overload scenarios place
/// their surge inside the eval window, so burn-in contributes zeros):
/// the daemon's own stats plus the two numbers only the runner knows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadReport {
    /// The daemon core's ingest accounting (retries re-count).
    pub ingest: IngestStats,
    /// Buckets the feeder abandoned after exhausting its attempts.
    pub batches_abandoned: u64,
    /// Shed records that ranked in the top impact decile of their own
    /// offer (the coverage-protection claim: should stay 0).
    pub top_decile_shed_records: u64,
}

/// Runs `scn` at `threads` engine threads (`0` = ambient default) and
/// returns the transcript + report. `file` positions run errors.
pub fn run_scenario(
    file: &str,
    scn: &CompiledScenario,
    threads: usize,
) -> Result<ScenarioRun, ScenarioError> {
    if scn.spec.crash.is_some() {
        run_crash(file, scn, threads)
    } else if scn.spec.overload.is_some() {
        run_overload(file, scn, threads)
    } else {
        Ok(run_plain(scn, threads))
    }
}

/// What [`run_windows`] hands back: everything a caller renders from.
pub struct EngineRun {
    /// The engine after the eval window: metrics registry, flight
    /// recorder, cumulative probe totals.
    pub engine: BlameItEngine,
    /// One output per eval-window tick (burn-in output is discarded).
    pub ticks: Vec<TickOutput>,
    /// Faults the [`ChaosBackend`] injected over all three windows;
    /// `None` when the scenario compiled to no chaos plan.
    pub chaos: Option<ChaosStats>,
    /// Degraded-verdict metric counters, differenced over the eval
    /// window ([`UnlocalizedReason::ALL`] order).
    pub degraded_metrics: [u64; 6],
}

/// The three-window run — warmup, burn-in (discarded), eval — of a
/// plain engine, behind a [`ChaosBackend`] when `scn` has a chaos plan
/// (it shares the engine's registry, so injected faults and the
/// engine's absorption counters land in one exposition).
pub fn run_windows(scn: &CompiledScenario, threads: usize) -> EngineRun {
    let cfg = scn.engine_config(threads);
    let mut world = WorldBackend::with_parallelism(&scn.world, cfg.parallelism);
    let mut engine = BlameItEngine::new(cfg);
    let ((ticks, degraded_metrics), chaos) = match &scn.plan {
        Some(plan) => {
            let mut chaos = ChaosBackend::with_registry(world, *plan, engine.metrics().registry());
            let out = through_windows(&mut engine, &mut chaos, scn);
            (out, Some(chaos.stats()))
        }
        None => (through_windows(&mut engine, &mut world, scn), None),
    };
    EngineRun {
        engine,
        ticks,
        chaos,
        degraded_metrics,
    }
}

/// Warmup + burn-in (discarded) + eval, returning the eval outputs and
/// the degraded-verdict counter deltas across the eval window.
fn through_windows<B: Backend>(
    engine: &mut BlameItEngine,
    backend: &mut B,
    scn: &CompiledScenario,
) -> (Vec<TickOutput>, [u64; 6]) {
    engine.warmup(backend, scn.warmup, 2);
    if scn.burn_in.num_buckets() > 0 {
        let _ = engine.run(backend, scn.burn_in);
    }
    let before = degraded_counters(engine);
    let ticks = engine.run(backend, scn.eval);
    let after = degraded_counters(engine);
    let delta = std::array::from_fn(|i| after[i].saturating_sub(before[i]));
    (ticks, delta)
}

/// The non-durable scenario path: [`run_windows`] folded into a
/// transcript + report.
fn run_plain(scn: &CompiledScenario, threads: usize) -> ScenarioRun {
    let run = run_windows(scn, threads);
    build_run(&run.engine, run.ticks, Some(run.degraded_metrics))
}

/// The durable path: run to the kill point, fsck, reopen (recovering
/// by snapshot + journal replay), resume, and verify the composed
/// transcript equals an uninterrupted run's byte-for-byte.
fn run_crash(
    file: &str,
    scn: &CompiledScenario,
    threads: usize,
) -> Result<ScenarioRun, ScenarioError> {
    let crash = scn.spec.crash.as_ref().expect("caller checked");
    let fail = |msg: String| ScenarioError::at(file, crash.line, msg);
    let (cfg, dir) = durable_config(scn, threads).map_err(|e| fail(format!("state dir: {e}")))?;

    let mut backend = WorldBackend::with_parallelism(&scn.world, cfg.parallelism);
    let (mut durable, recovery) =
        DurableEngine::open(cfg.clone(), Arc::new(MetricsRegistry::new()), &mut backend)
            .map_err(|e| fail(format!("open: {e}")))?;
    debug_assert_eq!(recovery.mode, StartMode::Cold, "wiped dir starts cold");
    durable
        .warmup_and_checkpoint(&backend, scn.warmup, 2)
        .map_err(|e| fail(format!("warmup checkpoint: {e}")))?;
    if scn.burn_in.num_buckets() > 0 {
        durable
            .run(&mut backend, scn.burn_in)
            .map_err(|e| fail(format!("burn-in: {e}")))?;
    }

    // Eval ticks are driven bucket-by-bucket (durable `run` resumes a
    // single whole range; our burn-in already advanced `ticks_done`).
    let first = scn.eval.start.bucket();
    let starts: Vec<TimeBucket> = (0..scn.eval_ticks)
        .map(|k| first.plus(k * cfg.tick_buckets))
        .collect();
    durable.set_crash_plan(Some(CrashPlan::kill_at(
        scn.burn_in_ticks + crash.kill_tick,
        crash.kill_point,
        crash.seed,
    )));
    let mut outs: Vec<TickOutput> = Vec::new();
    let mut killed = false;
    for &start in &starts {
        match durable.tick(&mut backend, start) {
            Ok(out) => outs.push(out),
            Err(PersistError::Crashed(point)) => {
                debug_assert_eq!(point, crash.kill_point);
                killed = true;
                break;
            }
            Err(e) => return Err(fail(format!("durable tick: {e}"))),
        }
    }
    if !killed {
        return Err(fail(format!(
            "crash plan never fired (kill_tick {} of {} eval tick(s))",
            crash.kill_tick,
            starts.len()
        )));
    }
    drop(durable);

    // The torn state must still pass fsck before we even try recovery.
    let fsck_report = fsck(&dir);
    if !fsck_report.ok() {
        return Err(fail(format!(
            "fsck found errors in the post-crash state dir:\n{}",
            fsck_report.render()
        )));
    }

    // Recover: snapshot + journal replay hands back every completed
    // tick we haven't already got, then resumption runs the rest.
    let (mut durable, recovery) =
        DurableEngine::open(cfg, Arc::new(MetricsRegistry::new()), &mut backend)
            .map_err(|e| fail(format!("recovery open: {e}")))?;
    if recovery.mode == StartMode::Cold {
        return Err(fail("recovery unexpectedly started cold".to_string()));
    }
    let first_missing = scn.burn_in_ticks + outs.len() as u64;
    for (j, out) in recovery.replayed.into_iter().enumerate() {
        if recovery.snapshot_ticks_done + j as u64 >= first_missing {
            outs.push(out);
        }
    }
    for (k, &start) in starts.iter().enumerate() {
        if scn.burn_in_ticks + k as u64 >= durable.ticks_done() {
            outs.push(
                durable
                    .tick(&mut backend, start)
                    .map_err(|e| fail(format!("resumed tick: {e}")))?,
            );
        }
    }
    if outs.len() != starts.len() {
        return Err(fail(format!(
            "composed run has {} tick(s), expected {}",
            outs.len(),
            starts.len()
        )));
    }
    let run = build_run(durable.engine(), outs, None);
    let _ = std::fs::remove_dir_all(&dir);

    // The determinism contract, enforced per scenario: crash + recover
    // + resume must be invisible in the transcript.
    let reference = run_plain(scn, threads);
    if reference.transcript != run.transcript {
        return Err(fail(
            "composed crash-run transcript differs from an uninterrupted run".to_string(),
        ));
    }
    Ok(run)
}

/// The overload path: the feeder's batch source and delivery step
/// (`blameit_daemon::client`) over its in-process sink — the compiled
/// surge plan replayed into the daemon's decision core ([`DaemonCore`])
/// with admission, shedding, WAL, and data-driven ticks all engaged,
/// no sockets, no clocks.
fn run_overload(
    file: &str,
    scn: &CompiledScenario,
    threads: usize,
) -> Result<ScenarioRun, ScenarioError> {
    let o = scn.spec.overload.as_ref().expect("caller checked");
    let surge = scn.surge.clone().expect("compiled with [overload]");
    let fail = |msg: String| ScenarioError::at(file, o.line, msg);
    let (cfg, dir) = durable_config(scn, threads).map_err(|e| fail(format!("state dir: {e}")))?;
    let tick_buckets = cfg.tick_buckets;

    let mut dcfg = DaemonConfig::default();
    scn.spec.apply(crate::keys::Target::Daemon(&mut dcfg));

    let inner = WorldBackend::with_parallelism(&scn.world, cfg.parallelism);
    let source = WorldBackend::with_parallelism(&scn.world, cfg.parallelism);
    let (mut core, recovery) = DaemonCore::open(
        cfg,
        dcfg,
        Arc::new(MetricsRegistry::new()),
        inner,
        scn.warmup,
    )
    .map_err(|e| fail(format!("open: {e}")))?;
    debug_assert_eq!(recovery.mode, StartMode::Cold, "wiped dir starts cold");

    // Feed exactly the whole-tick coverage: burn-in plus the eval
    // ticks. Compile guarantees the burn-in is whole ticks too, so the
    // daemon's continuous tick grid lands on the eval boundary.
    let feed_end = scn.eval.start.bucket().plus(scn.eval_ticks * tick_buckets);
    let feed_range = TimeRange::new(scn.burn_in.start.bucket().start(), feed_end.start());
    let mut top_decile_shed = 0u64;
    let mut baseline: Option<Option<[u64; 6]>> = None;
    let capture_baseline = |core: &DaemonCore<WorldBackend>, b: &mut Option<Option<[u64; 6]>>| {
        if b.is_none() && core.ticks_done() >= scn.burn_in_ticks {
            // Exact only if no tick jumped the burn-in/eval boundary.
            *b = Some(
                (core.ticks_done() == scn.burn_in_ticks).then(|| degraded_counters(core.engine())),
            );
        }
    };
    capture_baseline(&core, &mut baseline);
    let mut sink = CoreSink::new(&mut core);
    let mut fed = FeedSummary::default();
    for batch in world_batches(&source, feed_range, surge) {
        // Score the offer with the same history `offer` will use, to
        // mark its top impact decile before any of it can be shed.
        let top_decile: BTreeSet<u64> = {
            let mut sorted = batch.clone();
            sorted.sort_by_key();
            let scored = sink.core.admission().score_batch(&sorted);
            let keep = scored.len() - scored.len().div_ceil(10);
            scored[keep..].iter().map(|g| g.subkey).collect()
        };
        // Only an admit sheds, so whatever the log gained over this
        // delivery came from the batch's one `Ack`.
        let shed_before = sink.core.shed_log().len();
        deliver(&mut sink, &batch, o.max_attempts, &mut fed)
            .map_err(|e| fail(format!("offer: {e}")))?;
        for entry in &sink.core.shed_log()[shed_before..] {
            if top_decile.contains(&entry.subkey) {
                top_decile_shed += u64::from(entry.records);
            }
        }
        capture_baseline(sink.core, &mut baseline);
    }
    let mut outs = sink.outs;
    outs.extend(core.term().map_err(|e| fail(format!("term: {e}")))?);
    capture_baseline(&core, &mut baseline);

    let want = scn.burn_in_ticks + u64::from(scn.eval_ticks);
    if outs.len() as u64 != want {
        return Err(fail(format!(
            "overload run produced {} tick(s), expected {want} — the surge abandoned every \
             bucket of a trailing window, stalling the feed cursor",
            outs.len()
        )));
    }
    let report = OverloadReport {
        ingest: core.stats(),
        batches_abandoned: fed.batches_abandoned,
        top_decile_shed_records: top_decile_shed,
    };
    let eval_outs = outs.split_off(scn.burn_in_ticks as usize);
    let after = degraded_counters(core.engine());
    let degraded_metrics = baseline
        .flatten()
        .map(|before| std::array::from_fn(|i| after[i].saturating_sub(before[i])));
    let mut run = build_run(core.engine(), eval_outs, degraded_metrics);
    run.report.overload = Some(report);
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(run)
}

/// The engine config pointed at a freshly wiped scratch state dir —
/// one per (scenario, thread count, process), under the system temp dir.
fn durable_config(
    scn: &CompiledScenario,
    threads: usize,
) -> std::io::Result<(BlameItConfig, PathBuf)> {
    let dir = std::env::temp_dir().join(format!(
        "blameit-scn-{}-t{threads}-p{}",
        scn.spec.name,
        std::process::id()
    ));
    StateStore::create(&dir)?.wipe()?;
    let mut cfg = scn.engine_config(threads);
    cfg.state_dir = Some(dir.clone());
    Ok((cfg, dir))
}

/// The engine's cumulative degraded-verdict counters, in
/// [`UnlocalizedReason::ALL`] order.
pub fn degraded_counters(engine: &BlameItEngine) -> [u64; 6] {
    let m = engine.metrics();
    UnlocalizedReason::ALL.map(|r| m.degraded_counter(r).get())
}

fn build_run(
    engine: &BlameItEngine,
    outs: Vec<TickOutput>,
    degraded_metrics: Option<[u64; 6]>,
) -> ScenarioRun {
    let transcript = render_tick_transcript(&outs);
    let mut blames = BlameCounts::new();
    let mut localizations = 0u64;
    let mut culprits: Vec<u32> = Vec::new();
    let mut degraded_verdicts = [0u64; 6];
    let mut alerts = 0u64;
    for out in &outs {
        blames.merge(&tally(&out.blames));
        alerts += out.alerts.len() as u64;
        localizations += out.localizations.len() as u64;
        for loc in &out.localizations {
            match loc.verdict {
                LocalizationVerdict::Culprit(asn) => culprits.push(asn.0),
                LocalizationVerdict::MiddleUnlocalized { reason } => {
                    let i = UnlocalizedReason::ALL
                        .iter()
                        .position(|r| *r == reason)
                        .expect("ALL covers every reason");
                    degraded_verdicts[i] += 1;
                }
            }
        }
    }
    culprits.sort_unstable();
    culprits.dedup();
    let flight_triggers = engine.flight().with_ring(|_, events| {
        let mut seen = Vec::new();
        for ev in events {
            let label = ev.trigger.label().to_string();
            if !seen.contains(&label) {
                seen.push(label);
            }
        }
        seen
    });
    ScenarioRun {
        transcript,
        flight_dump: engine.flight().dump_jsonl(),
        report: ScenarioReport {
            ticks: outs.len() as u64,
            blames,
            localizations,
            culprits,
            degraded_verdicts,
            degraded_metrics,
            alerts,
            flight_triggers,
            overload: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parse::parse_scenario;

    fn run_text(text: &str, threads: usize) -> ScenarioRun {
        let scn = compile("mem.scn", parse_scenario("mem.scn", text).unwrap()).unwrap();
        run_scenario("mem.scn", &scn, threads).unwrap()
    }

    const QUIET: &str = "\
name = quiet
[world]
scale = tiny
days = 2
[eval]
start_hour = 24
duration_mins = 90
";

    #[test]
    fn quiet_world_runs_and_reports() {
        let run = run_text(QUIET, 1);
        assert_eq!(run.report.ticks, 6);
        assert!(run.report.blames.total() > 0, "traffic produces verdicts");
        assert!(run.transcript.starts_with("tick 0 "), "{}", run.transcript);
    }

    #[test]
    fn thread_count_is_invisible() {
        let one = run_text(QUIET, 1);
        let four = run_text(QUIET, 4);
        assert_eq!(one.transcript, four.transcript);
        assert_eq!(one.report.blames.total(), four.report.blames.total());
    }

    #[test]
    fn chaos_timeouts_degrade_without_metrics_drift() {
        let text = format!("{QUIET}[chaos]\nprobe_timeout = 1.0\n");
        let run = run_text(&text, 1);
        // Whatever localizations were attempted all failed to probe.
        let metrics = run
            .report
            .degraded_metrics
            .expect("plain run keeps metrics");
        assert_eq!(
            run.report.degraded_verdicts.iter().sum::<u64>(),
            metrics.iter().sum::<u64>(),
            "verdict records and metric deltas agree over the eval window"
        );
        assert!(run.report.culprits.is_empty());
    }
}
