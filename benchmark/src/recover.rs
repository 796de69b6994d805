//! The `recover` workload: `DaemonCore::open` on a crashed state dir,
//! then the feed resumes.
//!
//! Set-up feeds a prefix of `steady`'s batches and drops the core
//! without `term` — a crash that leaves a multi-megabyte WAL and a
//! journal some ticks ahead of the newest snapshot. Each rep opens a
//! fresh copy of that directory (timed), checks that what came back is
//! what went down, feeds the remaining batches and `term`s.

use crate::daemon::{feed, persist_layer, Exact, FeedOutcome};
use crate::inputs::{DaemonInputs, Deadline, StateDir};
use crate::layers::{LayerAcc, Shadow};
use crate::spans::Tracer;
use blameit::{render_tick_transcript, tick_digest, StartMode, TickOutput};
use blameit_bench::Scale;
use blameit_daemon::{IngestStats, IngestWal};
use std::time::Instant;

/// Inputs of `recover`: the daemon inputs plus the crashed directory.
pub struct RecoverInputs {
    /// World, batches (crash prefix then resume suffix), configs.
    pub daemon: DaemonInputs,
    /// Batches fed before the crash.
    pub crash_batches: usize,
    /// The state dir as the crash left it.
    pub crash_dir: StateDir,
    /// Tick outputs the daemon produced before it crashed.
    pub pre_outs: Vec<TickOutput>,
    /// Ingest accounting at the crash.
    pub pre_stats: IngestStats,
    /// `queue_depth()` at the crash.
    pub pre_depth: usize,
    /// Whole set-up, seconds (world, batches, cold open, crash feed).
    pub total_s: f64,
}

impl RecoverInputs {
    /// Builds the inputs and the crashed state.
    pub fn build(
        scale: Scale,
        seed: u64,
        crash_batches: u32,
        resume_batches: u32,
        deadline: &Deadline,
    ) -> Result<RecoverInputs, String> {
        let t0 = Instant::now();
        let daemon = DaemonInputs::build(scale, seed, crash_batches + resume_batches, false)?;
        let crash_dir = daemon.template.duplicate("crash")?;
        let (mut core, _) = daemon.open_core(crash_dir.path())?;
        let crash_batches = crash_batches as usize;
        let fed = feed(
            &mut core,
            &daemon.batches[..crash_batches],
            false,
            &mut Tracer::new(false),
            None,
            deadline,
        )?;
        let (pre_stats, pre_depth) = (core.stats(), core.queue_depth());
        // The crash: every admitted batch and journaled tick is already
        // fsync'd, nothing else is flushed.
        drop(core);
        Ok(RecoverInputs {
            daemon,
            crash_batches,
            crash_dir,
            pre_outs: fed.outs,
            pre_stats,
            pre_depth,
            total_s: t0.elapsed().as_secs_f64(),
        })
    }
}

/// One recover-and-resume rep.
pub struct RecoverRep {
    /// `DaemonCore::open` on the crashed dir, ms.
    pub open_ms: f64,
    /// Journaled ticks the open replayed.
    pub replayed: u64,
    /// The resumed feed.
    pub feed: FeedOutcome,
    /// Records offered after the recovery.
    pub resumed_records: u64,
    /// The whole history's behaviour: pre-crash, replayed, resumed.
    pub exact: Exact,
    /// Layer accounting (traced reps only).
    pub layers: Option<LayerAcc>,
}

/// Runs one rep.
pub fn run_rep(
    inputs: &RecoverInputs,
    tracer: &mut Tracer,
    deadline: &Deadline,
) -> Result<RecoverRep, String> {
    let dir = inputs.crash_dir.duplicate("recover")?;
    let mut acc = tracer.enabled().then(LayerAcc::default);

    // The `wal` layer's read side alone. Opening the WAL twice is
    // harmless: replay only truncates a torn tail, and there is none.
    let mut wal_replay_s = 0.0;
    if let Some(acc) = acc.as_mut() {
        let path = dir.path().join("ingest.wal");
        let (opened, secs) = tracer.time("wal.replay", None, 0, || IngestWal::open(&path));
        let (_, recovery) = opened.map_err(|e| format!("wal replay: {e}"))?;
        wal_replay_s = secs;
        acc.sample("wal.replay_ms_p50", secs * 1e3);
        acc.sum("wal.replay_batches", recovery.batches.len() as f64);
        acc.sum(
            "wal.replay_bytes",
            std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
        );
    }

    let (opened, open_s) = tracer.time("open", None, 0, || inputs.daemon.open_core(dir.path()));
    let (mut core, report) = opened?;
    let pre_ticks = inputs.pre_outs.len() as u64;
    let snap = report.snapshot_ticks_done as usize;
    if report.mode != StartMode::Recovered
        || report.snapshots_rejected != 0
        || report.ticks_replayed == 0
        || core.ticks_done() != pre_ticks
        || core.queue_depth() != inputs.pre_depth
    {
        return Err(format!(
            "recovery came back wrong: {} (ticks_done {} want {pre_ticks}; queue {} want {})",
            report.describe(),
            core.ticks_done(),
            core.queue_depth(),
            inputs.pre_depth
        ));
    }
    if render_tick_transcript(&report.replayed) != render_tick_transcript(&inputs.pre_outs[snap..])
    {
        return Err("replayed ticks differ from the ticks run before the crash".to_string());
    }

    let resume = &inputs.daemon.batches[inputs.crash_batches..];
    let mut shadow = Shadow::when_tracing(tracer, &inputs.daemon)?;
    let feed = feed(&mut core, resume, true, tracer, shadow.as_mut(), deadline)?;

    let (pre, post) = (inputs.pre_stats, core.stats());
    let stats = IngestStats {
        offered: pre.offered + post.offered,
        admitted: pre.admitted + post.admitted,
        shed_low_impact: pre.shed_low_impact + post.shed_low_impact,
        shed_backpressure: pre.shed_backpressure + post.shed_backpressure,
        backpressure_replies: pre.backpressure_replies + post.backpressure_replies,
        queue_peak: pre.queue_peak.max(post.queue_peak),
    };
    let history = || {
        inputs.pre_outs[..snap]
            .iter()
            .chain(&report.replayed)
            .chain(&feed.outs)
    };
    let exact = Exact::new(
        history().map(tick_digest),
        history().count() as u64,
        history().map(|o| o.alerts.len() as u64).sum(),
        stats,
    )?;

    if let (Some(acc), Some(shadow)) = (acc.as_mut(), shadow) {
        crate::layers::merge(acc, shadow.into_acc());
        acc.add_ticks(&report.replayed);
        acc.add_ticks(&feed.outs);
        acc.sum(
            "pipeline.quartets_processed",
            core.engine().metrics().quartets_processed.get() as f64,
        );
        persist_layer(acc, &feed, dir.path());
        acc.sample("persist.open_rest_ms_p50", (open_s - wal_replay_s) * 1e3);
        acc.sum("persist.replayed_ticks", report.ticks_replayed as f64);
    }
    Ok(RecoverRep {
        open_ms: open_s * 1e3,
        replayed: report.ticks_replayed,
        resumed_records: post.offered,
        feed,
        exact,
        layers: acc,
    })
}
