//! The in-process daemon loop: `offer` → `pump` per batch, `term` at
//! the end — what `Server::serve_ingest` does, minus the socket.
//!
//! Closed loop, one client: the wire protocol admits one feeder with
//! one outstanding batch, so the next batch is offered when the
//! previous reply is in hand, and latency is timed from the moment a
//! batch is handed over.

use crate::inputs::{DaemonInputs, Deadline, StateDir};
use crate::layers::{LayerAcc, Shadow};
use crate::spans::Tracer;
use crate::stats::chain_digests;
use blameit::{tick_digest, Backend, RecordBatch, StartMode, TickOutput};
use blameit_daemon::{DaemonCore, IngestStats, OfferReply};
use std::path::Path;
use std::time::Instant;

/// Attempts per batch before it is counted abandoned (first try plus
/// immediate retries — the reference feeder's default).
pub const MAX_ATTEMPTS: u32 = 5;

/// One pump that ran at least one tick.
#[derive(Clone, Copy, Debug)]
pub struct TickSample {
    /// Wall time of the `pump` call, ms.
    pub pump_ms: f64,
    /// `stage_timings.total()` summed over the ticks it ran, ms.
    pub engine_ms: f64,
    /// The pump crossed a snapshot boundary (snapshot + WAL compaction).
    pub snapshot: bool,
}

/// What feeding a run of batches produced.
#[derive(Debug, Default)]
pub struct FeedOutcome {
    /// Per batch: duration of the (last) `offer` call, ms.
    pub acks_ms: Vec<f64>,
    /// Per window-closing batch: start of its `offer` → return of the
    /// `pump` that ran the tick, ms.
    pub verdicts_ms: Vec<f64>,
    /// Per pump that ran a tick.
    pub ticks: Vec<TickSample>,
    /// First offer → return of `term`, seconds.
    pub wall_s: f64,
    /// The `term` call, ms.
    pub term_ms: f64,
    /// Batches abandoned after [`MAX_ATTEMPTS`] `SLOW_DOWN`s.
    pub abandoned: u64,
    /// Every tick output, in order (pumps, then the `term` drain).
    pub outs: Vec<TickOutput>,
}

/// Feeds `batches` into `core`, then `term`s it (unless the caller is
/// about to simulate a crash). With a recording tracer and a shadow,
/// every call is a span and every layer call inside `offer`/`pump` is
/// repeated on the shadow objects.
pub fn feed<B: Backend>(
    core: &mut DaemonCore<B>,
    batches: &[RecordBatch],
    term: bool,
    tracer: &mut Tracer,
    mut shadow: Option<&mut Shadow<'_>>,
    deadline: &Deadline,
) -> Result<FeedOutcome, String> {
    let snapshot_every = u64::from(core.engine().config().snapshot_every_ticks.max(1));
    let mut out = FeedOutcome::default();
    let t_feed = Instant::now();
    for batch in batches {
        deadline.check()?;
        let id = batch.bucket.0;
        let root = tracer.open("batch", None, id);
        let t_batch = Instant::now();
        let mut attempts = 0;
        let ticked = loop {
            attempts += 1;
            let depth = core.queue_depth();
            let shadow_offer = match shadow.as_deref_mut() {
                Some(s) => Some(s.offer(tracer, root, batch, depth)?),
                None => None,
            };
            let copy = batch.clone();
            let (reply, offer_s) = tracer.time("offer", root, id, || core.offer(copy));
            let reply = reply.map_err(|e| format!("offer of bucket {id}: {e}"))?;
            let admitted = match reply {
                OfferReply::Ack { admitted, .. } => Some(admitted),
                OfferReply::SlowDown { .. } => None,
            };
            if let (Some(s), Some(sh)) = (shadow.as_deref_mut(), shadow_offer) {
                if sh.admitted != admitted.unwrap_or(0) {
                    return Err(format!(
                        "bucket {id}: shadow admission admitted {} records, the daemon {admitted:?}",
                        sh.admitted
                    ));
                }
                s.acc.sample(
                    "trace.offer_unattributed_ms_p50",
                    (offer_s - sh.attributed_s) * 1e3,
                );
            }
            // The server pumps after every reply, refusals included.
            let ticks_before = core.ticks_done();
            let (pumped, pump_s) = tracer.time("pump", root, id, || core.pump());
            let pumped = pumped.map_err(|e| format!("pump after bucket {id}: {e}"))?;
            let ticks_after = core.ticks_done();
            let ticked = !pumped.is_empty();
            if ticked {
                out.ticks.push(TickSample {
                    pump_ms: pump_s * 1e3,
                    engine_ms: engine_ms(&pumped),
                    snapshot: ticks_after / snapshot_every > ticks_before / snapshot_every,
                });
                if let Some(s) = shadow.as_deref_mut() {
                    s.ticked(tracer, root, id, ticks_before, ticks_after)?;
                }
                out.outs.extend(pumped);
            }
            if admitted.is_some() {
                out.acks_ms.push(offer_s * 1e3);
                break ticked;
            }
            if attempts >= MAX_ATTEMPTS {
                out.acks_ms.push(offer_s * 1e3);
                out.abandoned += 1;
                break ticked;
            }
        };
        if ticked {
            out.verdicts_ms.push(t_batch.elapsed().as_secs_f64() * 1e3);
        }
        tracer.close(root);
    }
    if !term {
        out.wall_s = t_feed.elapsed().as_secs_f64();
        return Ok(out);
    }
    let ticks_before = core.ticks_done();
    let (drained, term_s) = tracer.time("term", None, u32::MAX, || core.term());
    let drained = drained.map_err(|e| format!("term: {e}"))?;
    out.wall_s = t_feed.elapsed().as_secs_f64();
    out.term_ms = term_s * 1e3;
    if let Some(s) = shadow {
        s.ticked(tracer, None, u32::MAX, ticks_before, core.ticks_done())?;
    }
    out.outs.extend(drained);
    Ok(out)
}

fn engine_ms(outs: &[TickOutput]) -> f64 {
    outs.iter()
        .map(|o| o.stage_timings.total().as_secs_f64() * 1e3)
        .sum()
}

/// The behaviour of one rep, compared exactly between reps, between
/// the timed and the traced run, and between result sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exact {
    /// Ticks run.
    pub ticks: u64,
    /// Alerts emitted.
    pub alerts: u64,
    /// Records offered.
    pub offered: u64,
    /// Records admitted.
    pub admitted: u64,
    /// Records shed by the impact-ordered controller.
    pub shed: u64,
    /// Records refused at the queue cap.
    pub refused: u64,
    /// Highest queue depth after an admit.
    pub queue_peak: u64,
    /// FNV-64 chain over each tick's `tick_digest` (itself FNV-64 of
    /// the tick's `render_tick_transcript`).
    pub verdict_digest: u64,
}

impl Exact {
    /// From per-tick digests and the daemon's ingest accounting. Fails
    /// when the accounting does not add up.
    pub fn new(
        digests: impl IntoIterator<Item = u64>,
        ticks: u64,
        alerts: u64,
        s: IngestStats,
    ) -> Result<Exact, String> {
        if s.admitted + s.shed_low_impact + s.shed_backpressure != s.offered {
            return Err(format!(
                "ingest accounting broken: admitted {} + shed {} + refused {} != offered {}",
                s.admitted, s.shed_low_impact, s.shed_backpressure, s.offered
            ));
        }
        Ok(Exact {
            ticks,
            alerts,
            offered: s.offered,
            admitted: s.admitted,
            shed: s.shed_low_impact,
            refused: s.shed_backpressure,
            queue_peak: s.queue_peak,
            verdict_digest: chain_digests(digests),
        })
    }

    /// From the tick outputs of an in-process rep.
    pub fn of_outs(outs: &[TickOutput], stats: IngestStats) -> Result<Exact, String> {
        Exact::new(
            outs.iter().map(tick_digest),
            outs.len() as u64,
            outs.iter().map(|o| o.alerts.len() as u64).sum(),
            stats,
        )
    }

    /// `name=value` pairs, in a fixed order, for result files.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("ticks", self.ticks.to_string()),
            ("alerts", self.alerts.to_string()),
            ("offered", self.offered.to_string()),
            ("admitted", self.admitted.to_string()),
            ("shed", self.shed.to_string()),
            ("refused", self.refused.to_string()),
            ("queue_peak", self.queue_peak.to_string()),
            ("verdict_digest", format!("{:016x}", self.verdict_digest)),
        ]
    }
}

/// One in-process rep on a fresh copy of the template state dir.
pub struct DaemonRep {
    /// What the feed measured.
    pub feed: FeedOutcome,
    /// What the rep decided.
    pub exact: Exact,
    /// Clean re-opens of the TERM'd state dir, ms each.
    pub reopen_ms: Vec<f64>,
    /// Layer accounting (traced reps only).
    pub layers: Option<LayerAcc>,
}

/// Runs one `steady`/`surge`-shaped rep over the inputs' batches.
pub fn run_rep(
    inputs: &DaemonInputs,
    reopen_reps: usize,
    tracer: &mut Tracer,
    deadline: &Deadline,
) -> Result<DaemonRep, String> {
    let dir = inputs.template.duplicate("rep")?;
    let (mut core, report) = inputs.open_core(dir.path())?;
    if report.mode != StartMode::Recovered || report.ticks_replayed != 0 {
        return Err(format!(
            "rep did not start from the tick-0 checkpoint: {}",
            report.describe()
        ));
    }
    let mut shadow = Shadow::when_tracing(tracer, inputs)?;
    let feed = feed(
        &mut core,
        &inputs.batches,
        true,
        tracer,
        shadow.as_mut(),
        deadline,
    )?;
    let exact = Exact::of_outs(&feed.outs, core.stats())?;
    let quartets = core.engine().metrics().quartets_processed.get();
    drop(core);

    let layers = match shadow {
        None => None,
        Some(shadow) => {
            let mut acc = shadow.into_acc();
            acc.add_ticks(&feed.outs);
            acc.sum("pipeline.quartets_processed", quartets as f64);
            persist_layer(&mut acc, &feed, dir.path());
            Some(acc)
        }
    };
    let reopen_ms = reopen_clean(inputs, &dir, reopen_reps, exact.ticks)?;
    Ok(DaemonRep {
        feed,
        exact,
        reopen_ms,
        layers,
    })
}

/// Times `DaemonCore::open` on a TERM'd state dir `reps` times: a
/// clean restart loads the newest snapshot and replays nothing.
pub fn reopen_clean(
    inputs: &DaemonInputs,
    dir: &StateDir,
    reps: usize,
    want_ticks: u64,
) -> Result<Vec<f64>, String> {
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let (core, report) = inputs.open_core(dir.path())?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if report.mode != StartMode::Recovered
            || report.ticks_replayed != 0
            || core.ticks_done() != want_ticks
            || core.queue_depth() != 0
        {
            return Err(format!(
                "clean re-open came back wrong ({}; ticks_done {} want {want_ticks}; queue {})",
                report.describe(),
                core.ticks_done(),
                core.queue_depth()
            ));
        }
    }
    Ok(ms)
}

/// The `persist` layer as the harness can see it: pump spans split by
/// snapshot boundary, and file sizes in the state dir.
pub fn persist_layer(acc: &mut LayerAcc, feed: &FeedOutcome, dir: &Path) {
    for t in &feed.ticks {
        if t.snapshot {
            acc.sample("persist.snapshot_tick_ms_p50", t.pump_ms);
        } else {
            acc.sample("persist.plain_tick_ms_p50", t.pump_ms);
            acc.sample("persist.journal_overhead_ms_p50", t.pump_ms - t.engine_ms);
        }
    }
    acc.sum("persist.term_ms", feed.term_ms);
    let store = blameit::StateStore::create(dir);
    let snapshots = store.and_then(|s| s.list_snapshots()).unwrap_or_default();
    let size = |p: &Path| std::fs::metadata(p).map_or(0.0, |m| m.len() as f64);
    if let (Some((_, first)), Some((_, last))) = (snapshots.first(), snapshots.last()) {
        acc.set("persist.snapshot_bytes_first", size(first));
        acc.set("persist.snapshot_bytes_last", size(last));
    }
    // One snapshot per crossed boundary plus the one `term` writes;
    // the store retains only the newest three on disk.
    let crossed = feed.ticks.iter().filter(|t| t.snapshot).count();
    acc.sum("persist.snapshots_written", (crossed + 1) as f64);
    acc.sum(
        "persist.journal_bytes",
        size(&blameit::persist::journal::journal_path(dir)),
    );
}
