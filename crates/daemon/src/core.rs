//! [`DaemonCore`]: the deterministic service loop, with no IO shell.
//!
//! Everything `blameitd` decides — admission, shedding, when a tick
//! fires, when the overload watchdog trips — lives here, as a pure
//! function of the offered batches and the engine's own state. The
//! socket/HTTP shell ([`crate::server`]) only moves bytes; tests drive
//! this struct directly, batch by batch, with no sockets and no
//! clocks, which is what makes overload runs byte-reproducible at any
//! thread count.
//!
//! Tick scheduling is **data-driven**, not timer-driven: a tick window
//! `[start, start + tick_buckets)` fires once a batch for a bucket at
//! or past the window's end has been admitted (the feed is in bucket
//! order, so the window can no longer grow). A wall clock never picks
//! the tick boundary, so a surged replay and a quiet replay of the
//! same feed tick at exactly the same buckets.

use crate::queue::QueueBackend;
use crate::wal::IngestWal;
use blameit::persist::fs::{Fs, StdFs};
use blameit::persist::log::WAL_FILE;
use blameit::{
    metrics::shed_reason, AdmissionController, AdmissionDecision, Backend, BlameItConfig,
    BlameItEngine, DurableEngine, PersistError, RecordBatch, RecoveryReport, TickOutput,
};
use blameit_obs::{FlightTrigger, MetricsRegistry};
use blameit_simnet::{TimeBucket, TimeRange};
use std::io;
use std::sync::Arc;

pub use blameit::AdmissionConfig;

/// Daemon-level knobs on top of the engine config.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Bounded-queue / shedding knobs.
    pub admission: AdmissionConfig,
    /// Consecutive overloaded ticks (ticks whose inter-tick window saw
    /// shedding or backpressure) before the watchdog fires the
    /// `overload-sustained` flight trigger. Re-arms after a clean tick.
    pub overload_sustained_ticks: u32,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            admission: AdmissionConfig::default(),
            overload_sustained_ticks: 3,
        }
    }
}

/// A daemon failure: engine persistence or WAL IO.
#[derive(Debug)]
pub enum DaemonError {
    /// The durable engine failed.
    Persist(PersistError),
    /// The ingest WAL could not be written/read.
    Io(io::Error),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Persist(e) => write!(f, "{e}"),
            DaemonError::Io(e) => write!(f, "ingest wal: {e}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<PersistError> for DaemonError {
    fn from(e: PersistError) -> Self {
        DaemonError::Persist(e)
    }
}

impl From<io::Error> for DaemonError {
    fn from(e: io::Error) -> Self {
        DaemonError::Io(e)
    }
}

/// What the daemon tells the sender about one offered batch (maps 1:1
/// onto the wire's `ACK`/`SLOW_DOWN`; [`crate::wire`] holds the
/// conversion, both ways).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OfferReply {
    /// Admitted (possibly reduced by shedding).
    Ack {
        /// Records admitted.
        admitted: u64,
        /// Records shed by the overload controller.
        shed: u64,
        /// Queue depth after the offer.
        queue_depth: u64,
    },
    /// Refused at the queue cap.
    SlowDown {
        /// Seconds the sender should wait before retrying.
        retry_after_secs: u64,
        /// Queue depth that forced the refusal.
        queue_depth: u64,
    },
}

/// Cumulative ingest accounting since open.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records offered over the socket.
    pub offered: u64,
    /// Records admitted to the queue.
    pub admitted: u64,
    /// Records shed by the impact-ordered controller.
    pub shed_low_impact: u64,
    /// Records refused wholesale at the queue cap.
    pub shed_backpressure: u64,
    /// `SLOW_DOWN` replies issued.
    pub backpressure_replies: u64,
    /// Highest queue depth observed after an admit.
    pub queue_peak: u64,
}

/// One shed quartet group, logged for reproducibility checks: two runs
/// of the same feed must shed exactly the same groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShedEntry {
    /// Bucket of the offer the group was shed from.
    pub bucket: TimeBucket,
    /// The group's packed subkey.
    pub subkey: u64,
    /// Records the group carried.
    pub records: u32,
}

/// The daemon's decision core: bounded ingest → durable ticks.
pub struct DaemonCore<B: Backend, F: Fs = StdFs> {
    durable: DurableEngine<F>,
    backend: QueueBackend<B>,
    admission: AdmissionController,
    wal: IngestWal<F>,
    dcfg: DaemonConfig,
    tick_buckets: u32,
    snapshot_every: u64,
    stats: IngestStats,
    shed_log: Vec<ShedEntry>,
    overload_since_tick: bool,
    overload_streak: u32,
    overload_fired: bool,
    last_prune_cutoff: u32,
}

impl<B: Backend> DaemonCore<B> {
    /// [`DaemonCore::open_in`] on the real filesystem.
    pub fn open(
        cfg: BlameItConfig,
        dcfg: DaemonConfig,
        registry: Arc<MetricsRegistry>,
        inner: B,
        warmup: TimeRange,
    ) -> Result<(DaemonCore<B>, RecoveryReport), DaemonError> {
        DaemonCore::open_in(StdFs, cfg, dcfg, registry, inner, warmup)
    }
}

impl<B: Backend, F: Fs> DaemonCore<B, F> {
    /// Opens the daemon state on `fs`: refills the queue from the
    /// ingest WAL, then opens the durable engine (which replays
    /// journaled ticks *through* the refilled queue), then warms up +
    /// checkpoints on a cold start. The feed window begins at
    /// `warmup.end` — earlier buckets are served by `inner`, later ones
    /// by the socket.
    pub fn open_in(
        fs: F,
        cfg: BlameItConfig,
        dcfg: DaemonConfig,
        registry: Arc<MetricsRegistry>,
        inner: B,
        warmup: TimeRange,
    ) -> Result<(DaemonCore<B, F>, RecoveryReport), DaemonError> {
        let dir = cfg.state_dir.clone().ok_or(PersistError::NoStateDir)?;
        fs.create_dir_all(&dir)?;
        let feed_start = warmup.end.bucket();
        let backend = QueueBackend::new(inner, feed_start);
        let (wal, wal_recovery) = IngestWal::open_in(fs.clone(), &dir.join(WAL_FILE))?;
        for batch in wal_recovery.batches {
            backend.push(batch);
        }
        let snapshot_every = cfg.snapshot_every_ticks.max(1) as u64;
        let tick_buckets = cfg.tick_buckets;
        let mut backend = backend;
        let (mut durable, recovery) = DurableEngine::open_in(fs, cfg, registry, &mut backend)?;
        let replayed = &durable.engine().metrics().wal_replayed_bytes;
        replayed.set(wal_recovery.bytes as f64);
        if recovery.mode == blameit::StartMode::Cold {
            durable.warmup_and_checkpoint(&backend, warmup, 2)?;
        }
        let core = DaemonCore {
            durable,
            backend,
            admission: AdmissionController::new(dcfg.admission.clone()),
            wal,
            dcfg,
            tick_buckets,
            snapshot_every,
            stats: IngestStats::default(),
            shed_log: Vec::new(),
            overload_since_tick: false,
            overload_streak: 0,
            overload_fired: false,
            last_prune_cutoff: 0,
        };
        Ok((core, recovery))
    }

    /// The engine (read access for transcripts, metrics, flight).
    pub fn engine(&self) -> &BlameItEngine {
        self.durable.engine()
    }

    /// Ticks completed since the post-warmup checkpoint.
    pub fn ticks_done(&self) -> u64 {
        self.durable.ticks_done()
    }

    /// Cumulative ingest accounting.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Every group shed so far, in shed order.
    pub fn shed_log(&self) -> &[ShedEntry] {
        &self.shed_log
    }

    /// The admission controller (read access, e.g. to score an offer
    /// with the same history [`offer`](Self::offer) will use).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The first bucket a tick has not yet consumed.
    fn next_tick_start(&self) -> TimeBucket {
        TimeBucket(self.backend.feed_start().0 + (self.ticks_done() as u32) * self.tick_buckets)
    }

    /// Records queued but not yet consumed by a tick — the admission
    /// controller's notion of queue depth.
    pub fn queue_depth(&self) -> usize {
        self.backend.records_from(self.next_tick_start())
    }

    /// Offers one batch: admission decision, WAL append (fsync'd
    /// *before* the batch becomes engine-visible), queue insert,
    /// metric updates (through the engine's own handles).
    pub fn offer(&mut self, batch: RecordBatch) -> Result<OfferReply, DaemonError> {
        let m = self.durable.engine().metrics();
        let offered = batch.keys.len() as u64;
        self.stats.offered += offered;
        let depth = self.queue_depth();
        let scored_before = self.admission.groups_scored();
        let decision = self.admission.offer(batch, depth);
        m.admission_groups_scored
            .add(self.admission.groups_scored() - scored_before);
        m.admission_streak_groups
            .set(self.admission.streak_groups() as f64);
        match decision {
            AdmissionDecision::Reject {
                retry_after_secs,
                records,
            } => {
                self.stats.shed_backpressure += records;
                self.stats.backpressure_replies += 1;
                m.shed_counter(shed_reason::BACKPRESSURE).add(records);
                m.backpressure_replies.inc();
                self.overload_since_tick = true;
                self.update_coverage();
                Ok(OfferReply::SlowDown {
                    retry_after_secs,
                    queue_depth: depth as u64,
                })
            }
            AdmissionDecision::Admit { batch, shed } => {
                let bucket = batch.bucket;
                let mut shed_records = 0u64;
                for g in &shed {
                    shed_records += u64::from(g.records);
                    self.shed_log.push(ShedEntry {
                        bucket,
                        subkey: g.subkey,
                        records: g.records,
                    });
                }
                if shed_records > 0 {
                    m.shed_counter(shed_reason::LOW_IMPACT).add(shed_records);
                    self.stats.shed_low_impact += shed_records;
                    self.overload_since_tick = true;
                }
                let admitted = batch.keys.len() as u64;
                if admitted > 0 {
                    // lint:allow(wall-clock): times the WAL append for the wal_append_us metric only; never reaches a decision or a transcript
                    let t0 = std::time::Instant::now();
                    m.wal_bytes_appended.add(self.wal.append(&batch)?);
                    // lint:allow(wall-clock): metrics-only duration of the WAL append; write-only observability
                    m.wal_append_us.observe(t0.elapsed().as_micros() as f64);
                    self.backend.push(batch);
                }
                self.stats.admitted += admitted;
                let depth_after = self.queue_depth() as u64;
                self.stats.queue_peak = self.stats.queue_peak.max(depth_after);
                m.ingest_queue_depth.set(depth_after as f64);
                self.update_coverage();
                Ok(OfferReply::Ack {
                    admitted,
                    shed: shed_records,
                    queue_depth: depth_after,
                })
            }
        }
    }

    /// The degraded-coverage SLO gauge: fraction of offered records
    /// admitted (1.0 while nothing was offered).
    fn update_coverage(&self) {
        let cov = if self.stats.offered == 0 {
            1.0
        } else {
            self.stats.admitted as f64 / self.stats.offered as f64
        };
        self.engine().metrics().ingest_coverage.set(cov);
    }

    /// Runs every tick whose window is complete (a bucket at or past
    /// the window end has been fed). Call after each admitted batch;
    /// idle offers make this a no-op.
    pub fn pump(&mut self) -> Result<Vec<TickOutput>, DaemonError> {
        self.run_ready(false)
    }

    /// Graceful shutdown: drains every window with *any* fed data
    /// (the feed has ended, so trailing windows can no longer grow),
    /// snapshots, and retires the whole WAL. The daemon can be killed
    /// and reopened after this with zero replay.
    pub fn term(&mut self) -> Result<Vec<TickOutput>, DaemonError> {
        let outs = self.run_ready(true)?;
        self.durable.checkpoint_now()?;
        // Every fed bucket lies below the next tick's start now.
        let cutoff = self.next_tick_start();
        self.backend.prune_below(cutoff);
        self.rotate_wal(cutoff)?;
        let m = self.engine().metrics();
        m.ingest_queue_depth.set(self.queue_depth() as f64);
        Ok(outs)
    }

    /// [`IngestWal::rotate`], counted and timed on the engine's WAL
    /// instruments.
    fn rotate_wal(&mut self, cutoff: TimeBucket) -> io::Result<()> {
        let m = self.durable.engine().metrics();
        // lint:allow(wall-clock): times the WAL rotation for the wal_rotate_us metric only; never reaches a decision or a transcript
        let t0 = std::time::Instant::now();
        let rotated = self
            .wal
            .rotate(cutoff, &m.wal_segments_sealed, &m.wal_segments_retired);
        // lint:allow(wall-clock): metrics-only duration of the WAL rotation; write-only observability
        m.wal_rotate_us.observe(t0.elapsed().as_micros() as f64);
        rotated
    }

    fn run_ready(&mut self, draining: bool) -> Result<Vec<TickOutput>, DaemonError> {
        let mut outs = Vec::new();
        while let Some(max_fed) = self.backend.max_fed() {
            let start = self.next_tick_start();
            let ready = if draining {
                max_fed.0 >= start.0
            } else {
                max_fed.0 >= start.0 + self.tick_buckets
            };
            if !ready {
                break;
            }
            let out = self.durable.tick(&mut self.backend, start)?;
            self.watchdog(start);
            outs.push(out);
            self.prune();
        }
        if !outs.is_empty() {
            // Cleared per pump, not per tick: sustained overload can
            // stall the feed cursor (whole buckets refused), and the
            // catch-up pump then releases several ticks at once — all
            // of whose windows overlapped the overloaded stretch.
            self.overload_since_tick = false;
            let m = self.engine().metrics();
            m.ingest_queue_depth.set(self.queue_depth() as f64);
        }
        Ok(outs)
    }

    /// Overload watchdog: counts consecutive ticks whose inter-tick
    /// window saw shedding/backpressure, and fires the flight recorder
    /// once per sustained episode.
    fn watchdog(&mut self, tick_start: TimeBucket) {
        if self.overload_since_tick {
            self.overload_streak += 1;
            if self.overload_streak >= self.dcfg.overload_sustained_ticks && !self.overload_fired {
                self.overload_fired = true;
                let s = self.stats;
                self.durable.engine().fire_flight_trigger(
                    tick_start.start().secs(),
                    FlightTrigger::OverloadSustained,
                    format!(
                        "overloaded for {} consecutive tick(s): shed={} refused={} queue_peak={}",
                        self.overload_streak, s.shed_low_impact, s.shed_backpressure, s.queue_peak
                    ),
                );
            }
        } else {
            self.overload_streak = 0;
            self.overload_fired = false;
        }
    }

    /// Drops queue + WAL data already covered by a durable snapshot,
    /// keeping one extra snapshot period so a fallback recovery (the
    /// newest snapshot torn by a crash) can still replay.
    fn prune(&mut self) {
        let done = self.ticks_done();
        let covered = done - (done % self.snapshot_every);
        let Some(safe) = covered.checked_sub(self.snapshot_every) else {
            return;
        };
        let cutoff = self.backend.feed_start().0 + (safe as u32) * self.tick_buckets;
        if cutoff <= self.last_prune_cutoff {
            return;
        }
        self.last_prune_cutoff = cutoff;
        self.backend.prune_below(TimeBucket(cutoff));
        // A failed rotation is not fatal: the WAL is merely larger
        // than needed, and the next prune retires what this one left.
        if self.rotate_wal(TimeBucket(cutoff)).is_err() {
            self.engine().metrics().wal_retire_failures.inc();
        }
    }
}
