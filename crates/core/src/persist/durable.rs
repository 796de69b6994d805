//! [`DurableEngine`]: the crash-safe tick loop.
//!
//! Wraps a [`BlameItEngine`] with the durable-tick protocol. Every
//! file call goes through the engine's [`Fs`]; the crash harness is a
//! [`FaultFs`](super::fs::FaultFs) whose kill-point table
//! ([`Fault::crash`](super::fs::Fault::crash)) names the call each kill
//! point interrupts (protocol order, kill points in brackets):
//!
//! ```text
//! engine.tick ─► journal write [mid-journal: torn]
//!   ─► journal sync_data [post-journal: dies once it returns]
//!   ─► (snapshot due?) ─► encode
//!   ─► temp create+write+fsync [pre-snapshot: dies first;
//!                               mid-snapshot-write: torn]
//!   ─► rename ─► dir fsync ─► prune (a failure is counted, not fatal)
//! ```
//!
//! A killed filesystem refuses every later call, so the tick returns
//! the error and the disk stays exactly as a real crash would leave it.
//! Recovery ([`DurableEngine::open`]) loads the newest snapshot that
//! passes its CRCs (falling back and counting rejects), truncates any
//! torn journal tail, and deterministically replays the journaled
//! ticks — verifying each tick's digest — so the resumed run is
//! byte-identical to one that never crashed.

use super::fs::{Fs, StdFs};
use super::journal::{fnv1a64, Journal, JournalRecord};
use super::snapshot;
use super::store::StateStore;
use super::PersistError;
use crate::backend::Backend;
use crate::pipeline::{BlameItConfig, BlameItEngine, TickOutput};
use blameit_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use blameit_simnet::{TimeBucket, TimeRange};
use std::sync::Arc;

/// Metric handles for the persistence layer.
#[derive(Clone, Debug)]
pub struct PersistMetrics {
    /// `blameit_snapshots_written_total`.
    pub snapshots_written: Arc<Counter>,
    /// `blameit_snapshot_prune_failures_total` — snapshot writes whose
    /// unlink of a surplus older snapshot failed (not fatal).
    pub snapshot_prune_failures: Arc<Counter>,
    /// `blameit_snapshots_rejected_total` — snapshots refused at load
    /// (CRC/version/structure failure).
    pub snapshots_rejected: Arc<Counter>,
    /// `blameit_snapshot_bytes` — encoded snapshot sizes.
    pub snapshot_bytes: Arc<Histogram>,
    /// `blameit_snapshot_write_us` — wall time to encode + write +
    /// rename one snapshot.
    pub snapshot_write_us: Arc<Histogram>,
    /// `blameit_journal_lag_ticks` — journaled ticks not yet covered
    /// by a snapshot (replay cost of a crash right now).
    pub journal_lag_ticks: Arc<Gauge>,
    /// `blameit_recoveries_total{outcome="recovered"}` — clean
    /// recoveries from the newest snapshot.
    pub recoveries_recovered: Arc<Counter>,
    /// `blameit_recoveries_total{outcome="fallback"}` — recoveries
    /// that had to fall back past at least one rejected snapshot.
    pub recoveries_fallback: Arc<Counter>,
    /// `blameit_engine_starts_total{mode="cold"}` — starts with no
    /// usable snapshot (the silent `no_baseline` wave is now visible).
    pub starts_cold: Arc<Counter>,
    /// `blameit_engine_starts_total{mode="recovered"}`.
    pub starts_recovered: Arc<Counter>,
    /// `blameit_replayed_ticks_total` — journaled ticks re-executed
    /// during recoveries.
    pub replayed_ticks: Arc<Counter>,
}

impl PersistMetrics {
    /// Registers the persistence metrics on `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        PersistMetrics {
            snapshots_written: registry.counter("blameit_snapshots_written_total"),
            snapshot_prune_failures: registry.counter("blameit_snapshot_prune_failures_total"),
            snapshots_rejected: registry.counter("blameit_snapshots_rejected_total"),
            snapshot_bytes: registry.histogram("blameit_snapshot_bytes"),
            snapshot_write_us: registry.histogram("blameit_snapshot_write_us"),
            journal_lag_ticks: registry.gauge("blameit_journal_lag_ticks"),
            recoveries_recovered: registry
                .counter_with("blameit_recoveries_total", &[("outcome", "recovered")]),
            recoveries_fallback: registry
                .counter_with("blameit_recoveries_total", &[("outcome", "fallback")]),
            starts_cold: registry.counter_with("blameit_engine_starts_total", &[("mode", "cold")]),
            starts_recovered: registry
                .counter_with("blameit_engine_starts_total", &[("mode", "recovered")]),
            replayed_ticks: registry.counter("blameit_replayed_ticks_total"),
        }
    }
}

/// How the engine came up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartMode {
    /// No usable snapshot: fresh state, caller must warm up.
    Cold,
    /// Recovered from the newest snapshot.
    Recovered,
    /// Recovered, but only after rejecting at least one corrupt
    /// snapshot and falling back to an older retained one.
    RecoveredFallback,
}

/// What [`DurableEngine::open`] found and did.
pub struct RecoveryReport {
    /// Start mode.
    pub mode: StartMode,
    /// `ticks_done` of the snapshot loaded (0 when cold).
    pub snapshot_ticks_done: u64,
    /// Snapshots rejected (CRC/version/structure) before one loaded.
    pub snapshots_rejected: usize,
    /// Journaled ticks replayed on top of the snapshot.
    pub ticks_replayed: u64,
    /// A torn journal tail was found and truncated.
    pub journal_torn: bool,
    /// Outputs of the replayed ticks (tick indices
    /// `snapshot_ticks_done ..`), in order. A downstream consumer that
    /// lost the originals re-reads them from here.
    pub replayed: Vec<TickOutput>,
}

impl RecoveryReport {
    /// The startup log line (satellite: cold vs recovered starts must
    /// be attributable, not silent).
    pub fn describe(&self) -> String {
        match self.mode {
            StartMode::Cold => format!(
                "engine start: cold (no usable snapshot{}); expected-RTT/baseline state empty until warmup",
                if self.snapshots_rejected > 0 {
                    format!(", {} rejected", self.snapshots_rejected)
                } else {
                    String::new()
                }
            ),
            StartMode::Recovered | StartMode::RecoveredFallback => format!(
                "engine start: recovered from snapshot @ tick {} ({} journaled tick(s) replayed{}{})",
                self.snapshot_ticks_done,
                self.ticks_replayed,
                if self.snapshots_rejected > 0 {
                    format!(", {} corrupt snapshot(s) rejected", self.snapshots_rejected)
                } else {
                    String::new()
                },
                if self.journal_torn {
                    ", torn journal tail truncated"
                } else {
                    ""
                },
            ),
        }
    }
}

/// The journal digest of the tick `engine` just ran: the hash of the
/// transcript its newest flight frame already holds (every tick records
/// one; the ring's capacity is a positive constant).
fn last_tick_digest(engine: &BlameItEngine) -> u64 {
    engine.flight.with_ring(|frames, _| {
        let frame = frames.back().expect("a tick records a flight frame");
        fnv1a64(frame.transcript.as_bytes())
    })
}

/// A [`BlameItEngine`] wrapped in the durable-tick protocol.
pub struct DurableEngine<F: Fs = StdFs> {
    engine: BlameItEngine,
    store: StateStore<F>,
    journal: Journal<F>,
    metrics: PersistMetrics,
    ticks_done: u64,
    last_snapshot_tick: u64,
    snapshot_every: u64,
}

impl DurableEngine {
    /// [`DurableEngine::open_in`] on the real filesystem.
    pub fn open<B: Backend>(
        cfg: BlameItConfig,
        registry: Arc<MetricsRegistry>,
        backend: &mut B,
    ) -> Result<(DurableEngine, RecoveryReport), PersistError> {
        DurableEngine::open_in(StdFs, cfg, registry, backend)
    }
}

impl<F: Fs> DurableEngine<F> {
    /// Opens (or creates) the state directory in `cfg.state_dir` on
    /// `fs`, recovers state if any exists, and returns the engine plus
    /// a [`RecoveryReport`]. `backend` is needed because recovery
    /// *replays* journaled ticks through the real pipeline — that is
    /// what guarantees the resumed run is byte-identical.
    pub fn open_in<B: Backend>(
        fs: F,
        cfg: BlameItConfig,
        registry: Arc<MetricsRegistry>,
        backend: &mut B,
    ) -> Result<(DurableEngine<F>, RecoveryReport), PersistError> {
        let dir = cfg.state_dir.clone().ok_or(PersistError::NoStateDir)?;
        let store = StateStore::create_in(fs.clone(), &dir)?;
        let metrics = PersistMetrics::new(&registry);
        let snapshot_every = cfg.snapshot_every_ticks.max(1) as u64;
        let seed = cfg.seed;
        let mut engine = BlameItEngine::with_metrics(cfg, registry);

        // Newest snapshot that decodes and matches our identity wins;
        // corrupt ones are rejected and counted, falling back.
        let mut rejected = 0usize;
        let mut loaded: Option<u64> = None;
        for (_, path) in store.list_snapshots()?.iter().rev() {
            let outcome = fs
                .read(path)
                .map_err(PersistError::from)
                .and_then(|bytes| snapshot::decode(&bytes).map_err(PersistError::from))
                .and_then(|state| state.apply(&mut engine));
            match outcome {
                Ok(ticks_done) => {
                    loaded = Some(ticks_done);
                    break;
                }
                // Another identity's state dir is an operator error,
                // not corruption — surface it instead of silently
                // starting cold over foreign files.
                Err(e @ PersistError::ConfigMismatch(_)) => return Err(e),
                Err(_) => {
                    rejected += 1;
                    metrics.snapshots_rejected.inc();
                }
            }
        }

        // Journal: opening checks the seed and drops a torn tail; then
        // replay everything the snapshot does not already cover,
        // verifying digests.
        let (journal, scan) = Journal::open_in(fs, &dir, seed)?;
        let mut replayed: Vec<TickOutput> = Vec::new();
        let mut ticks_done = 0;
        if let Some(snap_ticks) = loaded {
            for rec in scan.records.iter().filter(|r| r.tick >= snap_ticks) {
                let out = engine.tick(backend, rec.bucket);
                let got = last_tick_digest(&engine);
                if got != rec.digest {
                    return Err(PersistError::ReplayDivergence {
                        tick: rec.tick,
                        expected: rec.digest,
                        got,
                    });
                }
                replayed.push(out);
            }
            ticks_done = snap_ticks.max(scan.records.len() as u64);
        }

        let mode = match (loaded.is_some(), rejected) {
            (false, _) => StartMode::Cold,
            (true, 0) => StartMode::Recovered,
            (true, _) => StartMode::RecoveredFallback,
        };
        match mode {
            StartMode::Cold => metrics.starts_cold.inc(),
            StartMode::Recovered => {
                metrics.starts_recovered.inc();
                metrics.recoveries_recovered.inc();
            }
            StartMode::RecoveredFallback => {
                metrics.starts_recovered.inc();
                metrics.recoveries_fallback.inc();
                // A fallback recovery means at least one snapshot was
                // corrupt — exactly the anomaly the flight recorder
                // exists to capture, so log (and possibly dump) it.
                engine.fire_flight_trigger(
                    engine.state.churn_cursor.secs(),
                    blameit_obs::FlightTrigger::RecoveryFallback,
                    format!("recovered after rejecting {rejected} snapshot(s)"),
                );
            }
        }
        metrics.replayed_ticks.add(replayed.len() as u64);

        let report = RecoveryReport {
            mode,
            snapshot_ticks_done: loaded.unwrap_or(0),
            snapshots_rejected: rejected,
            ticks_replayed: replayed.len() as u64,
            journal_torn: loaded.is_some() && scan.trailing_bytes > 0,
            replayed,
        };
        let last_snapshot_tick = loaded.unwrap_or(0);
        metrics
            .journal_lag_ticks
            .set((ticks_done - last_snapshot_tick) as f64);
        Ok((
            DurableEngine {
                engine,
                store,
                journal,
                metrics,
                ticks_done,
                last_snapshot_tick,
                snapshot_every,
            },
            report,
        ))
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &BlameItEngine {
        &self.engine
    }

    /// Completed ticks since the post-warmup checkpoint.
    pub fn ticks_done(&self) -> u64 {
        self.ticks_done
    }

    /// The persistence metric handles.
    pub fn metrics(&self) -> &PersistMetrics {
        &self.metrics
    }

    /// Warms the engine up and writes the tick-0 checkpoint, resetting
    /// the journal. This is the cold-start path: recovery from any
    /// later crash loads this (or a newer) snapshot and never has to
    /// repeat the warmup.
    pub fn warmup_and_checkpoint<B: Backend>(
        &mut self,
        backend: &B,
        range: TimeRange,
        sample_every: u32,
    ) -> Result<(), PersistError> {
        self.engine.warmup(backend, range, sample_every);
        self.journal.reset()?;
        self.ticks_done = 0;
        self.last_snapshot_tick = 0;
        self.checkpoint_now()?;
        Ok(())
    }

    /// Writes a snapshot immediately (the deliberate checkpoint path,
    /// outside the in-tick protocol).
    pub fn checkpoint_now(&mut self) -> Result<(), PersistError> {
        self.write_snapshot()
    }

    /// The one snapshot-write sequence: encode the engine's state after
    /// `ticks_done` ticks, write it, prune, account for it. The snapshot
    /// counts once its write returns: it is durable then. A failed
    /// unlink of a surplus older snapshot is only counted — the next
    /// snapshot's prune retries it.
    fn write_snapshot(&mut self) -> Result<(), PersistError> {
        // lint:allow(wall-clock): times the snapshot write for the snapshot_write_us metric only; never reaches engine state
        let t0 = std::time::Instant::now();
        let bytes = snapshot::encode(&self.engine, self.ticks_done);
        self.store.write_snapshot(self.ticks_done, &bytes)?;
        if self.store.prune().is_err() {
            self.metrics.snapshot_prune_failures.inc();
        }
        self.metrics.snapshots_written.inc();
        self.metrics.snapshot_bytes.observe(bytes.len() as f64);
        self.metrics
            .snapshot_write_us
            // lint:allow(wall-clock): metrics-only duration of the snapshot write; write-only observability
            .observe(t0.elapsed().as_micros() as f64);
        self.last_snapshot_tick = self.ticks_done;
        self.metrics.journal_lag_ticks.set(0.0);
        Ok(())
    }

    /// One durable tick: run the engine, journal the output (fsync),
    /// snapshot when due. On an error — a killed filesystem's included —
    /// the tick's output is *not* returned: like a real crash, the
    /// caller never sees it and recovery must re-derive it.
    pub fn tick<B: Backend>(
        &mut self,
        backend: &mut B,
        start: TimeBucket,
    ) -> Result<TickOutput, PersistError> {
        let out = self.engine.tick(backend, start);
        let rec = JournalRecord {
            tick: self.ticks_done,
            bucket: start,
            digest: last_tick_digest(&self.engine),
        };
        self.journal.append(&rec)?;
        self.ticks_done += 1;
        self.metrics
            .journal_lag_ticks
            .set((self.ticks_done - self.last_snapshot_tick) as f64);

        if self.ticks_done - self.last_snapshot_tick >= self.snapshot_every {
            self.write_snapshot()?;
        }
        Ok(out)
    }

    /// Runs durable ticks across `range`, skipping the first
    /// `ticks_done()` tick starts (already journaled/replayed — the
    /// resume path after a recovery). Returns the outputs of the ticks
    /// it actually ran.
    pub fn run<B: Backend>(
        &mut self,
        backend: &mut B,
        range: TimeRange,
    ) -> Result<Vec<TickOutput>, PersistError> {
        let tick_buckets = self.engine.config().tick_buckets as usize;
        let buckets: Vec<TimeBucket> = range.buckets().collect();
        let mut outs = Vec::new();
        let mut i = 0usize;
        let mut tick_no = 0u64;
        while i + tick_buckets <= buckets.len() {
            if tick_no >= self.ticks_done {
                outs.push(self.tick(backend, buckets[i])?);
            }
            i += tick_buckets;
            tick_no += 1;
        }
        Ok(outs)
    }
}
