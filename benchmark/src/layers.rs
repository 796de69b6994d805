//! Per-layer accounting for a traced run.
//!
//! The harness times calls into each layer's public functions — on the
//! real objects where it makes the call itself (`offer`, `pump`,
//! `term`, `open`, `tick`) and on *shadow* objects where the call is
//! buried inside `DaemonCore::offer` (a second `AdmissionController`,
//! `IngestWal`, `QueueBackend` and columnar arena fed the same batches
//! at the same queue depth). [`LayerAcc`] collects what those calls
//! cost; [`LayerAcc::finish`] turns it into the catalogue's metrics.

use crate::catalogue::{PerLayerDef, PER_LAYER};
use crate::inputs::{feed_start, DaemonInputs, StateDir};
use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use blameit::{
    aggregate_batch_reuse, AdmissionController, AdmissionDecision, Backend, IngestArena,
    QuartetStore, RecordBatch, TickOutput, WorldBackend,
};
use blameit_daemon::{IngestWal, QueueBackend};
use blameit_simnet::TimeBucket;
use std::collections::BTreeMap;

/// Accumulated per-layer observations. Keys are catalogue metric
/// names; which map a name lives in decides how it is reduced.
#[derive(Clone, Debug, Default)]
pub struct LayerAcc {
    /// Reduced to the median of the samples.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Reduced to `numerator / denominator` over everything seen.
    ratios: BTreeMap<&'static str, (f64, f64)>,
    /// Reduced to the per-rep mean (counts repeat exactly per rep, so
    /// this is the count of one rep).
    sums: BTreeMap<&'static str, f64>,
    /// Reported as set.
    fixed: BTreeMap<&'static str, f64>,
}

impl LayerAcc {
    /// Adds one sample to a `*_p50` metric.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Adds to a ratio metric (`ns_per_record`, `bytes_per_record`).
    pub fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        let e = self.ratios.entry(name).or_insert((0.0, 0.0));
        e.0 += num;
        e.1 += den;
    }

    /// Adds to a per-rep total (a count, or seconds spent).
    pub fn sum(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    /// Sets a metric outright (later calls overwrite).
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.fixed.insert(name, v);
    }

    /// Raises a metric to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.fixed.entry(name).or_insert(v);
        *e = e.max(v);
    }

    /// Every catalogue metric, in catalogue order; 0 for a layer that
    /// did no work. `reps` is the number of traced reps accumulated.
    pub fn finish(&self, reps: usize) -> Vec<(&'static PerLayerDef, f64)> {
        PER_LAYER
            .iter()
            .map(|def| {
                let name = def.name;
                let v = if let Some(v) = self.fixed.get(name) {
                    *v
                } else if let Some(s) = self.samples.get(name) {
                    median(s)
                } else if let Some((num, den)) = self.ratios.get(name) {
                    if *den > 0.0 {
                        num / den
                    } else {
                        0.0
                    }
                } else if let Some(total) = self.sums.get(name) {
                    total / reps.max(1) as f64
                } else {
                    0.0
                };
                (def, v)
            })
            .collect()
    }

    /// Folds the `pipeline` layer's view of some tick outputs in.
    pub fn add_ticks(&mut self, outs: &[TickOutput]) {
        for out in outs {
            let t = &out.stage_timings;
            for (stage, d) in t.iter() {
                let name = match stage {
                    "ingest" => "pipeline.stage.ingest_s",
                    "quartet_aggregation" => "pipeline.stage.quartet_aggregation_s",
                    "passive_blame" => "pipeline.stage.passive_blame_s",
                    "priority_ranking" => "pipeline.stage.priority_ranking_s",
                    "active_localization" => "pipeline.stage.active_localization_s",
                    "baseline_refresh" => "pipeline.stage.baseline_refresh_s",
                    // A stage the catalogue does not know stays
                    // visible in the remainder below.
                    _ => continue,
                };
                self.sum(name, d.as_secs_f64());
            }
            let (total, staged) = (t.total().as_secs_f64(), t.stage_sum().as_secs_f64());
            self.sum("pipeline.stage_sum_s", staged);
            self.sum("pipeline.tick_total_s", total);
            self.sum("pipeline.untimed_s", total - staged);
            self.sum("pipeline.blames", out.blames.len() as f64);
            self.sum("pipeline.alerts", out.alerts.len() as f64);
            self.sum("pipeline.probes_on_demand", out.on_demand_probes as f64);
        }
    }
}

/// Shadow copies of the layers `DaemonCore::offer`/`pump` call
/// internally, fed the same batches so each can be timed alone.
pub struct Shadow<'w> {
    admission: AdmissionController,
    wal: IngestWal,
    wal_dir: StateDir,
    queue: QueueBackend<WorldBackend<'w>>,
    arena: IngestArena,
    store: QuartetStore,
    snapshot_every: u64,
    tick_buckets: u32,
    /// What the shadow calls cost.
    pub acc: LayerAcc,
}

/// What the shadow admission controller decided about one offer.
pub struct ShadowOffer {
    /// Records it admitted (0 on a reject).
    pub admitted: u64,
    /// Seconds spent in the shadow admission, WAL and queue calls.
    pub attributed_s: f64,
}

impl<'w> Shadow<'w> {
    /// Shadows for one rep — only when `tracer` is recording.
    pub fn when_tracing(
        tracer: &Tracer,
        inputs: &'w DaemonInputs,
    ) -> Result<Option<Shadow<'w>>, String> {
        tracer.enabled().then(|| Shadow::new(inputs)).transpose()
    }

    /// Fresh shadows with the workload's configs and a scratch WAL.
    fn new(inputs: &'w DaemonInputs) -> Result<Shadow<'w>, String> {
        let wal_dir = StateDir::new("shadow-wal")?;
        let (wal, _) = IngestWal::open(&wal_dir.path().join("ingest.wal"))
            .map_err(|e| format!("shadow wal: {e}"))?;
        Ok(Shadow {
            admission: AdmissionController::new(inputs.dcfg.admission.clone()),
            wal,
            wal_dir,
            queue: QueueBackend::new(
                WorldBackend::with_parallelism(&inputs.world, 1),
                feed_start(),
            ),
            arena: IngestArena::new(),
            store: QuartetStore::new(),
            snapshot_every: u64::from(inputs.cfg.snapshot_every_ticks.max(1)),
            tick_buckets: inputs.cfg.tick_buckets,
            acc: LayerAcc::default(),
        })
    }

    /// Offers `batch` to the shadow admission controller at the real
    /// core's `queue_depth`, then hands what it admitted to the shadow
    /// WAL, queue and columnar kernel.
    pub fn offer(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        batch: &RecordBatch,
        queue_depth: usize,
    ) -> Result<ShadowOffer, String> {
        let id = batch.bucket.0;
        let offered = batch.keys.len() as f64;
        let copy = batch.clone();
        let (decision, adm_s) = tracer.time("admission.offer", parent, id, || {
            self.admission.offer(copy, queue_depth)
        });
        self.acc
            .ratio("admission.offer_ns_per_record", adm_s * 1e9, offered);
        let (admitted, shed) = match decision {
            AdmissionDecision::Reject { .. } => {
                self.acc.sum("admission.rejects", 1.0);
                return Ok(ShadowOffer {
                    admitted: 0,
                    attributed_s: adm_s,
                });
            }
            AdmissionDecision::Admit { batch, shed } => (batch, shed),
        };
        let kept_groups = admitted.keys.windows(2).filter(|w| w[0] != w[1]).count()
            + usize::from(!admitted.keys.is_empty());
        self.acc
            .sum("admission.groups_scored", (kept_groups + shed.len()) as f64);
        self.acc.sum("admission.shed_groups", shed.len() as f64);
        self.acc.sum(
            "admission.shed_records",
            shed.iter().map(|g| f64::from(g.records)).sum(),
        );
        let n = admitted.keys.len();
        if n == 0 {
            return Ok(ShadowOffer {
                admitted: 0,
                attributed_s: adm_s,
            });
        }

        let wal_path = self.wal_dir.path().join("ingest.wal");
        let len_before = file_len(&wal_path);
        let (res, append_s) = tracer.time("wal.append", parent, id, || self.wal.append(&admitted));
        res.map_err(|e| format!("shadow wal append: {e}"))?;
        self.acc.sample("wal.append_ms_p50", append_s * 1e3);
        self.acc
            .ratio("wal.append_ns_per_record", append_s * 1e9, n as f64);
        self.acc.sum("wal.appends", 1.0);
        self.acc.sum(
            "wal.bytes_appended",
            file_len(&wal_path).saturating_sub(len_before) as f64,
        );

        let (_, agg_s) = tracer.time("columnar.aggregate", parent, id, || {
            aggregate_batch_reuse(&admitted, &mut self.arena, &mut self.store)
        });
        self.acc
            .ratio("columnar.aggregate_ns_per_record", agg_s * 1e9, n as f64);
        self.acc
            .sum("columnar.quartets_out", self.store.len() as f64);

        let (_, push_s) = tracer.time("queue.push", parent, id, || self.queue.push(admitted));
        self.acc
            .ratio("queue.push_ns_per_record", push_s * 1e9, n as f64);
        self.acc.max(
            "queue.peak_records",
            self.queue.records_from(TimeBucket(0)) as f64,
        );
        Ok(ShadowOffer {
            admitted: n as u64,
            attributed_s: adm_s + append_s + push_s,
        })
    }

    /// Mirrors what a pump that ran ticks `ticks_before..ticks_after`
    /// did to the queue and WAL: `quartets_in` per consumed bucket,
    /// and the daemon's prune-and-compact at a snapshot tick.
    pub fn ticked(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        id: u32,
        ticks_before: u64,
        ticks_after: u64,
    ) -> Result<(), String> {
        let first = self.queue.feed_start().0;
        for tick in ticks_before..ticks_after {
            for b in 0..self.tick_buckets {
                let bucket = TimeBucket(first + (tick as u32) * self.tick_buckets + b);
                let (obs, secs) = tracer.time("queue.quartets_in", parent, id, || {
                    self.queue.quartets_in(bucket)
                });
                std::hint::black_box(obs);
                self.acc.sample("queue.quartets_in_ms_p50", secs * 1e3);
            }
        }
        let se = self.snapshot_every;
        if ticks_after / se > ticks_before / se {
            // `DaemonCore::prune`: keep one extra snapshot period.
            let covered = ticks_after - ticks_after % se;
            if let Some(safe) = covered.checked_sub(se) {
                self.queue
                    .prune_below(TimeBucket(first + (safe as u32) * self.tick_buckets));
            }
            let retained = self.queue.retained();
            let (res, secs) =
                tracer.time("wal.compact", parent, id, || self.wal.compact(&retained));
            res.map_err(|e| format!("shadow wal compact: {e}"))?;
            self.acc.sample("wal.compact_ms_p50", secs * 1e3);
            self.acc.sum("wal.compactions", 1.0);
        }
        Ok(())
    }

    /// Ends a rep: folds the arena's fallback count in.
    pub fn into_acc(mut self) -> LayerAcc {
        self.acc
            .sum("columnar.sort_fallbacks", self.arena.sort_fallbacks as f64);
        self.acc
    }
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Merges `other` into `into` (samples concatenate, the rest add;
/// `fixed` entries of `other` win).
pub fn merge(into: &mut LayerAcc, other: LayerAcc) {
    for (k, v) in other.samples {
        into.samples.entry(k).or_default().extend(v);
    }
    for (k, (n, d)) in other.ratios {
        into.ratio(k, n, d);
    }
    for (k, v) in other.sums {
        into.sum(k, v);
    }
    into.fixed.extend(other.fixed);
}
