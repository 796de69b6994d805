//! Engine metrics: named handles into a [`MetricsRegistry`].
//!
//! [`EngineMetrics`] looks every metric up once at engine construction
//! and records through cached `Arc` handles afterwards, so the hot tick
//! path never touches the registry lock. Each engine gets its own
//! registry (shareable via [`BlameItEngine::metrics`]); the CLI and
//! examples render it after a run.
//!
//! [`BlameItEngine::metrics`]: crate::pipeline::BlameItEngine::metrics

use crate::active::UnlocalizedReason;
use crate::passive::Blame;
use blameit_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;
use std::time::Duration;

/// Canonical stage names, in pipeline order. These appear as the
/// `stage` label on `blameit_stage_duration_us` and as the keys of
/// `TickOutput::stage_timings`.
pub mod stage {
    /// Pulling raw quartet observations from the backend.
    pub const INGEST: &str = "ingest";
    /// Joining routing metadata, the ≥10-sample floor, badness
    /// classification.
    pub const AGGREGATION: &str = "quartet_aggregation";
    /// Algorithm 1 (plus incident/episode bookkeeping and learning).
    pub const PASSIVE: &str = "passive_blame";
    /// Client-time-product ranking and budget selection.
    pub const PRIORITY: &str = "priority_ranking";
    /// On-demand traceroutes and baseline diffing.
    pub const ACTIVE: &str = "active_localization";
    /// Periodic + churn-triggered background probes and baseline
    /// staleness accounting.
    pub const BASELINE: &str = "baseline_refresh";

    /// All stages, pipeline order.
    pub const ALL: [&str; 6] = [INGEST, AGGREGATION, PASSIVE, PRIORITY, ACTIVE, BASELINE];
}

/// The `reason` labels on `blameit_shed_quartets_total`, canonical
/// order. These are the only two ways the daemon's bounded ingest path
/// drops data — and both are counted, never silent.
pub mod shed_reason {
    /// Shed by the admission controller: past the shed watermark, the
    /// lowest client-time-product records go first.
    pub const LOW_IMPACT: &str = "low_impact";
    /// A whole batch refused at the queue cap with a `SLOW_DOWN` reply.
    pub const BACKPRESSURE: &str = "backpressure";

    /// All shed reasons.
    pub const ALL: [&str; 2] = [LOW_IMPACT, BACKPRESSURE];
}

/// The names a flight frame's `deltas` are keyed by — the constants
/// [`EngineMetrics::new`] registers under, so a delta key is always a
/// series `/metrics` renders. Only the names `deltas` uses live here;
/// an instrument named in one place stays a literal in `new`.
pub(crate) mod series {
    pub const ALERTS: &str = "blameit_alerts_total";
    pub const DEGRADED_VERDICTS: &str = "blameit_degraded_verdicts_total";
    pub const MIDDLE_LOCALIZATIONS: &str = "blameit_middle_localizations_total";
    pub const MIDDLE_CULPRITS_FOUND: &str = "blameit_middle_culprits_found_total";
    pub const PROBES_ON_DEMAND: &str = "blameit_probes_on_demand_total";
    pub const PROBES_BACKGROUND: &str = "blameit_probes_background_total";
    pub const PROBE_ATTEMPTS_LOST: &str = "blameit_probe_attempts_lost_total";
    pub const BLAMES: &str = "blameit_blames_total";
    /// The label key on [`BLAMES`].
    pub const BLAMES_LABEL: &str = "segment";

    /// The blame series for one segment, as the exposition prints it.
    pub fn blames(blame: crate::passive::Blame) -> String {
        format!("{BLAMES}{{{BLAMES_LABEL}=\"{blame}\"}}")
    }
}

/// `x`'s position in its canonical `ALL` array.
fn index_in<T: PartialEq, const N: usize>(all: [T; N], x: T) -> usize {
    let at = all.iter().position(|y| *y == x);
    at.expect("ALL covers every variant")
}

/// Cached handles for every metric the engine emits.
///
/// Cloning shares the underlying registry and instruments (handles are
/// `Arc`s), which is what a cloned engine wants: one set of totals.
#[derive(Clone, Debug)]
pub struct EngineMetrics {
    registry: Arc<MetricsRegistry>,
    /// Engine ticks completed.
    pub ticks: Arc<Counter>,
    /// Raw quartet observations pulled from the backend at ingest,
    /// before the ≥10-sample floor (the columnar path's input volume).
    pub ingest_quartets: Arc<Counter>,
    /// SLO: last tick's ingest throughput, raw quartet observations
    /// per second of ingest-stage wall time. The live counterpart of
    /// the ledger's `columnar.aggregate_ns_per_record`.
    pub ingest_quartets_per_sec: Arc<Gauge>,
    /// Enriched quartets processed by Algorithm 1.
    pub quartets_processed: Arc<Counter>,
    /// Blame verdicts by segment (`Blame::ALL` order).
    blames: [Arc<Counter>; 5],
    /// On-demand traceroutes issued.
    pub on_demand_probes: Arc<Counter>,
    /// Background traceroutes issued.
    pub background_probes: Arc<Counter>,
    /// Ranked middle issues dropped by the per-location probe budget.
    pub probes_suppressed_budget: Arc<Counter>,
    /// Background probes skipped because the path was inside a badness
    /// episode.
    pub probes_suppressed_episode: Arc<Counter>,
    /// Issues left unprobed because the per-tick probe deadline budget
    /// ran out.
    pub probes_suppressed_deadline: Arc<Counter>,
    /// On-demand traceroute retries after a lost or truncated attempt.
    pub probe_retries: Arc<Counter>,
    /// On-demand traceroute attempts that timed out or missed the
    /// per-probe deadline.
    pub probe_attempts_lost: Arc<Counter>,
    /// On-demand traceroute attempts that came back truncated.
    pub probe_attempts_truncated: Arc<Counter>,
    /// Diffs refused because the only available baseline exceeded the
    /// quarantine age.
    pub baseline_quarantines: Arc<Counter>,
    /// Background baseline refreshes whose traceroute failed.
    pub background_probe_failures: Arc<Counter>,
    /// Failed background refreshes rescheduled for the next tick.
    pub background_retries: Arc<Counter>,
    /// Degraded `MiddleUnlocalized` verdicts by reason
    /// (`UnlocalizedReason::ALL` order).
    degraded: [Arc<Counter>; 6],
    /// Operator alerts emitted.
    pub alerts: Arc<Counter>,
    /// Whole-tick wall time, microseconds.
    pub tick_duration_us: Arc<Histogram>,
    /// Per-stage wall time, microseconds (`stage::ALL` order).
    stage_us: [Arc<Histogram>; 6],
    /// Mean RTT of processed quartets, milliseconds.
    pub quartet_rtt_ms: Arc<Histogram>,
    /// (location, path) pairs with at least one stored baseline.
    pub baselines_stored: Arc<Gauge>,
    /// Age of the *freshest* baseline of the stalest pair, seconds.
    pub baseline_staleness_max_secs: Arc<Gauge>,
    /// Mean over pairs of the freshest baseline's age, seconds.
    pub baseline_staleness_mean_secs: Arc<Gauge>,
    /// Middle localizations attempted (every probed or deadline-dropped
    /// issue; the denominator of the coverage SLO).
    pub middle_localizations: Arc<Counter>,
    /// Middle localizations that named a culprit AS (the numerator).
    pub middle_culprits_found: Arc<Counter>,
    /// SLO: fraction of middle localizations that named a culprit —
    /// the Fig. 12/13 coverage axis, live.
    pub middle_localization_coverage: Arc<Gauge>,
    /// SLO: fraction of the per-tick probe deadline budget consumed
    /// last tick (1.0 = the budget bit).
    pub probe_budget_utilization: Arc<Gauge>,
    /// SLO: cumulative seconds of baseline age consumed by diffs — the
    /// staleness "burn" that, unchecked, ends in quarantines.
    pub baseline_staleness_burn_secs: Arc<Counter>,
    /// Flight-recorder dump triggers fired.
    pub flight_triggers: Arc<Counter>,
    /// Quartet records shed on the ingest path, by reason
    /// (`shed_reason::ALL` order).
    shed: [Arc<Counter>; 2],
    /// `SLOW_DOWN` backpressure replies issued by the ingest socket.
    pub backpressure_replies: Arc<Counter>,
    /// SLO: records currently held in the bounded ingest queue.
    pub ingest_queue_depth: Arc<Gauge>,
    /// SLO: fraction of offered records admitted since startup —
    /// 1.0 means no coverage lost; shedding under overload drags it
    /// below 1 (the degraded-coverage signal).
    pub ingest_coverage: Arc<Gauge>,
    /// Ingest-WAL rotations (seal + retire at a snapshot tick) that
    /// failed; the WAL stays larger than needed until one succeeds.
    pub wal_retire_failures: Arc<Counter>,
    /// Bytes appended to the ingest WAL (whole sections: 25 + 12 per
    /// key run + 8 per record). Deterministic in the admitted feed.
    pub wal_bytes_appended: Arc<Counter>,
    /// Wall time of one WAL append (encode, `write_all`, `sync_data`),
    /// microseconds (not transcripted).
    pub wal_append_us: Arc<Histogram>,
    /// Wall time of one WAL rotation (seal, then retire), microseconds
    /// (not transcripted).
    pub wal_rotate_us: Arc<Histogram>,
    /// Active WAL segments sealed by a rotation.
    pub wal_segments_sealed: Arc<Counter>,
    /// Sealed WAL segments retired (unlinked) by a rotation.
    pub wal_segments_retired: Arc<Counter>,
    /// Bytes the last open read back from the WAL, every segment.
    pub wal_replayed_bytes: Arc<Gauge>,
    /// `{state="queued"}`: batches the last open materialised into the
    /// queue — those at or past the loaded snapshot's first unconsumed
    /// bucket.
    pub wal_replayed_queued: Arc<Gauge>,
    /// `{state="covered"}`: batches the last open only checked — those
    /// the loaded snapshot already covers.
    pub wal_replayed_covered: Arc<Gauge>,
    /// Quartet groups the admission controller scored — work it only
    /// does for offers past the shed watermark, so 0 on a feed that
    /// never sheds. Deterministic in the feed.
    pub admission_groups_scored: Arc<Counter>,
    /// Groups in the admission controller's streak table (it only
    /// grows: the number a long soak has to bound).
    pub admission_streak_groups: Arc<Gauge>,
}

impl EngineMetrics {
    /// Registers (or re-attaches to) the engine metrics in `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> EngineMetrics {
        let blames = Blame::ALL.map(|b| {
            registry.counter_with(series::BLAMES, &[(series::BLAMES_LABEL, &b.to_string())])
        });
        let stage_us = stage::ALL
            .map(|s| registry.histogram_with("blameit_stage_duration_us", &[("stage", s)]));
        EngineMetrics {
            ticks: registry.counter("blameit_ticks_total"),
            ingest_quartets: registry.counter("blameit_ingest_quartets_total"),
            ingest_quartets_per_sec: registry.gauge("blameit_ingest_quartets_per_sec"),
            quartets_processed: registry.counter("blameit_quartets_processed_total"),
            blames,
            on_demand_probes: registry.counter(series::PROBES_ON_DEMAND),
            background_probes: registry.counter(series::PROBES_BACKGROUND),
            probes_suppressed_budget: registry
                .counter_with("blameit_probes_suppressed_total", &[("reason", "budget")]),
            probes_suppressed_episode: registry
                .counter_with("blameit_probes_suppressed_total", &[("reason", "episode")]),
            probes_suppressed_deadline: registry
                .counter_with("blameit_probes_suppressed_total", &[("reason", "deadline")]),
            probe_retries: registry.counter("blameit_probe_retries_total"),
            probe_attempts_lost: registry.counter(series::PROBE_ATTEMPTS_LOST),
            probe_attempts_truncated: registry.counter("blameit_probe_attempts_truncated_total"),
            baseline_quarantines: registry.counter("blameit_baseline_quarantines_total"),
            background_probe_failures: registry.counter("blameit_background_probe_failures_total"),
            background_retries: registry.counter("blameit_background_retries_total"),
            degraded: UnlocalizedReason::ALL.map(|r| {
                registry.counter_with(series::DEGRADED_VERDICTS, &[("reason", r.label())])
            }),
            alerts: registry.counter(series::ALERTS),
            tick_duration_us: registry.histogram("blameit_tick_duration_us"),
            stage_us,
            quartet_rtt_ms: registry.histogram("blameit_quartet_rtt_ms"),
            baselines_stored: registry.gauge("blameit_baselines_stored"),
            baseline_staleness_max_secs: registry.gauge("blameit_baseline_staleness_max_secs"),
            baseline_staleness_mean_secs: registry.gauge("blameit_baseline_staleness_mean_secs"),
            middle_localizations: registry.counter(series::MIDDLE_LOCALIZATIONS),
            middle_culprits_found: registry.counter(series::MIDDLE_CULPRITS_FOUND),
            middle_localization_coverage: registry.gauge("blameit_middle_localization_coverage"),
            probe_budget_utilization: registry.gauge("blameit_probe_budget_utilization"),
            baseline_staleness_burn_secs: registry
                .counter("blameit_baseline_staleness_burn_secs_total"),
            flight_triggers: registry.counter("blameit_flight_triggers_total"),
            shed: shed_reason::ALL
                .map(|r| registry.counter_with("blameit_shed_quartets_total", &[("reason", r)])),
            backpressure_replies: registry.counter("blameit_backpressure_replies_total"),
            ingest_queue_depth: registry.gauge("blameit_ingest_queue_depth_records"),
            ingest_coverage: registry.gauge("blameit_ingest_coverage"),
            wal_retire_failures: registry.counter("blameit_wal_retire_failures_total"),
            wal_bytes_appended: registry.counter("blameit_wal_bytes_appended_total"),
            wal_append_us: registry.histogram("blameit_wal_append_us"),
            wal_rotate_us: registry.histogram("blameit_wal_rotate_us"),
            wal_segments_sealed: registry.counter("blameit_wal_segments_sealed_total"),
            wal_segments_retired: registry.counter("blameit_wal_segments_retired_total"),
            wal_replayed_bytes: registry.gauge("blameit_wal_replayed_bytes"),
            wal_replayed_queued: registry
                .gauge_with("blameit_wal_replayed_batches", &[("state", "queued")]),
            wal_replayed_covered: registry
                .gauge_with("blameit_wal_replayed_batches", &[("state", "covered")]),
            admission_groups_scored: registry.counter("blameit_admission_groups_scored_total"),
            admission_streak_groups: registry.gauge("blameit_admission_streak_groups"),
            registry,
        }
    }

    /// The shed counter for one reason label.
    pub fn shed_counter(&self, reason: &str) -> &Arc<Counter> {
        &self.shed[index_in(shed_reason::ALL, reason)]
    }

    /// The registry behind the handles.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The degraded-verdict counter for one reason.
    pub fn degraded_counter(&self, reason: UnlocalizedReason) -> &Arc<Counter> {
        &self.degraded[index_in(UnlocalizedReason::ALL, reason)]
    }

    /// Total degraded verdicts across all reasons.
    pub fn degraded_total(&self) -> u64 {
        self.degraded.iter().map(|c| c.get()).sum()
    }

    /// The blame counter for one segment.
    pub fn blame_counter(&self, blame: Blame) -> &Arc<Counter> {
        &self.blames[index_in(Blame::ALL, blame)]
    }

    /// Records a finished tick's stage profile into the duration
    /// histograms.
    pub fn observe_stage_timings(&self, timings: &blameit_obs::StageTimings) {
        self.tick_duration_us.observe(as_us(timings.total()));
        for (name, d) in timings.iter() {
            if let Some(idx) = stage::ALL.iter().position(|s| *s == name) {
                self.stage_us[idx].observe(as_us(d));
            }
        }
    }

    /// Records one tick's raw ingest volume and refreshes the
    /// throughput gauge from the tick's ingest-stage wall time. With a
    /// zero duration (sub-resolution ingest on an idle world) the
    /// gauge keeps its previous value rather than spiking to infinity.
    pub fn observe_ingest(&self, raw_quartets: u64, ingest_wall: Duration) {
        self.ingest_quartets.add(raw_quartets);
        let secs = ingest_wall.as_secs_f64();
        if secs > 0.0 && raw_quartets > 0 {
            self.ingest_quartets_per_sec.set(raw_quartets as f64 / secs);
        }
    }

    /// Folds one shard's scratch metrics into the shared instruments.
    /// Counters add and the RTT histogram merges bucket-wise
    /// ([`Histogram::merge_from`]), both order-independent — absorbing
    /// shards in any order yields the same rendered exposition as the
    /// sequential path.
    pub fn absorb_shard(&self, shard: &ShardMetrics) {
        self.quartets_processed.add(shard.quartets);
        for (i, n) in shard.blames.iter().enumerate() {
            if *n > 0 {
                self.blames[i].add(*n);
            }
        }
        self.quartet_rtt_ms.merge_from(&shard.rtt_ms);
    }
}

/// Per-shard metric scratch: a worker thread records locally (no
/// contention on the shared registry instruments) and the coordinator
/// absorbs the scratch after the join via
/// [`EngineMetrics::absorb_shard`].
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Enriched quartets this shard processed.
    quartets: u64,
    /// Blame verdicts by segment (`Blame::ALL` order).
    blames: [u64; 5],
    /// Mean RTT of processed quartets, milliseconds.
    rtt_ms: Histogram,
}

impl ShardMetrics {
    /// Fresh, empty scratch.
    pub fn new() -> ShardMetrics {
        ShardMetrics::default()
    }

    /// Records one processed quartet and its mean RTT.
    pub fn observe_quartet(&mut self, mean_rtt_ms: f64) {
        self.quartets += 1;
        self.rtt_ms.observe(mean_rtt_ms);
    }

    /// Records one blame verdict.
    pub fn record_blame(&mut self, blame: Blame) {
        self.blames[index_in(Blame::ALL, blame)] += 1;
    }
}

fn as_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blame_counters_cover_every_variant() {
        let m = EngineMetrics::new(Arc::new(MetricsRegistry::new()));
        for b in Blame::ALL {
            m.blame_counter(b).inc();
        }
        for b in Blame::ALL {
            assert_eq!(m.blame_counter(b).get(), 1, "{b}");
        }
    }

    #[test]
    fn stage_timings_land_in_labeled_histograms() {
        let reg = Arc::new(MetricsRegistry::new());
        let m = EngineMetrics::new(reg.clone());
        let mut t = blameit_obs::StageTimings::new();
        t.add(stage::INGEST, Duration::from_micros(100));
        t.add(stage::PASSIVE, Duration::from_micros(300));
        t.add("not-a-stage", Duration::from_micros(999));
        t.set_total(Duration::from_micros(500));
        m.observe_stage_timings(&t);
        assert_eq!(m.tick_duration_us.count(), 1);
        let ingest = reg.histogram_with("blameit_stage_duration_us", &[("stage", stage::INGEST)]);
        assert_eq!(ingest.count(), 1);
        assert!((ingest.sum() - 100.0).abs() < 1.0);
        let passive = reg.histogram_with("blameit_stage_duration_us", &[("stage", stage::PASSIVE)]);
        assert_eq!(passive.count(), 1);
        // Unknown stage names are ignored, not registered.
        let active = reg.histogram_with("blameit_stage_duration_us", &[("stage", stage::ACTIVE)]);
        assert_eq!(active.count(), 0);
    }

    #[test]
    fn shard_scratch_absorbs_like_direct_recording() {
        let direct = EngineMetrics::new(Arc::new(MetricsRegistry::new()));
        let sharded = EngineMetrics::new(Arc::new(MetricsRegistry::new()));
        let samples = [
            (12.5, Blame::Cloud),
            (80.0, Blame::Middle),
            (33.0, Blame::Middle),
        ];
        // Legacy path: straight into the shared instruments.
        for (rtt, blame) in samples {
            direct.quartets_processed.add(1);
            direct.quartet_rtt_ms.observe(rtt);
            direct.blame_counter(blame).inc();
        }
        // Sharded path: two scratches, absorbed in arbitrary order.
        let mut a = ShardMetrics::new();
        a.observe_quartet(80.0);
        a.record_blame(Blame::Middle);
        let mut b = ShardMetrics::new();
        b.observe_quartet(12.5);
        b.record_blame(Blame::Cloud);
        b.observe_quartet(33.0);
        b.record_blame(Blame::Middle);
        sharded.absorb_shard(&b);
        sharded.absorb_shard(&a);
        assert_eq!(
            direct.registry().render_prometheus(),
            sharded.registry().render_prometheus()
        );
    }

    #[test]
    fn degraded_counters_cover_every_reason() {
        let m = EngineMetrics::new(Arc::new(MetricsRegistry::new()));
        assert_eq!(m.degraded_total(), 0);
        for r in UnlocalizedReason::ALL {
            m.degraded_counter(r).inc();
        }
        for r in UnlocalizedReason::ALL {
            assert_eq!(m.degraded_counter(r).get(), 1, "{r}");
        }
        assert_eq!(m.degraded_total(), UnlocalizedReason::ALL.len() as u64);
    }

    #[test]
    fn ingest_instruments_track_volume_and_rate() {
        let reg = Arc::new(MetricsRegistry::new());
        let m = EngineMetrics::new(reg.clone());
        m.observe_ingest(500, Duration::from_millis(10));
        assert_eq!(m.ingest_quartets.get(), 500);
        assert!((m.ingest_quartets_per_sec.get() - 50_000.0).abs() < 1.0);
        // Zero-duration ingest keeps the last rate instead of inf.
        m.observe_ingest(7, Duration::ZERO);
        assert_eq!(m.ingest_quartets.get(), 507);
        assert!((m.ingest_quartets_per_sec.get() - 50_000.0).abs() < 1.0);
        let text = reg.render_prometheus();
        assert!(text.contains("blameit_ingest_quartets_total 507"), "{text}");
    }

    // The two `…_render_under_stable_names` tests pin which
    // `EngineMetrics` field writes which series (and, for shed, which
    // label value). The catalogue test (`tests/obs_integration.rs`)
    // compares names, kinds and label keys only, so two same-kind
    // registrations swapped in `new` would pass it; every value below is
    // distinct so that such a swap fails here.
    #[test]
    fn slo_instruments_render_under_stable_names() {
        let reg = Arc::new(MetricsRegistry::new());
        let m = EngineMetrics::new(reg.clone());
        m.middle_localizations.add(4);
        m.middle_culprits_found.add(3);
        m.middle_localization_coverage.set(0.75);
        m.probe_budget_utilization.set(0.2);
        m.baseline_staleness_burn_secs.add(3_600);
        m.admission_groups_scored.add(3_620);
        m.admission_streak_groups.set(3_700.0);
        let text = reg.render_prometheus();
        for name in [
            "blameit_middle_localizations_total 4",
            "blameit_middle_culprits_found_total 3",
            "blameit_middle_localization_coverage 0.75",
            "blameit_probe_budget_utilization 0.2",
            "blameit_baseline_staleness_burn_secs_total 3600",
            "blameit_admission_groups_scored_total 3620",
            "blameit_admission_streak_groups 3700",
        ] {
            assert!(text.contains(name), "{name} missing from:\n{text}");
        }
    }

    #[test]
    fn shed_instruments_render_under_stable_names() {
        let reg = Arc::new(MetricsRegistry::new());
        let m = EngineMetrics::new(reg.clone());
        m.shed_counter(shed_reason::LOW_IMPACT).add(7);
        m.shed_counter(shed_reason::BACKPRESSURE).add(2);
        m.backpressure_replies.add(5);
        m.ingest_queue_depth.set(41.0);
        m.ingest_coverage.set(0.9);
        m.wal_retire_failures.add(6);
        m.wal_bytes_appended.add(8);
        m.wal_segments_sealed.add(9);
        m.wal_segments_retired.add(10);
        m.wal_replayed_bytes.set(11.0);
        m.wal_replayed_queued.set(14.0);
        m.wal_replayed_covered.set(15.0);
        m.wal_append_us.observe(12.0);
        m.wal_rotate_us.observe(13.0);
        let text = reg.render_prometheus();
        for series in [
            "blameit_shed_quartets_total{reason=\"low_impact\"} 7",
            "blameit_shed_quartets_total{reason=\"backpressure\"} 2",
            "blameit_backpressure_replies_total 5",
            "blameit_ingest_queue_depth_records 41",
            "blameit_ingest_coverage 0.9",
            "blameit_wal_retire_failures_total 6",
            "blameit_wal_bytes_appended_total 8",
            "blameit_wal_segments_sealed_total 9",
            "blameit_wal_segments_retired_total 10",
            "blameit_wal_replayed_bytes 11",
            "blameit_wal_replayed_batches{state=\"queued\"} 14",
            "blameit_wal_replayed_batches{state=\"covered\"} 15",
            "blameit_wal_append_us_sum 12",
            "blameit_wal_rotate_us_sum 13",
        ] {
            assert!(text.contains(series), "{series} missing from:\n{text}");
        }
    }

    #[test]
    fn same_registry_shares_instruments() {
        let reg = Arc::new(MetricsRegistry::new());
        let a = EngineMetrics::new(reg.clone());
        let b = EngineMetrics::new(reg);
        a.ticks.inc();
        assert_eq!(b.ticks.get(), 1);
    }
}
