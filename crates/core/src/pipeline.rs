//! The end-to-end BlameIt engine.
//!
//! Mirrors the production workflow of §3.3/§6.1 (Fig. 7): RTTs stream
//! in from the edge; an analytics job runs every 15 minutes (3 buckets)
//! assigning coarse blame to every bad quartet; middle-segment issues
//! are prioritized by client-time product and probed on-demand within a
//! budget; background traceroutes (periodic + churn-triggered) maintain
//! the per-path baselines the diffs compare against; and the top issues
//! become operator alerts.
//!
//! The engine is generic over [`Backend`], so it runs identically over
//! the simulator (with ground truth available for scoring) or any other
//! data plane.
//!
//! [`BlameItEngine::tick`] is that job as plain stage functions, one per
//! [`stage`] name, each documented with what it reads and writes: it
//! only calls them and laps the stage clock between them.

use crate::active::{
    diff_contributions_with_floor, LocalizationVerdict, TracrouteDiffResult, UnlocalizedReason,
    MIN_CULPRIT_DELTA_MS,
};
use crate::backend::Backend;
use crate::background::{BackgroundScheduler, BaselineStore, ProbeTarget};
use crate::fxhash::{DetHashMap, DetHashSet};
use crate::grouping::MiddleKey;
use crate::history::{ClientCountHistory, DurationHistory, ExpectedRttLearner, RttKey};
use crate::incident::IncidentTracker;
use crate::metrics::{series, stage, EngineMetrics};
use crate::passive::{blame_bucket, AggregateStats, Blame, BlameConfig, BlameResult};
use crate::priority::{prioritize, select_within_budgets, MiddleIssue, PrioritizedIssue};
use crate::provenance::{BaselineEvidence, IncidentEvidence, ProbeEvidence, Provenance};
use crate::quartet::{enrich_obs_sharded, EnrichedQuartet, MIN_SAMPLES};
use crate::shard::parallel_map;
use crate::thresholds::BadnessThresholds;
use blameit_obs::{
    span, FlightFrame, FlightRecorder, FlightTrigger, MetricsRegistry, StageClock, StageTimings,
};
use blameit_simnet::{Segment, SimTime, TimeBucket, TimeRange};
use blameit_topology::{Asn, CloudLocId, PathId, Prefix24};
use std::sync::Arc;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct BlameItConfig {
    /// Algorithm 1 parameters.
    pub blame: BlameConfig,
    /// Badness thresholds (region × device).
    pub thresholds: BadnessThresholds,
    /// Background probe period per (location, path), seconds
    /// (paper default: twice a day).
    pub background_period_secs: u64,
    /// Issue background probes on IBGP churn events.
    pub churn_triggered: bool,
    /// Buckets per analysis tick (paper: 3 = 15 minutes).
    pub tick_buckets: u32,
    /// Per-tick time budget for on-demand probing, seconds. Issues the
    /// budget cannot cover get a `DeadlineBudget` degraded verdict
    /// instead of a probe. Probes that answer instantly cost nothing,
    /// so healthy runs never hit this.
    pub probe_deadline_budget_secs: u64,
    /// Quarantine age for baselines, seconds: a diff against a baseline
    /// older than this is refused (`StaleBaseline`) rather than
    /// trusted. The default (4 days) sits above the store's normal
    /// retention span so healthy runs never quarantine.
    pub baseline_max_age_secs: u64,
    /// Seed for the expected-RTT reservoir.
    pub seed: u64,
    /// Directory for durable engine state (snapshots + tick journal).
    /// `None` disables persistence entirely.
    pub state_dir: Option<std::path::PathBuf>,
    /// Write a snapshot every this-many completed ticks (journal
    /// records are written every tick regardless).
    pub snapshot_every_ticks: u32,
    /// Worker threads for the tick's parallel stages. `1` runs every
    /// stage inline on the calling thread; any value produces
    /// byte-identical `TickOutput` (each parallel stage maps contiguous
    /// chunks of an ordered worklist and concatenates them in order).
    /// Defaults to `BLAMEIT_THREADS` or the machine's available cores.
    pub parallelism: usize,
    /// Flight trigger: a tick with at least this many degraded
    /// (`MiddleUnlocalized`) verdicts requests a dump. `0` disables.
    pub flight_degraded_spike: u64,
    /// Directory flight dumps are written to when a trigger fires
    /// (`flight-<sim_secs>-<trigger>.jsonl`). `None` keeps the trigger
    /// log in memory only.
    pub flight_dump_dir: Option<std::path::PathBuf>,
}

impl BlameItConfig {
    /// Paper-faithful defaults around the given thresholds.
    pub fn new(thresholds: BadnessThresholds) -> Self {
        BlameItConfig {
            blame: BlameConfig::default(),
            thresholds,
            background_period_secs: 43_200,
            churn_triggered: true,
            tick_buckets: 3,
            probe_deadline_budget_secs: 600,
            baseline_max_age_secs: 4 * 86_400,
            seed: 0x0B1A_3E17,
            state_dir: None,
            snapshot_every_ticks: 4,
            parallelism: crate::shard::default_parallelism(),
            flight_degraded_spike: 3,
            flight_dump_dir: None,
        }
    }
}

/// The result of actively localizing one middle-segment issue.
#[derive(Clone, Debug)]
pub struct MiddleLocalization {
    /// The prioritized issue that was probed.
    pub issue: PrioritizedIssue,
    /// When the probe that produced the evidence ran (the first
    /// attempt's issue time when no attempt answered).
    pub probed_at: SimTime,
    /// The /24 probed.
    pub probed_p24: Prefix24,
    /// Traceroute attempts spent on this issue (0 when the deadline
    /// budget dropped it unprobed).
    pub attempts: u32,
    /// Per-AS diff against the background baseline; `None` when no
    /// usable probe answer or no trustworthy baseline existed.
    pub diff: Option<TracrouteDiffResult>,
    /// The localization outcome: a culprit AS, or a degraded
    /// `MiddleUnlocalized` verdict with the recorded reason.
    pub verdict: LocalizationVerdict,
    /// The culprit AS, if the diff names one (`verdict.culprit()`).
    pub culprit: Option<Asn>,
    /// The evidence chain behind the verdict: incident context,
    /// priority/budget position, probe attempts, baseline age.
    pub provenance: Provenance,
}

/// An operator alert (the auto-filed ticket of §6.1).
#[derive(Clone, Debug)]
pub struct Alert {
    /// Tick this alert was raised in (first bucket).
    pub bucket: TimeBucket,
    /// Coarse blame.
    pub blame: Blame,
    /// Cloud location involved.
    pub loc: CloudLocId,
    /// Middle path (for middle blames).
    pub path: Option<PathId>,
    /// Client AS (for client blames).
    pub client_as: Option<Asn>,
    /// Actively-localized culprit AS, when available.
    pub culprit: Option<Asn>,
    /// Affected connections (sum of quartet samples).
    pub impacted_connections: u64,
    /// Affected distinct /24s.
    pub impacted_p24s: usize,
    /// Fraction of the relevant aggregate's quartets agreeing with the
    /// verdict (the paper's §6.3 case-5 "confidence").
    pub confidence: f64,
}

/// Output of one engine tick.
#[derive(Clone, Debug, Default)]
pub struct TickOutput {
    /// Per-bad-quartet verdicts across the tick's buckets.
    pub blames: Vec<BlameResult>,
    /// Active-phase localizations performed this tick.
    pub localizations: Vec<MiddleLocalization>,
    /// Operator alerts (top issues by impact).
    pub alerts: Vec<Alert>,
    /// All middle issues this tick ranked by client-time product,
    /// *before* the probe budget was applied (for prioritization
    /// studies, Fig. 12).
    pub ranked_issues: Vec<PrioritizedIssue>,
    /// On-demand probes issued this tick.
    pub on_demand_probes: u64,
    /// Background probes issued this tick.
    pub background_probes: u64,
    /// Where the tick spent its time, by pipeline stage
    /// (see [`crate::metrics::stage`] for the stage names).
    pub stage_timings: StageTimings,
}

/// Gap (buckets) under which two badness runs on one (location, path)
/// count as the same episode (8 hours: spans an overnight lull).
const EPISODE_GAP_BUCKETS: u32 = 96;

/// On-demand traceroutes per cloud location per tick (§5.3's budget).
const PROBE_BUDGET_PER_LOC: usize = 5;

/// On-demand traceroute attempts per issue (first try + retries).
const PROBE_MAX_ATTEMPTS: u32 = 3;

/// Base of the deterministic exponential backoff between on-demand
/// attempts, seconds: retry `k` waits `base << (k-1)` after the
/// previous attempt's cost.
const PROBE_BACKOFF_BASE_SECS: u64 = 30;

/// Per-probe deadline, seconds: a traceroute whose answer arrives later
/// than this after issue (or not at all) counts as lost.
const PROBE_TIMEOUT_SECS: u64 = 30;

/// Flight trigger: a tick whose probe loop absorbed at least this many
/// lost/late attempts requests a dump.
const FLIGHT_CHAOS_BURST: u64 = 4;

/// Everything the engine has learned that a future tick reads — the
/// durable state. [`BlameItEngine`] owns exactly one, a snapshot
/// ([`crate::persist::snapshot`]) is written from a borrow of it and
/// decodes into one, so there is no second list of these fields to keep
/// in step.
#[derive(Clone, Debug)]
pub struct EngineState {
    /// The expected-RTT learner, RNG position and median cache included.
    pub expected: ExpectedRttLearner,
    /// Per-path incident-duration history.
    pub durations: DurationHistory,
    /// Per-(path, time-of-day) client volumes.
    pub client_hist: ClientCountHistory,
    /// Open middle-segment incidents and the last bucket fed.
    pub incidents: IncidentTracker<(CloudLocId, PathId)>,
    /// The background-traceroute baseline store.
    pub baselines: BaselineStore,
    /// Background scheduler: period, churn triggering, last-probed clocks.
    pub scheduler: BackgroundScheduler,
    /// Representative probe target per (loc, path), refreshed from
    /// observed traffic.
    pub rep_p24: DetHashMap<(CloudLocId, PathId), Prefix24>,
    /// The /24 each stored baseline was measured toward — on-demand
    /// probes must target the same /24 for a comparable diff.
    pub baseline_p24: DetHashMap<(CloudLocId, PathId), Prefix24>,
    /// (location, announced prefix) pairs observed carrying traffic;
    /// churn events for anything else are not ours to probe.
    pub monitored_prefixes: DetHashSet<(CloudLocId, blameit_topology::IpPrefix)>,
    /// Badness *episodes* per (loc, path): (first bad bucket, last bad
    /// bucket), where runs separated by less than [`EPISODE_GAP_BUCKETS`]
    /// merge. Incidents fragment overnight when traffic (and thus
    /// quartets) thins out; the diff must still compare against a
    /// baseline predating the whole episode, and background probing
    /// must not re-baseline inside one.
    pub episodes: DetHashMap<(CloudLocId, PathId), (TimeBucket, TimeBucket)>,
    /// (loc, path) pairs whose last background refresh failed and has
    /// already been rescheduled once — bounds the retry to one, so a
    /// permanently-unanswerable target degrades to its normal period
    /// instead of probing every tick.
    pub bg_failed_once: DetHashSet<(CloudLocId, PathId)>,
    /// Where the churn feed was consumed up to.
    pub churn_cursor: SimTime,
    /// Lifetime on-demand probe count.
    pub on_demand_probes_total: u64,
    /// Lifetime background probe count.
    pub background_probes_total: u64,
}

/// The BlameIt engine: all state for continuous operation.
#[derive(Clone, Debug)]
pub struct BlameItEngine {
    pub(crate) cfg: BlameItConfig,
    pub(crate) state: EngineState,
    pub(crate) metrics: EngineMetrics,
    /// The deterministic flight ring: recent tick frames + trigger log.
    /// Part of the snapshot, so dumps survive crash→recover→resume.
    pub(crate) flight: FlightRecorder,
}

impl BlameItEngine {
    /// A fresh engine with its own metrics registry.
    pub fn new(cfg: BlameItConfig) -> Self {
        Self::with_metrics(cfg, Arc::new(MetricsRegistry::new()))
    }

    /// A fresh engine recording into `registry` (shared registries let
    /// several engines — or an engine plus its harness — publish one
    /// exposition).
    pub fn with_metrics(cfg: BlameItConfig, registry: Arc<MetricsRegistry>) -> Self {
        BlameItEngine {
            metrics: EngineMetrics::new(registry),
            state: EngineState {
                expected: ExpectedRttLearner::new(cfg.seed),
                durations: DurationHistory::new(),
                client_hist: ClientCountHistory::new(),
                incidents: IncidentTracker::new(),
                baselines: BaselineStore::new(),
                scheduler: BackgroundScheduler::new(
                    cfg.background_period_secs,
                    cfg.churn_triggered,
                ),
                rep_p24: DetHashMap::default(),
                baseline_p24: DetHashMap::default(),
                monitored_prefixes: DetHashSet::default(),
                episodes: DetHashMap::default(),
                bg_failed_once: DetHashSet::default(),
                churn_cursor: SimTime::ZERO,
                on_demand_probes_total: 0,
                background_probes_total: 0,
            },
            flight: FlightRecorder::new(blameit_obs::flight::DEFAULT_FLIGHT_CAPACITY),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &BlameItConfig {
        &self.cfg
    }

    /// The engine's metric handles (the registry behind them renders
    /// Prometheus text / JSON via [`EngineMetrics::registry`]).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The flight recorder (interior-mutable: triggers and manual dumps
    /// go through a shared reference).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Fires the on-demand (`Manual`) flight trigger and returns the
    /// recorder's JSONL dump — the `blameit flight dump` path.
    pub fn flight_dump_manual(&self, sim_secs: u64, detail: impl Into<String>) -> String {
        self.fire_flight_trigger(sim_secs, FlightTrigger::Manual, detail.into());
        self.flight.dump_jsonl()
    }

    /// The durable state (read access): learners, histories, baselines,
    /// lifetime probe totals.
    pub fn state(&self) -> &EngineState {
        &self.state
    }

    /// Feeds history (expected RTTs, client counts) from telemetry
    /// without issuing probes — the 14 days of learning Algorithm 1
    /// expects before blame assignment is trusted. `sample_every`
    /// strides the buckets for speed (1 = every bucket; stride > 1
    /// trades fidelity for time and is fine for the medians).
    pub fn warmup<B: Backend>(&mut self, backend: &B, range: TimeRange, sample_every: u32) {
        assert!(sample_every >= 1);
        self.state.churn_cursor = range.end;
        // Incident-duration prior: track runs of path-level badness
        // (≥ half of a path's quartets above threshold) so the
        // client-time-product estimator has history from day one
        // (§5.3a: "P(T|t) … based on historical fault durations").
        // Only meaningful without striding — runs need contiguity.
        let mut tracker: IncidentTracker<(CloudLocId, PathId)> = IncidentTracker::new();
        // Warm-up is not profiled; the laps are dropped with the clock.
        let mut clock = StageClock::start();
        for (i, bucket) in range.buckets().enumerate() {
            if !(i as u32).is_multiple_of(sample_every) {
                continue;
            }
            let (_, enriched) = self.observe_bucket(backend, bucket, &mut clock);
            if sample_every == 1 {
                let mut per_path: DetHashMap<(CloudLocId, PathId), (u32, u32)> =
                    DetHashMap::default();
                for q in &enriched {
                    let e = per_path.entry((q.obs.loc, q.info.path)).or_default();
                    e.0 += 1;
                    if q.bad {
                        e.1 += 1;
                    }
                }
                let mut bad_keys: Vec<(CloudLocId, PathId)> = per_path
                    .into_iter()
                    .filter(|(_, (n, bad))| *n >= 3 && *bad * 2 >= *n)
                    .map(|(k, _)| k)
                    .collect();
                bad_keys.sort_unstable();
                for inc in tracker.observe(bucket, bad_keys) {
                    self.state.durations.record(inc.key.1, inc.buckets);
                }
            }
            self.learn_from(&enriched, bucket);
        }
        for inc in tracker.finish() {
            self.state.durations.record(inc.key.1, inc.buckets);
        }
    }

    /// Internal: update learners from one bucket's quartets.
    fn learn_from(&mut self, enriched: &[EnrichedQuartet], bucket: TimeBucket) {
        let day = bucket.day();
        let mut per_path_clients: DetHashMap<PathId, u64> = DetHashMap::default();
        for q in enriched {
            self.state.expected.observe(
                RttKey::Cloud(q.obs.loc, q.obs.mobile),
                day,
                q.obs.mean_rtt_ms,
            );
            let key = self.cfg.blame.grouping.key(&q.info);
            self.state
                .expected
                .observe(RttKey::Middle(key, q.obs.mobile), day, q.obs.mean_rtt_ms);
            *per_path_clients.entry(q.info.path).or_default() += q.obs.n as u64;
            self.state
                .rep_p24
                .entry((q.obs.loc, q.info.path))
                .or_insert(q.obs.p24);
            self.state
                .monitored_prefixes
                .insert((q.obs.loc, q.info.prefix));
        }
        let mut per_path_sorted: Vec<(PathId, u64)> = per_path_clients.into_iter().collect();
        per_path_sorted.sort_unstable();
        for (path, clients) in per_path_sorted {
            self.state.client_hist.record(path, bucket, clients);
        }
    }

    /// Runs one 15-minute analysis tick starting at `start`, consuming
    /// `cfg.tick_buckets` buckets of telemetry: per bucket
    /// `observe_bucket` → `blame_and_learn`, then once per tick
    /// `rank_issues` → `localize_issues` → `refresh_baselines` →
    /// `assemble_alerts`, lapping the stage clock between them.
    ///
    /// With `cfg.parallelism > 1` the heavy stages fan out over scoped
    /// worker threads (see [`crate::shard`]); the output is
    /// byte-identical to `parallelism = 1` because every parallel stage
    /// is a pure map over contiguous chunks of an ordered worklist whose
    /// results concatenate in input order.
    pub fn tick<B: Backend>(&mut self, backend: &mut B, start: TimeBucket) -> TickOutput {
        // Shared view for worker threads; mutation below stays on the
        // coordinator (probe accounting is interior-mutable).
        let backend: &B = backend;
        let mut tick_span = span!("blameit::pipeline", "tick", start_bucket = start.0);
        let mut clock = StageClock::start();
        let mut out = TickOutput::default();
        let probes_before = backend.probes_issued();
        let mut acc = TickAcc::default();
        // Raw observation volume for the ingest-throughput instruments
        // (metrics only; never feeds verdicts or transcripts).
        let mut raw_ingested: u64 = 0;

        for i in 0..self.cfg.tick_buckets {
            let bucket = start.plus(i);
            let mut bucket_span = span!("blameit::pipeline", "bucket", bucket = bucket.0);
            let (raw, enriched) = self.observe_bucket(backend, bucket, &mut clock);
            raw_ingested += raw as u64;
            let blames = self.blame_and_learn(bucket, &enriched, &mut acc);
            bucket_span.record("blames", blames.len());
            out.blames.extend(blames);
            clock.lap(stage::PASSIVE);
        }

        let selected = self.rank_issues(acc.middle, &mut out);
        clock.lap(stage::PRIORITY);
        self.localize_issues(backend, selected, &mut out);
        clock.lap(stage::ACTIVE);
        self.refresh_baselines(backend, start, &mut out);
        clock.lap(stage::BASELINE);
        debug_assert_eq!(
            backend.probes_issued() - probes_before,
            out.on_demand_probes + out.background_probes
        );

        out.alerts = assemble_alerts(acc.alerts, &out.localizations);
        out.stage_timings = clock.finish();
        self.metrics.alerts.add(out.alerts.len() as u64);
        self.metrics.ticks.inc();
        self.metrics.observe_stage_timings(&out.stage_timings);
        self.metrics.observe_ingest(
            raw_ingested,
            out.stage_timings
                .get(stage::INGEST)
                .unwrap_or(std::time::Duration::ZERO),
        );
        tick_span.record("blames", out.blames.len());
        tick_span.record("alerts", out.alerts.len());
        self.record_flight_frame(start, &out);
        out
    }

    /// Ingest + enrich for one bucket — the front half `warmup` and
    /// `tick` share: fetches the bucket's quartet observations
    /// ([`stage::INGEST`]), joins routing metadata and classifies
    /// good/bad ([`stage::AGGREGATION`], chunked fan-out), lapping
    /// `clock` after each. Reads the configuration only. Returns the raw
    /// observation count with the enriched quartets.
    fn observe_bucket<B: Backend>(
        &self,
        backend: &B,
        bucket: TimeBucket,
        clock: &mut StageClock,
    ) -> (usize, Vec<EnrichedQuartet>) {
        let obs = {
            let _s = span!("blameit::pipeline", stage::INGEST);
            backend.quartets_in(bucket)
        };
        let raw = obs.len();
        clock.lap(stage::INGEST);
        let mut s = span!("blameit::pipeline", stage::AGGREGATION, raw = raw);
        let enriched = enrich_obs_sharded(
            backend,
            obs,
            bucket,
            &self.cfg.thresholds,
            MIN_SAMPLES,
            self.cfg.parallelism,
        );
        s.record("enriched", enriched.len());
        drop(s);
        clock.lap(stage::AGGREGATION);
        (raw, enriched)
    }

    /// [`stage::PASSIVE`] for one bucket: Algorithm 1
    /// ([`blame_bucket`]: aggregate pass on this thread — the learner's
    /// lookup cache is not thread-safe — then chunked per-quartet
    /// verdicts whose metric scratch is absorbed here), incident
    /// tracking, and only then learning, so the bucket never sees its
    /// own data in the expected values. Returns the bucket's verdicts
    /// in quartet order.
    fn blame_and_learn(
        &mut self,
        bucket: TimeBucket,
        enriched: &[EnrichedQuartet],
        acc: &mut TickAcc,
    ) -> Vec<BlameResult> {
        let mut passive_span = span!(
            "blameit::pipeline",
            stage::PASSIVE,
            quartets = enriched.len()
        );
        let (blames, stats, scratch) = blame_bucket(
            enriched,
            &self.state.expected,
            &self.cfg.blame,
            self.cfg.parallelism,
        );
        for s in &scratch {
            self.metrics.absorb_shard(s);
        }
        passive_span.record("verdicts", blames.len());
        {
            let _s = span!("blameit::pipeline", "track_incidents");
            self.track_incidents(bucket, &blames, &stats, acc);
        }
        let _s = span!("blameit::pipeline", "learn_from");
        self.learn_from(enriched, bucket);
        blames
    }

    /// Folds one bucket's verdicts into incident state — badness
    /// episodes, the incident tracker (closed incidents feed the
    /// duration history) — and into the tick's alert and middle-issue
    /// accumulators.
    fn track_incidents(
        &mut self,
        bucket: TimeBucket,
        blames: &[BlameResult],
        stats: &AggregateStats,
        acc: &mut TickAcc,
    ) {
        // Incident continuity for middle issues.
        let bad_middle: Vec<(CloudLocId, PathId)> = blames
            .iter()
            .filter(|b| b.blame == Blame::Middle)
            .map(|b| (b.obs.loc, b.path))
            .collect();
        for key in &bad_middle {
            self.state
                .episodes
                .entry(*key)
                .and_modify(|(start, last)| {
                    if bucket.0 - last.0 > EPISODE_GAP_BUCKETS {
                        *start = bucket;
                    }
                    *last = bucket;
                })
                .or_insert((bucket, bucket));
        }
        for inc in self.state.incidents.observe(bucket, bad_middle) {
            self.state.durations.record(inc.key.1, inc.buckets);
        }

        for b in blames {
            // Aggregate for alerts.
            let akey = match b.blame {
                Blame::Cloud => AlertKey::Cloud(b.obs.loc),
                Blame::Middle => AlertKey::Middle(b.obs.loc, b.path),
                Blame::Client => AlertKey::Client(b.origin),
                Blame::Ambiguous | Blame::Insufficient => continue,
            };
            let a = acc.alerts.entry(akey).or_default();
            a.connections += b.obs.n as u64;
            a.p24s.insert(b.obs.p24);
            a.bucket = bucket;
            a.confidence = match b.blame {
                Blame::Cloud => stats.cloud_bad_fraction(b.obs.loc),
                Blame::Middle => stats.middle_bad_fraction(b.middle_key),
                _ => 1.0,
            };

            if b.blame == Blame::Middle {
                let m = acc.middle.entry((b.obs.loc, b.path)).or_default();
                m.clients += b.obs.n as u64;
                m.bucket = bucket;
                m.middle_key = Some(b.middle_key);
                if !m.p24s.contains(&b.obs.p24) {
                    m.p24s.push(b.obs.p24);
                }
            }
        }
    }

    /// [`stage::PRIORITY`]: builds the tick's middle issues from the
    /// accumulator, ranks them by client-time product into
    /// `out.ranked_issues` (before any budget, for Fig. 12) and returns
    /// the budgeted prefix to probe. Reads the incident tracker and the
    /// duration / client-count histories.
    fn rank_issues(
        &self,
        middle_acc: DetHashMap<(CloudLocId, PathId), MiddleAcc>,
        out: &mut TickOutput,
    ) -> Vec<PrioritizedIssue> {
        let _span = span!("blameit::pipeline", stage::PRIORITY);
        // `middle_acc` is a HashMap, so impose the canonical (loc, path)
        // order before ranking — prioritize's tie-break keeps the
        // result total either way, but emission order must never lean
        // on hash-seed luck.
        let mut issues: Vec<MiddleIssue> = middle_acc
            .into_iter()
            .map(|((loc, path), m)| {
                let elapsed = self
                    .state
                    .incidents
                    .open_incident(&(loc, path))
                    .map_or(1, |o| o.elapsed());
                MiddleIssue {
                    loc,
                    path,
                    middle_key: m.middle_key.unwrap_or(MiddleKey::Path(path)),
                    bucket: m.bucket,
                    elapsed_buckets: elapsed,
                    current_clients: m.clients,
                    affected_p24s: m.p24s,
                }
            })
            .collect();
        issues.sort_unstable_by_key(|i| (i.loc, i.path));
        let ranked = prioritize(issues, &self.state.durations, &self.state.client_hist);
        // The global cap is a coarse safety valve (one issue per budget
        // second would already be pathological); the real limit is the
        // probe deadline budget applied during the active phase.
        let selected: Vec<PrioritizedIssue> = select_within_budgets(
            &ranked,
            PROBE_BUDGET_PER_LOC,
            self.cfg.probe_deadline_budget_secs.max(1) as usize,
        )
        .into_iter()
        .cloned()
        .collect();
        self.metrics
            .probes_suppressed_budget
            .add((ranked.len() - selected.len()) as u64);
        out.ranked_issues = ranked;
        selected
    }

    /// [`stage::ACTIVE`]: on-demand probes while the issue is live (the
    /// probe runs within the tick; it is timed at the issue's bucket
    /// midpoint). Probes go out sequentially in rank order
    /// ([`probe_issue`](Self::probe_issue)) so probe accounting and the
    /// issue→probe attribution never depend on the thread count; the
    /// diffs then run concurrently ([`localize`](Self::localize)).
    /// Fills `out.localizations` and `out.on_demand_probes`.
    fn localize_issues<B: Backend>(
        &mut self,
        backend: &B,
        selected: Vec<PrioritizedIssue>,
        out: &mut TickOutput,
    ) {
        let _span = span!(
            "blameit::pipeline",
            stage::ACTIVE,
            selected = selected.len()
        );
        // Probe time the tick can spend: lost attempts burn the
        // per-probe timeout, slow answers their wait. Instant answers
        // (the healthy case) cost nothing, so the budget only bites
        // when the measurement plane misbehaves.
        let mut deadline_left = self.cfg.probe_deadline_budget_secs;
        let probed: Vec<ProbedIssue> = selected
            .into_iter()
            .enumerate()
            .map(|(rank, p)| self.probe_issue(backend, p, rank, &mut deadline_left))
            .collect();
        out.on_demand_probes = probed.iter().map(|p| p.probe.attempts as u64).sum();
        self.state.on_demand_probes_total += out.on_demand_probes;
        self.metrics.on_demand_probes.add(out.on_demand_probes);
        out.localizations = self.localize(probed, out.ranked_issues.len());

        // SLO instruments derived from this tick's active phase.
        let budget = self.cfg.probe_deadline_budget_secs.max(1);
        self.metrics
            .probe_budget_utilization
            .set((budget - deadline_left.min(budget)) as f64 / budget as f64);
        let localized = out
            .localizations
            .iter()
            .filter(|l| l.culprit.is_some())
            .count() as u64;
        self.metrics
            .middle_localizations
            .add(out.localizations.len() as u64);
        self.metrics.middle_culprits_found.add(localized);
        let loc_total = self.metrics.middle_localizations.get();
        self.metrics
            .middle_localization_coverage
            .set(if loc_total == 0 {
                0.0
            } else {
                self.metrics.middle_culprits_found.get() as f64 / loc_total as f64
            });
    }

    /// Probes one selected issue: bounded retries with deterministic
    /// exponential backoff, each attempt classified lost / late /
    /// truncated / complete and charged against the tick's remaining
    /// deadline budget `deadline_left` (seconds). An issue the budget
    /// cannot cover is returned unprobed (`deadline_dropped`). Reads
    /// the incident tracker and episodes; mutates only `deadline_left`
    /// and the probe counters.
    fn probe_issue<B: Backend>(
        &self,
        backend: &B,
        p: PrioritizedIssue,
        rank: usize,
        deadline_left: &mut u64,
    ) -> ProbedIssue {
        let (loc, path) = (p.issue.loc, p.issue.path);
        let first_at = p.issue.bucket.mid();
        // Incident evidence for the provenance chain: the open
        // incident this probe serves (closed-mid-tick incidents
        // fall back to the issue's own bucket, observation-free).
        let open = self.state.incidents.open_incident(&(loc, path));
        let incident_ev = IncidentEvidence {
            start_bucket: open.map_or(p.issue.bucket, |o| o.start),
            elapsed_buckets: p.issue.elapsed_buckets,
            observations: open.map_or(0, |o| o.observations),
            current_clients: p.issue.current_clients,
            affected_p24s: p.issue.affected_p24s.len(),
        };
        // Probe an *affected* /24 (§5.3 targets the clients of the
        // issue). Its last mile may differ from the /24 the background
        // baseline was measured toward; that difference lands in the
        // client hop, so the client AS gets a raised culprit floor in
        // the diff.
        let p24 = p.issue.affected_p24s[0];
        // Diff against the newest baseline that predates the whole
        // badness *episode* (gap-tolerant): a mid-incident baseline
        // already carries the inflation (§5.2 compares against the
        // pre-fault picture), and overnight detection gaps must not
        // fool the lookup into using one.
        let incident_start = self
            .state
            .episodes
            .get(&(loc, path))
            .map(|(start, _)| start.start())
            .unwrap_or_else(|| {
                p.issue
                    .bucket
                    .minus(p.issue.elapsed_buckets.saturating_sub(1))
                    .start()
            });
        // Detection lags the fault (τ must be breached, activity must
        // suffice, and a tick must run); pad the lookup so a baseline
        // taken shortly before *detection* — but possibly after the
        // true onset — is not trusted.
        let incident_start = incident_start - 9 * blameit_simnet::BUCKET_SECS;
        let mut probed = ProbedIssue {
            issue: p,
            probe_at: first_at,
            p24,
            client_origin: None,
            tr: None,
            incident_start,
            rank,
            incident_ev,
            probe: ProbeEvidence {
                attempts: 0,
                lost_attempts: 0,
                truncated: false,
                deadline_dropped: *deadline_left < PROBE_TIMEOUT_SECS,
                backoff_secs: 0,
            },
        };
        if probed.probe.deadline_dropped {
            self.metrics.probes_suppressed_deadline.inc();
            return probed;
        }
        probed.client_origin = backend.route_info(loc, p24, first_at).map(|i| i.origin);
        // Bounded retry with deterministic exponential backoff:
        // re-issue at a later SimTime, so the answer re-derives purely
        // from (seed, target, time) and the whole loop stays
        // byte-deterministic at any thread count.
        let mut at = first_at;
        loop {
            probed.probe.attempts += 1;
            let mut attempt_span = span!(
                "blameit::pipeline",
                "probe_attempt",
                loc = loc.0 as u64,
                attempt = probed.probe.attempts as u64
            );
            let got = backend.traceroute(loc, p24, at);
            // Classify the attempt: lost (no answer, or an answer past
            // the per-probe deadline), truncated (the hop list never
            // reaches the client AS), or complete.
            let mut done = false;
            let cost = match got {
                None => {
                    self.metrics.probe_attempts_lost.inc();
                    probed.probe.lost_attempts += 1;
                    attempt_span.record("outcome", "lost");
                    PROBE_TIMEOUT_SECS
                }
                Some(t) => {
                    let wait = t.at.secs().saturating_sub(at.secs());
                    if wait > PROBE_TIMEOUT_SECS {
                        self.metrics.probe_attempts_lost.inc();
                        probed.probe.lost_attempts += 1;
                        attempt_span.record("outcome", "late");
                        PROBE_TIMEOUT_SECS
                    } else {
                        // Keep truncated evidence: a later complete
                        // answer overrides it, and a partial diff can
                        // still clear or convict the surviving prefix.
                        let truncated = t.hops.last().is_none_or(|h| h.segment != Segment::Client);
                        if truncated {
                            self.metrics.probe_attempts_truncated.inc();
                            attempt_span.record("outcome", "truncated");
                        } else {
                            attempt_span.record("outcome", "complete");
                        }
                        probed.probe_at = t.at;
                        probed.tr = Some(t);
                        probed.probe.truncated = truncated;
                        done = !truncated;
                        wait
                    }
                }
            };
            *deadline_left = deadline_left.saturating_sub(cost);
            if done
                || probed.probe.attempts >= PROBE_MAX_ATTEMPTS
                || *deadline_left < PROBE_TIMEOUT_SECS
            {
                break;
            }
            let backoff = PROBE_BACKOFF_BASE_SECS << (probed.probe.attempts - 1).min(16) as u64;
            at = at + cost + backoff;
            probed.probe.backoff_secs += backoff;
            self.metrics.probe_retries.inc();
        }
        probed
    }

    /// Diffs every probed issue against its baseline — concurrently:
    /// [`diff_against_baseline`] is a pure function of the probe and the
    /// baseline store, which this stage does not modify — and merges
    /// the verdicts back in rank order, counting degraded verdicts and
    /// baseline age as it goes. `candidates` is how many issues competed
    /// for the budget this tick.
    fn localize(&self, probed: Vec<ProbedIssue>, candidates: usize) -> Vec<MiddleLocalization> {
        let selected_n = probed.len();
        let baselines = &self.state.baselines;
        let max_age = self.cfg.baseline_max_age_secs;
        let diffs = parallel_map(self.cfg.parallelism, &probed, |p| {
            diff_against_baseline(baselines, max_age, p)
        });
        probed
            .into_iter()
            .zip(diffs)
            .map(|(p, (verdict, diff, baseline_ev))| {
                if let LocalizationVerdict::MiddleUnlocalized { reason } = verdict {
                    self.metrics.degraded_counter(reason).inc();
                    if reason == UnlocalizedReason::StaleBaseline {
                        self.metrics.baseline_quarantines.inc();
                    }
                }
                // SLO: seconds of baseline age consumed by
                // localizations — the "staleness burn" that precedes
                // quarantines.
                if let Some(age) = baseline_ev.age_secs() {
                    self.metrics.baseline_staleness_burn_secs.add(age);
                }
                MiddleLocalization {
                    probed_at: p.probe_at,
                    probed_p24: p.p24,
                    attempts: p.probe.attempts,
                    diff,
                    culprit: verdict.culprit(),
                    verdict,
                    provenance: Provenance {
                        incident: p.incident_ev,
                        priority: p.issue.evidence(p.rank, selected_n, candidates),
                        probe: p.probe,
                        baseline: baseline_ev,
                    },
                    issue: p.issue,
                }
            })
            .collect()
    }

    /// The background probes due at `now`, in the scheduler's order:
    /// periodic targets (one per observed (location, path)) plus
    /// churn-triggered ones, minus anything inside a badness episode.
    /// Sequential — it reads and advances engine state (`churn_cursor`,
    /// the scheduler's clocks).
    fn due_baseline_targets<B: Backend>(&mut self, backend: &B, now: SimTime) -> Vec<ProbeTarget> {
        // `rep_p24` is a HashMap: sort the candidate list so the probe
        // order never depends on hash-seed iteration order (the
        // scheduler re-sorts, but the invariant belongs at the source).
        let mut periodic: Vec<ProbeTarget> = self
            .state
            .rep_p24
            .iter()
            .map(|((loc, path), p24)| ProbeTarget {
                loc: *loc,
                path: *path,
                p24: *p24,
            })
            .collect();
        periodic.sort_unstable();
        let churn_targets: Vec<ProbeTarget> = if self.cfg.churn_triggered {
            // Robust to ticks scheduled before the warmup cursor (the
            // caller's business, but never a panic).
            backend
                .churn_events(TimeRange::new(
                    self.state.churn_cursor,
                    now.max(self.state.churn_cursor),
                ))
                .iter()
                .filter_map(|e| {
                    // Only prefixes that actually send traffic to this
                    // location are monitored; churn on a (location,
                    // prefix) pair nobody uses does not merit a probe.
                    if !self.state.monitored_prefixes.contains(&(e.loc, e.prefix)) {
                        return None;
                    }
                    // Reuse the /24 the path's baselines were measured
                    // toward when there is one, so they stay
                    // comparable; otherwise adopt the prefix's first.
                    let p24 = self
                        .state
                        .baseline_p24
                        .get(&(e.loc, e.new_path))
                        .copied()
                        .or_else(|| e.prefix.iter_24s().next())?;
                    Some(ProbeTarget {
                        loc: e.loc,
                        path: e.new_path,
                        p24,
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        self.state.churn_cursor = now;
        let now_bucket = now.bucket();
        self.state
            .scheduler
            .due(now, &periodic, &churn_targets)
            .into_iter()
            .filter(|t| {
                // Never re-baseline a path inside (or shortly after) a
                // badness episode: the measurement would carry the
                // inflation and evict the healthy pre-incident picture
                // the diff needs (§5.2).
                let in_episode =
                    self.state
                        .episodes
                        .get(&(t.loc, t.path))
                        .is_some_and(|(_, last)| {
                            now_bucket.0.saturating_sub(last.0) <= EPISODE_GAP_BUCKETS
                        });
                if in_episode {
                    self.metrics.probes_suppressed_episode.inc();
                }
                !in_episode
            })
            .collect()
    }

    /// [`stage::BASELINE`]: background probes, periodic +
    /// churn-triggered. The due targets are probed concurrently — each
    /// is a pure query of the backend — and the answers apply to the
    /// baseline store in due-list order, so the store ends up the same
    /// at any thread count. Fills `out.background_probes`.
    fn refresh_baselines<B: Backend>(
        &mut self,
        backend: &B,
        start: TimeBucket,
        out: &mut TickOutput,
    ) {
        let _span = span!("blameit::pipeline", stage::BASELINE);
        let now = start.plus(self.cfg.tick_buckets).start();
        let targets = self.due_baseline_targets(backend, now);
        let refreshed = parallel_map(self.cfg.parallelism, &targets, |t| {
            backend.traceroute(t.loc, t.p24, now).map(|tr| {
                // Key by the path actually live at probe time.
                let live_path = backend
                    .route_info(t.loc, t.p24, now)
                    .map_or(t.path, |i| i.path);
                (live_path, tr)
            })
        });
        for (t, probe) in targets.iter().zip(refreshed) {
            match probe {
                Some((live_path, tr)) => {
                    self.state.baselines.update(t.loc, live_path, &tr);
                    self.state.baseline_p24.insert((t.loc, live_path), t.p24);
                    self.state.bg_failed_once.remove(&(t.loc, t.path));
                }
                None => {
                    // A lost refresh must not leave the baseline stale
                    // for a whole period: forget the scheduler clock so
                    // the target is due again next tick — but only
                    // once, so a permanently-unanswerable target (e.g.
                    // a churned prefix with no known /24) settles back
                    // to its normal cadence.
                    self.metrics.background_probe_failures.inc();
                    if self.state.bg_failed_once.insert((t.loc, t.path)) {
                        self.state.scheduler.retry_soon(t.loc, t.path);
                        self.metrics.background_retries.inc();
                    }
                }
            }
        }
        out.background_probes = targets.len() as u64;
        self.state.background_probes_total += out.background_probes;
        self.metrics.background_probes.add(out.background_probes);
        // Staleness of the newest baseline per (location, path): how
        // out-of-date the active phase's comparison pictures are.
        let mut stale_max = 0u64;
        let mut stale_sum = 0u64;
        let mut stale_n = 0u64;
        for (_, e) in self.state.baselines.iter_newest() {
            let age = now.secs().saturating_sub(e.at.secs());
            stale_max = stale_max.max(age);
            stale_sum += age;
            stale_n += 1;
        }
        self.metrics
            .baselines_stored
            .set(self.state.baselines.len() as f64);
        self.metrics
            .baseline_staleness_max_secs
            .set(stale_max as f64);
        self.metrics
            .baseline_staleness_mean_secs
            .set(if stale_n == 0 {
                0.0
            } else {
                stale_sum as f64 / stale_n as f64
            });
    }

    /// Appends this tick's frame to the flight ring and evaluates the
    /// dump-trigger predicates. Everything recorded is a pure function
    /// of the tick output and sim time — no wall clock, no registry
    /// diffing (a registry resets on restart; the tick output does
    /// not), so the ring is byte-identical across thread counts and
    /// across crash→recover→resume.
    fn record_flight_frame(&mut self, start: TimeBucket, out: &TickOutput) {
        let sim_secs = start.start().secs();
        let tally = crate::report::tally(&out.blames);
        let degraded = out
            .localizations
            .iter()
            .filter(|l| matches!(l.verdict, LocalizationVerdict::MiddleUnlocalized { .. }))
            .count() as u64;
        let absorbed: u64 = out
            .localizations
            .iter()
            .map(|l| l.provenance.probe.lost_attempts as u64)
            .sum();
        let culprits = out.localizations.iter().filter(|l| l.culprit.is_some());
        let mut deltas: Vec<(String, f64)> = [
            (series::ALERTS, out.alerts.len() as u64),
            (series::DEGRADED_VERDICTS, degraded),
            (series::MIDDLE_LOCALIZATIONS, out.localizations.len() as u64),
            (series::MIDDLE_CULPRITS_FOUND, culprits.count() as u64),
            (series::PROBES_ON_DEMAND, out.on_demand_probes),
            (series::PROBES_BACKGROUND, out.background_probes),
            (series::PROBE_ATTEMPTS_LOST, absorbed),
        ]
        .map(|(name, n)| (name.to_string(), n as f64))
        .into();
        deltas.extend(Blame::ALL.map(|b| (series::blames(b), tally.count(b) as f64)));
        deltas.sort_by(|a, b| a.0.cmp(&b.0));
        self.flight.record(FlightFrame {
            sim_secs,
            bucket: start.0,
            transcript: crate::report::render_tick_transcript(std::slice::from_ref(out)),
            stages: out
                .stage_timings
                .iter()
                .map(|(n, _)| n.to_string())
                .collect(),
            deltas,
        });
        let spike = self.cfg.flight_degraded_spike;
        if spike > 0 && degraded >= spike {
            self.fire_flight_trigger(
                sim_secs,
                FlightTrigger::DegradedSpike,
                format!("{degraded} degraded verdicts in one tick (threshold {spike})"),
            );
        }
        if absorbed >= FLIGHT_CHAOS_BURST {
            self.fire_flight_trigger(
                sim_secs,
                FlightTrigger::ChaosBurst,
                format!(
                    "{absorbed} probe attempts absorbed in one tick (threshold {FLIGHT_CHAOS_BURST})"
                ),
            );
        }
    }

    /// Logs a trigger and, when a dump directory is configured, writes
    /// the current ring as `flight-<sim_secs>-<trigger>.jsonl`. Dump
    /// I/O failures are swallowed: observability must never take the
    /// engine down. Public so the daemon's overload watchdog can fire
    /// `OverloadSustained` through the same path.
    pub fn fire_flight_trigger(&self, sim_secs: u64, trigger: FlightTrigger, detail: String) {
        self.flight.trigger(sim_secs, trigger, detail);
        self.metrics.flight_triggers.inc();
        if let Some(dir) = &self.cfg.flight_dump_dir {
            let path = dir.join(format!("flight-{sim_secs:09}-{}.jsonl", trigger.label()));
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(path, self.flight.dump_jsonl());
        }
    }

    /// Convenience: runs ticks across a whole range, returning every
    /// tick's output.
    pub fn run<B: Backend>(&mut self, backend: &mut B, range: TimeRange) -> Vec<TickOutput> {
        let mut outs = Vec::new();
        let buckets: Vec<TimeBucket> = range.buckets().collect();
        let mut i = 0usize;
        while i + self.cfg.tick_buckets as usize <= buckets.len() {
            outs.push(self.tick(backend, buckets[i]));
            i += self.cfg.tick_buckets as usize;
        }
        outs
    }
}

/// What the passive half of a tick accumulates across its buckets for
/// the ranking and alert stages.
#[derive(Default)]
struct TickAcc {
    /// Middle-segment badness per (loc, path), for issue construction.
    middle: DetHashMap<(CloudLocId, PathId), MiddleAcc>,
    /// Per-aggregate alert statistics.
    alerts: DetHashMap<AlertKey, AlertAcc>,
}

#[derive(Default)]
struct MiddleAcc {
    clients: u64,
    p24s: Vec<Prefix24>,
    bucket: TimeBucket,
    middle_key: Option<MiddleKey>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum AlertKey {
    Cloud(CloudLocId),
    Middle(CloudLocId, PathId),
    Client(Asn),
}

#[derive(Default)]
struct AlertAcc {
    connections: u64,
    p24s: DetHashSet<Prefix24>,
    bucket: TimeBucket,
    confidence: f64,
}

/// One selected issue after the probe loop, before its diff.
struct ProbedIssue {
    issue: PrioritizedIssue,
    /// When the kept evidence was measured (the first attempt's issue
    /// time when no attempt answered).
    probe_at: SimTime,
    p24: Prefix24,
    client_origin: Option<Asn>,
    /// The kept evidence: the last usable (complete or truncated) answer.
    tr: Option<blameit_simnet::Traceroute>,
    /// Baselines must predate this to be trusted.
    incident_start: SimTime,
    /// Rank within the selected (budgeted) set this tick.
    rank: usize,
    /// The middle incident this probe serves.
    incident_ev: IncidentEvidence,
    /// What the probe loop went through.
    probe: ProbeEvidence,
}

/// The localization verdict for one probed issue: the traceroute diffed
/// against the newest baseline predating the incident, or the degraded
/// verdict saying why no trustworthy diff exists. Pure.
fn diff_against_baseline(
    baselines: &BaselineStore,
    max_age: u64,
    p: &ProbedIssue,
) -> (
    LocalizationVerdict,
    Option<TracrouteDiffResult>,
    BaselineEvidence,
) {
    let (loc, path) = (p.issue.issue.loc, p.issue.issue.path);
    // Baseline evidence is recorded whether or not a diff runs: "which
    // picture would we have compared against, and how old was it"
    // belongs in the provenance of timeouts too.
    let base = baselines
        .get_before(loc, path, p.incident_start)
        .or_else(|| baselines.oldest(loc, path));
    let baseline_ev = match base {
        None => BaselineEvidence::Missing,
        Some(b) => {
            let age = p.probe_at.secs().saturating_sub(b.at.secs());
            if age > max_age {
                BaselineEvidence::Stale {
                    at_secs: b.at.secs(),
                    age_secs: age,
                    max_age_secs: max_age,
                }
            } else {
                BaselineEvidence::Fresh {
                    at_secs: b.at.secs(),
                    age_secs: age,
                }
            }
        }
    };
    let unlocalized = |reason| {
        let verdict = LocalizationVerdict::MiddleUnlocalized { reason };
        (verdict, None, baseline_ev)
    };
    if p.probe.deadline_dropped {
        return unlocalized(UnlocalizedReason::DeadlineBudget);
    }
    let Some(t) = p.tr.as_ref() else {
        return unlocalized(UnlocalizedReason::ProbeTimeout);
    };
    let Some(base) = base else {
        return unlocalized(UnlocalizedReason::NoBaseline);
    };
    // Stale-baseline quarantine: a comparison picture this old reflects
    // a path that may have reshaped entirely; naming a culprit from it
    // would be misattribution, not evidence.
    if matches!(baseline_ev, BaselineEvidence::Stale { .. }) {
        return unlocalized(UnlocalizedReason::StaleBaseline);
    }
    let d = diff_contributions_with_floor(&base.contributions, &t.as_contributions(), |asn| {
        if Some(asn) == p.client_origin {
            // Covers the last-mile spread between the probed /24 and the
            // baseline's /24 (up to ~32 ms for cellular) plus
            // evening-congestion variation.
            55.0
        } else {
            MIN_CULPRIT_DELTA_MS
        }
    });
    let verdict = match d.culprit {
        Some(c) => LocalizationVerdict::Culprit(c),
        // A clean diff with no material delta is an honest "nothing
        // stands out"; the same from a truncated probe only cleared the
        // surviving prefix of the path.
        None if p.probe.truncated => LocalizationVerdict::MiddleUnlocalized {
            reason: UnlocalizedReason::TruncatedProbe,
        },
        None => LocalizationVerdict::MiddleUnlocalized {
            reason: UnlocalizedReason::NoMaterialDelta,
        },
    };
    (verdict, Some(d), baseline_ev)
}

/// Operator alerts emitted per tick.
const MAX_ALERTS: usize = 10;

/// Operator alerts: the tick's blamed aggregates, top [`MAX_ALERTS`] by
/// impacted connections, middle alerts carrying the culprit their
/// localization named.
fn assemble_alerts(
    acc: DetHashMap<AlertKey, AlertAcc>,
    localizations: &[MiddleLocalization],
) -> Vec<Alert> {
    let culprit_by_issue: DetHashMap<(CloudLocId, PathId), Asn> = localizations
        .iter()
        .filter_map(|l| Some(((l.issue.issue.loc, l.issue.issue.path), l.culprit?)))
        .collect();
    let mut alerts: Vec<Alert> = acc
        .into_iter()
        .map(|(key, acc)| {
            let (blame, loc, path, client_as) = match key {
                AlertKey::Cloud(loc) => (Blame::Cloud, loc, None, None),
                AlertKey::Middle(loc, path) => (Blame::Middle, loc, Some(path), None),
                AlertKey::Client(origin) => (Blame::Client, CloudLocId(0), None, Some(origin)),
            };
            let culprit = match (blame, path) {
                (Blame::Middle, Some(p)) => culprit_by_issue.get(&(loc, p)).copied(),
                (Blame::Client, _) => client_as,
                _ => None,
            };
            Alert {
                bucket: acc.bucket,
                blame,
                loc,
                path,
                client_as,
                culprit,
                impacted_connections: acc.connections,
                impacted_p24s: acc.p24s.len(),
                confidence: acc.confidence,
            }
        })
        .collect();
    alerts.sort_by(|a, b| {
        b.impacted_connections
            .cmp(&a.impacted_connections)
            .then_with(|| (a.loc, a.path, a.client_as).cmp(&(b.loc, b.path, b.client_as)))
    });
    alerts.truncate(MAX_ALERTS);
    alerts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{RouteInfo, WorldBackend};
    use blameit_simnet::{Fault, FaultId, FaultTarget, World, WorldConfig};

    /// A tiny world with a long cloud fault at one location starting
    /// day 2, engine warmed on day 0–1.
    fn scenario() -> (World, CloudLocId) {
        let mut cfg = WorldConfig::tiny(3, 71);
        // Disable random faults: the scenario controls everything.
        cfg.fault_rates = blameit_simnet::FaultRates {
            cloud_per_loc_day: 0.0,
            middle_per_as_day: 0.0,
            client_as_per_day: 0.0,
            client_prefix_per_k_day: 0.0,
            middle_path_scoped_frac: 0.0,
        };
        let mut w = World::new(cfg);
        // Fault the busiest location so aggregates are rich.
        let mut counts: DetHashMap<CloudLocId, usize> = DetHashMap::default();
        for c in &w.topology().clients {
            *counts.entry(c.primary_loc).or_default() += 1;
        }
        let loc = *counts.iter().max_by_key(|(_, n)| **n).unwrap().0;
        w.add_faults(vec![Fault {
            id: FaultId(0),
            target: FaultTarget::CloudLocation(loc),
            start: blameit_simnet::SimTime::from_days(2),
            duration_secs: 6 * 3600,
            added_ms: 120.0,
        }]);
        (w, loc)
    }

    #[test]
    fn engine_blames_cloud_fault_and_alerts() {
        let (w, loc) = scenario();
        let th = BadnessThresholds::default_for(&w);
        let mut engine = BlameItEngine::new(BlameItConfig::new(th));
        let mut backend = WorldBackend::new(&w);
        // Warm up on the fault-free days (stride 2 for speed).
        engine.warmup(
            &backend,
            TimeRange::new(SimTime::ZERO, SimTime::from_days(2)),
            2,
        );

        // Analyze the first 30 minutes of the fault.
        let start = SimTime::from_days(2).bucket();
        let mut cloud_blames = 0usize;
        let mut total_blames = 0usize;
        let mut saw_cloud_alert = false;
        for k in 0..2 {
            let out = engine.tick(&mut backend, start.plus(k * 3));
            for b in &out.blames {
                if b.obs.loc == loc {
                    total_blames += 1;
                    if b.blame == Blame::Cloud {
                        cloud_blames += 1;
                    }
                }
            }
            if out
                .alerts
                .iter()
                .any(|a| a.blame == Blame::Cloud && a.loc == loc && a.confidence >= 0.8)
            {
                saw_cloud_alert = true;
            }
        }
        assert!(total_blames > 0, "the 120 ms fault must breach thresholds");
        assert!(
            cloud_blames as f64 / total_blames as f64 > 0.9,
            "{cloud_blames}/{total_blames} blamed on cloud"
        );
        assert!(saw_cloud_alert, "a high-confidence cloud alert must fire");
    }

    /// The priority stage alone, over more middle issues at one location
    /// than [`PROBE_BUDGET_PER_LOC`]: every issue is ranked, and the
    /// selection keeps the budget's worth per location, highest product
    /// first.
    #[test]
    fn engine_probe_budget_respected() {
        let engine = BlameItEngine::new(BlameItConfig::new(BadnessThresholds::uniform(50.0)));
        let per_loc = [
            (CloudLocId(0), PROBE_BUDGET_PER_LOC + 3),
            (CloudLocId(1), 2),
        ];
        let mut acc: DetHashMap<(CloudLocId, PathId), MiddleAcc> = DetHashMap::default();
        for (loc, n) in per_loc {
            for i in 0..n as u32 {
                let path = PathId(u32::from(loc.0) * 100 + i);
                let m = acc.entry((loc, path)).or_default();
                m.clients = 100 + u64::from(i);
                m.p24s.push(Prefix24::from_block(path.0));
                m.bucket = TimeBucket(600);
            }
        }
        let mut out = TickOutput::default();
        let selected = engine.rank_issues(acc, &mut out);
        assert_eq!(out.ranked_issues.len(), PROBE_BUDGET_PER_LOC + 5);
        for (loc, n) in per_loc {
            let kept: Vec<&PrioritizedIssue> =
                selected.iter().filter(|p| p.issue.loc == loc).collect();
            assert_eq!(kept.len(), n.min(PROBE_BUDGET_PER_LOC), "{loc}");
            let ranked = out.ranked_issues.iter().filter(|p| p.issue.loc == loc);
            assert!(
                kept.iter()
                    .zip(ranked)
                    .all(|(k, r)| k.issue.path == r.issue.path),
                "{loc}: the budget keeps the top of the ranking"
            );
        }
        assert_eq!(engine.metrics.probes_suppressed_budget.get(), 3);
    }

    #[test]
    fn background_probes_fire_and_build_baselines() {
        let (w, _) = scenario();
        let th = BadnessThresholds::default_for(&w);
        let mut engine = BlameItEngine::new(BlameItConfig::new(th));
        let mut backend = WorldBackend::new(&w);
        engine.warmup(
            &backend,
            TimeRange::new(SimTime::ZERO, SimTime::from_days(1)),
            4,
        );
        assert!(engine.state().baselines.is_empty());
        let out = engine.tick(&mut backend, SimTime::from_days(1).bucket());
        assert!(
            out.background_probes > 0,
            "first tick baselines every known path"
        );
        assert!(!engine.state().baselines.is_empty());
        // Immediately after, periodic probes are not due again.
        let out2 = engine.tick(&mut backend, SimTime::from_days(1).bucket().plus(3));
        assert!(
            out2.background_probes < out.background_probes / 2,
            "periodic probes must not re-fire within the period ({} then {})",
            out.background_probes,
            out2.background_probes
        );
    }

    #[test]
    fn run_covers_range_in_ticks() {
        let (w, _) = scenario();
        let th = BadnessThresholds::default_for(&w);
        let mut engine = BlameItEngine::new(BlameItConfig::new(th));
        let mut backend = WorldBackend::new(&w);
        let range = TimeRange::new(SimTime::from_days(1), SimTime::from_days(1) + 3 * 3600);
        let outs = engine.run(&mut backend, range);
        assert_eq!(outs.len(), 12, "3 h / 15 min = 12 ticks");
    }

    /// What a scripted traceroute does, with the wait (seconds) before a
    /// usable answer arrives.
    #[derive(Clone, Copy, Debug)]
    enum Answer {
        Lost,
        Late,
        Truncated(u64),
        Complete(u64),
    }

    /// A backend that only answers traceroutes, by script, logging when
    /// each was issued.
    struct ScriptedProbes {
        script: Vec<Answer>,
        timeout: u64,
        issued_at: std::sync::Mutex<Vec<SimTime>>,
    }

    impl Backend for ScriptedProbes {
        fn quartets_in(&self, _: TimeBucket) -> Vec<blameit_simnet::QuartetObs> {
            Vec::new()
        }
        fn route_info(&self, _: CloudLocId, _: Prefix24, _: SimTime) -> Option<RouteInfo> {
            None
        }
        fn traceroute(
            &self,
            loc: CloudLocId,
            p24: Prefix24,
            at: SimTime,
        ) -> Option<blameit_simnet::Traceroute> {
            let mut issued = self.issued_at.lock().unwrap();
            let answer = self.script[issued.len()];
            issued.push(at);
            let (wait, segment) = match answer {
                Answer::Lost => return None,
                Answer::Late => (self.timeout + 1, Segment::Client),
                Answer::Truncated(wait) => (wait, Segment::Middle),
                Answer::Complete(wait) => (wait, Segment::Client),
            };
            Some(blameit_simnet::Traceroute {
                loc,
                p24,
                at: at + wait,
                hops: vec![blameit_simnet::TracerouteHop {
                    asn: Asn(7),
                    metro: blameit_topology::MetroId(0),
                    rtt_ms: 30.0,
                    responded: true,
                    segment,
                }],
            })
        }
        fn churn_events(&self, _: TimeRange) -> Vec<blameit_topology::bgp::BgpChurnEvent> {
            Vec::new()
        }
        fn cloud_locations(&self) -> Vec<CloudLocId> {
            Vec::new()
        }
        fn probes_issued(&self) -> u64 {
            self.issued_at.lock().unwrap().len() as u64
        }
    }

    /// The active stage alone, over scripted probe answers: retries stay
    /// within [`PROBE_MAX_ATTEMPTS`], the deadline budget is never
    /// overspent, an issue the budget cannot cover is dropped unprobed
    /// with `DeadlineBudget`, and the kept evidence is the last usable
    /// answer — a later complete one overrides a truncated one.
    #[test]
    fn probe_stage_respects_attempts_budget_and_evidence_rules() {
        blameit_topology::testkit::check("pipeline::probe_stage", 128, |rng| {
            let mut cfg = BlameItConfig::new(BadnessThresholds::uniform(50.0));
            cfg.parallelism = 1;
            cfg.probe_deadline_budget_secs = rng.below(201);
            let (timeout, budget) = (PROBE_TIMEOUT_SECS, cfg.probe_deadline_budget_secs);
            let n_issues = 1 + rng.below(6) as usize;
            let script: Vec<Answer> = (0..n_issues * PROBE_MAX_ATTEMPTS as usize)
                .map(|_| match rng.below(4) {
                    0 => Answer::Lost,
                    1 => Answer::Late,
                    2 => Answer::Truncated(rng.below(timeout + 1)),
                    _ => Answer::Complete(rng.below(timeout + 1)),
                })
                .collect();
            let backend = ScriptedProbes {
                script,
                timeout,
                issued_at: Default::default(),
            };
            let selected: Vec<PrioritizedIssue> = (0..n_issues as u32)
                .map(|i| PrioritizedIssue {
                    issue: MiddleIssue {
                        loc: CloudLocId(0),
                        path: PathId(i),
                        middle_key: MiddleKey::Path(PathId(i)),
                        bucket: TimeBucket(600),
                        elapsed_buckets: 1,
                        current_clients: 100,
                        affected_p24s: vec![Prefix24::from_block(i)],
                    },
                    expected_remaining_buckets: 1.0,
                    predicted_clients: 100.0,
                    client_time_product: 100.0,
                })
                .collect();
            let mut engine = BlameItEngine::new(cfg.clone());
            let mut out = TickOutput::default();
            engine.localize_issues(&backend, selected, &mut out);

            let issued_at = backend.issued_at.lock().unwrap();
            assert_eq!(out.localizations.len(), n_issues);
            assert_eq!(out.on_demand_probes, issued_at.len() as u64);
            let (mut next, mut spent) = (0usize, 0u64);
            for l in &out.localizations {
                let probe = l.provenance.probe;
                assert!(l.attempts <= PROBE_MAX_ATTEMPTS);
                assert_eq!(probe.attempts, l.attempts);
                let dropped = LocalizationVerdict::MiddleUnlocalized {
                    reason: UnlocalizedReason::DeadlineBudget,
                };
                assert_eq!(probe.deadline_dropped, l.attempts == 0);
                assert_eq!(probe.deadline_dropped, l.verdict == dropped);
                // Replay this issue's share of the script.
                let mut kept: Option<(SimTime, bool)> = None;
                let mut lost = 0;
                for k in next..next + l.attempts as usize {
                    let cost = match backend.script[k] {
                        Answer::Lost | Answer::Late => {
                            lost += 1;
                            timeout
                        }
                        Answer::Truncated(wait) => {
                            kept = Some((issued_at[k] + wait, true));
                            wait
                        }
                        Answer::Complete(wait) => {
                            kept = Some((issued_at[k] + wait, false));
                            assert_eq!(k + 1, next + l.attempts as usize, "complete ends it");
                            wait
                        }
                    };
                    spent += cost;
                }
                next += l.attempts as usize;
                assert_eq!(probe.lost_attempts, lost);
                assert_eq!(
                    probe.truncated,
                    kept.is_some_and(|(_, truncated)| truncated)
                );
                if let Some((at, _)) = kept {
                    assert_eq!(l.probed_at, at, "evidence is the last usable answer");
                }
            }
            assert_eq!(next, issued_at.len());
            assert!(
                spent <= budget + timeout,
                "spent {spent}s of a {budget}s budget"
            );
        });
    }
}
