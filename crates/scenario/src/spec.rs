//! The typed scenario AST produced by [`crate::parse`].
//!
//! Every override is an `Option`: `None` means "leave the engine /
//! world default alone", so a scenario file only states what it
//! changes. Specs keep the source line of anything that can still fail
//! semantic validation (fault targets, crash ticks), so
//! [`crate::compile`] errors carry `file:line` positions too.

use blameit::{Blame, UnlocalizedReason};
use blameit_bench::Scale;
use blameit_simnet::CrashPoint;

/// A parsed, syntactically-valid scenario file (or, built in code with
/// `..Default::default()`, the equivalent of one).
#[derive(Clone, Debug, Default)]
pub struct ScenarioSpec {
    /// Scenario name (`[a-z0-9-]+`); the library file stem must match.
    pub name: String,
    /// One-line human description.
    pub summary: String,
    /// `[world]` — scale, seed, span, and model overrides.
    pub world: WorldSpec,
    /// `[workload]` — activity-model overrides.
    pub workload: WorkloadSpec,
    /// `[fault]` sections, in file order.
    pub faults: Vec<FaultSpec>,
    /// `[chaos]` — measurement-plane fault plan, if any.
    pub chaos: Option<ChaosSpec>,
    /// `[crash]` — process kill point, if any (runs the durable path).
    pub crash: Option<CrashSpec>,
    /// `[overload]` — ingest surge through the daemon's bounded-queue
    /// admission path, if any.
    pub overload: Option<OverloadSpec>,
    /// `[engine]` — `BlameItConfig` overrides.
    pub engine: EngineSpec,
    /// `[eval]` — the scored window.
    pub eval: EvalSpec,
    /// `[expect]` — verdict assertions, in file order.
    pub expect: Vec<Expectation>,
}

/// `[world]`: which world to build and how to bend its models.
#[derive(Clone, Debug)]
pub struct WorldSpec {
    /// Topology scale (default: tiny).
    pub scale: Scale,
    /// Master world seed (default: 20190519).
    pub seed: u64,
    /// Simulated days (default: 2).
    pub days: u64,
    /// Engine warmup days before the burn-in/eval window (default: 1).
    pub warmup_days: u64,
    /// Generate organic faults + churn (default: false = quiet world).
    pub organic: bool,
    /// BGP churn events per route per day.
    pub churn_per_day: Option<f64>,
    /// Evening-congestion scale, ms (`LatencyModel`).
    pub evening_congestion_ms: Option<f64>,
    /// Multiplicative per-sample noise σ (`LatencyModel`).
    pub noise_sigma: Option<f64>,
    /// Heavy-outlier probability (`LatencyModel`).
    pub spike_prob: Option<f64>,
    /// Day-long path-drift probability (`LatencyModel`).
    pub path_drift_prob: Option<f64>,
    /// Broadband access ISPs per metro (`TopologyConfig`).
    pub broadband_per_metro: Option<usize>,
    /// Cellular carriers per metro (`TopologyConfig`).
    pub mobile_per_metro: Option<usize>,
    /// Global tier-1 backbones (`TopologyConfig`).
    pub tier1_count: Option<usize>,
    /// Regional transit providers per region (`TopologyConfig`).
    pub transits_per_region: Option<usize>,
    /// Probability a /24 also talks to its second-nearest location.
    pub secondary_loc_prob: Option<f64>,
}

impl Default for WorldSpec {
    fn default() -> Self {
        WorldSpec {
            scale: Scale::Tiny,
            seed: 20190519,
            days: 2,
            warmup_days: 1,
            organic: false,
            churn_per_day: None,
            evening_congestion_ms: None,
            noise_sigma: None,
            spike_prob: None,
            path_drift_prob: None,
            broadband_per_metro: None,
            mobile_per_metro: None,
            tier1_count: None,
            transits_per_region: None,
            secondary_loc_prob: None,
        }
    }
}

/// `[workload]`: activity-model overrides (the flash-crowd knobs).
#[derive(Clone, Debug, Default)]
pub struct WorkloadSpec {
    /// Expected connections per active client per 5-min bucket at peak.
    pub conns_per_client_bucket: Option<f64>,
    /// Fraction of primary volume mirrored to the secondary location.
    pub secondary_volume_frac: Option<f64>,
}

/// One `[fault]` section: a scheduled ground-truth network fault.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// Raw target string: `cloud:<loc>`, `middle:<asn>`,
    /// `middle-reverse:<asn>`, or `client:<asn>`; resolved against the
    /// built topology in [`crate::compile`].
    pub target: String,
    /// Source line of the `target` key (for compile errors).
    pub target_line: u32,
    /// Fault onset, hours from sim start (decimals allowed).
    pub start_hour: f64,
    /// Fault duration, minutes.
    pub duration_mins: u64,
    /// Added round-trip milliseconds while active.
    pub added_ms: f64,
}

/// `[chaos]`: a measurement-plane [`blameit_simnet::FaultPlan`], built
/// from an optional named base plan plus individual rate overrides.
#[derive(Clone, Debug, Default)]
pub struct ChaosSpec {
    /// Base plan name: `none`, `mild`, `heavy`, `probe-storm`
    /// (default: none).
    pub plan: Option<String>,
    /// Chaos seed (default: 0xC4A05, the CLI's).
    pub seed: Option<u64>,
    /// Probability a traceroute times out entirely.
    pub probe_timeout: Option<f64>,
    /// Probability a traceroute comes back truncated.
    pub probe_truncate: Option<f64>,
    /// Probability a traceroute result is delayed.
    pub probe_slow: Option<f64>,
    /// Delay applied to slow probes, seconds.
    pub slow_by_secs: Option<u64>,
    /// Probability a whole quartet bucket is dropped.
    pub drop_quartet_batch: Option<f64>,
    /// Probability a route-table lookup misses.
    pub drop_route_info: Option<f64>,
    /// Probability a churn event is delivered twice.
    pub churn_duplicate: Option<f64>,
    /// Probability a churn event is delivered late.
    pub churn_delay: Option<f64>,
    /// Lateness applied to delayed churn events, seconds.
    pub churn_delay_secs: Option<u64>,
}

/// `[crash]`: kill the process at a persistence kill point, then
/// recover and resume; the composed transcript must equal an
/// uninterrupted run's.
#[derive(Clone, Debug)]
pub struct CrashSpec {
    /// 0-based tick index *within the eval window* the kill fires on.
    pub kill_tick: u64,
    /// Which kill point fires (see [`CrashPoint`] labels).
    pub kill_point: CrashPoint,
    /// Crash-plan seed.
    pub seed: u64,
    /// Source line of the `kill_tick` key (for compile errors).
    pub line: u32,
}

/// `[overload]`: replay the feed through `blameitd`'s decision core
/// ([`blameit_daemon::DaemonCore`]) with a seeded ingest surge, so the
/// bounded queue, backpressure, and impact-ordered shedding are
/// exercised and golden-pinned like any other scenario.
#[derive(Clone, Debug)]
pub struct OverloadSpec {
    /// Ingest multiplier inside the surge window (≥ 2).
    pub surge_mult: u32,
    /// Surge onset, hours from sim start (decimals allowed).
    pub surge_start_hour: f64,
    /// Surge length, minutes.
    pub surge_duration_mins: u64,
    /// Surge jitter seed (default 0xC4A0).
    pub surge_seed: u64,
    /// Hard queue bound, records (default: the daemon's).
    pub queue_cap_records: Option<usize>,
    /// Shedding watermark, records (default: the daemon's).
    pub shed_watermark_records: Option<usize>,
    /// Per-location fairness cap, records (default: the daemon's).
    pub per_loc_shed_cap: Option<usize>,
    /// Consecutive overloaded ticks before `overload-sustained` fires
    /// (default: the daemon's).
    pub sustained_ticks: Option<u32>,
    /// Offer attempts per bucket before the feeder abandons it
    /// (default 3).
    pub max_attempts: u32,
    /// Source line of the `[overload]` header (for compile errors).
    pub line: u32,
}

/// `[engine]`: `BlameItConfig` overrides.
#[derive(Clone, Debug, Default)]
pub struct EngineSpec {
    /// On-demand traceroutes per cloud location per tick.
    pub probe_budget_per_loc: Option<usize>,
    /// On-demand attempts per issue (first try + retries).
    pub probe_max_attempts: Option<u32>,
    /// Per-probe deadline, seconds.
    pub probe_timeout_secs: Option<u64>,
    /// Backoff base between on-demand attempts, seconds.
    pub probe_backoff_base_secs: Option<u64>,
    /// Per-tick probing time budget, seconds.
    pub probe_deadline_budget_secs: Option<u64>,
    /// Baseline quarantine age, seconds.
    pub baseline_max_age_secs: Option<u64>,
    /// Background probe period per (location, path), seconds.
    pub background_period_secs: Option<u64>,
    /// Issue background probes on IBGP churn events.
    pub churn_triggered: Option<bool>,
    /// Buckets per analysis tick.
    pub tick_buckets: Option<u32>,
    /// Maximum operator alerts per tick.
    pub max_alerts: Option<usize>,
    /// Ticks between snapshots (durable/crash runs).
    pub snapshot_every_ticks: Option<u32>,
    /// Degraded-verdict flight trigger threshold (0 disables).
    pub flight_degraded_spike: Option<u64>,
    /// Lost-probe-attempt flight trigger threshold (0 disables).
    pub flight_chaos_burst: Option<u64>,
}

/// `[eval]`: the scored window.
#[derive(Clone, Debug, Default)]
pub struct EvalSpec {
    /// Window start, hours from sim start (decimals allowed).
    pub start_hour: f64,
    /// Window length, minutes.
    pub duration_mins: u64,
}

/// One `[expect]` assertion, with its source line for failure
/// messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Expectation {
    /// Total passive blame verdicts over the window ≥ n.
    BlamesMin(u64),
    /// Total passive blame verdicts over the window ≤ n.
    BlamesMax(u64),
    /// Verdicts in one blame category ≥ n.
    BlameMin(Blame, u64),
    /// Verdicts in one blame category ≤ n.
    BlameMax(Blame, u64),
    /// Active-phase localizations attempted ≥ n.
    LocalizationsMin(u64),
    /// Active-phase localizations attempted ≤ n.
    LocalizationsMax(u64),
    /// This AS must appear among the named culprit ASes.
    CulpritAs(u32),
    /// Degraded verdicts with this reason ≥ n, in both the
    /// localization records and the engine's metrics, and the reason
    /// label must appear in the transcript (provenance surface).
    DegradedMin(UnlocalizedReason, u64),
    /// Degraded verdicts with this reason over the window ≤ n.
    DegradedMax(UnlocalizedReason, u64),
    /// Total degraded verdicts over the window ≤ n.
    DegradedTotalMax(u64),
    /// Operator alerts over the window ≥ n.
    AlertsMin(u64),
    /// Operator alerts over the window ≤ n.
    AlertsMax(u64),
    /// A flight-recorder trigger with this label must have fired.
    FlightTrigger(String),
    /// Records shed by the impact-ordered controller ≥ n
    /// (`[overload]` runs only).
    ShedMin(u64),
    /// Records shed by the impact-ordered controller ≤ n.
    ShedMax(u64),
    /// `SLOW_DOWN` backpressure replies ≥ n.
    BackpressureMin(u64),
    /// Peak queue depth after any admit ≤ n (the bounded-memory
    /// claim; compile rejects values above the queue cap).
    QueuePeakMax(u64),
    /// Of the records shed, at most n ranked in the top impact decile
    /// of their own offer (0 = the top decile was never touched).
    TopDecileShedMax(u64),
}
