//! The typed scenario AST produced by [`crate::parse`].
//!
//! The spec keeps typed what a run is shaped by — scale, seed, spans,
//! faults, the crash and surge plans, the scored window; the heads the
//! CLI's verbs fill from their flags — and carries every other key of
//! the file as an [`Override`] of the configuration it lands in
//! ([`crate::keys`]), so a scenario only states what it changes. Specs
//! keep the source line of anything that can still fail semantic
//! validation (fault targets, crash ticks), so [`crate::compile`]
//! errors carry `file:line` positions too.

use crate::keys::{Land, Override, Target};
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
    /// `[world]` — scale, seed and span.
    pub world: WorldSpec,
    /// `[fault]` sections, in file order.
    pub faults: Vec<FaultSpec>,
    /// `[chaos]` — measurement-plane fault plan, if any.
    pub chaos: Option<ChaosSpec>,
    /// `[crash]` — process kill point, if any (runs the durable path).
    pub crash: Option<CrashSpec>,
    /// `[overload]` — ingest surge through the daemon's bounded-queue
    /// admission path, if any.
    pub overload: Option<OverloadSpec>,
    /// `[eval]` — the scored window.
    pub eval: EvalSpec,
    /// Every `[world]`/`[workload]`/`[chaos]`/`[overload]`/`[engine]`
    /// key that lands in a configuration field, in file order.
    pub overrides: Vec<Override>,
    /// `[expect]` — verdict assertions, in file order.
    pub expect: Vec<Expectation>,
}

impl ScenarioSpec {
    /// Applies the file's overrides for `target`'s configuration, in
    /// file order (a repeated key: the last one stands).
    pub fn apply(&self, mut target: Target<'_>) {
        for o in &self.overrides {
            match (o.key.land, &mut target) {
                (Land::World(set), Target::World(cfg)) => set(cfg, &o.value),
                (Land::Engine(set), Target::Engine(cfg)) => set(cfg, &o.value),
                (Land::Chaos(set), Target::Chaos(plan)) => set(plan, &o.value),
                (Land::Daemon(set), Target::Daemon(cfg)) => set(cfg, &o.value),
                _ => {}
            }
        }
    }
}

/// `[world]`: which world to build. (The section's model overrides are
/// [`ScenarioSpec::overrides`].)
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
}

impl Default for WorldSpec {
    fn default() -> Self {
        WorldSpec {
            scale: Scale::Tiny,
            seed: 20190519,
            days: 2,
            warmup_days: 1,
            organic: false,
        }
    }
}

/// One `[fault]` section: a scheduled ground-truth network fault.
#[derive(Clone, Debug, Default)]
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

/// `[chaos]`: a measurement-plane [`blameit_simnet::FaultPlan`] — a
/// named base plan; the section's individual rates are
/// [`ScenarioSpec::overrides`] on top of it.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Base plan name: `none`, `mild`, `heavy`, `probe-storm`
    /// (default: none).
    pub plan: String,
    /// Chaos seed (default: 0xC4A05, the CLI's).
    pub seed: u64,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            plan: "none".to_string(),
            seed: 0xC4A05,
        }
    }
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
    /// Crash-plan seed (default 0xC4A5).
    pub seed: u64,
    /// Source line of the `[crash]` header (for compile errors).
    pub line: u32,
}

/// `[overload]`: replay the feed through `blameitd`'s decision core
/// ([`blameit_daemon::DaemonCore`]) with a seeded ingest surge, so the
/// bounded queue, backpressure, and impact-ordered shedding are
/// exercised and golden-pinned like any other scenario. (The queue and
/// shedding knobs are [`ScenarioSpec::overrides`] of the daemon's
/// configuration.)
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
    /// Offer attempts per bucket before the feeder abandons it
    /// (default 3).
    pub max_attempts: u32,
    /// Source line of the `[overload]` header (for compile errors).
    pub line: u32,
}

/// `[eval]`: the scored window.
#[derive(Clone, Debug, Default)]
pub struct EvalSpec {
    /// Window start, hours from sim start (decimals allowed).
    pub start_hour: f64,
    /// Window length, minutes.
    pub duration_mins: u64,
}

/// What a [`Expectation::Bound`] counts over the eval window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Quantity {
    /// Passive blame verdicts, all categories.
    Blames,
    /// Verdicts in one blame category.
    Blame(Blame),
    /// Active-phase localizations attempted.
    Localizations,
    /// Degraded verdicts with this reason. A floor on it is checked on
    /// three surfaces: the localization records, the engine's metrics,
    /// and the reason label in the transcript (provenance).
    Degraded(UnlocalizedReason),
    /// Degraded verdicts, all reasons (ceiling only).
    DegradedTotal,
    /// Operator alerts.
    Alerts,
    /// Records shed by the impact-ordered controller (`[overload]`
    /// runs only, like the three below).
    Shed,
    /// `SLOW_DOWN` backpressure replies (floor only).
    Backpressure,
    /// Peak queue depth after any admit (ceiling only: the
    /// bounded-memory claim).
    QueuePeak,
    /// Of the records shed, those that ranked in the top impact decile
    /// of their own offer (ceiling only; 0 = the top decile was never
    /// touched).
    TopDecileShed,
}

/// Which side of a [`Expectation::Bound`] the count must stay on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Limit {
    /// `…_min = n`: the count must be ≥ n.
    Floor,
    /// `…_max = n`: the count must be ≤ n.
    Ceiling,
}

/// One `[expect]` assertion.
#[derive(Clone, Debug, PartialEq)]
pub enum Expectation {
    /// A floor or ceiling on one count.
    Bound(Quantity, Limit, u64),
    /// This AS must appear among the named culprit ASes.
    CulpritAs(u32),
    /// A flight-recorder trigger with this label must have fired.
    FlightTrigger(String),
}
