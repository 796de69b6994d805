//! Compiles a parsed [`ScenarioSpec`] into runnable engine inputs.
//!
//! Compilation builds the world (topology + model overrides + the
//! scenario's hand-placed faults), derives the warmup / burn-in / eval
//! time ranges, and validates everything the parser could not check
//! syntactically: fault targets against the actual topology, the eval
//! window against the sim span, crash ticks against the eval length.
//! Errors keep `file:line` positions where the spec recorded them.

use crate::error::ScenarioError;
use crate::keys::Target;
use crate::spec::{Expectation, Quantity as Q, ScenarioSpec};
use blameit::{BadnessThresholds, BlameItConfig};
use blameit_bench::world_config;
use blameit_daemon::DaemonConfig;
use blameit_simnet::{
    Fault, FaultId, FaultPlan, FaultTarget, SimTime, SurgePlan, TimeBucket, TimeRange, World,
    BUCKET_SECS,
};
use blameit_topology::{Asn, CloudLocId};

/// A scenario ready to run: world built, windows derived, everything
/// validated.
#[derive(Debug)]
pub struct CompiledScenario {
    /// The source spec (expectations are evaluated from it).
    pub spec: ScenarioSpec,
    /// The world, with the scenario's faults merged in.
    pub world: World,
    /// Measurement-plane chaos plan, `None` when the scenario injects
    /// no chaos.
    pub plan: Option<FaultPlan>,
    /// Ingest surge plan, `Some` exactly when the spec has an
    /// `[overload]` section.
    pub surge: Option<SurgePlan>,
    /// History-learning warmup (no probes).
    pub warmup: TimeRange,
    /// Post-warmup burn-in, warmup end → eval start: the engine runs
    /// here (discarded) so background probes build middle baselines.
    pub burn_in: TimeRange,
    /// The scored window.
    pub eval: TimeRange,
    /// Whole engine ticks inside the eval window.
    pub eval_ticks: u32,
    /// Whole engine ticks inside the burn-in window.
    pub burn_in_ticks: u64,
}

/// Compiles `spec` (from `file`, for error positions) into a
/// [`CompiledScenario`].
pub fn compile(file: &str, spec: ScenarioSpec) -> Result<CompiledScenario, ScenarioError> {
    let w = &spec.world;
    if w.days == 0 || w.warmup_days == 0 || w.warmup_days >= w.days {
        return Err(ScenarioError::whole(
            file,
            format!(
                "[world] needs 1 ≤ warmup_days < days (got warmup_days = {}, days = {})",
                w.warmup_days, w.days
            ),
        ));
    }
    let sim_end = SimTime::from_days(w.days);
    let warmup_end = SimTime::from_days(w.warmup_days);

    let eval_start = hour_to_time(spec.eval.start_hour);
    let eval_end = eval_start + spec.eval.duration_mins * 60;
    if eval_start < warmup_end || eval_end > sim_end {
        return Err(ScenarioError::whole(
            file,
            format!(
                "[eval] window [{eval_start}, {eval_end}) must lie inside \
                 [warmup end {warmup_end}, sim end {sim_end})"
            ),
        ));
    }
    let eval = TimeRange::new(eval_start, eval_end);

    // The tick width the engine will run with (thresholds play no part in it).
    let tick_buckets = BlameItConfig::new(BadnessThresholds::uniform(0.0)).tick_buckets;
    let eval_ticks = eval.num_buckets() / tick_buckets;
    if eval_ticks == 0 {
        return Err(ScenarioError::whole(
            file,
            format!(
                "[eval] window holds {} bucket(s) — too short for even one {}-bucket tick",
                eval.num_buckets(),
                tick_buckets
            ),
        ));
    }

    let surge = compile_surge(file, &spec, warmup_end, eval, tick_buckets)?;
    for e in &spec.expect {
        // The ingest counts exist only on a run through the daemon.
        let needs_overload = matches!(
            e,
            Expectation::Bound(
                Q::Shed | Q::Backpressure | Q::QueuePeak | Q::TopDecileShed,
                ..
            )
        );
        if needs_overload && spec.overload.is_none() {
            return Err(ScenarioError::whole(
                file,
                format!("[expect] {e:?} needs an [overload] section"),
            ));
        }
    }

    if let Some(crash) = &spec.crash {
        if spec.chaos.is_some() {
            return Err(ScenarioError::at(
                file,
                crash.line,
                "[crash] does not combine with [chaos] (mirrors the CLI: durable runs \
                 don't take a fault plan)",
            ));
        }
        if crash.kill_tick >= u64::from(eval_ticks) {
            return Err(ScenarioError::at(
                file,
                crash.line,
                format!(
                    "kill_tick {} is outside the eval window ({} tick(s))",
                    crash.kill_tick, eval_ticks
                ),
            ));
        }
    }

    let world = build_world(file, &spec, sim_end)?;

    // ── chaos plan ──────────────────────────────────────────────────
    let plan = match &spec.chaos {
        None => None,
        Some(c) => {
            // A file's plan name was validated by the parser; a CLI
            // flag's is not.
            let mut plan =
                FaultPlan::parse(&c.plan, c.seed).map_err(|e| ScenarioError::whole(file, e))?;
            spec.apply(Target::Chaos(&mut plan));
            (!plan.is_noop()).then_some(plan)
        }
    };

    let burn_in = TimeRange::new(warmup_end, eval_start);
    let burn_in_ticks = (burn_in.num_buckets() / tick_buckets) as u64;
    Ok(CompiledScenario {
        warmup: TimeRange::days(w.warmup_days),
        burn_in,
        eval,
        eval_ticks,
        burn_in_ticks,
        world,
        plan,
        surge,
        spec,
    })
}

/// Validates `[overload]` against the windows and turns it into the
/// feed's surge plan; `None` without the section.
fn compile_surge(
    file: &str,
    spec: &ScenarioSpec,
    warmup_end: SimTime,
    eval: TimeRange,
    tick_buckets: u32,
) -> Result<Option<SurgePlan>, ScenarioError> {
    let Some(o) = &spec.overload else {
        return Ok(None);
    };
    let eval_end = eval.end;
    if spec.crash.is_some() {
        return Err(ScenarioError::at(
            file,
            o.line,
            "[overload] does not combine with [crash] (the overload runner already \
             drives the durable path; crash coverage lives in the daemon test suite)",
        ));
    }
    if spec.chaos.is_some() {
        return Err(ScenarioError::at(
            file,
            o.line,
            "[overload] does not combine with [chaos] (the daemon feed replaces the \
             measurement-plane backend)",
        ));
    }
    let start = hour_to_time(o.surge_start_hour);
    let end = start + o.surge_duration_mins * 60;
    if start < warmup_end || end > eval_end {
        return Err(ScenarioError::at(
            file,
            o.line,
            format!(
                "surge window [{start}, {end}) must lie inside the fed range \
                 [warmup end {warmup_end}, eval end {eval_end})"
            ),
        ));
    }
    if end.bucket().0 <= start.bucket().0 {
        return Err(ScenarioError::at(
            file,
            o.line,
            "surge_duration_mins is shorter than one 5-minute bucket",
        ));
    }
    let burn_in_buckets = TimeRange::new(warmup_end, eval.start).num_buckets();
    if !burn_in_buckets.is_multiple_of(tick_buckets) {
        return Err(ScenarioError::at(
            file,
            o.line,
            format!(
                "[overload] needs the burn-in ({burn_in_buckets} bucket(s)) to be whole \
                 {tick_buckets}-bucket ticks, so the daemon's continuous tick grid lands \
                 on the eval boundary"
            ),
        ));
    }
    let mut daemon = DaemonConfig::default();
    spec.apply(Target::Daemon(&mut daemon));
    let (w, c) = (
        daemon.admission.shed_watermark_records,
        daemon.admission.queue_cap_records,
    );
    if w > c {
        return Err(ScenarioError::at(
            file,
            o.line,
            format!("the shedding watermark ({w} records) must not exceed the queue cap ({c})"),
        ));
    }
    Ok(Some(SurgePlan::single(
        start.bucket(),
        TimeBucket(end.bucket().0 - 1),
        o.surge_mult,
        o.surge_seed,
    )))
}

/// Builds the world `[world]`/`[workload]` describe and merges the
/// scripted `[[fault]]`s into its schedule.
fn build_world(file: &str, spec: &ScenarioSpec, sim_end: SimTime) -> Result<World, ScenarioError> {
    let w = &spec.world;
    let mut cfg = world_config(w.scale, w.days, w.seed, !w.organic);
    spec.apply(Target::World(&mut cfg));
    let mut world = World::new(cfg);

    // Resolve and merge faults.
    let mut faults = Vec::with_capacity(spec.faults.len());
    for f in &spec.faults {
        let start = hour_to_time(f.start_hour);
        if start >= sim_end {
            return Err(ScenarioError::at(
                file,
                f.target_line,
                format!("fault starts at {start}, after the sim ends ({sim_end})"),
            ));
        }
        faults.push(Fault {
            id: FaultId(0),
            target: resolve_target(file, &world, &f.target, f.target_line)?,
            start,
            duration_secs: f.duration_mins * 60,
            added_ms: f.added_ms,
        });
    }
    if !faults.is_empty() {
        world.add_faults(faults);
    }
    Ok(world)
}

impl CompiledScenario {
    /// The engine configuration: paper defaults for this world, the
    /// scenario's `[engine]` overrides, then the runner's thread count
    /// (`0` keeps the ambient default).
    pub fn engine_config(&self, threads: usize) -> BlameItConfig {
        let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(&self.world));
        if threads > 0 {
            cfg.parallelism = threads;
        }
        self.spec.apply(Target::Engine(&mut cfg));
        cfg
    }
}

/// Converts a fractional hour to a bucket-aligned instant (rounded down
/// to the 5-minute grid, so windows always start on bucket boundaries).
fn hour_to_time(hours: f64) -> SimTime {
    let secs = (hours * 3_600.0).round() as u64;
    SimTime(secs / BUCKET_SECS * BUCKET_SECS)
}

/// Parses and resolves `cloud:<loc>` / `middle:<asn>` /
/// `middle-reverse:<asn>` / `client:<asn>` against the built topology.
fn resolve_target(
    file: &str,
    world: &World,
    s: &str,
    line: u32,
) -> Result<FaultTarget, ScenarioError> {
    let bad = |msg: String| ScenarioError::at(file, line, msg);
    let Some((kind, id_s)) = s.split_once(':') else {
        return Err(bad(format!(
            "target {s:?} must be kind:id — cloud:<loc>, middle:<asn>, \
             middle-reverse:<asn>, or client:<asn>"
        )));
    };
    let id: u32 = id_s
        .parse()
        .map_err(|_| bad(format!("bad target id {id_s:?}")))?;
    let topo = world.topology();
    match kind {
        "cloud" => match u16::try_from(id) {
            Ok(loc) if usize::from(loc) < topo.cloud_locations.len() => {
                Ok(FaultTarget::CloudLocation(CloudLocId(loc)))
            }
            _ => Err(bad(format!(
                "no cloud location {id} (this world has {})",
                topo.cloud_locations.len()
            ))),
        },
        "middle" | "middle-reverse" => {
            let ok = topo
                .as_info(Asn(id))
                .is_some_and(|info| info.role.is_middle());
            if !ok {
                return Err(bad(format!(
                    "AS{id} is not a middle AS in this world; traversed middle ASes: {}",
                    traversed_middle_ases(world)
                )));
            }
            if kind == "middle" {
                Ok(FaultTarget::MiddleAs {
                    asn: Asn(id),
                    via_path: None,
                })
            } else {
                Ok(FaultTarget::MiddleAsReverse { asn: Asn(id) })
            }
        }
        "client" => {
            let ok = topo
                .as_info(Asn(id))
                .is_some_and(|info| info.role.is_access());
            if !ok {
                return Err(bad(format!("AS{id} is not an access ISP in this world")));
            }
            Ok(FaultTarget::ClientAs(Asn(id)))
        }
        other => Err(bad(format!(
            "unknown target kind {other:?}; expected cloud|middle|middle-reverse|client"
        ))),
    }
}

/// Middle ASes actually traversed by some client's primary route, as a
/// capped display list for target-resolution errors.
fn traversed_middle_ases(world: &World) -> String {
    let topo = world.topology();
    let mut ases: Vec<u32> = Vec::new();
    for c in &topo.clients {
        let route = &topo.routes_for(c.primary_loc, c).options[0];
        ases.extend(topo.paths.get(route.path_id).middle.iter().map(|a| a.0));
    }
    ases.sort_unstable();
    ases.dedup();
    let shown: Vec<String> = ases.iter().take(16).map(|a| format!("AS{a}")).collect();
    let suffix = if ases.len() > 16 { ", …" } else { "" };
    format!("{}{suffix}", shown.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_scenario;

    fn compiled(text: &str) -> Result<CompiledScenario, ScenarioError> {
        compile("mem.scn", parse_scenario("mem.scn", text)?)
    }

    const BASE: &str = "\
name = c
[world]
scale = tiny
days = 2
[eval]
start_hour = 24
duration_mins = 60
";

    #[test]
    fn windows_derived_and_aligned() {
        let c = compiled(BASE).unwrap();
        assert_eq!(c.warmup, TimeRange::days(1));
        assert_eq!(c.burn_in.secs(), 0);
        assert_eq!(c.eval.num_buckets(), 12);
        assert_eq!(c.eval_ticks, 4);
        assert!(c.plan.is_none());
        // Fractional hours land on the bucket grid (rounded down).
        assert_eq!(hour_to_time(24.1), SimTime(24 * 3_600 + 300));
        assert_eq!(hour_to_time(24.07), SimTime(24 * 3_600));
    }

    #[test]
    fn eval_outside_span_rejected() {
        let bad = BASE.replace("start_hour = 24", "start_hour = 47.9");
        let err = compiled(&bad).unwrap_err();
        assert!(err.to_string().contains("must lie inside"), "{err}");
        let early = BASE.replace("start_hour = 24", "start_hour = 3");
        assert!(compiled(&early).is_err());
    }

    #[test]
    fn fault_target_resolution_and_errors() {
        let with_fault = format!(
            "{BASE}[fault]\ntarget = middle:99999\nstart_hour = 24\nduration_mins = 30\nadded_ms = 80\n"
        );
        let err = compiled(&with_fault).unwrap_err();
        let msg = err.to_string();
        assert_eq!(err.line, 9, "{msg}");
        assert!(msg.contains("not a middle AS"), "{msg}");
        assert!(msg.contains("traversed middle ASes: AS"), "{msg}");
        // A real middle AS named in the message compiles.
        let asn: u32 = msg
            .split("ASes: AS")
            .nth(1)
            .unwrap()
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap();
        let good = with_fault.replace("middle:99999", &format!("middle:{asn}"));
        let c = compiled(&good).unwrap();
        assert_eq!(c.world.faults().len(), 1);
        let rev = with_fault.replace("middle:99999", &format!("middle-reverse:{asn}"));
        assert!(matches!(
            compiled(&rev).unwrap().world.faults().faults()[0].target,
            FaultTarget::MiddleAsReverse { .. }
        ));
    }

    #[test]
    fn crash_tick_bounds_and_chaos_exclusion() {
        let crash = format!("{BASE}[crash]\nkill_tick = 4\nkill_point = post-journal\n");
        let err = compiled(&crash).unwrap_err();
        assert!(err.to_string().contains("outside the eval window"), "{err}");
        let ok = crash.replace("kill_tick = 4", "kill_tick = 1");
        assert!(compiled(&ok).is_ok());
        let both = format!("{ok}[chaos]\nprobe_timeout = 0.5\n");
        assert!(compiled(&both)
            .unwrap_err()
            .to_string()
            .contains("does not combine"));
    }

    #[test]
    fn overload_window_and_exclusions_validated() {
        let ovl = "[overload]\nsurge_mult = 8\nsurge_start_hour = 24\nsurge_duration_mins = 30\n";
        let c = compiled(&format!("{BASE}{ovl}")).unwrap();
        let surge = c.surge.expect("surge compiled");
        assert_eq!(surge.multiplier_at(blameit_simnet::TimeBucket(24 * 12)), 8);
        assert_eq!(
            surge.multiplier_at(blameit_simnet::TimeBucket(24 * 12 + 6)),
            1,
            "window is [start, start + 30min)"
        );

        let early = format!(
            "{BASE}[overload]\nsurge_mult = 8\nsurge_start_hour = 3\nsurge_duration_mins = 30\n"
        );
        let err = compiled(&early).unwrap_err();
        assert!(err.to_string().contains("must lie inside"), "{err}");

        let with_crash = format!("{BASE}[crash]\nkill_tick = 1\nkill_point = post-journal\n{ovl}");
        assert!(compiled(&with_crash)
            .unwrap_err()
            .to_string()
            .contains("does not combine with [crash]"));

        let inverted = format!(
            "{BASE}[overload]\nsurge_mult = 8\nsurge_start_hour = 24\nsurge_duration_mins = 30\n\
             queue_cap_records = 100\nshed_watermark_records = 200\n"
        );
        assert!(compiled(&inverted)
            .unwrap_err()
            .to_string()
            .contains("must not exceed"));

        let orphan = format!("{BASE}[expect]\nshed_min = 1\n");
        assert!(compiled(&orphan)
            .unwrap_err()
            .to_string()
            .contains("needs an [overload] section"));
    }

    #[test]
    fn chaos_plan_composed_from_base_and_overrides() {
        let text = format!("{BASE}[chaos]\nplan = probe-storm\nprobe_timeout = 0.9\nseed = 7\n");
        let plan = compiled(&text).unwrap().plan.unwrap();
        assert_eq!(plan.probe_timeout, 0.9, "override wins over the base plan");
        assert_eq!(plan.probe_truncate, 0.25, "base plan survives elsewhere");
        assert_eq!(plan.seed, 7);
        // An all-zero chaos section compiles to no plan at all.
        let noop = format!("{BASE}[chaos]\nplan = none\n");
        assert!(compiled(&noop).unwrap().plan.is_none());
    }

    #[test]
    fn engine_overrides_apply() {
        let text = format!(
            "{BASE}[engine]\nprobe_deadline_budget_secs = 0\nbackground_period_secs = 3600\n\
             flight_degraded_spike = 2\n"
        );
        let c = compiled(&text).unwrap();
        let cfg = c.engine_config(4);
        assert_eq!(cfg.probe_deadline_budget_secs, 0);
        assert_eq!(cfg.background_period_secs, 3600);
        assert_eq!(cfg.flight_degraded_spike, 2);
        assert_eq!(cfg.parallelism, 4);
        assert_eq!(c.eval_ticks, 4, "60 minutes of 15-minute ticks");
    }

    #[test]
    fn world_and_workload_overrides_reach_the_config() {
        let text = format!(
            "{BASE}[workload]\nconns_per_client_bucket = 2.5\n\
             # churn override on an otherwise quiet world\n"
        );
        let c = compiled(&text).unwrap();
        assert_eq!(c.world.config().activity.conns_per_client_bucket, 2.5);
        assert_eq!(c.world.config().churn_rate_per_day, 0.0, "quiet default");
        let organic = text.replace("scale = tiny\n", "scale = tiny\nchurn_per_day = 1.5\n");
        assert_eq!(
            compiled(&organic)
                .unwrap()
                .world
                .config()
                .churn_rate_per_day,
            1.5
        );
    }
}
