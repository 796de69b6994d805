//! The engine-running verbs: `analyze`, `inject`, `explain`,
//! `flight dump`, `metrics`, `trace`.
//!
//! Each one is *flags → [`ScenarioSpec`] → [`compile`] → the scenario
//! crate's three-window driver ([`run_windows`]) → render*. There is no
//! engine loop in this file: the verbs are built-in scenarios, and what
//! differs between them is only which spec their flags describe
//! ([`spec_for`]) and what they print from the returned
//! [`blameit_scenario::EngineRun`]. `trace` alone warms its own engine,
//! because only its eval ticks may run under the span subscriber.

use super::{err, CliError};
use blameit::{
    render_blame_explain, render_localization_explain, tally, BlameItEngine, BlameResult,
    TickOutput, UnlocalizedReason, WorldBackend,
};
use blameit_bench::{Args, Scale};
use blameit_scenario::{
    compile, run_windows, ChaosSpec, CompiledScenario, EvalSpec, FaultSpec, ScenarioSpec, WorldSpec,
};
use blameit_topology::{CloudLocId, Prefix24};
use std::fmt::Write as _;

/// `--threads` (`0` keeps the default: available cores or
/// `BLAMEIT_THREADS`).
pub(super) fn threads(args: &Args) -> usize {
    args.u64("threads", 0) as usize
}

/// The spec `verb`'s flags describe. All engine verbs share one flag
/// set (`--scale --seed --fault-plan --fault-seed`, plus the window
/// flags of their run shape):
///
/// - with `--target` (`inject` always, `explain` optionally) the
///   *incident* shape: a quiet world with one fault at `--at-hour` for
///   `--hours`; warm-up on day 0, burn-in from day 1 to the fault start
///   (so background probes build the baselines a culprit diff needs),
///   eval over the fault window;
/// - otherwise the *organic* shape: generated faults and churn over
///   `--days`, warm-up `[0, --warmup)`, no burn-in, eval to the end.
pub(super) fn spec_for(verb: &str, args: &Args) -> Result<ScenarioSpec, CliError> {
    let incident = matches!(verb, "inject" | "explain")
        .then(|| args.get("target"))
        .flatten();
    if verb == "inject" && incident.is_none() {
        return Err(err(
            "inject requires --target cloud:<loc>|middle:<asn>|client:<asn>",
        ));
    }
    let (days, warmup_days, faults, eval) = match incident {
        Some(target) => {
            let (at_hour, hours) = (args.u64("at-hour", 26), args.u64("hours", 3));
            let fault = FaultSpec {
                target: target.to_string(),
                target_line: 0,
                start_hour: at_hour as f64,
                duration_mins: hours * 60,
                added_ms: args.f64("ms", 80.0),
            };
            ((at_hour + hours) / 24 + 2, 1, vec![fault], (at_hour, hours))
        }
        None => {
            // `trace` sizes its world from the warm-up; the rest from
            // `--days`.
            let (days, warmup) = if verb == "trace" {
                let warmup = args.u64("warmup", 1).max(1);
                (warmup + 1, warmup)
            } else {
                let days = args.u64("days", 2).max(2);
                (days, args.u64("warmup", 1).min(days - 1))
            };
            (days, warmup, vec![], (warmup * 24, (days - warmup) * 24))
        }
    };
    // Tiny by default for `trace`: the tree prints one line per span,
    // and a small world's first post-warmup tick issues hundreds of
    // background traceroutes (one span each).
    let default_scale = if verb == "trace" {
        Scale::Tiny
    } else {
        Scale::Small
    };
    Ok(ScenarioSpec {
        name: verb.to_string(),
        world: WorldSpec {
            scale: args.scale(default_scale),
            seed: args.u64("seed", 2019),
            days,
            warmup_days,
            organic: incident.is_none(),
        },
        faults,
        chaos: args.get("fault-plan").map(|name| ChaosSpec {
            plan: name.to_string(),
            seed: args.u64("fault-seed", 0xC4A05),
        }),
        eval: EvalSpec {
            start_hour: eval.0 as f64,
            duration_mins: eval.1 * 60,
        },
        ..ScenarioSpec::default()
    })
}

/// [`spec_for`] + [`compile`]. Compile's positioned error is surfaced
/// as is; an eval window that starts inside the warm-up additionally
/// names the earliest `--at-hour` that would compile.
pub(super) fn compiled(verb: &str, args: &Args) -> Result<CompiledScenario, CliError> {
    let spec = spec_for(verb, args)?;
    let earliest = spec.world.warmup_days * 24;
    let early = spec.eval.start_hour < earliest as f64;
    compile(verb, spec).map_err(|e| {
        if early {
            err(format!("{e} — the earliest legal --at-hour is {earliest}"))
        } else {
            err(e.to_string())
        }
    })
}

/// Renders per-tick alerts (operator tickets first, then plain lines
/// capped at 40) and returns the collected blames for the window
/// tally. Shared by the in-memory and durable analyze paths so a
/// durable run prints byte-identical alert output.
pub(super) fn render_alerts(
    ticks: impl IntoIterator<Item = TickOutput>,
    tickets: u64,
    out: &mut String,
) -> Vec<BlameResult> {
    let mut blames = Vec::new();
    let mut alerts_shown = 0;
    let mut tickets_shown = 0u64;
    for tick in ticks {
        for a in &tick.alerts {
            if tickets_shown < tickets {
                let localization = tick
                    .localizations
                    .iter()
                    .find(|l| Some(l.issue.issue.path) == a.path && l.issue.issue.loc == a.loc);
                out.push_str(&blameit::report::render_ticket(a, localization));
                out.push('\n');
                tickets_shown += 1;
                continue;
            }
            if alerts_shown < 40 {
                writeln!(
                    out,
                    "  [{}] {:>7}  loc={} path={} client_as={} culprit={} ({} conns, {} /24s, {:.0}%)",
                    a.bucket,
                    a.blame.to_string(),
                    a.loc,
                    a.path.map(|p| p.to_string()).unwrap_or_else(|| "-".into()),
                    a.client_as.map(|x| x.to_string()).unwrap_or_else(|| "-".into()),
                    a.culprit.map(|x| x.to_string()).unwrap_or_else(|| "-".into()),
                    a.impacted_connections,
                    a.impacted_p24s,
                    100.0 * a.confidence,
                )
                .unwrap();
                alerts_shown += 1;
            }
        }
        blames.extend(tick.blames);
    }
    blames
}

/// The trailing summary lines shared by every analyze-style run;
/// `degraded` counts the eval window's degraded verdicts per reason
/// ([`UnlocalizedReason::ALL`] order).
pub(super) fn render_run_summary(
    blames: &[BlameResult],
    engine: &BlameItEngine,
    degraded: [u64; 6],
    out: &mut String,
) {
    let t = tally(blames);
    writeln!(out, "\nblame fractions over the window: {t}").unwrap();
    writeln!(
        out,
        "probes: {} background + {} on-demand",
        engine.state().background_probes_total,
        engine.state().on_demand_probes_total
    )
    .unwrap();
    // Degraded-verdict breakdown: why middle localizations fell back
    // to `MiddleUnlocalized`, by reason (zero reasons elided).
    let total: u64 = degraded.iter().sum();
    if total > 0 {
        let parts: Vec<String> = UnlocalizedReason::ALL
            .iter()
            .zip(degraded)
            .filter(|(_, n)| *n > 0)
            .map(|(r, n)| format!("{r} {n}"))
            .collect();
        writeln!(out, "degraded verdicts: {total} ({})", parts.join(", ")).unwrap();
    }
}

/// Runs `scn` and renders alerts, the window summary and — when a
/// `--fault-plan` was given, even the no-op `none` — what the chaos
/// layer injected and the engine absorbed.
fn render_run(scn: &CompiledScenario, args: &Args, tickets: u64, out: &mut String) {
    let run = run_windows(scn, threads(args));
    let blames = render_alerts(run.ticks, tickets, out);
    render_run_summary(&blames, &run.engine, run.degraded_metrics, out);
    if scn.spec.chaos.is_none() {
        return;
    }
    let s = run.chaos.unwrap_or_default();
    let m = run.engine.metrics();
    writeln!(
        out,
        "chaos: {} faults injected (probe timeouts {}, truncated {}, delayed {}, \
         quartet batches dropped {}, route lookups dropped {}, churn duplicated {}, \
         churn delayed {})",
        s.total(),
        s.probe_timeouts,
        s.probes_truncated,
        s.probes_delayed,
        s.quartet_batches_dropped,
        s.route_infos_dropped,
        s.churn_duplicated,
        s.churn_delayed,
    )
    .unwrap();
    writeln!(
        out,
        "chaos: absorbed with {} probe retries, {} lost attempts, {} degraded verdicts, \
         {} baseline quarantines, {} background retries",
        m.probe_retries.get(),
        m.probe_attempts_lost.get(),
        m.degraded_total(),
        m.baseline_quarantines.get(),
        m.background_retries.get(),
    )
    .unwrap();
}

pub(super) fn cmd_analyze(args: &Args) -> Result<String, CliError> {
    if let Some(dir) = args.get("state-dir") {
        return super::state::cmd_analyze_durable(args, dir);
    }
    let scn = compiled("analyze", args)?;
    let mut out = String::new();
    writeln!(out, "alerts (top per 15-min tick, first 40):").unwrap();
    render_run(&scn, args, args.u64("tickets", 0), &mut out);
    Ok(out)
}

pub(super) fn cmd_inject(args: &Args) -> Result<String, CliError> {
    let scn = compiled("inject", args)?;
    let fault = &scn.world.faults().faults()[0];
    let mut out = String::new();
    writeln!(
        out,
        "injected +{:.0} ms {} fault ({}) at hour {} for {} h\n",
        fault.added_ms,
        fault.target.segment(),
        scn.spec.faults[0].target,
        fault.start.secs() / 3_600,
        fault.duration_secs / 3_600,
    )
    .unwrap();
    writeln!(out, "alerts during the incident:").unwrap();
    render_run(&scn, args, args.u64("tickets", 1), &mut out);
    Ok(out)
}

/// What `blameit explain <selector>` should explain.
enum ExplainSelector {
    /// One quartet's Algorithm-1 verdict(s): `quartet:<loc>/<p24>`.
    Quartet { loc: CloudLocId, p24: Prefix24 },
    /// Middle localizations observed from one location: `incident:<loc>`.
    Incident { loc: CloudLocId },
}

fn parse_selector(s: &str) -> Result<ExplainSelector, CliError> {
    let usage = "selector must be quartet:<loc>/<p24> (e.g. quartet:0/10.80.0.0/24) \
                 or incident:<loc> (e.g. incident:0)";
    let (kind, rest) = s.split_once(':').ok_or_else(|| err(usage))?;
    match kind {
        "quartet" => {
            let (loc_s, p24_s) = rest.split_once('/').ok_or_else(|| err(usage))?;
            let loc = loc_s
                .parse()
                .map_err(|_| err(format!("bad cloud location {loc_s:?}")))?;
            let p24 = p24_s
                .parse()
                .map_err(|e| err(format!("bad /24 {p24_s:?}: {e}")))?;
            Ok(ExplainSelector::Quartet {
                loc: CloudLocId(loc),
                p24,
            })
        }
        "incident" => {
            let loc = rest
                .parse()
                .map_err(|_| err(format!("bad cloud location {rest:?}")))?;
            Ok(ExplainSelector::Incident {
                loc: CloudLocId(loc),
            })
        }
        other => Err(err(format!("unknown selector kind {other:?}; {usage}"))),
    }
}

/// `explain <selector>`: render the provenance chain behind verdicts
/// matching the selector as a tree. With `--target` it explains that
/// `inject` scenario, otherwise an `analyze`-style organic run.
pub(super) fn cmd_explain(rest: &[String]) -> Result<String, CliError> {
    let Some((selector, flags)) = rest.split_first() else {
        return Err(err(
            "explain requires a selector: blameit explain quartet:<loc>/<p24> | incident:<loc>",
        ));
    };
    let sel = parse_selector(selector)?;
    let args = Args::parse_from(flags.iter().cloned());
    let limit = args.u64("limit", 3).max(1) as usize;
    let ticks = run_windows(&compiled("explain", &args)?, threads(&args)).ticks;
    // (what is matched, where, hint when nothing did, one tree per match)
    let (noun, at, hint, trees): (&str, String, &str, Vec<String>) = match sel {
        ExplainSelector::Quartet { loc, p24 } => (
            "verdict",
            format!("for quartet loc={loc} p24={p24}"),
            "try `blameit topo` / `blameit routes` for valid ids",
            ticks
                .iter()
                .flat_map(|t| t.blames.iter())
                .filter(|b| b.obs.loc == loc && b.obs.p24 == p24)
                .map(render_blame_explain)
                .collect(),
        ),
        ExplainSelector::Incident { loc } => (
            "middle localization",
            format!("at loc={loc}"),
            "middle incidents need a middle-segment fault; try \
             `blameit explain incident:<loc> --target middle:<asn> ...`",
            ticks
                .iter()
                .flat_map(|t| t.localizations.iter())
                .filter(|l| l.issue.issue.loc == loc)
                .map(render_localization_explain)
                .collect(),
        ),
    };
    if trees.is_empty() {
        return Err(err(format!("no {noun}s {at} in this scenario ({hint})")));
    }
    let shown = trees.len().min(limit);
    let mut out = format!("{} {noun}(s) {at}; showing {shown}:\n", trees.len());
    for tree in &trees[..shown] {
        out.push('\n');
        out.push_str(tree);
    }
    Ok(out)
}

/// `flight dump [--out FILE]`: run the engine over the scenario and
/// dump the flight-recorder ring (trigger log + recent tick frames)
/// as JSONL.
pub(super) fn cmd_flight(rest: &[String]) -> Result<String, CliError> {
    let Some((sub, flags)) = rest.split_first() else {
        return Err(err("flight requires a subcommand: blameit flight dump"));
    };
    if sub != "dump" {
        return Err(err(format!(
            "unknown flight subcommand {sub:?}; try `blameit flight dump`"
        )));
    }
    let args = Args::parse_from(flags.iter().cloned());
    let scn = compiled("flight", &args)?;
    let engine = run_windows(&scn, threads(&args)).engine;
    let dump = engine.flight_dump_manual(scn.eval.end.secs(), "cli flight dump");
    if let Some(path) = args.get("out") {
        std::fs::write(path, &dump).map_err(|e| err(format!("write {path}: {e}")))?;
        Ok(format!("wrote {} byte(s) to {path}\n", dump.len()))
    } else {
        Ok(dump)
    }
}

pub(super) fn cmd_metrics(args: &Args) -> Result<String, CliError> {
    let engine = run_windows(&compiled("metrics", args)?, threads(args)).engine;
    let registry = engine.metrics().registry();
    let filter = args.get("filter").unwrap_or("");
    if args.get("json").is_some() {
        Ok(format!("{}\n", registry.render_json_filtered(filter)))
    } else {
        Ok(registry.render_prometheus_filtered(filter))
    }
}

pub(super) fn cmd_trace(args: &Args) -> Result<String, CliError> {
    let scn = compiled("trace", args)?;
    let ticks: u32 = args.int("ticks", 1).max(1);
    // Default to one thread: worker spans open at thread-local depth 0,
    // so a multi-threaded tick would flatten the rendered tree.
    let cfg = scn.engine_config(args.u64("threads", 1).max(1) as usize);
    let mut backend = WorldBackend::with_parallelism(&scn.world, cfg.parallelism);
    let mut engine = BlameItEngine::new(cfg);
    engine.warmup(&backend, scn.warmup, 2);

    let per_tick = engine.config().tick_buckets;
    let first = scn.eval.start.bucket();
    let ring = blameit_obs::RingCollector::new(args.u64("events", 65_536) as usize);
    blameit_obs::with_subscriber(ring.clone(), || {
        for k in 0..ticks {
            engine.tick(&mut backend, first.plus(k * per_tick));
        }
    });

    let mut out = String::new();
    writeln!(
        out,
        "span tree: {ticks} tick(s) from {first} (seed {}, durations are wall time)\n",
        scn.spec.world.seed
    )
    .unwrap();
    out.push_str(&blameit_obs::render_tree(&ring.events()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::tests::run_s;
    use super::*;
    use blameit_bench::quiet_world;
    use blameit_simnet::{SimTime, TimeRange};

    fn args(flags: &[&str]) -> Args {
        Args::parse_from(flags.iter().map(|s| s.to_string()))
    }

    /// The seam the refactor created: each engine verb's default flags
    /// must compile to the windows its hand-rolled driver used.
    #[test]
    fn default_flags_compile_to_the_windows_each_verb_always_ran() {
        let hours = |a: u64, b: u64| TimeRange::new(SimTime::from_hours(a), SimTime::from_hours(b));
        // (verb, flags, [warm-up end = burn-in start, eval start, eval
        // end] in hours); `--target` means a quiet world with one fault.
        let table: &[(&str, &[&str], [u64; 3])] = &[
            ("analyze", &[], [24, 24, 48]),
            ("flight", &[], [24, 24, 48]),
            ("metrics", &[], [24, 24, 48]),
            ("explain", &[], [24, 24, 48]),
            ("trace", &[], [24, 24, 48]),
            ("analyze", &["--days", "4", "--warmup", "2"], [48, 48, 96]),
            ("explain", &["--target", "cloud:0"], [24, 26, 29]),
            ("inject", &["--target", "cloud:0"], [24, 26, 29]),
            (
                "inject",
                &["--target", "cloud:0", "--at-hour", "50", "--hours", "2"],
                [24, 50, 52],
            ),
        ];
        for (verb, flags, [warm, start, end]) in table {
            let quiet = flags.contains(&"--target");
            let mut flags = flags.to_vec();
            flags.extend(["--scale", "tiny"]);
            let scn = compiled(verb, &args(&flags)).unwrap();
            let what = format!("{verb} {flags:?}");
            assert_eq!(scn.warmup, hours(0, *warm), "{what}: warm-up");
            assert_eq!(scn.burn_in, hours(*warm, *start), "{what}: burn-in");
            assert_eq!(scn.eval, hours(*start, *end), "{what}: eval");
            assert_eq!(scn.spec.world.organic, !quiet, "{what}: world");
            assert_eq!(scn.spec.faults.len(), usize::from(quiet), "{what}: faults");
            assert!(scn.plan.is_none(), "{what}: no chaos by default");
            assert_eq!(scn.spec.world.seed, 2019, "{what}: seed");
        }
        // The one fault an incident-shaped spec carries is the eval window.
        let scn = compiled("inject", &args(&["--target", "cloud:0", "--scale", "tiny"])).unwrap();
        let fault = scn.world.faults().faults()[0];
        assert_eq!(
            TimeRange::new(fault.start, fault.start + fault.duration_secs),
            scn.eval
        );
        assert_eq!(fault.added_ms, 80.0);
        // Default scales: tiny for trace, small for the rest.
        assert_eq!(
            spec_for("trace", &args(&[])).unwrap().world.scale,
            Scale::Tiny
        );
        assert_eq!(
            spec_for("analyze", &args(&[])).unwrap().world.scale,
            Scale::Small
        );
    }

    #[test]
    fn inject_requires_and_validates_target() {
        assert!(run_s(&["inject", "--scale", "tiny"]).is_err());
        assert!(run_s(&["inject", "--scale", "tiny", "--target", "weird:1"]).is_err());
        assert!(run_s(&["inject", "--scale", "tiny", "--target", "cloud:50000"]).is_err());
        // `middle:` with an access AS id must be rejected.
        let world = quiet_world(Scale::Tiny, 1, 2019);
        let access = world
            .topology()
            .ases
            .iter()
            .find(|a| a.role.is_access())
            .unwrap()
            .asn;
        assert!(run_s(&[
            "inject",
            "--scale",
            "tiny",
            "--target",
            &format!("middle:{}", access.0)
        ])
        .is_err());
    }

    #[test]
    fn analyze_tickets_render() {
        let out = run_s(&[
            "analyze",
            "--scale",
            "tiny",
            "--days",
            "2",
            "--tickets",
            "2",
        ])
        .unwrap();
        assert!(out.contains("## ["), "a ticket heading renders: {out}");
        assert!(out.contains("routing:"), "{out}");
    }

    #[test]
    fn inject_cloud_produces_cloud_alerts() {
        let out = run_s(&[
            "inject",
            "--scale",
            "tiny",
            "--target",
            "cloud:0",
            "--ms",
            "120",
            "--at-hour",
            "26",
            "--hours",
            "2",
        ])
        .unwrap();
        assert!(out.contains("injected +120 ms cloud fault"), "{out}");
        assert!(out.contains("cloud"), "{out}");
        assert!(out.contains("blame fractions"), "{out}");
    }

    /// Regression: `inject` used to skip the burn-in, so no baseline
    /// predated the fault and every middle alert printed `culprit=-`.
    #[test]
    fn inject_middle_names_the_culprit_as() {
        let out = run_s(&[
            "inject",
            "--target",
            "middle:104",
            "--scale",
            "tiny",
            "--seed",
            "2019",
            "--ms",
            "100",
            "--at-hour",
            "30",
            "--hours",
            "2",
        ])
        .unwrap();
        assert!(out.contains("injected +100 ms middle fault"), "{out}");
        let path_of = |l: &str| {
            l.split_whitespace()
                .find(|w| w.starts_with("path="))
                .map(str::to_string)
        };
        let named: Vec<&str> = out
            .lines()
            .filter(|l| l.contains("culprit=AS104"))
            .collect();
        assert!(!named.is_empty(), "no alert names AS104:\n{out}");
        // Every alert on the faulted path carries the culprit — none of
        // them degraded to `no_baseline`.
        let faulted_path = path_of(named[0]).unwrap();
        for l in out
            .lines()
            .filter(|l| path_of(l).as_ref() == Some(&faulted_path))
        {
            assert!(l.contains("culprit=AS104"), "{l}\n{out}");
        }
        // Same flags, same driver: `explain` sees the same verdict.
        let explained = run_s(&[
            "explain",
            "incident:0",
            "--target",
            "middle:104",
            "--scale",
            "tiny",
            "--seed",
            "2019",
            "--ms",
            "100",
            "--at-hour",
            "30",
            "--hours",
            "2",
        ])
        .unwrap();
        assert!(explained.contains("culprit(AS104)"), "{explained}");
    }

    /// An `--at-hour` inside the warm-up day is refused with compile's
    /// positioned error (no clamping, no silent mis-run), per verb.
    #[test]
    fn inject_rejects_an_at_hour_inside_the_warmup() {
        let e = run_s(&[
            "inject",
            "--scale",
            "tiny",
            "--target",
            "cloud:0",
            "--at-hour",
            "3",
        ])
        .unwrap_err();
        assert!(e.0.starts_with("inject: [eval] window"), "{}", e.0);
        assert!(e.0.contains("must lie inside"), "{}", e.0);
        assert!(
            e.0.ends_with("the earliest legal --at-hour is 24"),
            "{}",
            e.0
        );
    }

    #[test]
    fn explain_rejects_an_at_hour_inside_the_warmup() {
        let e = run_s(&[
            "explain",
            "incident:0",
            "--scale",
            "tiny",
            "--target",
            "cloud:0",
            "--at-hour",
            "23",
        ])
        .unwrap_err();
        assert!(e.0.starts_with("explain: [eval] window"), "{}", e.0);
        assert!(
            e.0.ends_with("the earliest legal --at-hour is 24"),
            "{}",
            e.0
        );
        // Hour 24 is legal (empty burn-in) and is explained as asked,
        // not as hour 25.
        let scn = compiled(
            "explain",
            &args(&["--scale", "tiny", "--target", "cloud:0", "--at-hour", "24"]),
        )
        .unwrap();
        assert_eq!(scn.eval.start, SimTime::from_hours(24));
    }

    #[test]
    fn fault_plan_output_is_thread_invariant() {
        let argv = |threads: &'static str| {
            [
                "inject",
                "--scale",
                "tiny",
                "--target",
                "cloud:0",
                "--ms",
                "110",
                "--at-hour",
                "26",
                "--hours",
                "2",
                "--fault-plan",
                "heavy",
                "--fault-seed",
                "77",
                "--threads",
                threads,
            ]
        };
        let one = run_s(&argv("1")).unwrap();
        let four = run_s(&argv("4")).unwrap();
        assert!(one.contains("faults injected"), "{one}");
        assert_eq!(one, four, "chaos output must not depend on --threads");
    }

    #[test]
    fn fault_plan_none_matches_plain_run() {
        let base = [
            "inject",
            "--scale",
            "tiny",
            "--target",
            "cloud:0",
            "--ms",
            "110",
            "--at-hour",
            "26",
            "--hours",
            "2",
        ];
        let plain = run_s(&base).unwrap();
        let mut with_none: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        with_none.extend(["--fault-plan", "none"].iter().map(|s| s.to_string()));
        let chaotic = super::super::run(&with_none).unwrap();
        // Identical engine output; the chaos run only appends its summary.
        let prefix: String = chaotic
            .lines()
            .take_while(|l| !l.starts_with("chaos:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(plain, prefix, "a no-op plan must not perturb the engine");
        assert!(chaotic.contains("chaos: 0 faults injected"), "{chaotic}");
    }

    #[test]
    fn fault_plan_rejects_unknown_name() {
        let err = run_s(&[
            "analyze",
            "--scale",
            "tiny",
            "--days",
            "2",
            "--fault-plan",
            "bogus",
        ])
        .unwrap_err();
        assert!(err.0.contains("unknown fault plan"), "{}", err.0);
    }

    #[test]
    fn metrics_prometheus_exposition() {
        let out = run_s(&["metrics", "--scale", "tiny", "--days", "2"]).unwrap();
        assert!(out.contains("# TYPE blameit_ticks_total counter"), "{out}");
        assert!(out.contains("blameit_quartets_processed_total"), "{out}");
        assert!(
            out.contains("blameit_stage_duration_us_bucket{stage=\"passive_blame\""),
            "{out}"
        );
        assert!(out.contains("blameit_blames_total{segment="), "{out}");
        // Populated from a real run: at least one tick happened.
        let ticks_line = out
            .lines()
            .find(|l| l.starts_with("blameit_ticks_total "))
            .expect("ticks sample present");
        let n: u64 = ticks_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(n > 0, "{ticks_line}");
    }

    #[test]
    fn metrics_json_mode() {
        let out = run_s(&["metrics", "--scale", "tiny", "--days", "2", "--json", "1"]).unwrap();
        assert!(out.trim_start().starts_with('['), "{out}");
        assert!(out.trim_end().ends_with(']'), "{out}");
        assert!(
            out.contains("\"name\":\"blameit_tick_duration_us\""),
            "{out}"
        );
        assert!(out.contains("\"p99\":"), "{out}");
    }

    #[test]
    fn explain_rejects_bad_selectors() {
        assert!(run_s(&["explain"]).is_err());
        assert!(run_s(&["explain", "nonsense"]).is_err());
        assert!(run_s(&["explain", "bogus:1"]).is_err());
        assert!(run_s(&["explain", "quartet:zz/1.0.0.0/24"]).is_err());
        assert!(run_s(&["explain", "quartet:0"]).is_err());
        assert!(run_s(&["explain", "incident:zz"]).is_err());
    }

    #[test]
    fn explain_incident_renders_provenance_chain() {
        let out = run_s(&[
            "explain",
            "incident:0",
            "--scale",
            "tiny",
            "--target",
            "middle:104",
            "--ms",
            "100",
            "--at-hour",
            "30",
            "--hours",
            "2",
            "--limit",
            "1",
        ])
        .unwrap();
        assert!(
            out.contains("middle localization(s) at loc=cloud0"),
            "{out}"
        );
        assert!(out.contains("├─ incident: opened at bucket"), "{out}");
        assert!(out.contains("├─ priority: client-time product"), "{out}");
        assert!(out.contains("├─ probe: target"), "{out}");
        assert!(out.contains("├─ baseline: "), "{out}");
        assert!(out.contains("└─ verdict: culprit(AS104)"), "{out}");
        assert!(out.contains("per-AS delta:"), "{out}");
        assert!(out.contains("AS104 baseline="), "{out}");
    }

    #[test]
    fn explain_quartet_renders_algorithm1_branch() {
        // A /24 served by cloud0 in the quiet tiny world; the injected
        // cloud fault guarantees it carries verdicts during the window.
        let world = quiet_world(Scale::Tiny, 2, 2019);
        let p24 = world
            .topology()
            .clients_of(CloudLocId(0))
            .next()
            .unwrap()
            .p24;
        let out = run_s(&[
            "explain",
            &format!("quartet:0/{p24}"),
            "--scale",
            "tiny",
            "--target",
            "cloud:0",
            "--ms",
            "120",
            "--at-hour",
            "30",
            "--hours",
            "2",
            "--limit",
            "2",
        ])
        .unwrap();
        assert!(out.contains("verdict(s) for quartet loc=cloud0"), "{out}");
        assert!(out.contains("├─ observed: n="), "{out}");
        assert!(out.contains("└─ algorithm-1: "), "{out}");
        assert!(out.contains("tau 0.8"), "{out}");
        assert!(out.contains("└─ evidence: cloud="), "{out}");
    }

    #[test]
    fn explain_reports_no_matches_as_error() {
        let e = run_s(&[
            "explain",
            "quartet:0/9.9.9.0/24",
            "--scale",
            "tiny",
            "--days",
            "2",
        ])
        .unwrap_err();
        assert!(e.0.contains("no verdicts"), "{}", e.0);
    }

    #[test]
    fn flight_dump_emits_jsonl_ring() {
        assert!(run_s(&["flight"]).is_err());
        assert!(run_s(&["flight", "bogus"]).is_err());
        let out = run_s(&["flight", "dump", "--scale", "tiny", "--days", "2"]).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(!lines.is_empty());
        // Trigger log first (the manual dump itself always logs one),
        // then the frame ring; every line is a JSON object.
        assert!(
            lines.iter().any(|l| l.contains("\"trigger\":\"manual\"")),
            "{out}"
        );
        assert!(
            lines.iter().any(|l| l.starts_with("{\"kind\":\"frame\"")),
            "{out}"
        );
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        }
        // Byte-identical across thread counts.
        let again = run_s(&[
            "flight",
            "dump",
            "--scale",
            "tiny",
            "--days",
            "2",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(out, again, "flight dump must not depend on --threads");
    }

    #[test]
    fn metrics_filter_selects_prefix_in_sorted_order() {
        let out = run_s(&[
            "metrics",
            "--scale",
            "tiny",
            "--days",
            "2",
            "--filter",
            "blameit_blames",
        ])
        .unwrap();
        assert!(out.contains("blameit_blames_total{segment="), "{out}");
        assert!(!out.contains("blameit_ticks_total"), "{out}");
        let names: Vec<&str> = out
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert!(!names.is_empty());
        for n in &names {
            assert!(n.starts_with("blameit_blames"), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "exposition must render in sorted order");
        // JSON path honors the filter too.
        let j = run_s(&[
            "metrics",
            "--scale",
            "tiny",
            "--days",
            "2",
            "--filter",
            "zzz_nothing",
            "--json",
            "1",
        ])
        .unwrap();
        assert_eq!(j.trim(), "[]", "{j}");
    }

    #[test]
    fn analyze_summary_breaks_down_degraded_verdicts() {
        let out = run_s(&["analyze", "--scale", "tiny", "--days", "2"]).unwrap();
        assert!(out.contains("degraded verdicts: "), "{out}");
        // Reason labels come straight from UnlocalizedReason.
        let line = out
            .lines()
            .find(|l| l.starts_with("degraded verdicts: "))
            .unwrap();
        assert!(
            UnlocalizedReason::ALL
                .iter()
                .any(|r| line.contains(r.label())),
            "{line}"
        );
    }

    #[test]
    fn trace_renders_span_tree() {
        let out = run_s(&["trace", "--ticks", "2"]).unwrap();
        assert!(out.contains("span tree: 2 tick(s)"), "{out}");
        assert!(out.contains("tick"), "{out}");
        assert!(out.contains("passive_blame"), "{out}");
        assert!(out.contains("ingest"), "{out}");
    }

    #[test]
    fn threads_flag_does_not_change_output() {
        let base = [
            "inject",
            "--scale",
            "tiny",
            "--target",
            "cloud:0",
            "--ms",
            "120",
            "--at-hour",
            "26",
            "--hours",
            "1",
        ];
        let with_threads = |n: &str| {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend(["--threads", n]);
            run_s(&argv).unwrap()
        };
        let one = with_threads("1");
        assert!(one.contains("blame fractions"), "{one}");
        assert_eq!(one, with_threads("4"), "sharded run must match legacy");
    }
}
