//! Evaluates a scenario's `[expect]` block against a [`ScenarioRun`].
//!
//! Each failed expectation becomes one human-readable line stating the
//! assertion, the observed value, and where the evidence was looked
//! for. Degraded-reason minimums are checked on three surfaces at
//! once — the localization records, the engine's metric counters, and
//! the transcript's `unlocalized(<reason>)` provenance text — so a
//! regression on any surface fails the scenario.

use crate::run::{OverloadReport, ScenarioRun};
use crate::spec::{Expectation, ScenarioSpec};
use blameit::UnlocalizedReason;

/// Checks every `[expect]` assertion; returns one message per failure
/// (empty = pass).
pub fn evaluate(spec: &ScenarioSpec, run: &ScenarioRun) -> Vec<String> {
    use Expectation as E;
    let r = &run.report;
    let mut failures = Vec::new();
    let mut fail = |msg: String| failures.push(msg);
    for e in &spec.expect {
        // Most assertions are a floor or ceiling on one count:
        // (≥ or ≤, bound, observed, what is counted, why it matters).
        let (cmp, n, got, what, why) = match e {
            E::BlamesMin(n) => ('≥', n, r.blames.total(), "blame verdicts".into(), ""),
            E::BlamesMax(n) => ('≤', n, r.blames.total(), "blame verdicts".into(), ""),
            E::BlameMin(b, n) => ('≥', n, r.blames.count(*b), format!("`{b}` verdicts"), ""),
            E::BlameMax(b, n) => ('≤', n, r.blames.count(*b), format!("`{b}` verdicts"), ""),
            E::LocalizationsMin(n) => ('≥', n, r.localizations, "localization attempts".into(), ""),
            E::LocalizationsMax(n) => ('≤', n, r.localizations, "localization attempts".into(), ""),
            E::DegradedMax(reason, n) => (
                '≤',
                n,
                degraded_count(r.degraded_verdicts, *reason),
                format!("degraded `{}` verdicts", reason.label()),
                "",
            ),
            E::DegradedTotalMax(n) => (
                '≤',
                n,
                r.degraded_verdicts.iter().sum(),
                "degraded verdicts total".into(),
                "",
            ),
            E::AlertsMin(n) => ('≥', n, r.alerts, "alerts".into(), ""),
            E::AlertsMax(n) => ('≤', n, r.alerts, "alerts".into(), ""),
            E::ShedMin(n)
            | E::ShedMax(n)
            | E::BackpressureMin(n)
            | E::QueuePeakMax(n)
            | E::TopDecileShedMax(n) => {
                // Compile guarantees these only appear with [overload].
                let Some(ovl) = &r.overload else {
                    fail(format!("{e:?} evaluated on a run with no overload report"));
                    continue;
                };
                let (cmp, got, what, why) = overload_bound(e, ovl);
                (cmp, n, got, what.to_string(), why)
            }
            E::CulpritAs(asn) => {
                if !r.culprits.contains(asn) {
                    let named: Vec<String> = r.culprits.iter().map(|a| format!("AS{a}")).collect();
                    fail(format!(
                        "expected AS{asn} among named culprits, got [{}]",
                        named.join(", ")
                    ));
                }
                continue;
            }
            E::DegradedMin(reason, n) => {
                degraded_min(*reason, *n, run, &mut fail);
                continue;
            }
            E::FlightTrigger(label) => {
                if !r.flight_triggers.iter().any(|t| t == label) {
                    fail(format!(
                        "expected flight trigger `{label}` to fire, fired: [{}]",
                        r.flight_triggers.join(", ")
                    ));
                }
                continue;
            }
        };
        if !(if cmp == '≥' { got >= *n } else { got <= *n }) {
            fail(format!("expected {cmp} {n} {what}, got {got}{why}"));
        }
    }
    failures
}

/// The `[overload]`-only bounds: whether `e` (one of the five
/// shed/queue expectations) is a floor (≥) or ceiling (≤), the observed
/// count, what it counts and the claim a violation breaks.
fn overload_bound(
    e: &Expectation,
    ovl: &OverloadReport,
) -> (char, u64, &'static str, &'static str) {
    match e {
        Expectation::ShedMin(_) => ('≥', ovl.shed_low_impact, "impact-shed records", ""),
        Expectation::ShedMax(_) => ('≤', ovl.shed_low_impact, "impact-shed records", ""),
        Expectation::BackpressureMin(_) => ('≥', ovl.backpressure_replies, "SLOW_DOWN replies", ""),
        Expectation::QueuePeakMax(_) => (
            '≤',
            ovl.queue_peak_records,
            "records at queue peak",
            " (bounded-memory claim violated)",
        ),
        Expectation::TopDecileShedMax(_) => (
            '≤',
            ovl.top_decile_shed_records,
            "shed records from the top impact decile",
            " (shedding touched the groups it must protect)",
        ),
        _ => unreachable!("`evaluate` passes only the overload expectations"),
    }
}

fn degraded_count(counts: [u64; 6], reason: UnlocalizedReason) -> u64 {
    let i = UnlocalizedReason::ALL
        .iter()
        .position(|r| *r == reason)
        .expect("ALL covers every reason");
    counts[i]
}

/// `degraded_<reason>_min`: the reason must show up in the verdict
/// records, in the engine's metric counters (when the run kept them),
/// and in the transcript's provenance text.
fn degraded_min(
    reason: UnlocalizedReason,
    n: u64,
    run: &ScenarioRun,
    fail: &mut impl FnMut(String),
) {
    let label = reason.label();
    let got = degraded_count(run.report.degraded_verdicts, reason);
    if got < n {
        fail(format!(
            "expected ≥ {n} degraded `{label}` verdicts, got {got}"
        ));
        return;
    }
    if let Some(metrics) = run.report.degraded_metrics {
        let counted = degraded_count(metrics, reason);
        if counted < n {
            fail(format!(
                "degraded `{label}`: verdict records show {got} but the \
                 metrics counter only advanced by {counted} (metrics surface regressed)"
            ));
        }
    }
    let marker = format!("unlocalized({label})");
    if !run.transcript.contains(&marker) {
        fail(format!(
            "degraded `{label}`: `{marker}` never appears in the transcript \
             (provenance surface regressed)"
        ));
    }
}

/// Renders a one-scenario result block: PASS/FAIL, the report
/// aggregates, and any failure lines, indented ready for the CLI.
pub fn render_report(spec: &ScenarioSpec, run: &ScenarioRun, failures: &[String]) -> String {
    use std::fmt::Write;
    let r = &run.report;
    let mut out = String::new();
    let verdict = if failures.is_empty() { "PASS" } else { "FAIL" };
    writeln!(
        out,
        "{verdict} {} ({} expectation(s))",
        spec.name,
        spec.expect.len()
    )
    .unwrap();
    writeln!(out, "  {}", spec.summary).unwrap();
    writeln!(
        out,
        "  ticks={} blames={} localizations={} culprits=[{}] degraded={} alerts={}",
        r.ticks,
        r.blames.total(),
        r.localizations,
        r.culprits
            .iter()
            .map(|a| format!("AS{a}"))
            .collect::<Vec<_>>()
            .join(", "),
        r.degraded_verdicts.iter().sum::<u64>(),
        r.alerts
    )
    .unwrap();
    let by_blame: Vec<String> = blameit::Blame::ALL
        .iter()
        .filter_map(|b| {
            let c = r.blames.count(*b);
            (c > 0).then(|| format!("{b}={c}"))
        })
        .collect();
    if !by_blame.is_empty() {
        writeln!(out, "  blame: {}", by_blame.join(" ")).unwrap();
    }
    let degraded: Vec<String> = UnlocalizedReason::ALL
        .iter()
        .filter_map(|reason| {
            let c = degraded_count(r.degraded_verdicts, *reason);
            (c > 0).then(|| format!("{}={c}", reason.label()))
        })
        .collect();
    if !degraded.is_empty() {
        writeln!(out, "  degraded: {}", degraded.join(" ")).unwrap();
    }
    if !r.flight_triggers.is_empty() {
        writeln!(out, "  flight: {}", r.flight_triggers.join(", ")).unwrap();
    }
    if let Some(o) = &r.overload {
        writeln!(
            out,
            "  overload: offered={} admitted={} shed={} refused={} slow_downs={} \
             abandoned={} queue_peak={} top_decile_shed={}",
            o.offered,
            o.admitted,
            o.shed_low_impact,
            o.shed_backpressure,
            o.backpressure_replies,
            o.batches_abandoned,
            o.queue_peak_records,
            o.top_decile_shed_records
        )
        .unwrap();
    }
    for f in failures {
        writeln!(out, "  FAIL: {f}").unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{ScenarioReport, ScenarioRun};
    use crate::spec::*;
    use blameit::{Blame, BlameCounts};

    fn spec_with(expect: Vec<Expectation>) -> ScenarioSpec {
        ScenarioSpec {
            name: "t".into(),
            summary: "test".into(),
            expect,
            ..ScenarioSpec::default()
        }
    }

    fn run_with(transcript: &str) -> ScenarioRun {
        let mut blames = BlameCounts::new();
        blames.add(Blame::Cloud);
        blames.add(Blame::Middle);
        ScenarioRun {
            transcript: transcript.into(),
            flight_dump: String::new(),
            report: ScenarioReport {
                ticks: 3,
                blames,
                localizations: 1,
                culprits: vec![104],
                degraded_verdicts: [1, 0, 0, 0, 0, 0],
                degraded_metrics: Some([1, 0, 0, 0, 0, 0]),
                alerts: 1,
                flight_triggers: vec!["degraded-spike".into()],
                overload: None,
            },
        }
    }

    #[test]
    fn passing_expectations_produce_no_failures() {
        let spec = spec_with(vec![
            Expectation::BlamesMin(2),
            Expectation::BlameMin(Blame::Middle, 1),
            Expectation::CulpritAs(104),
            Expectation::DegradedMin(UnlocalizedReason::ProbeTimeout, 1),
            Expectation::AlertsMax(5),
            Expectation::FlightTrigger("degraded-spike".into()),
        ]);
        let run = run_with("tick 0\n  localization ... unlocalized(probe_timeout)\n");
        assert_eq!(evaluate(&spec, &run), Vec::<String>::new());
        assert!(render_report(&spec, &run, &[]).starts_with("PASS t"));
    }

    #[test]
    fn each_surface_of_degraded_min_is_checked() {
        let spec = spec_with(vec![Expectation::DegradedMin(
            UnlocalizedReason::ProbeTimeout,
            1,
        )]);
        // Verdict records say 1 but the transcript lacks the marker.
        let run = run_with("tick 0\n");
        let fails = evaluate(&spec, &run);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("provenance surface"), "{fails:?}");
        // Metrics counter lagging is its own failure.
        let mut lagging = run_with("unlocalized(probe_timeout)");
        lagging.report.degraded_metrics = Some([0; 6]);
        let fails = evaluate(&spec, &lagging);
        assert!(fails[0].contains("metrics counter"), "{fails:?}");
        // Crash runs (no metrics) only check verdicts + transcript.
        let mut crashy = run_with("unlocalized(probe_timeout)");
        crashy.report.degraded_metrics = None;
        assert!(evaluate(&spec, &crashy).is_empty());
    }

    #[test]
    fn overload_expectations_read_the_overload_report() {
        use crate::run::OverloadReport;
        let spec = spec_with(vec![
            Expectation::ShedMin(100),
            Expectation::BackpressureMin(2),
            Expectation::QueuePeakMax(9_000),
            Expectation::TopDecileShedMax(0),
        ]);
        let mut run = run_with("x");
        run.report.overload = Some(OverloadReport {
            offered: 50_000,
            admitted: 40_000,
            shed_low_impact: 2_000,
            shed_backpressure: 8_000,
            backpressure_replies: 4,
            batches_abandoned: 1,
            queue_peak_records: 8_500,
            top_decile_shed_records: 0,
        });
        assert_eq!(evaluate(&spec, &run), Vec::<String>::new());
        let report = render_report(&spec, &run, &[]);
        assert!(report.contains("overload: offered=50000"), "{report}");

        run.report.overload.as_mut().unwrap().queue_peak_records = 9_500;
        run.report
            .overload
            .as_mut()
            .unwrap()
            .top_decile_shed_records = 3;
        let fails = evaluate(&spec, &run);
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(fails[0].contains("bounded-memory"), "{fails:?}");
        assert!(fails[1].contains("top impact decile"), "{fails:?}");
    }

    #[test]
    fn failures_name_the_observed_value() {
        let spec = spec_with(vec![
            Expectation::BlamesMin(100),
            Expectation::CulpritAs(9),
            Expectation::FlightTrigger("chaos-burst".into()),
            Expectation::DegradedTotalMax(0),
        ]);
        let run = run_with("x");
        let fails = evaluate(&spec, &run);
        assert_eq!(fails.len(), 4);
        assert!(fails[0].contains("got 2"), "{fails:?}");
        assert!(fails[1].contains("AS104"), "{fails:?}");
        assert!(fails[2].contains("degraded-spike"), "{fails:?}");
        let report = render_report(&spec, &run, &fails);
        assert!(report.starts_with("FAIL t"), "{report}");
        assert!(report.contains("degraded: probe_timeout=1"), "{report}");
    }
}
