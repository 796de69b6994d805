//! Evaluates a scenario's `[expect]` block against a [`ScenarioRun`].
//!
//! Each failed expectation becomes one human-readable line stating the
//! assertion, the observed value, and where the evidence was looked
//! for. Degraded-reason minimums are checked on three surfaces at
//! once — the localization records, the engine's metric counters, and
//! the transcript's `unlocalized(<reason>)` provenance text — so a
//! regression on any surface fails the scenario.

use crate::run::ScenarioRun;
use crate::spec::{Expectation, Limit, Quantity, ScenarioSpec};
use blameit::UnlocalizedReason;

/// Checks every `[expect]` assertion; returns one message per failure
/// (empty = pass).
pub fn evaluate(spec: &ScenarioSpec, run: &ScenarioRun) -> Vec<String> {
    let r = &run.report;
    let mut failures = Vec::new();
    let mut fail = |msg: String| failures.push(msg);
    for e in &spec.expect {
        match e {
            Expectation::Bound(Quantity::Degraded(reason), Limit::Floor, n) => {
                degraded_min(*reason, *n, run, &mut fail)
            }
            Expectation::Bound(quantity, limit, n) => {
                // Compile guarantees the ingest counts only appear with
                // [overload].
                let Some((got, what, why)) = observed(*quantity, run) else {
                    fail(format!("{e:?} evaluated on a run with no overload report"));
                    continue;
                };
                let (cmp, holds) = match limit {
                    Limit::Floor => ('≥', got >= *n),
                    Limit::Ceiling => ('≤', got <= *n),
                };
                if !holds {
                    fail(format!("expected {cmp} {n} {what}, got {got}{why}"));
                }
            }
            Expectation::CulpritAs(asn) => {
                if !r.culprits.contains(asn) {
                    let named: Vec<String> = r.culprits.iter().map(|a| format!("AS{a}")).collect();
                    fail(format!(
                        "expected AS{asn} among named culprits, got [{}]",
                        named.join(", ")
                    ));
                }
            }
            Expectation::FlightTrigger(label) => {
                if !r.flight_triggers.iter().any(|t| t == label) {
                    fail(format!(
                        "expected flight trigger `{label}` to fire, fired: [{}]",
                        r.flight_triggers.join(", ")
                    ));
                }
            }
        }
    }
    failures
}

/// What the run counted for `quantity`: the count, what it counts, and
/// the claim a violated bound breaks. `None`: an ingest count on a run
/// with no overload report.
fn observed(quantity: Quantity, run: &ScenarioRun) -> Option<(u64, String, &'static str)> {
    use Quantity as Q;
    let r = &run.report;
    let ovl = r.overload.as_ref();
    Some(match quantity {
        Q::Blames => (r.blames.total(), "blame verdicts".into(), ""),
        Q::Blame(b) => (r.blames.count(b), format!("`{b}` verdicts"), ""),
        Q::Localizations => (r.localizations, "localization attempts".into(), ""),
        Q::Degraded(reason) => (
            degraded_count(r.degraded_verdicts, reason),
            format!("degraded `{}` verdicts", reason.label()),
            "",
        ),
        Q::DegradedTotal => (
            r.degraded_verdicts.iter().sum(),
            "degraded verdicts total".into(),
            "",
        ),
        Q::Alerts => (r.alerts, "alerts".into(), ""),
        Q::Shed => (
            ovl?.ingest.shed_low_impact,
            "impact-shed records".into(),
            "",
        ),
        Q::Backpressure => (
            ovl?.ingest.backpressure_replies,
            "SLOW_DOWN replies".into(),
            "",
        ),
        Q::QueuePeak => (
            ovl?.ingest.queue_peak,
            "records at queue peak".into(),
            " (bounded-memory claim violated)",
        ),
        Q::TopDecileShed => (
            ovl?.top_decile_shed_records,
            "shed records from the top impact decile".into(),
            " (shedding touched the groups it must protect)",
        ),
    })
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
            o.ingest.offered,
            o.ingest.admitted,
            o.ingest.shed_low_impact,
            o.ingest.shed_backpressure,
            o.ingest.backpressure_replies,
            o.batches_abandoned,
            o.ingest.queue_peak,
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
            Expectation::Bound(Quantity::Blames, Limit::Floor, 2),
            Expectation::Bound(Quantity::Blame(Blame::Middle), Limit::Floor, 1),
            Expectation::CulpritAs(104),
            Expectation::Bound(
                Quantity::Degraded(UnlocalizedReason::ProbeTimeout),
                Limit::Floor,
                1,
            ),
            Expectation::Bound(Quantity::Alerts, Limit::Ceiling, 5),
            Expectation::FlightTrigger("degraded-spike".into()),
        ]);
        let run = run_with("tick 0\n  localization ... unlocalized(probe_timeout)\n");
        assert_eq!(evaluate(&spec, &run), Vec::<String>::new());
        assert!(render_report(&spec, &run, &[]).starts_with("PASS t"));
    }

    #[test]
    fn each_surface_of_degraded_min_is_checked() {
        let spec = spec_with(vec![Expectation::Bound(
            Quantity::Degraded(UnlocalizedReason::ProbeTimeout),
            Limit::Floor,
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
            Expectation::Bound(Quantity::Shed, Limit::Floor, 100),
            Expectation::Bound(Quantity::Backpressure, Limit::Floor, 2),
            Expectation::Bound(Quantity::QueuePeak, Limit::Ceiling, 9_000),
            Expectation::Bound(Quantity::TopDecileShed, Limit::Ceiling, 0),
        ]);
        let mut run = run_with("x");
        run.report.overload = Some(OverloadReport {
            ingest: blameit_daemon::IngestStats {
                offered: 50_000,
                admitted: 40_000,
                shed_low_impact: 2_000,
                shed_backpressure: 8_000,
                backpressure_replies: 4,
                queue_peak: 8_500,
            },
            batches_abandoned: 1,
            top_decile_shed_records: 0,
        });
        assert_eq!(evaluate(&spec, &run), Vec::<String>::new());
        let report = render_report(&spec, &run, &[]);
        assert!(report.contains("overload: offered=50000"), "{report}");

        let ovl = run.report.overload.as_mut().unwrap();
        ovl.ingest.queue_peak = 9_500;
        ovl.top_decile_shed_records = 3;
        let fails = evaluate(&spec, &run);
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(fails[0].contains("bounded-memory"), "{fails:?}");
        assert!(fails[1].contains("top impact decile"), "{fails:?}");
    }

    #[test]
    fn failures_name_the_observed_value() {
        let spec = spec_with(vec![
            Expectation::Bound(Quantity::Blames, Limit::Floor, 100),
            Expectation::CulpritAs(9),
            Expectation::FlightTrigger("chaos-burst".into()),
            Expectation::Bound(Quantity::DegradedTotal, Limit::Ceiling, 0),
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
