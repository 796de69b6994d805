//! `compare A.json B.json`: is B a regression of A?
//!
//! Works on two set files made at the same seeds. For every bounded
//! (end-to-end) metric of every workload, B's median may be worse than
//! A's by at most the metric's bound; every `exact` entry — digests,
//! counts, `failed_share` — must be identical. A metric whose
//! run-to-run quartile spread exceeds its bound on either side cannot
//! be called unchanged: it is reported as *unresolved*.

use crate::json::{as_f64, as_obj, as_str, get, Json};
use std::fmt::Write as _;

/// The verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within its bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// The spread on one side is wider than the bound.
    Unresolved,
}

/// What a comparison found.
#[derive(Debug, Default)]
pub struct Comparison {
    /// One line per metric, and one per differing `exact` entry.
    pub report: String,
    /// Metrics worse than their bound, as `workload/metric`.
    pub regressed: Vec<String>,
    /// `exact` entries that differ, as `workload/seed/key`.
    pub behaviour_changed: Vec<String>,
    /// Metrics whose spread exceeds their bound, as `workload/metric`.
    pub unresolved: Vec<String>,
}

impl Comparison {
    /// True when nothing regressed and no behaviour changed.
    pub fn passed(&self) -> bool {
        self.regressed.is_empty() && self.behaviour_changed.is_empty()
    }
}

struct Side {
    median: f64,
    spread: f64,
}

fn side(metric: &Json) -> Option<Side> {
    let median = as_f64(get(metric, "median")?)?;
    let spread = match (get(metric, "q1"), get(metric, "q3")) {
        (Some(q1), Some(q3)) if median != 0.0 => (as_f64(q3)? - as_f64(q1)?).abs() / median.abs(),
        _ => 0.0,
    };
    Some(Side { median, spread })
}

/// Compares set `b` against set `a`.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    for (name, doc) in [("first", a), ("second", b)] {
        if get(doc, "schema").and_then(as_str) != Some(crate::report::SET_SCHEMA) {
            return Err(format!("the {name} file is not a set file"));
        }
    }
    let workloads_a = get(a, "workloads")
        .and_then(as_obj)
        .ok_or("first file: no workloads")?;
    let workloads_b = get(b, "workloads").ok_or("second file: no workloads")?;
    let mut out = Comparison::default();
    for (wname, wa) in workloads_a {
        let Some(wb) = get(workloads_b, wname) else {
            return Err(format!(
                "workload `{wname}` is missing from the second file"
            ));
        };
        let metrics_a = get(wa, "metrics").and_then(as_obj).ok_or("no metrics")?;
        for (mname, ma) in metrics_a {
            let Some(bound) = get(ma, "bound").and_then(as_f64) else {
                continue;
            };
            let mb = get(wb, "metrics")
                .and_then(|m| get(m, mname))
                .ok_or_else(|| format!("{wname}/{mname} is missing from the second file"))?;
            let (sa, sb) = match (side(ma), side(mb)) {
                (Some(sa), Some(sb)) => (sa, sb),
                _ => return Err(format!("{wname}/{mname} has no median")),
            };
            let higher = get(ma, "better").and_then(as_str) == Some("higher");
            // Positive = worse, as a share of the first median.
            let worse = if higher {
                (sa.median - sb.median) / sa.median
            } else {
                (sb.median - sa.median) / sa.median
            };
            let verdict = if worse > bound {
                Verdict::Regressed
            } else if sa.spread > bound || sb.spread > bound {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            let key = format!("{wname}/{mname}");
            writeln!(
                out.report,
                "{:<10} {key:<28} {:>14.4} -> {:>14.4}  worse by {:>+7.2}% (bound {:.0}%, spread {:.1}%/{:.1}%)",
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                },
                sa.median,
                sb.median,
                worse * 100.0,
                bound * 100.0,
                sa.spread * 100.0,
                sb.spread * 100.0,
            )
            .expect("writing to a String cannot fail");
            match verdict {
                Verdict::Ok => {}
                Verdict::Regressed => out.regressed.push(key),
                Verdict::Unresolved => out.unresolved.push(key),
            }
        }
        let exact_a = get(wa, "exact").and_then(as_obj).ok_or("no exact block")?;
        for (seed, ea) in exact_a {
            let Some(eb) = get(wb, "exact").and_then(|e| get(e, seed)) else {
                return Err(format!(
                    "{wname}: seed {seed} is missing from the second file"
                ));
            };
            for (key, va) in as_obj(ea).ok_or("exact entry is not an object")? {
                let vb = get(eb, key);
                if vb != Some(va) {
                    let id = format!("{wname}/{seed}/{key}");
                    writeln!(
                        out.report,
                        "BEHAVIOUR  {id}: {va} -> {}",
                        vb.map_or("missing".to_string(), Json::to_string)
                    )
                    .expect("writing to a String cannot fail");
                    out.behaviour_changed.push(id);
                }
            }
        }
    }
    Ok(out)
}

/// Reads and compares two set files.
pub fn compare_files(a: &str, b: &str) -> Result<Comparison, String> {
    let read = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        crate::json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    compare(&read(a)?, &read(b)?)
}
