//! What a run prints, and the result files `compare` reads.
//!
//! Two file shapes, both JSON:
//!
//! * a **run** file — one run of one workload (`--out DIR` writes
//!   `DIR/<workload>[-trace].json`);
//! * a **set** file — several runs of every workload at consecutive
//!   seeds, each metric reduced to median, quartiles and sample count,
//!   plus the `exact` block of every (workload, seed): the unit the
//!   baseline is committed in and `compare` works on.

use crate::catalogue::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::Json;
use crate::run::{Metric, RunResult};
use crate::stats::quartiles;
use std::fmt::Write as _;

/// Schema tag of a set file.
pub const SET_SCHEMA: &str = "blameit-benchmark/set/v1";

/// Where a result came from. `rustc` and `commit` are handed in by the
/// caller (`--rustc "$(rustc -V)" --commit "$(git rev-parse HEAD)"`):
/// the harness spawns nothing.
#[derive(Clone, Debug, Default)]
pub struct HostInfo {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Compiler version, as given.
    pub rustc: String,
    /// Commit hash, as given.
    pub commit: String,
    /// Filesystem type under the state dirs (from `/proc/mounts`).
    pub state_fs: String,
}

impl HostInfo {
    /// Detects what can be detected; the rest is `unknown` until set.
    pub fn detect() -> HostInfo {
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            rustc: "unknown".to_string(),
            commit: "unknown".to_string(),
            state_fs: state_fs().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    fn json(&self) -> Json {
        Json::obj()
            .field("nproc", self.nproc)
            .field("rustc", self.rustc.as_str())
            .field("commit", self.commit.as_str())
            .field("state_fs", self.state_fs.as_str())
            // Two cores: `wire` uses both, everything else one, and
            // `parallelism` is pinned to 1 — no thread-scaling figure
            // can be measured here, so none is reported.
            .field("thread_scaling", "unmeasurable on this host; not reported")
    }
}

/// Filesystem type of the mount holding this executable (state dirs
/// live beside it).
fn state_fs() -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            exe.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// The human-readable block a run prints before its result line:
/// every metric by name, with unit and sample count.
pub fn render_run(r: &RunResult) -> String {
    let mut out = String::new();
    let kind = if r.trace {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    let smoke = if r.smoke {
        " [SMOKE sizes: never compare against bounds]"
    } else {
        ""
    };
    let voided = if r.voided_reps > 0 {
        format!(" (+{} voided by a broken connection)", r.voided_reps)
    } else {
        String::new()
    };
    writeln!(
        out,
        "workload {} seed {} — {kind}, {} timed rep(s){voided}{smoke}",
        r.workload, r.seed, r.reps
    )
    .expect("writing to a String cannot fail");
    for m in &r.metrics {
        let n = if m.samples > 0 {
            format!("  (n={})", m.samples)
        } else {
            String::new()
        };
        writeln!(out, "  {:<40} {:>16.6} {}{n}", m.name, m.value, m.unit)
            .expect("writing to a String cannot fail");
    }
    writeln!(
        out,
        "  {:<40} {:>16.6} ratio  (records not admitted / offered; compared exactly)",
        "failed_share", r.failed_share
    )
    .expect("writing to a String cannot fail");
    let exact: Vec<String> = r
        .exact
        .fields()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    writeln!(out, "  exact: {}", exact.join(" ")).expect("writing to a String cannot fail");
    out
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj().field("value", m.value).field("unit", m.unit),
                )
            })
            .collect(),
    )
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn driver_line(r: &RunResult) -> String {
    Json::obj()
        .field("correct", true)
        .field("attempted", r.attempted)
        .field("failed", r.failed)
        .field("metrics", metrics_json(&r.metrics))
        .to_string()
}

fn exact_json(r: &RunResult) -> Json {
    let mut obj = Json::obj().field("failed_share", format!("{:.9}", r.failed_share));
    for (k, v) in r.exact.fields() {
        obj = obj.field(k, v);
    }
    obj
}

/// A run file.
pub fn run_json(r: &RunResult, host: &HostInfo) -> Json {
    Json::obj()
        .field("schema", "blameit-benchmark/run/v1")
        .field("workload", r.workload)
        .field("seed", r.seed)
        .field("trace", r.trace)
        .field("smoke", r.smoke)
        .field("reps", r.reps)
        .field("voided_reps", r.voided_reps)
        .field("attempted", r.attempted)
        .field("failed", r.failed)
        .field("host", host.json())
        .field("metrics", metrics_json(&r.metrics))
        .field("exact", exact_json(r))
}

/// A set file from `runs` (any order; grouped by workload here).
pub fn set_json(runs: &[RunResult], host: &HostInfo, seconds: f64) -> Json {
    let mut workloads = Json::obj();
    for w in &WORKLOADS {
        let of_w: Vec<&RunResult> = runs.iter().filter(|r| r.workload == w.name).collect();
        let Some(first) = of_w.first() else { continue };
        let mut metrics = Json::obj();
        for (i, m) in first.metrics.iter().enumerate() {
            let values: Vec<f64> = of_w.iter().map(|r| r.metrics[i].value).collect();
            let (better, bound) = direction_of(m.name);
            let mut entry = Json::obj()
                .field("unit", m.unit)
                .field("better", better.as_str())
                // Runs behind the median; samples behind each run's value.
                .field("n", values.len())
                .field(
                    "samples_per_run",
                    of_w.iter()
                        .map(|r| r.metrics[i].samples)
                        .collect::<Vec<_>>(),
                );
            if let Some(b) = bound {
                entry = entry.field("bound", b);
            }
            entry = match quartiles(&values) {
                Some((q1, med, q3)) => entry.field("median", med).field("q1", q1).field("q3", q3),
                None => entry.field("median", values[0]),
            };
            metrics = metrics.field(m.name, entry.field("values", values));
        }
        let mut exact = Json::obj();
        for r in &of_w {
            exact = exact.field(&r.seed.to_string(), exact_json(r));
        }
        workloads = workloads.field(
            w.name,
            Json::obj().field("metrics", metrics).field("exact", exact),
        );
    }
    let any = runs.first();
    let mut seeds: Vec<u64> = runs.iter().map(|r| r.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    Json::obj()
        .field("schema", SET_SCHEMA)
        .field("host", host.json())
        .field("seeds", seeds)
        .field("seconds", seconds)
        .field("trace", any.is_some_and(|r| r.trace))
        .field("smoke", any.is_some_and(|r| r.smoke))
        .field("workloads", workloads)
}

/// Direction and (for end-to-end metrics) bound of a catalogue metric.
fn direction_of(name: &str) -> (Better, Option<f64>) {
    if let Some(d) = END_TO_END.iter().find(|d| d.name == name) {
        return (d.better, Some(d.bound));
    }
    let d = PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .expect("every reported metric is in the catalogue");
    (d.better, None)
}
