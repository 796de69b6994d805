//! CLI dispatch: usage text, the error type, and `run`, which routes a
//! command line to its family module.
//!
//! Each command takes parsed [`Args`] and returns its rendered output,
//! so tests can run commands in-process and inspect what they print.
//!
//! | module | verbs |
//! |---|---|
//! | [`inspect`] | `topo` `routes` `simulate` `probe` — read-only, no engine |
//! | [`engine`] | `analyze` `inject` `explain` `flight dump` `metrics` `trace` — flags → scenario spec → the one driver → render |
//! | [`scenario`] | `scenario list\|run\|check` — the `.scn` library |
//! | [`state`] | `fsck`, `analyze --state-dir` — durable state directories |
//!
//! `daemon` / `feed` / `scrape` dispatch straight into `blameit_daemon`.

mod engine;
mod inspect;
mod scenario;
mod state;

use blameit_bench::Args;

/// A user-facing CLI failure (bad arguments, unknown ids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
blameit — WAN latency fault localization (BlameIt reproduction)

USAGE:
  blameit <COMMAND> [--key value ...]

COMMANDS:
  topo       Topology inventory (ASes, locations, prefixes, paths)
             (--dot 1 emits a Graphviz AS-level peering graph instead)
  routes     BGP route options for one client /24 (primary + alternates)
  simulate   Telemetry summary for a simulated period (Table-2 style)
             (--json 1 for machine-readable output)
  analyze    Run the BlameIt engine and print alerts + blame fractions
             (--tickets N renders the first N alerts as operator tickets;
             --state-dir DIR makes the run durable, --resume 1 recovers)
  fsck       Validate a state directory written by --state-dir: every
             snapshot CRC + structure, journal records, seed agreement.
             Exits non-zero (with a report) on corruption.
  explain    Render the provenance chain behind a verdict as a tree:
             blameit explain quartet:<loc>/<p24> | incident:<loc>
             (--limit N caps matches shown; with --target it explains
             that `inject` run, otherwise an `analyze` run)
  flight     Flight recorder: `blameit flight dump` runs the engine and
             prints the recorder ring as JSONL (--out FILE to write it;
             --fault-plan to watch chaos-burst triggers fire)
  scenario   Declarative scenario library (see docs/SCENARIOS.md):
               blameit scenario list             catalog the library
               blameit scenario run <name|path>  run one, print report +
                                                 transcript
               blameit scenario check <name>|--all 1
                                                 run + golden transcript
                                                 compare + [expect] block
             (--dir DIR scenario library, default `scenarios`;
              --golden-dir DIR goldens, default `tests/golden/scenarios`;
              --bless 1 or BLESS=1 re-pins goldens; failing transcripts
              land in --fail-dir, default `target/scenario-failures`)
  inject     Inject one incident and investigate it end to end
             (--target cloud:<loc>|middle:<asn>|client:<asn> --ms X
             --at-hour H --hours N: a quiet world, day 0 learns, day 1
             up to hour H builds probe baselines, then the fault window
             is analyzed; H must be ≥ 24)
  probe      Print one simulated traceroute
  metrics    Run the engine and dump its metrics registry
             (Prometheus text exposition; --json 1 for a JSON dump;
             --filter PREFIX keeps only matching metric names)
  daemon     Run the engine as a service (`blameitd`): framed ingest
             socket with a bounded queue, backpressure (SLOW_DOWN),
             impact-aware overload shedding, and /metrics over HTTP.
             Requires --state-dir; serves until a feeder sends TERM.
             (--ingest-addr/--http-addr H:P, port 0 = ephemeral;
              --queue-cap/--shed-watermark/--per-loc-shed-cap records;
              --sustained-ticks N overload watchdog; --resume 1 recovers)
  feed       Replay a simulated world into a running daemon
             (--addr H:P; --surge-mult M --surge-start-hour H
              --surge-hours N amplifies volume to provoke shedding;
              honors SLOW_DOWN backpressure with bounded retries;
              --no-term 1 leaves the daemon up, --term-only 1 sends
              just TERM so a harness can scrape between the two)
  scrape     One HTTP GET against a running daemon
             (--addr H:P, --path /metrics|/alerts|/healthz)
  trace      Run engine ticks under tracing, print the span tree
             (--ticks N for more than one tick; defaults to --scale tiny)
  help       This text

COMMON FLAGS:
  --scale tiny|small|default   world size        (default: small)
  --seed N                     determinism seed  (default: 2019)
  --days D  --warmup W         simulated days, of which W learn history
                               (analyze/explain/flight/metrics: 2 and 1)
  --threads N                  engine tick worker threads; 0 = auto
                               (available cores, or BLAMEIT_THREADS).
                               Output is byte-identical at any N.
                               `trace` defaults to 1 for a readable tree.
  --fault-plan NAME            (analyze/inject/explain/flight/metrics)
                               run under a chaos plan degrading the
                               measurement plane:
                               none|mild|heavy|probe-storm. The engine
                               retries, degrades verdicts, and reports
                               every injected/absorbed fault.
  --fault-seed N               chaos plan seed (default: 0xC4A05);
                               output is deterministic per (seed, plan)
  --state-dir DIR              (analyze) durable state: versioned CRC'd
                               snapshots + an fsync'd tick journal in DIR.
                               A fresh run wipes prior blameit state there.
  --resume 1                   (analyze, with --state-dir) recover from the
                               newest valid snapshot + deterministic journal
                               replay; output is byte-identical to a run
                               that never stopped
  --snapshot-every N           (analyze) ticks between snapshots (default 4)
";

/// Dispatches a command line (excluding `argv[0]`). Returns the rendered
/// output.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Ok(USAGE.to_string());
    };
    // `Args::parse_from` rejects positionals, so the verbs that take one
    // (`fsck <dir>`, `explain <selector>`, `flight <sub>`, `scenario
    // <sub> [name]`) get the raw rest and parse their own flags.
    let args = || Args::parse_from(rest.iter().cloned());
    match cmd.as_str() {
        "fsck" => state::cmd_fsck(rest),
        "explain" => engine::cmd_explain(rest),
        "flight" => engine::cmd_flight(rest),
        "scenario" => scenario::cmd_scenario(rest),
        "topo" => inspect::cmd_topo(&args()),
        "routes" => inspect::cmd_routes(&args()),
        "simulate" => inspect::cmd_simulate(&args()),
        "analyze" => engine::cmd_analyze(&args()),
        "inject" => engine::cmd_inject(&args()),
        "probe" => inspect::cmd_probe(&args()),
        "metrics" => engine::cmd_metrics(&args()),
        "trace" => engine::cmd_trace(&args()),
        "daemon" => blameit_daemon::run_daemon(&args()).map_err(err),
        "feed" => blameit_daemon::run_feed(&args()).map_err(err),
        "scrape" => blameit_daemon::run_scrape(&args()).map_err(err),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(err(format!(
            "unknown command {other:?}; try `blameit help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn run_s(argv: &[&str]) -> Result<String, CliError> {
        run(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn help_and_empty() {
        assert!(run_s(&[]).unwrap().contains("USAGE"));
        assert!(run_s(&["help"]).unwrap().contains("COMMANDS"));
        assert!(run_s(&["bogus"]).is_err());
    }
}
