//! Argv-level entry points shared by the `blameitd` binary and the
//! `blameit daemon` / `blameit feed` / `blameit scrape` subcommands.
//!
//! Argument conventions follow the rest of the CLI (`--key value`,
//! deterministic in `--seed`); both front ends parse with
//! [`blameit_bench::Args`] and call these.

use crate::client::{feed_world, http_get, FeedConfig};
use crate::clock::WallClock;
use crate::core::{AdmissionConfig, DaemonConfig, DaemonCore};
use crate::server::{Server, ServerConfig, DEFAULT_HTTP_ADDR, DEFAULT_INGEST_ADDR};
use blameit::{BadnessThresholds, BlameItConfig, StateStore, WorldBackend};
use blameit_bench::{organic_world, Args, Scale};
use blameit_obs::MetricsRegistry;
use blameit_simnet::time::BUCKETS_PER_HOUR;
use blameit_simnet::{SimTime, SurgePlan, TimeBucket, TimeRange};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Runs the daemon until a feeder sends `TERM`; returns the exit
/// summary. Prints the bound addresses to stdout first (flushed) so
/// harnesses can discover ephemeral ports.
pub fn run_daemon(args: &Args) -> Result<String, String> {
    let dir = args
        .get("state-dir")
        .map(str::to_string)
        .ok_or_else(|| "daemon requires --state-dir DIR".to_string())?;
    let days = args.u64("days", 2).max(2);
    let warmup_days = args.u64("warmup", 1).min(days - 1);
    let resume = args.get("resume").is_some_and(|v| v != "0");

    let world = organic_world(args.scale(Scale::Small), days, args.u64("seed", 2019));
    let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(&world));
    let threads = args.u64("threads", 0) as usize;
    if threads > 0 {
        cfg.parallelism = threads;
    }
    cfg.state_dir = Some(PathBuf::from(&dir));
    cfg.flight_dump_dir = Some(PathBuf::from(&dir).join("flight"));
    cfg.snapshot_every_ticks = args.int("snapshot-every", cfg.snapshot_every_ticks).max(1);
    if !resume {
        let store = StateStore::create(&dir).map_err(|e| format!("state dir {dir}: {e}"))?;
        store.wipe().map_err(|e| format!("state dir {dir}: {e}"))?;
    }

    let dcfg = daemon_config(args);
    let backend = WorldBackend::with_parallelism(&world, cfg.parallelism);
    let registry = Arc::new(MetricsRegistry::new());
    let warmup = TimeRange::new(SimTime::ZERO, SimTime::from_days(warmup_days));
    let (mut core, recovery) =
        DaemonCore::open(cfg, dcfg, registry, backend, warmup).map_err(|e| e.to_string())?;
    eprintln!("{}", recovery.describe());

    let server = Server::bind(&ServerConfig {
        ingest_addr: args
            .get("ingest-addr")
            .unwrap_or(DEFAULT_INGEST_ADDR)
            .into(),
        http_addr: args.get("http-addr").unwrap_or(DEFAULT_HTTP_ADDR).into(),
    })
    .map_err(|e| format!("bind: {e}"))?;
    println!("ingest={}", server.ingest_addr);
    println!("http={}", server.http_addr);
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    let shutdown = AtomicBool::new(false);
    let summary = server
        .run(&mut core, &WallClock, &shutdown)
        .map_err(|e| e.to_string())?;
    let s = summary.stats;
    let mut out = String::new();
    writeln!(
        out,
        "blameitd exit: ticks={} alerts={} offered={} admitted={} shed_low_impact={} \
         shed_backpressure={} slow_downs={} queue_peak={} clean_shutdown={}",
        summary.ticks,
        summary.alerts,
        s.offered,
        s.admitted,
        s.shed_low_impact,
        s.shed_backpressure,
        s.backpressure_replies,
        s.queue_peak,
        summary.clean_shutdown,
    )
    .unwrap();
    Ok(out)
}

/// Feeds a world into a running daemon, optionally surged; returns the
/// feed summary. World parameters must match the daemon's for the
/// daemon's routing/traceroute plane to describe the fed clients.
pub fn run_feed(args: &Args) -> Result<String, String> {
    let days = args.u64("days", 2).max(2);
    let warmup_days = args.u64("warmup", 1).min(days - 1);
    let world = organic_world(args.scale(Scale::Small), days, args.u64("seed", 2019));
    // `--term-only 1` feeds nothing and just delivers TERM, so a
    // harness can scrape a daemon it fed earlier with `--no-term 1`
    // and still shut it down cleanly afterwards.
    let feed_end = if args.get("term-only").is_some_and(|v| v != "0") {
        SimTime::from_days(warmup_days)
    } else {
        SimTime::from_days(days)
    };
    let feed_range = TimeRange::new(SimTime::from_days(warmup_days), feed_end);

    let cfg = feed_config(args, warmup_days);
    let summary =
        feed_world(&world, feed_range, &cfg, &WallClock).map_err(|e| format!("feed: {e}"))?;
    let mut out = String::new();
    writeln!(
        out,
        "feed done: batches={} offered={} admitted={} shed={} slow_downs={} abandoned={} terminated={}",
        summary.batches,
        summary.records_offered,
        summary.records_admitted,
        summary.records_shed,
        summary.slow_downs,
        summary.batches_abandoned,
        summary.terminated,
    )
    .unwrap();
    Ok(out)
}

/// One HTTP GET against a running daemon (default `/metrics`).
pub fn run_scrape(args: &Args) -> Result<String, String> {
    let addr = args.get("addr").unwrap_or(DEFAULT_HTTP_ADDR).to_string();
    let path = args.get("path").unwrap_or("/metrics").to_string();
    http_get(&addr, &path).map_err(|e| format!("scrape {addr}{path}: {e}"))
}

/// The daemon's ingest knobs: each flag overrides one field of
/// [`DaemonConfig::default`].
fn daemon_config(args: &Args) -> DaemonConfig {
    let (d, a) = (DaemonConfig::default(), AdmissionConfig::default());
    DaemonConfig {
        admission: AdmissionConfig {
            queue_cap_records: args.int("queue-cap", a.queue_cap_records),
            shed_watermark_records: args.int("shed-watermark", a.shed_watermark_records),
            per_loc_shed_cap: args.int("per-loc-shed-cap", a.per_loc_shed_cap),
            retry_after_secs: args.u64("retry-after", a.retry_after_secs),
        },
        overload_sustained_ticks: args
            .int("sustained-ticks", d.overload_sustained_ticks)
            .max(1),
    }
}

/// The feeder's knobs: each flag overrides one field of
/// [`FeedConfig::default`]; a `--surge-mult` above 1 adds a surge.
fn feed_config(args: &Args, warmup_days: u64) -> FeedConfig {
    let d = FeedConfig::default();
    let mult: u32 = args.int("surge-mult", 1).max(1);
    let surge = if mult > 1 {
        // Hours past the last bucket clamp to it: like hours past the
        // fed days, they surge nothing.
        let bucket = |hour: u64| {
            let b = hour.saturating_mul(BUCKETS_PER_HOUR.into());
            TimeBucket(u32::try_from(b).unwrap_or(u32::MAX))
        };
        let start_hour = args.u64("surge-start-hour", warmup_days * 24);
        let end_hour = start_hour.saturating_add(args.u64("surge-hours", 2).max(1));
        let (start, end) = (bucket(start_hour), bucket(end_hour).minus(1));
        SurgePlan::single(start, end, mult, args.u64("surge-seed", 0x5))
    } else {
        d.surge
    };
    FeedConfig {
        addr: args.get("addr").map_or(d.addr, str::to_string),
        surge,
        max_attempts: args.int("max-attempts", d.max_attempts).max(1),
        max_backoff_ms: args.u64("max-backoff-ms", d.max_backoff_ms),
        term: args.get("no-term").map_or(d.term, |v| v == "0"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse_from(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn no_flags_build_the_config_types_defaults() {
        let none = Args::default();
        let debug = |c: &dyn std::fmt::Debug| format!("{c:?}");
        assert_eq!(
            debug(&daemon_config(&none)),
            debug(&DaemonConfig::default())
        );
        assert_eq!(debug(&feed_config(&none, 1)), debug(&FeedConfig::default()));
    }

    #[test]
    fn flags_take_the_largest_value_their_field_holds() {
        let max = args(&[
            "--sustained-ticks",
            "4294967295",
            "--surge-mult",
            "4294967295",
        ]);
        assert_eq!(daemon_config(&max).overload_sustained_ticks, 0xFFFF_FFFF);
        let surge = feed_config(&max, 1).surge;
        assert_eq!(
            surge.multiplier_at(TimeBucket(24 * BUCKETS_PER_HOUR)),
            0xFFFF_FFFF
        );
        // 4e8 hours × 12 buckets wrapped a `u32` to bucket 505 032 704.
        let past = args(&["--surge-mult", "2", "--surge-start-hour", "400000000"]);
        let surge = feed_config(&past, 1).surge;
        assert_eq!(surge.multiplier_at(TimeBucket(505_032_704)), 1);
        assert_eq!(surge.multiplier_at(TimeBucket(u32::MAX)), 1);
    }

    #[test]
    #[should_panic(expected = "--sustained-ticks must fit in 32 bits, got 4294967296")]
    fn a_watchdog_threshold_past_u32_is_refused() {
        daemon_config(&args(&["--sustained-ticks", "4294967296"]));
    }

    #[test]
    #[should_panic(expected = "--surge-mult must fit in 32 bits, got 4294967297")]
    fn a_surge_multiplier_past_u32_is_refused() {
        let _ = feed_config(&args(&["--surge-mult", "4294967297"]), 1);
    }
}
