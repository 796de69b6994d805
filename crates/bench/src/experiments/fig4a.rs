//! Figure 4a: CDF of bad-RTT incident persistence (consecutive 5-min
//! buckets) within a day.
//!
//! Paper shape: long-tailed — over 60% of issues last ≤ 5 minutes
//! (one bucket) while ~8% last over 2 hours.

use crate::{fmt, Args, Scale};
use blameit::{Backend, BadnessThresholds, IncidentTracker, WorldBackend, MIN_SAMPLES};
use blameit_simnet::TimeRange;
use blameit_topology::{CloudLocId, Prefix24};

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 1);
    let scale = args.scale(Scale::Small);

    fmt::banner(
        "Figure 4a",
        "Persistence of bad-RTT incidents (5-min buckets)",
    );
    let world = crate::organic_world(scale, days, seed);
    let thresholds = BadnessThresholds::default_for(&world);
    let backend = WorldBackend::new(&world);
    let topo = world.topology();

    // Track runs of consecutive bad buckets per ⟨/24, location, device⟩.
    let mut tracker: IncidentTracker<(Prefix24, CloudLocId, bool)> = IncidentTracker::new();
    let mut durations: Vec<f64> = Vec::new();
    for bucket in TimeRange::days(days).buckets() {
        let bad_keys: Vec<_> = backend
            .quartets_in(bucket)
            .into_iter()
            .filter(|q| q.n >= MIN_SAMPLES)
            .filter(|q| {
                let c = topo.client(q.p24).expect("known client");
                q.mean_rtt_ms > thresholds.get(c.region, q.mobile)
            })
            .map(|q| (q.p24, q.loc, q.mobile))
            .collect();
        for inc in tracker.observe(bucket, bad_keys) {
            durations.push(inc.buckets as f64);
        }
    }
    for inc in tracker.finish() {
        durations.push(inc.buckets as f64);
    }

    let cdf = blameit::stats::ecdf(&durations);
    fmt::cdf("incident persistence (buckets of 5 min)", &cdf, 25);

    let le_1 = blameit::stats::fraction(&durations, |d| *d <= 1.0);
    let ge_24 = blameit::stats::fraction(&durations, |d| *d >= 24.0);
    println!();
    println!("incidents observed: {}", durations.len());
    println!("≤ 5 min (1 bucket): {}   [paper: >60%]", fmt::pct(le_1));
    println!("≥ 2 h (24 buckets): {}   [paper: ~8%]", fmt::pct(ge_24));
    println!(
        "long-tail shape: {}",
        if le_1 > 0.45 && ge_24 < 0.2 && ge_24 > 0.005 {
            "HOLDS"
        } else {
            "check fault-duration calibration"
        }
    );
}
