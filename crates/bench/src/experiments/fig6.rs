//! Figure 6: CDF of the number of other IP /24s sharing the same
//! middle segment (within a 5-minute window) under three definitions —
//! BGP prefix, BGP atom, and BGP path.
//!
//! Paper shape: BGP path ≥ BGP atom ≥ BGP prefix in sharing, which is
//! why BlameIt groups by BGP path: more RTT samples per aggregate at
//! no loss of path fidelity.

use crate::{fmt, Args, Scale};
use blameit::{enrich_bucket, BadnessThresholds, MiddleGrouping, WorldBackend};
use blameit_simnet::TimeBucket;
use std::collections::HashMap;

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let scale = args.scale(Scale::Small);
    // A busy mid-week bucket.
    let bucket = TimeBucket(args.int("bucket", 2 * 288 + 150));

    fmt::banner(
        "Figure 6",
        "CDF of /24s sharing a middle segment (prefix / atom / path)",
    );
    let world = crate::organic_world(scale, 3, seed);
    let backend = WorldBackend::new(&world);
    // Classification irrelevant here; use permissive thresholds.
    let quartets = enrich_bucket(&backend, bucket, &BadnessThresholds::uniform(1e9));
    println!("quartets in {bucket}: {}", quartets.len());

    let mut means = Vec::new();
    for grouping in [
        MiddleGrouping::BgpPrefix,
        MiddleGrouping::BgpAtom,
        MiddleGrouping::BgpPath,
    ] {
        let mut sizes: HashMap<_, u64> = HashMap::new();
        for q in &quartets {
            // Count distinct (p24, loc) members per group.
            *sizes.entry((grouping.key(&q.info), q.obs.loc)).or_default() += 1;
        }
        // Per-/24 view: for each quartet, how many *others* share it.
        let sharing: Vec<f64> = quartets
            .iter()
            .map(|q| (sizes[&(grouping.key(&q.info), q.obs.loc)] - 1) as f64)
            .collect();
        let cdf = blameit::stats::ecdf(&sharing);
        fmt::cdf(grouping.label(), &cdf, 15);
        let mean = blameit::stats::mean(&sharing).unwrap_or(0.0);
        println!(
            "    mean co-sharers under {}: {:.1}",
            grouping.label(),
            mean
        );
        means.push(mean);
    }

    println!();
    println!(
        "paper shape: path ≥ atom ≥ prefix in samples per aggregate → {}",
        if means[2] >= means[1] && means[1] >= means[0] {
            "HOLDS"
        } else {
            "check grouping"
        }
    );
}
