//! §4.1 empirical insights validation.
//!
//! * **Insight-1**: typically a single segment dominates an RTT
//!   inflation — the paper found one segment contributing ≥80% of the
//!   inflation in 93% of traceroute-observed instances.
//! * **Insight-2**: a smaller failure set is likelier than a larger
//!   one — when all RTTs to a location go bad it is (in ~98% of
//!   incidents) one cloud fault, not many coincident client faults.

use crate::{fmt, Args, Scale};
use blameit::{Backend, BadnessThresholds, WorldBackend, MIN_SAMPLES};
use blameit_simnet::{FaultTarget, TimeRange};
use std::collections::HashMap;

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 3);
    let stride = args.u64("stride", 4) as usize;
    let scale = args.scale(Scale::Small);

    fmt::banner("§4.1", "Empirical insights behind Algorithm 1");
    let world = crate::organic_world(scale, days, seed);
    let thresholds = BadnessThresholds::default_for(&world);
    let backend = WorldBackend::new(&world);
    let topo = world.topology();

    // Insight-1: dominance of the largest single cause among inflated
    // (bad) quartets with material ground-truth inflation.
    let mut inflated = 0u64;
    let mut dominated = 0u64;
    // Insight-2: of (location, bucket) aggregates with ≥80% bad /24s,
    // how many are explained by a *single* failure (one cloud fault or
    // one shared middle fault) rather than many coincident client
    // faults — the smaller-failure-set prior.
    let mut wide_bad = 0u64;
    let mut wide_bad_single = 0u64;
    let mut wide_bad_cloud = 0u64;

    for (i, bucket) in TimeRange::days(days).buckets().enumerate() {
        if i % stride != 0 {
            continue;
        }
        let mut per_loc: HashMap<_, (u64, u64)> = HashMap::new();
        for q in backend.quartets_in(bucket) {
            if q.n < MIN_SAMPLES {
                continue;
            }
            let c = topo.client(q.p24).expect("known client");
            let bad = q.mean_rtt_ms > thresholds.get(c.region, q.mobile);
            let e = per_loc.entry(q.loc).or_default();
            e.1 += 1;
            if bad {
                e.0 += 1;
            }
            if bad {
                let gt = world.ground_truth(q.loc, c, bucket.mid());
                if gt.total_inflation_ms() >= 5.0 {
                    inflated += 1;
                    if gt.dominant_fraction >= 0.8 {
                        dominated += 1;
                    }
                }
            }
        }
        // lint:allow(unordered-iteration): the body only bumps the three wide_bad* counters; no per-location output escapes
        for (loc, (bad, total)) in per_loc {
            if total >= 20 && bad as f64 / total as f64 >= 0.8 {
                wide_bad += 1;
                let mut cloud_active = false;
                let mut single_non_client = false;
                for f in world.faults().active_at(bucket.mid()) {
                    match f.target {
                        FaultTarget::CloudLocation(l) if l == loc => {
                            cloud_active = true;
                            single_non_client = true;
                        }
                        FaultTarget::MiddleAs { .. } => single_non_client = true,
                        _ => {}
                    }
                }
                if cloud_active {
                    wide_bad_cloud += 1;
                }
                if single_non_client {
                    wide_bad_single += 1;
                }
            }
        }
    }

    println!("bad quartets with material inflation sampled: {inflated}");
    let i1 = if inflated == 0 {
        0.0
    } else {
        dominated as f64 / inflated as f64
    };
    println!(
        "Insight-1: single cause ≥80% of inflation in {}  [paper: 93%] → {}",
        fmt::pct(i1),
        if i1 > 0.8 {
            "HOLDS"
        } else {
            "check fault overlap rates"
        }
    );
    println!();
    println!("location-wide badness events (≥80% of ≥20 /24s bad): {wide_bad}");
    let i2 = if wide_bad == 0 {
        1.0
    } else {
        wide_bad_single as f64 / wide_bad as f64
    };
    let i2c = if wide_bad == 0 {
        0.0
    } else {
        wide_bad_cloud as f64 / wide_bad as f64
    };
    println!(
        "Insight-2: explained by one shared (cloud/middle) failure in {}  [paper: 98%] → {}",
        fmt::pct(i2),
        if i2 > 0.85 { "HOLDS" } else { "check" }
    );
    println!("  (a cloud fault specifically: {})", fmt::pct(i2c));
}
