//! Figure 2: fraction (%) of quartets whose average RTT was bad, by
//! region, split mobile / non-mobile.
//!
//! Paper shape: badness is widely distributed across *all* regions for
//! both device classes; less-developed regions trend higher; the USA
//! is surprisingly high because its RTT targets are aggressive.

use crate::{fmt, Args, Scale};
use blameit::{Backend, BadnessThresholds, WorldBackend, MIN_SAMPLES};
use blameit_simnet::TimeRange;
use blameit_topology::Region;

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 2);
    let scale = args.scale(Scale::Small);

    fmt::banner("Figure 2", "% bad quartets by region (mobile / non-mobile)");
    let world = crate::organic_world(scale, days, seed);
    let thresholds = BadnessThresholds::default_for(&world);
    let backend = WorldBackend::new(&world);
    let topo = world.topology();

    // counts[region][mobile] = (bad, total); per-location tallies for
    // the §2.2 "one-third of locations have ≥13% bad quartets" check.
    let mut counts = [[(0u64, 0u64); 2]; Region::ALL.len()];
    let mut per_loc: std::collections::HashMap<_, (u64, u64)> = std::collections::HashMap::new();
    for bucket in TimeRange::days(days).buckets() {
        for q in backend.quartets_in(bucket) {
            if q.n < MIN_SAMPLES {
                continue;
            }
            let c = topo.client(q.p24).expect("known client");
            let cell = &mut counts[c.region.index()][usize::from(q.mobile)];
            cell.1 += 1;
            let bad = q.mean_rtt_ms > thresholds.get(c.region, q.mobile);
            if bad {
                cell.0 += 1;
            }
            let l = per_loc.entry(q.loc).or_default();
            l.1 += 1;
            if bad {
                l.0 += 1;
            }
        }
    }

    println!(
        "{:>14} {:>16} {:>16}",
        "region", "non-mobile bad%", "mobile bad%"
    );
    let mut usa_nm = 0.0;
    let mut others_nm: Vec<f64> = Vec::new();
    for r in Region::ALL {
        let row = counts[r.index()];
        let pct = |(bad, tot): (u64, u64)| {
            if tot == 0 {
                0.0
            } else {
                100.0 * bad as f64 / tot as f64
            }
        };
        let nm = pct(row[0]);
        let mb = pct(row[1]);
        println!("{:>14} {:>15.2}% {:>15.2}%", r.label(), nm, mb);
        if r == Region::UnitedStates {
            usa_nm = nm;
        } else {
            others_nm.push(nm);
        }
    }
    println!();
    let mean_others = others_nm.iter().sum::<f64>() / others_nm.len() as f64;
    println!("paper shape: every region shows non-negligible badness; the USA is");
    println!("elevated despite good infrastructure (aggressive targets).");
    println!(
        "USA non-mobile {usa_nm:.2}% vs other-region mean {mean_others:.2}% → USA elevated: {}",
        if usa_nm > mean_others {
            "HOLDS"
        } else {
            "check thresholds"
        }
    );
    // §2.2: "one-third of the cloud locations have at least 13% bad
    // quartets".
    let locs_over_13 = per_loc
        .values()
        .filter(|(bad, tot)| *tot >= 100 && *bad as f64 / *tot as f64 >= 0.13)
        .count();
    let frac = locs_over_13 as f64 / per_loc.len().max(1) as f64;
    println!(
        "locations with ≥13% bad quartets: {}  [paper: ~1/3 of locations]",
        fmt::pct(frac)
    );
}
