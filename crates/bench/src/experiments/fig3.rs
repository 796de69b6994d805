//! Figure 3: % bad quartets by the hour over one week — USA overall
//! (top) and two contrasting ISPs (bottom).
//!
//! Paper shape: a clear diurnal pattern with badness *higher at night*
//! than during work hours (off-work traffic comes from home ISPs, not
//! well-provisioned enterprise networks); weekends flatten the
//! pattern; different ISPs show different variance.

use crate::{fmt, Args, Scale};
use blameit::{Backend, BadnessThresholds, WorldBackend, MIN_SAMPLES};
use blameit_simnet::time::BUCKETS_PER_HOUR;
use blameit_simnet::TimeRange;
use blameit_topology::{Asn, Region};
use std::collections::HashMap;

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 7);
    let scale = args.scale(Scale::Small);

    fmt::banner(
        "Figure 3",
        "% bad quartets by hour over a week (USA; two ISPs)",
    );
    let world = crate::organic_world(scale, days, seed);
    let thresholds = BadnessThresholds::default_for(&world);
    let backend = WorldBackend::new(&world);
    let topo = world.topology();

    // Pick two contrasting US broadband ISPs: the one with the highest
    // enterprise share vs the one with the lowest.
    let mut ent_share: HashMap<Asn, (u64, u64)> = HashMap::new();
    for c in &topo.clients {
        if c.region == Region::UnitedStates && !c.mobile {
            let e = ent_share.entry(c.origin).or_default();
            e.1 += 1;
            if c.enterprise {
                e.0 += 1;
            }
        }
    }
    let mut isps: Vec<(Asn, f64)> = ent_share
        .iter()
        .filter(|(_, (_, tot))| *tot >= 8)
        .map(|(a, (e, t))| (*a, *e as f64 / *t as f64))
        .collect();
    isps.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let isp1 = isps.first().map(|x| x.0);
    let isp2 = isps.last().map(|x| x.0);

    let hours = (days * 24) as usize;
    let mut usa = vec![(0u64, 0u64); hours];
    let mut s1 = vec![(0u64, 0u64); hours];
    let mut s2 = vec![(0u64, 0u64); hours];
    for bucket in TimeRange::days(days).buckets() {
        let hour = (bucket.0 / BUCKETS_PER_HOUR) as usize;
        for q in backend.quartets_in(bucket) {
            if q.n < MIN_SAMPLES {
                continue;
            }
            let c = topo.client(q.p24).expect("known client");
            if c.region != Region::UnitedStates {
                continue;
            }
            let bad = q.mean_rtt_ms > thresholds.get(c.region, q.mobile);
            let tally = |v: &mut Vec<(u64, u64)>| {
                v[hour].1 += 1;
                if bad {
                    v[hour].0 += 1;
                }
            };
            tally(&mut usa);
            if Some(c.origin) == isp1 {
                tally(&mut s1);
            }
            if Some(c.origin) == isp2 {
                tally(&mut s2);
            }
        }
    }

    let pct = |(bad, tot): (u64, u64)| {
        if tot == 0 {
            0.0
        } else {
            100.0 * bad as f64 / tot as f64
        }
    };
    println!("hour  usa-bad%  isp1-bad%  isp2-bad%   (isp1 = enterprise-heavy {:?}, isp2 = home-heavy {:?})", isp1, isp2);
    for h in 0..hours {
        println!(
            "{:>4}  {:>8.2}  {:>9.2}  {:>9.2}",
            h,
            pct(usa[h]),
            pct(s1[h]),
            pct(s2[h])
        );
    }

    // Shape checks: night (local US evening ≈ 00–06 UTC next day) vs
    // work hours. us-east local evening 19–23 ≈ UTC 00–04.
    let day_frac = |v: &[(u64, u64)], lo: usize, hi: usize| {
        let mut bad = 0;
        let mut tot = 0;
        for (h, cell) in v.iter().enumerate().take(hours) {
            if (lo..hi).contains(&(h % 24)) {
                bad += cell.0;
                tot += cell.1;
            }
        }
        if tot == 0 {
            0.0
        } else {
            100.0 * bad as f64 / tot as f64
        }
    };
    let night = day_frac(&usa, 0, 6); // UTC 00–06 ≈ US evening/night
    let work = day_frac(&usa, 14, 22); // UTC 14–22 ≈ US work hours
    println!();
    println!("paper shape: nights worse than work hours.");
    println!(
        "US-evening window bad% {night:.2} vs work-hours bad% {work:.2} → {}",
        if night > work { "HOLDS" } else { "check model" }
    );
    // Weekend flattening (the paper's ISP1 loses its diurnal pattern
    // between hours 48–96): compare within-day variance of the USA
    // series on weekdays vs the weekend.
    if days >= 7 {
        let day_variance = |d0: usize, d1: usize| {
            let vals: Vec<f64> = (d0 * 24..d1 * 24).map(|h| pct(usa[h])).collect();
            blameit::stats::variance(&vals).unwrap_or(0.0)
        };
        // Epoch is a Monday: weekend = days 5–6.
        let weekday_var = day_variance(0, 5);
        let weekend_var = day_variance(5, 7);
        println!(
            "within-day variance weekdays {weekday_var:.2} vs weekend {weekend_var:.2} → diurnal pattern {} on weekends",
            if weekend_var < weekday_var { "flattens" } else { "does not flatten" }
        );
    }
}
