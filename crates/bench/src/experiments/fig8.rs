//! Figure 8: blame fractions worldwide over one month.
//!
//! Paper shape: fractions are stable day to day; middle slightly above
//! client; cloud generally < 4% — except a spike around day 24 caused
//! by scheduled maintenance, which we reproduce by injecting cloud
//! maintenance faults on day 24.

use crate::{fmt, warmed_engine, Args, Scale};
use blameit::{tally_by_day, Blame, WorldBackend};
use blameit_simnet::{Fault, FaultId, FaultTarget, SimTime};

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 30);
    let warmup_days = args.u64("warmup", 2).min(days.saturating_sub(1));
    let scale = args.scale(Scale::Small);

    fmt::banner(
        "Figure 8",
        "Blame fractions over one month (maintenance on day 24)",
    );
    let mut world = crate::organic_world(scale, days, seed);

    // Scheduled maintenance: several cloud locations degraded for a few
    // hours on day 24 (matching the paper's day-24 cloud spike).
    if days > 24 {
        let locs: Vec<_> = world
            .topology()
            .cloud_locations
            .iter()
            .map(|l| l.id)
            .collect();
        let maintenance: Vec<Fault> = locs
            .iter()
            .take(8)
            .enumerate()
            .map(|(i, loc)| Fault {
                id: FaultId(0),
                target: FaultTarget::CloudLocation(*loc),
                start: SimTime::from_days(24) + (i as u64) * 1800,
                duration_secs: 4 * 3600,
                added_ms: 60.0,
            })
            .collect();
        world.add_faults(maintenance);
    }

    let mut backend = WorldBackend::new(&world);
    let (mut engine, eval) = warmed_engine(&world, &backend, |_| {}, warmup_days, 2, days);

    let mut all_blames = Vec::new();
    for out in engine.run(&mut backend, eval) {
        all_blames.extend(out.blames);
    }

    let by_day = tally_by_day(&all_blames);
    println!(
        "{:>4} {:>8} {:>8} {:>8} {:>10} {:>12} {:>8}",
        "day", "cloud%", "middle%", "client%", "ambiguous%", "insufficient%", "n"
    );
    let mut days_sorted: Vec<_> = by_day.keys().copied().collect();
    days_sorted.sort();
    let mut cloud_day24 = 0.0;
    let mut cloud_other: Vec<f64> = Vec::new();
    for d in days_sorted {
        let c = &by_day[&d];
        println!(
            "{:>4} {:>8.2} {:>8.2} {:>8.2} {:>10.2} {:>12.2} {:>8}",
            d,
            100.0 * c.fraction(Blame::Cloud),
            100.0 * c.fraction(Blame::Middle),
            100.0 * c.fraction(Blame::Client),
            100.0 * c.fraction(Blame::Ambiguous),
            100.0 * c.fraction(Blame::Insufficient),
            c.total()
        );
        if d == 24 {
            cloud_day24 = c.fraction(Blame::Cloud);
        } else {
            cloud_other.push(c.fraction(Blame::Cloud));
        }
    }
    println!();
    let overall = blameit::tally(&all_blames);
    println!("overall: {overall}");
    if !cloud_other.is_empty() && days > 24 {
        let mean_other = cloud_other.iter().sum::<f64>() / cloud_other.len() as f64;
        println!(
            "day-24 cloud fraction {} vs other-day mean {} → maintenance spike: {}",
            fmt::pct(cloud_day24),
            fmt::pct(mean_other),
            if cloud_day24 > 2.0 * mean_other {
                "HOLDS"
            } else {
                "check"
            }
        );
    }
    println!(
        "middle ≥ client overall: {}   cloud small: {}",
        if overall.fraction(Blame::Middle) >= overall.fraction(Blame::Client) {
            "HOLDS"
        } else {
            "INVERTED"
        },
        if overall.fraction(Blame::Cloud) < 0.10 {
            "HOLDS"
        } else {
            "check"
        }
    );
}
