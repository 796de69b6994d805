//! Figure 9: blame fractions for one day, split across six regions.
//!
//! Paper shape: middle-segment issues dominate in India, China and
//! Brazil (still-evolving transit networks) relative to mature regions
//! like the USA; "insufficient"/"ambiguous" are a visible share.

use crate::{fmt, warmed_engine, Args, Scale};
use blameit::{tally_by_region, Blame, WorldBackend};
use blameit_topology::Region;

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let warmup_days = args.u64("warmup", 2);
    // The paper snapshots one day; at simulation scale a single day
    // holds only a handful of middle faults per region, so the default
    // widens to 3 days for a stable regional picture (override with
    // --eval 1 for the literal one-day view).
    let eval_days = args.u64("eval", 3);
    let scale = args.scale(Scale::Small);

    fmt::banner(
        "Figure 9",
        "Blame fractions by region (paper: one day; see --eval)",
    );
    let world = crate::organic_world(scale, warmup_days + eval_days, seed);
    let mut backend = WorldBackend::new(&world);
    let (mut engine, eval) = warmed_engine(
        &world,
        &backend,
        |_| {},
        warmup_days,
        2,
        warmup_days + eval_days,
    );

    let mut blames = Vec::new();
    for out in engine.run(&mut backend, eval) {
        blames.extend(out.blames);
    }

    let by_region = tally_by_region(&blames);
    let regions = [
        Region::India,
        Region::China,
        Region::Brazil,
        Region::UnitedStates,
        Region::Europe,
        Region::Australia,
    ];
    println!(
        "{:>12} {:>8} {:>8} {:>8} {:>10} {:>12} {:>8}",
        "region", "cloud%", "middle%", "client%", "ambiguous%", "insufficient%", "n"
    );
    let mut middle_fracs = Vec::new();
    for r in regions {
        let c = by_region.get(&r).cloned().unwrap_or_default();
        println!(
            "{:>12} {:>8.2} {:>8.2} {:>8.2} {:>10.2} {:>12.2} {:>8}",
            r.label(),
            100.0 * c.fraction(Blame::Cloud),
            100.0 * c.fraction(Blame::Middle),
            100.0 * c.fraction(Blame::Client),
            100.0 * c.fraction(Blame::Ambiguous),
            100.0 * c.fraction(Blame::Insufficient),
            c.total()
        );
        middle_fracs.push(c.fraction(Blame::Middle));
    }
    println!();
    // India/China/Brazil vs USA/Europe/Australia middle dominance.
    let immature = (middle_fracs[0] + middle_fracs[1] + middle_fracs[2]) / 3.0;
    let mature = (middle_fracs[3] + middle_fracs[4] + middle_fracs[5]) / 3.0;
    println!(
        "mean middle fraction: IN/CN/BR {} vs US/EU/AU {} → middle-heavy immature transit: {}",
        fmt::pct(immature),
        fmt::pct(mature),
        if immature > mature {
            "HOLDS"
        } else {
            "check fault-rate scaling"
        }
    );
}
