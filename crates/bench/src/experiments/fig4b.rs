//! Figure 4b: CDF of problem impact when ⟨cloud location, BGP path⟩
//! tuples are ranked by (a) problematic IP-/24 count vs (b) true
//! impact (affected clients × duration).
//!
//! Paper shape: ranked by IP space, the top 60% of tuples cover ~80%
//! of cumulative impact; ranked by impact, only ~20% are needed — a
//! ~3× difference that motivates impact-proportional probing.

use crate::{fmt, Args, Scale};
use blameit_baselines::{
    cumulative_impact_curve, rank_by_impact, rank_by_prefix_count, tuples_needed_for_coverage,
};
use blameit_simnet::TimeRange;

pub fn run(args: &Args) {
    let seed = args.u64("seed", 2019);
    let days = args.u64("days", 3);
    let scale = args.scale(Scale::Small);

    fmt::banner(
        "Figure 4b",
        "CDF of problem impact under two rankings of <location, BGP path>",
    );
    let world = crate::organic_world(scale, days, seed);
    let records = blameit_baselines::impact_records(&world, TimeRange::days(days));
    println!("middle-segment issues with footprints: {}", records.len());

    let mut by_impact = records.clone();
    rank_by_impact(&mut by_impact);
    let mut by_prefix = records;
    rank_by_prefix_count(&mut by_prefix);

    fmt::cdf(
        "ranked by problem impact (clients × duration)",
        &cumulative_impact_curve(&by_impact),
        20,
    );
    fmt::cdf(
        "ranked by problematic IP-/24 count",
        &cumulative_impact_curve(&by_prefix),
        20,
    );

    let need_impact = tuples_needed_for_coverage(&by_impact, 0.8);
    let need_prefix = tuples_needed_for_coverage(&by_prefix, 0.8);
    println!();
    println!(
        "tuples needed for 80% impact: by-impact {} vs by-prefix-count {}  [paper: ~20% vs ~60%]",
        fmt::pct(need_impact),
        fmt::pct(need_prefix)
    );
    let ratio = need_prefix / need_impact.max(1e-9);
    println!(
        "advantage {:.1}×  [paper: ~3×] → {}",
        ratio,
        if ratio > 1.5 {
            "HOLDS"
        } else {
            "check impact skew"
        }
    );
}
